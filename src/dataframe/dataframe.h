// DataFrame: the in-memory relation the whole pipeline operates on.

#ifndef CCS_DATAFRAME_DATAFRAME_H_
#define CCS_DATAFRAME_DATAFRAME_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "dataframe/column.h"
#include "dataframe/schema.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"
#include "linalg/vector.h"

namespace ccs::dataframe {

/// A recipe for one (possibly derived) column of a DerivedViewFor
/// view: a named source column read through unchanged, or a computed
/// column over named numeric inputs. The expression is evaluated
/// lazily, block-by-block, by the linalg::internal::Eval*Column
/// kernels as view-walking consumers (Gram, scoring, mat-mul) touch
/// it — nothing is materialized. See docs/architecture.md, "Derived
/// columns".
struct ColumnExpr {
  /// The named numeric column, read through unchanged (zero-copy).
  static ColumnExpr Source(std::string name);
  /// (column - shift) / divide — the StandardScaler transform shape.
  static ColumnExpr Scale(std::string name, double shift, double divide);
  /// a * b elementwise — polynomial square (a == b) or cross term.
  static ColumnExpr Product(std::string a, std::string b);
  /// sum_k (*weights)[k] * columns[k], accumulated in ascending k — a
  /// projection. `weights` is borrowed (like the view it builds): it
  /// must hold exactly columns.size() entries and outlive any view
  /// built from this expression.
  static ColumnExpr Combine(std::vector<std::string> columns,
                            const std::vector<double>* weights);

  linalg::ColumnOp op = linalg::ColumnOp::kSource;
  /// Named numeric inputs: 1 for Source/Scale, 2 for Product, n for
  /// Combine.
  std::vector<std::string> inputs;
  double shift = 0.0;
  double divide = 1.0;
  const std::vector<double>* weights = nullptr;
};

/// A column-oriented table with a typed schema.
///
/// Columns are appended via AddNumericColumn / AddCategoricalColumn; all
/// columns must have equal length (checked). Row-subset operations
/// (Filter/Slice/Gather/Sample/PartitionBy) return zero-copy *views*:
/// the result shares the source's immutable column buffers and carries a
/// row-index selection vector, so a subset costs O(selected rows) index
/// entries, never a cell copy. Views are plain DataFrames — every
/// accessor resolves through the selection — and they keep the shared
/// buffers alive, so a view may outlive the frame it was taken from.
/// Materialize() flattens a view into owned contiguous buffers for the
/// rare caller that needs them (Concat does this internally).
class DataFrame {
 public:
  DataFrame() = default;

  /// Appends a numeric column. Fails if the name exists or the length
  /// disagrees with existing columns.
  Status AddNumericColumn(const std::string& name,
                          std::vector<double> values);

  /// Appends a categorical column under the same rules.
  Status AddCategoricalColumn(const std::string& name,
                              std::vector<std::string> values);

  /// Appends an already-built column (possibly sharing another frame's
  /// buffers) under the same rules.
  Status AddColumn(const std::string& name, Column column);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Column lookup by name.
  StatusOr<const Column*> ColumnByName(const std::string& name) const;

  /// Numeric value at (row, column-name). Fails if the column is missing
  /// or categorical, or the row is out of range.
  StatusOr<double> NumericValue(size_t row, const std::string& name) const;

  /// Categorical value at (row, column-name).
  StatusOr<std::string> CategoricalValue(size_t row,
                                         const std::string& name) const;

  /// The numeric attributes of row `row`, in schema order of the numeric
  /// columns (the "tuple" the conformance machinery evaluates).
  linalg::Vector NumericRow(size_t row) const;

  /// All numeric columns as an owned n x m_N matrix (schema order):
  /// NumericViewFor(NumericNames()) materialized by MatrixView::ToMatrix,
  /// for callers that need an owned copy (model fitting, baselines'
  /// projection loops). Kernels walk the view instead.
  linalg::Matrix NumericMatrix() const;

  /// Selected columns (all must be numeric) as a non-owning n x k
  /// columnar view, built in O(k) without copying cell data — the bulk
  /// input of every numeric kernel (scoring, Gram accumulation); call
  /// ToMatrix() on it for an owned copy. The view borrows this frame's
  /// buffers and selection vectors: it is valid only while this frame
  /// is alive and must not outlive it.
  StatusOr<linalg::MatrixView> NumericViewFor(
      const std::vector<std::string>& names) const;

  /// The row-subset variant: logical rows `rows` (in the given order,
  /// repeats allowed) of the selected columns, still O(k) and zero-copy
  /// — the per-case view the batched disjunctive scorer walks. Row
  /// indices are validated up front; the view additionally borrows
  /// `rows`, which must outlive it.
  StatusOr<linalg::MatrixView> NumericViewFor(
      const std::vector<std::string>& names,
      const std::vector<size_t>& rows) const;

  /// Deleted: a temporary row list would leave the returned view
  /// holding a dangling pointer (the view borrows `rows`, it does not
  /// copy it). Bind the rows to a named vector that outlives the view.
  StatusOr<linalg::MatrixView> NumericViewFor(
      const std::vector<std::string>& names,
      std::vector<size_t>&& rows) const = delete;

  /// A lazy n x exprs.size() view whose columns are the given
  /// expressions over this frame's numeric columns — scaling,
  /// polynomial terms, and projections composed without materializing
  /// anything. Still O(exprs + inputs) to build and zero-copy: derived
  /// cells are computed on demand by one CCS_NOINLINE kernel per op as
  /// kernels walk the view. Borrows this frame's buffers and any
  /// Combine weights; all must outlive the view.
  StatusOr<linalg::MatrixView> DerivedViewFor(
      const std::vector<ColumnExpr>& exprs) const;

  /// The row-subset variant (the per-partition / per-window case).
  /// Row indices are validated up front; the view additionally borrows
  /// `rows`, which must outlive it.
  StatusOr<linalg::MatrixView> DerivedViewFor(
      const std::vector<ColumnExpr>& exprs,
      const std::vector<size_t>& rows) const;

  /// Deleted for the same dangling-rows reason as NumericViewFor.
  StatusOr<linalg::MatrixView> DerivedViewFor(
      const std::vector<ColumnExpr>& exprs,
      std::vector<size_t>&& rows) const = delete;

  /// Names of numeric / categorical columns in schema order.
  std::vector<std::string> NumericNames() const;
  std::vector<std::string> CategoricalNames() const;

  /// Rows for which `predicate(row_index)` is true, as a zero-copy view.
  DataFrame Filter(const std::function<bool(size_t)>& predicate) const;

  /// Rows [begin, end), as a zero-copy view.
  DataFrame Slice(size_t begin, size_t end) const;

  /// The rows at `indices`, in the given order (repeats allowed), as a
  /// zero-copy view. Indices are logical rows of this frame (which may
  /// itself be a view; selections compose).
  DataFrame Gather(const std::vector<size_t>& indices) const;

  /// True when any column is a view (carries a selection vector).
  bool is_view() const;

  /// A frame with the same rows in owned, contiguous, selection-free
  /// buffers. Cheap (shared) when nothing is a view.
  DataFrame Materialize() const;

  /// `k` rows sampled uniformly without replacement; k is clamped to
  /// num_rows().
  DataFrame Sample(size_t k, Rng* rng) const;

  /// Row-wise concatenation; schemas must match exactly. The result is
  /// materialized (fresh flat buffers), never a view.
  StatusOr<DataFrame> Concat(const DataFrame& other) const;

  /// Splits on a categorical attribute: value -> sub-DataFrame view
  /// (paper §4.2 partitioning step). Groups on integer dictionary codes
  /// (no string hashing); each partition is a zero-copy view whose rows
  /// keep their original order. Fails if the attribute is not
  /// categorical.
  StatusOr<std::map<std::string, DataFrame>> PartitionBy(
      const std::string& attribute) const;

  /// A copy without the named columns (e.g. dropping the prediction
  /// target before constraint synthesis). Missing names are errors.
  StatusOr<DataFrame> DropColumns(const std::vector<std::string>& names) const;

  /// A copy with only the named columns, in the given order.
  StatusOr<DataFrame> SelectColumns(
      const std::vector<std::string>& names) const;

  /// Human-readable summary: per-column type, count, and basic stats.
  std::string Describe() const;

 private:
  Status CheckNewColumn(const std::string& name, size_t length) const;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace ccs::dataframe

#endif  // CCS_DATAFRAME_DATAFRAME_H_

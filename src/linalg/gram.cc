#include "linalg/gram.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"

namespace ccs::linalg {

GramAccumulator::GramAccumulator(size_t num_attributes)
    : m_(num_attributes), n_(0), sum_(num_attributes + 1, num_attributes + 1) {}

void GramAccumulator::AccumulateRowTerms(const double* row) {
  // Augmented tuple is (1, t0, ..., t_{m-1}); accumulate its outer
  // product. Every ingest path funnels here, so the per-entry term
  // order — the determinism contract's summation tree leaf — has
  // exactly one definition.
  sum_.At(0, 0) += 1.0;
  for (size_t i = 0; i < m_; ++i) {
    double v = row[i];
    sum_.At(0, i + 1) += v;
    sum_.At(i + 1, 0) += v;
    for (size_t j = i; j < m_; ++j) {
      double prod = v * row[j];
      sum_.At(i + 1, j + 1) += prod;
      if (j != i) sum_.At(j + 1, i + 1) += prod;
    }
  }
  ++n_;
}

void GramAccumulator::Add(const Vector& tuple) {
  CCS_CHECK_EQ(tuple.size(), m_);
  AccumulateRowTerms(tuple.data().data());
}

void GramAccumulator::AccumulateShard(const MatrixView& data,
                                      size_t row_begin, size_t row_end) {
  if (row_begin == row_end) return;
  // Late materialization in cache-sized blocks: gather rows into reused
  // scratch, then run the SAME compiled term kernel per-row Add()
  // uses. No full-size Matrix is allocated/zeroed/re-read, and the
  // bits are identical by construction: copying cells preserves them,
  // and a single shared kernel sidesteps the one divergence source
  // term-order reasoning cannot close — two structurally identical
  // kernels compiled with different FP operand orderings propagate
  // different NaN payloads (observed with GCC on the mirror writes).
  std::vector<double> scratch(
      std::min(row_end - row_begin, kViewGatherBlockRows) * m_);
  for (size_t b = row_begin; b < row_end; b += kViewGatherBlockRows) {
    const size_t e = std::min(row_end, b + kViewGatherBlockRows);
    data.GatherBlock(b, e, scratch.data());
    for (size_t r = 0; r < e - b; ++r) {
      AccumulateRowTerms(scratch.data() + r * m_);
    }
  }
}

void GramAccumulator::AddView(const MatrixView& data) {
  CCS_CHECK_EQ(data.cols(), m_);
  const size_t n = data.rows();
  const size_t shards = (n + kGramShardRows - 1) / kGramShardRows;
  if (shards <= 1) {
    AccumulateShard(data, 0, n);
    return;
  }
  // Shard boundaries depend only on n, so the summation tree — partials
  // built row-by-row, folded in ascending shard index — is the same at
  // every thread count. Only shard EXECUTION is scheduled dynamically.
  std::vector<GramAccumulator> partials(shards, GramAccumulator(m_));
  common::ParallelFor(
      shards,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          partials[s].AccumulateShard(
              data, s * kGramShardRows, std::min(n, (s + 1) * kGramShardRows));
        }
      },
      common::ParallelOptions{/*num_threads=*/0, /*min_chunk=*/1});
  for (const GramAccumulator& partial : partials) {
    CCS_CHECK(Merge(partial).ok());
  }
}

Status GramAccumulator::Merge(const GramAccumulator& other) {
  if (other.m_ != m_) {
    return Status::InvalidArgument(
        "GramAccumulator::Merge: attribute count mismatch");
  }
  sum_.AddInPlace(other.sum_);
  n_ += other.n_;
  return Status::OK();
}

Status GramAccumulator::RestoreState(const Matrix& sum, int64_t count) {
  if (sum.rows() != m_ + 1 || sum.cols() != m_ + 1) {
    return Status::InvalidArgument(
        "GramAccumulator::RestoreState: sum must be (m+1) x (m+1)");
  }
  if (count < 0) {
    return Status::InvalidArgument(
        "GramAccumulator::RestoreState: negative count");
  }
  sum_ = sum;
  n_ = count;
  return Status::OK();
}

Matrix GramAccumulator::AugmentedGram() const { return sum_; }

Matrix GramAccumulator::Gram() const {
  Matrix out(m_, m_);
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) out.At(i, j) = sum_.At(i + 1, j + 1);
  }
  return out;
}

Vector GramAccumulator::Means() const {
  CCS_CHECK_GT(n_, 0);
  Vector mu(m_);
  for (size_t i = 0; i < m_; ++i) {
    mu[i] = sum_.At(0, i + 1) / static_cast<double>(n_);
  }
  return mu;
}

Matrix GramAccumulator::Covariance() const {
  CCS_CHECK_GT(n_, 0);
  Vector mu = Means();
  Matrix cov(m_, m_);
  double n = static_cast<double>(n_);
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      cov.At(i, j) = sum_.At(i + 1, j + 1) / n - mu[i] * mu[j];
    }
  }
  return cov;
}

}  // namespace ccs::linalg

// Seeded violations for the matrix-materialize rule: ToMatrix() or
// NumericMatrix() under src/core/ or src/stream/ rebuilds a per-call
// Matrix in the hot synthesize→score layers, which walk zero-copy
// NumericViewFor / DerivedViewFor views instead.
// ccs-lint-fixture-path: src/core/matrix_materialize.cc

namespace fixture {

template <typename Frame>
int MaterializesTheView(const Frame& df) {
  return df.NumericViewFor(1).ToMatrix();  // EXPECT-LINT: matrix-materialize
}

template <typename Frame>
int MaterializesTheFrame(const Frame& df) {
  return df.NumericMatrix();  // EXPECT-LINT: matrix-materialize
}

template <typename Frame>
int ColdCallerWithReason(const Frame& df) {
  // ccs-lint: allow(matrix-materialize): fixture demonstrating the
  // escape hatch for a genuinely cold caller
  return df.NumericMatrix();
}

template <typename Frame>
int WalksTheViewInstead(const Frame& df) {
  // Mentions in comments do not count: ToMatrix() / NumericMatrix().
  return df.NumericViewFor(3).rows();
}

}  // namespace fixture

// Int8 quantized GEMM — the §9 serving-path counterpart of tensor/gemm:
// "neural network quantization methods can also be applied to store single
// bytes instead of floating-point numbers for each dimension". This module
// lets the serving tier *score* on those bytes directly instead of
// round-tripping through f32.
//
// QuantizedMatrix is an int8 affine encoding of a float Matrix:
//
//   v ≈ scale(r) * (q - zero_point(r))
//
// with either one (scale, zero_point) pair for the whole tensor (weights,
// stored hidden states) or one pair per row (activations). Per-row scaling
// is what keeps batching bit-transparent: a row's encoding depends only on
// that row, so a [B x d] quantized product row equals the same row scored
// alone — the invariant the batched serving path and the batched == single
// parity tests rely on. Weights use the symmetric special case (zero_point 0,
// q in [-127, 127]) whose rules match the HiddenStateStore int8 codec
// exactly; one-sided activations (ReLU outputs) use the full affine form
// for an extra bit of resolution.
//
// qgemm computes C = dequant(A) * dequant(B) through an int8 x int8 -> i32
// kernel (blocked: same tiles / 4-row micro-kernel as the f32 kernel; simd:
// the AVX2 kernel in qgemm_avx2.cpp), on the calling thread. Integer
// accumulation is exact, so naive == blocked == simd bit-for-bit with no
// ±0 caveats. B is a QuantizedWeights: per-tensor
// symmetric, with everything derived from its bytes (the SIMD panel, the
// column sums) built once at construction, never per call. A zero points
// are folded in afterwards via the standard column-sum correction:
//
//   C_ij = sa(i) * sb * (acc_ij - za(i) * colsum_B(j)).
//
// i32 accumulators bound the shared dimension at k < 2^31 / 127^2 ≈ 133k,
// far above any layer width here.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace pp::tensor {

class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;
  /// Zeroed [rows x cols] with per-row scales of 1 and zero points of 0 —
  /// the assembly buffer for a batch of stored per-user states (fill
  /// row_data / set_row_scale per row).
  QuantizedMatrix(std::size_t rows, std::size_t cols);

  /// Per-tensor symmetric quantization: scale = max finite |v| / 127
  /// (1 when all entries are zero), q = clamp(round-to-nearest(v / scale),
  /// ±127); NaN encodes as 0 and ±Inf saturates. These are exactly the
  /// HiddenStateStore int8 codec rules (single source of truth).
  static QuantizedMatrix quantize(const Matrix& m);
  /// Per-row symmetric: the same rules applied row-wise.
  static QuantizedMatrix quantize_rows(const Matrix& m);
  /// Per-row affine: the row range (nudged to include 0) maps onto
  /// [-128, 127] with a per-row zero point. Reconstruction error is
  /// bounded by scale(r) instead of scale(r)/2 (zero-point rounding), but
  /// the scale itself is ~2x finer on one-sided rows.
  static QuantizedMatrix quantize_rows_affine(const Matrix& m);

  /// Wraps already-quantized bytes (the stored-state read path: no f32
  /// pass). Per-tensor symmetric with the given scale.
  static QuantizedMatrix from_raw(std::size_t rows, std::size_t cols,
                                  float scale, std::vector<std::int8_t> data);

  Matrix dequantize() const;
  /// dequant of one element: scale(r) * (q - zero_point(r)).
  float dequant(std::size_t r, std::size_t c) const {
    return scale(r) * static_cast<float>(
                          static_cast<std::int32_t>(data_[r * cols_ + c]) -
                          zero_point(r));
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  float scale(std::size_t r = 0) const {
    return scales_[scales_.size() == 1 ? 0 : r];
  }
  std::int32_t zero_point(std::size_t r = 0) const {
    return zero_points_[zero_points_.size() == 1 ? 0 : r];
  }
  bool per_tensor() const noexcept { return scales_.size() <= 1; }
  bool symmetric() const;

  const std::int8_t* data() const noexcept { return data_.data(); }
  std::int8_t* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const std::int8_t* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }
  const std::vector<std::int8_t>& storage() const noexcept { return data_; }
  void set_row_scale(std::size_t r, float scale);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> data_;
  /// One entry (per-tensor) or rows entries (per-row).
  std::vector<float> scales_{1.0f};
  std::vector<std::int32_t> zero_points_{0};
};

/// The B operand of qgemm: a per-tensor symmetric int8 weight matrix,
/// prepared once (at model load) for every product it feeds. Besides the
/// bytes it owns their vpmaddubsw panel (gemm_simd.hpp layout; built only
/// where the SIMD kernel can run) and their column sums (the affine-A
/// zero-point correction). All three are fixed at construction, so a
/// weight change means building a new QuantizedWeights.
class QuantizedWeights {
 public:
  QuantizedWeights() = default;
  /// Throws std::invalid_argument unless `q` is per-tensor symmetric.
  explicit QuantizedWeights(QuantizedMatrix q);

  const QuantizedMatrix& matrix() const noexcept { return q_; }
  std::size_t rows() const noexcept { return q_.rows(); }
  std::size_t cols() const noexcept { return q_.cols(); }
  float scale() const { return q_.scale(); }
  /// colsum(j) = sum_p q[p][j].
  const std::vector<std::int32_t>& col_sums() const noexcept {
    return col_sums_;
  }
  /// The packed SIMD panel, or nullptr where the SIMD kernel cannot take
  /// this matrix (no AVX2 here, or k past its accumulator bound).
  const unsigned char* panel() const noexcept {
    return panel_.empty() ? nullptr : panel_.data();
  }

 private:
  QuantizedMatrix q_;
  std::vector<std::int32_t> col_sums_;
  std::vector<unsigned char> panel_;
};

/// C[m x n] = dequant(A[m x k]) * dequant(B[k x n]) via the int8 kernel.
Matrix qgemm(const QuantizedMatrix& a, const QuantizedWeights& b);

// ---- raw i32 kernels (exposed for parity tests and benches) ----
// c[m x n] += a[m x k] * b[k x n] over int8 operands with int32
// accumulation, on the calling thread. `simd` takes B prepared as
// QuantizedWeights (k and n come from it) and runs the AVX2 kernel
// (qgemm_avx2.cpp) when B carries a panel, falling back to `blocked`
// otherwise — integer arithmetic is exact, so all three agree
// bit-for-bit.
void qgemm_nn_i32_naive(const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c, std::size_t m, std::size_t k,
                        std::size_t n);
void qgemm_nn_i32_blocked(const std::int8_t* a, const std::int8_t* b,
                          std::int32_t* c, std::size_t m, std::size_t k,
                          std::size_t n);
void qgemm_nn_i32_simd(const std::int8_t* a, const QuantizedWeights& b,
                       std::int32_t* c, std::size_t m);

}  // namespace pp::tensor

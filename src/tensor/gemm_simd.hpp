// Internal declarations of the AVX2/FMA micro-kernel range functions.
// Definitions live in gemm_avx2.cpp / qgemm_avx2.cpp — the only TUs in
// the tree compiled with -mavx2 -mfma (plus -ffp-contract=off, see the
// contraction contract in gemm.hpp). Callers MUST gate every call on
// gemm_simd_available() (tensor/cpu_dispatch.hpp): when the TUs are
// compiled without AVX2 support these functions abort, and when they are
// compiled with it they execute AVX2 instructions unconditionally.
//
// The f32 kernels implement the same per-element accumulation chains as
// the naive/blocked kernels (ascending p, separate mul+add rounding, and
// the per-(row, p) zero-skip), so their results are bit-identical — for
// finite and non-finite operands alike. The int8 kernel is exact integer
// arithmetic. Range signatures mirror the static *_range helpers in
// gemm.cpp, so a dispatcher calls either kind over rows [0, m).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pp::tensor::simd {

// nn: c[i0:i1, :] += a[i0:i1, :] * b, a is [m x k], b is [k x n].
void nn_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1);

// tn: c[i0:i1, :] += a[:, i0:i1]^T * b, a is [k x m], b is [k x n].
void tn_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m, std::size_t n, std::size_t i0,
                  std::size_t i1);

// nt: c[i0:i1, :] += a[i0:i1, :] * b^T, a is [m x k], b is [n x k].
void nt_f32_range(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1);

// int8 nn: c[i0:i1, :] += a[i0:i1, :] * b over int8 operands with exact
// i32 accumulation. `b` is the raw [k x n] weight bytes and `panel` the
// same weights packed once into the vpmaddubsw layout below; each A row
// reads whichever of the two suits its own sparsity (see qgemm_avx2.cpp).
// Exact for the full int8 range including -128; requires
// k <= kQGemmSimdMaxK.
void nn_i8i32_range(const std::int8_t* a, const std::int8_t* b,
                    const unsigned char* panel, std::int32_t* c,
                    std::size_t k, std::size_t n, std::size_t i0,
                    std::size_t i1);

// vpmaddubsw panel layout of a [k x n] int8 weight matrix (packed by
// QuantizedWeights in qgemm.cpp, read by nn_i8i32_range). Columns come in
// tiles of kQPanelCols, k in zero-padded quads of 4. Per tile, the lo
// halves of all kq quads come first, then the hi halves; one quad's half
// holds [column t][k-step s] at byte t * 4 + s. With bu = b ^ 0x80 (the
// unsigned swizzle), hi = bu >> 1 and lo = bu - hi; padding is 0.
constexpr std::size_t kQPanelCols = 16;
constexpr std::size_t kQPanelQuadBytes = kQPanelCols * 4;
constexpr std::size_t qpanel_tile_bytes(std::size_t k) {
  return 2 * ((k + 3) / 4) * kQPanelQuadBytes;
}
constexpr std::size_t qpanel_bytes(std::size_t k, std::size_t n) {
  return (n + kQPanelCols - 1) / kQPanelCols * qpanel_tile_bytes(k);
}

/// i32 accumulator headroom bound for the u8 x s8 kernel: the widened
/// A operand is at most 255 and |B| at most 128, so sums stay exact while
/// k * 255 * 128 < 2^31. (The scalar int8 kernels allow k < 2^31 / 127^2;
/// both bounds are far above any layer width here.)
constexpr std::size_t kQGemmSimdMaxK = (1u << 31) / (255u * 128u);

// --- quantization codec kernels (qgemm_avx2.cpp) ---------------------------
// Bit-exact vector forms of the scalar encode/decode loops in qgemm.cpp:
// identical rounding (nearbyint under the current mode), identical clamp
// and NaN handling, and order-independent max reductions, so forcing a
// kernel via PP_GEMM_FORCE_KERNEL never changes encoded bytes or scales.

// Max |v| over the finite entries of v[0..n) (0.0f when none).
float finite_max_abs_f32(const float* v, std::size_t n);

// Finite range of v[0..n): *hi = largest finite positive entry (or 0),
// *lo_mag = largest finite negative magnitude (or 0).
void finite_range_f32(const float* v, std::size_t n, float* hi,
                      float* lo_mag);

// out[j] = clamp(nearbyint(v[j] * inv_scale), -127, 127) as int8;
// NaN -> 0.
void quantize_symmetric_i8(const float* v, std::int8_t* out, std::size_t n,
                           float inv_scale);

// out[j] = clamp(nearbyint(v[j] * inv_scale) + zp, -128, 127) as int8;
// NaN -> zp.
void quantize_affine_i8(const float* v, std::int8_t* out, std::size_t n,
                        float inv_scale, std::int32_t zp);

// out[j] = scale * float(acc[j]) — the symmetric dequant epilogue.
void scale_i32_f32(const std::int32_t* acc, float* out, std::size_t n,
                   float scale);

}  // namespace pp::tensor::simd

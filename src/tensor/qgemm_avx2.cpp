// AVX2 int8 x int8 -> i32 GEMM micro-kernel — compiled with per-file
// -mavx2 -mfma like gemm_avx2.cpp.
//
// B is a weight matrix that arrives twice: as its raw bytes and as a
// vpmaddubsw panel packed once when the weights were built
// (QuantizedWeights, qgemm.cpp; layout in gemm_simd.hpp). Nothing is
// packed per call. Each A row picks one of two paths from its own
// nonzero pattern:
//
//  * Row path (isolated nonzeros: one-hot context rows). For each nonzero
//    a[p], 16 raw B bytes of row p are sign-extended to i16, multiplied
//    by the broadcast a[p] with vpmullw — exact, |a*b| <= 128*128 fits
//    i16 — widened to i32 and accumulated. Cost is one step per nonzero.
//  * Panel path (dense rows: stored hidden states, [crossed | x]). One
//    step per nonzero k-quad: a 4-byte A quad is broadcast against the
//    panel, so one 32-byte load feeds 8 output columns x 4 k-steps.
//
// A panel step costs about 1.3 row steps but covers up to four
// nonzeros, so a row takes the panel once its nonzeros share quads
// (plan_row holds the rule).
//
// vpmaddubsw multiplies UNSIGNED bytes by signed bytes. The unsigned
// operand is B, swizzled in the panel: bu = b ^ 0x80 (= b + 128), removed
// after the k loop with the exact per-row correction
// c[i][:] -= 128 * rowsum(a_i) — a single broadcast subtract, because
// sum_p (b[p][j] + 128) * a[i][p] differs from the true product by
// 128 * sum_p a[i][p] independent of j. Swizzling B instead of A keeps
// A-side sparsity cheap: a zero A byte contributes nothing to either the
// accumulator or the rowsum, so all-zero A quads are skipped.
//
// vpmaddubsw SATURATES its i16 pair sums, and with bu up to 255 and A
// down to -128 a pair sum reaches -65280 — far outside i16. To stay
// bit-exact for the full int8 range (the -128 edge case included), bu is
// split in the panel into two halves that are each <= 128:
//
//   bhi = bu >> 1   (<= 127),   blo = bu - bhi   (<= 128)
//
// and each half gets its own vpmaddubsw: worst-case pair sums are then
// 128*(-128)*2 = -32768 (exactly i16 min, representable) and
// 128*127*2 = 32512 — no saturation is possible, and
// (blo + bhi) * a == bu * a exactly in integer arithmetic. Each i16
// pair-sum vector is widened with vpmaddwd against ones and accumulated
// in i32, which is exact while k <= kQGemmSimdMaxK (gemm_simd.hpp).
// Zero padding is exact on both sides: a padded A byte is 0, so its
// product and rowsum term are 0 whatever the padded B byte holds.
//
// Multi-row blocks run tile-outer, rows-inner, so one 16-column tile of
// the panel (and of B) stays in L1 across the rows of a batch.
//
// Like gemm_avx2.cpp, this TU must not instantiate std:: templates
// (COMDAT symbols would carry AVX2 code into baseline TUs); scratch is
// raw new[]/delete[] and min() is a local helper.
#include "tensor/gemm_simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

namespace pp::tensor::simd {

namespace {

struct ByteScratch {
  unsigned char* data = nullptr;
  std::size_t cap = 0;
  ~ByteScratch() { delete[] data; }
  unsigned char* get(std::size_t n) {
    if (n > cap) {
      delete[] data;
      data = new unsigned char[n];
      cap = n;
    }
    return data;
  }
};

std::size_t min_sz(std::size_t a, std::size_t b) { return a < b ? a : b; }

/// The 4 A bytes of k-quad q in row `a_row`, zero-padded past k.
std::uint32_t a_quad(const std::int8_t* a_row, std::size_t q,
                     std::size_t k) {
  std::uint32_t quad = 0;
  const std::size_t p0 = q * 4;
  std::memcpy(&quad, a_row + p0, min_sz(std::size_t{4}, k - p0));
  return quad;
}

/// One A row's plan, built once and reused across every column tile.
/// `idx` lists the row's nonzero k indices (row path) or nonzero k-quads
/// (panel path), ascending either way.
struct RowPlan {
  std::uint32_t count;      // entries in idx; 0 = all-zero row
  std::uint32_t row_path;   // 1: per-p row path, 0: panel path
  std::int32_t corr;        // panel path: 128 * rowsum
  std::uint32_t last_quad;  // panel path: zero-padded final quad
};

/// Nonzero bytes in an A quad, and their signed sum.
std::uint32_t quad_nonzeros(std::uint32_t quad) {
  return static_cast<std::uint32_t>((quad & 0xffu) != 0) +
         static_cast<std::uint32_t>((quad & 0xff00u) != 0) +
         static_cast<std::uint32_t>((quad & 0xff0000u) != 0) +
         static_cast<std::uint32_t>((quad & 0xff000000u) != 0);
}
std::int32_t quad_sum(std::uint32_t quad) {
  return static_cast<std::int8_t>(quad) +
         static_cast<std::int8_t>(quad >> 8) +
         static_cast<std::int8_t>(quad >> 16) +
         static_cast<std::int8_t>(quad >> 24);
}

/// Fills `plan` and `idx` (room for k entries) for one A row.
void plan_row(const std::int8_t* a_row, std::size_t k, RowPlan* plan,
              std::uint32_t* idx) {
  const std::size_t kq = (k + 3) / 4;
  plan->last_quad = a_quad(a_row, kq - 1, k);
  std::uint32_t nnz = 0, quads = 0;
  std::int32_t rowsum = 0;
  for (std::size_t q = 0; q < kq; ++q) {
    std::uint32_t quad = plan->last_quad;
    if (q + 1 < kq) std::memcpy(&quad, a_row + q * 4, sizeof(quad));
    if (quad == 0) continue;
    idx[quads++] = static_cast<std::uint32_t>(q);
    nnz += quad_nonzeros(quad);
    rowsum += quad_sum(quad);
  }
  plan->corr = rowsum * 128;
  // Isolated nonzeros (fewer than 1.25 per nonzero quad) take the row
  // path: a panel step costs about 1.3 row steps.
  plan->row_path = 4 * nnz < 5 * quads ? 1u : 0u;
  plan->count = plan->row_path != 0 ? nnz : quads;
  if (plan->row_path == 0) return;
  // Expand the quad list into the ascending nonzero-p list in place,
  // back to front: quads 0..t hold at least t + 1 nonzeros, so quad t's
  // entries land at or after slot t, and slots before t still hold the
  // quads not yet expanded.
  std::uint32_t out = nnz;
  for (std::uint32_t t = quads; t-- > 0;) {
    const std::size_t p0 = std::size_t{idx[t]} * 4;
    for (std::size_t p = min_sz(k, p0 + 4); p-- > p0;) {
      if (a_row[p] != 0) idx[--out] = static_cast<std::uint32_t>(p);
    }
  }
}

/// Row path over one full 16-column tile at column j.
void row_tile(const std::int8_t* a_row, const std::uint32_t* nz,
              std::uint32_t count, const std::int8_t* b, std::size_t n,
              std::size_t j, std::int32_t* c_row) {
  __m256i acc0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c_row));
  __m256i acc1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c_row + 8));
  for (std::uint32_t t = 0; t < count; ++t) {
    const std::size_t p = nz[t];
    const __m256i va = _mm256_set1_epi16(static_cast<short>(a_row[p]));
    const __m128i bb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p * n + j));
    const __m256i prod = _mm256_mullo_epi16(_mm256_cvtepi8_epi16(bb), va);
    acc0 = _mm256_add_epi32(
        acc0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
    acc1 = _mm256_add_epi32(
        acc1, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row), acc0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + 8), acc1);
}

/// Panel path over one 16-column tile (`lo`/`hi`: the tile's panel
/// halves) of width jw. Four accumulators keep the add chains short.
void panel_tile(const std::int8_t* a_row, const RowPlan& plan,
                const std::uint32_t* quads, std::size_t kq,
                const unsigned char* lo, const unsigned char* hi,
                std::size_t jw, std::int32_t* c_row) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  for (std::uint32_t t = 0; t < plan.count; ++t) {
    const std::size_t q = quads[t];
    std::uint32_t quad;
    if (q + 1 == kq) {
      quad = plan.last_quad;
    } else {
      std::memcpy(&quad, a_row + q * 4, sizeof(quad));
    }
    const __m256i va = _mm256_set1_epi32(static_cast<std::int32_t>(quad));
    const unsigned char* l = lo + q * kQPanelQuadBytes;
    const unsigned char* h = hi + q * kQPanelQuadBytes;
    const __m256i b_lo0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(l));
    const __m256i b_lo1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(l + 32));
    const __m256i b_hi0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h));
    const __m256i b_hi1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 32));
    acc0 = _mm256_add_epi32(
        acc0, _mm256_madd_epi16(_mm256_maddubs_epi16(b_lo0, va), ones));
    acc1 = _mm256_add_epi32(
        acc1, _mm256_madd_epi16(_mm256_maddubs_epi16(b_lo1, va), ones));
    acc2 = _mm256_add_epi32(
        acc2, _mm256_madd_epi16(_mm256_maddubs_epi16(b_hi0, va), ones));
    acc3 = _mm256_add_epi32(
        acc3, _mm256_madd_epi16(_mm256_maddubs_epi16(b_hi1, va), ones));
  }
  const __m256i vcorr = _mm256_set1_epi32(plan.corr);
  acc0 = _mm256_sub_epi32(_mm256_add_epi32(acc0, acc2), vcorr);
  acc1 = _mm256_sub_epi32(_mm256_add_epi32(acc1, acc3), vcorr);
  if (jw == kQPanelCols) {
    __m256i* c0 = reinterpret_cast<__m256i*>(c_row);
    __m256i* c1 = reinterpret_cast<__m256i*>(c_row + 8);
    _mm256_storeu_si256(c0, _mm256_add_epi32(_mm256_loadu_si256(c0), acc0));
    _mm256_storeu_si256(c1, _mm256_add_epi32(_mm256_loadu_si256(c1), acc1));
    return;
  }
  alignas(32) std::int32_t tmp[kQPanelCols];
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acc1);
  for (std::size_t t = 0; t < jw; ++t) c_row[t] += tmp[t];
}

}  // namespace

void nn_i8i32_range(const std::int8_t* a, const std::int8_t* b,
                    const unsigned char* panel, std::int32_t* c,
                    std::size_t k, std::size_t n, std::size_t i0,
                    std::size_t i1) {
  if (i0 >= i1 || n == 0 || k == 0) return;
  const std::size_t kq = (k + 3) / 4;
  const std::size_t rows = i1 - i0;

  thread_local ByteScratch row_scratch;
  unsigned char* raw = row_scratch.get(
      rows * (sizeof(RowPlan) + k * sizeof(std::uint32_t)));
  RowPlan* plans = reinterpret_cast<RowPlan*>(raw);
  std::uint32_t* idx_base = reinterpret_cast<std::uint32_t*>(plans + rows);
  for (std::size_t r = 0; r < rows; ++r) {
    plan_row(a + (i0 + r) * k, k, plans + r, idx_base + r * k);
  }

  const std::size_t tile_bytes = qpanel_tile_bytes(k);
  for (std::size_t j = 0; j < n; j += kQPanelCols) {
    const std::size_t jw = min_sz(kQPanelCols, n - j);
    const unsigned char* lo = panel + j / kQPanelCols * tile_bytes;
    const unsigned char* hi = lo + kq * kQPanelQuadBytes;
    for (std::size_t r = 0; r < rows; ++r) {
      const RowPlan& plan = plans[r];
      if (plan.count == 0) continue;
      const std::int8_t* a_row = a + (i0 + r) * k;
      const std::uint32_t* idx = idx_base + r * k;
      std::int32_t* c_row = c + (i0 + r) * n + j;
      if (plan.row_path == 0) {
        panel_tile(a_row, plan, idx, kq, lo, hi, jw, c_row);
      } else if (jw == kQPanelCols) {
        row_tile(a_row, idx, plan.count, b, n, j, c_row);
      } else {
        // Partial tile: a 16-byte load would run past B's last row.
        for (std::uint32_t t = 0; t < plan.count; ++t) {
          const std::int32_t av = a_row[idx[t]];
          const std::int8_t* b_row = b + idx[t] * n + j;
          for (std::size_t s = 0; s < jw; ++s) c_row[s] += av * b_row[s];
        }
      }
    }
  }
}

// --- quantization codec kernels --------------------------------------------

namespace {

/// Reduce a ymm of (sign-stripped, non-finite-masked) magnitudes to the
/// max lane. Unsigned compares are unnecessary: magnitudes are < 2^31.
std::uint32_t hmax_epi32(__m256i v) {
  __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(m));
}

/// Pack 8 i32 lanes (already clamped into int8 range) to 8 bytes.
void store_i32x8_as_i8(std::int8_t* out, __m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i w = _mm_packs_epi32(lo, hi);       // 8 x i16
  const __m128i b = _mm_packs_epi16(w, _mm_setzero_si128());  // 8 x i8
  std::memcpy(out, &b, 8);
}

}  // namespace

float finite_max_abs_f32(const float* v, std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  __m256i vmax = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_castps_si256(_mm256_loadu_ps(v + i));
    const __m256i mag = _mm256_and_si256(bits, abs_mask);
    // keep = mag < inf_bits (signed compare is exact: both < 2^31)
    const __m256i keep = _mm256_cmpgt_epi32(inf_bits, mag);
    vmax = _mm256_max_epi32(vmax, _mm256_and_si256(mag, keep));
  }
  std::uint32_t max_bits = hmax_epi32(vmax);
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    bits &= 0x7fffffffu;
    if (bits < 0x7f800000u && bits > max_bits) max_bits = bits;
  }
  float out;
  std::memcpy(&out, &max_bits, sizeof(out));
  return out;
}

void finite_range_f32(const float* v, std::size_t n, float* hi,
                      float* lo_mag) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  __m256i vhi = _mm256_setzero_si256();
  __m256i vlo = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_castps_si256(_mm256_loadu_ps(v + i));
    const __m256i mag = _mm256_and_si256(bits, abs_mask);
    const __m256i keep = _mm256_cmpgt_epi32(inf_bits, mag);
    const __m256i neg = _mm256_srai_epi32(bits, 31);  // all-ones if v < 0
    const __m256i kept = _mm256_and_si256(mag, keep);
    vhi = _mm256_max_epi32(vhi, _mm256_andnot_si256(neg, kept));
    vlo = _mm256_max_epi32(vlo, _mm256_and_si256(neg, kept));
  }
  std::uint32_t hi_bits = hmax_epi32(vhi);
  std::uint32_t lo_bits = hmax_epi32(vlo);
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    const std::uint32_t mag = bits & 0x7fffffffu;
    if (mag >= 0x7f800000u) continue;
    if (bits >> 31) {
      if (mag > lo_bits) lo_bits = mag;
    } else {
      if (mag > hi_bits) hi_bits = mag;
    }
  }
  std::memcpy(hi, &hi_bits, sizeof(*hi));
  std::memcpy(lo_mag, &lo_bits, sizeof(*lo_mag));
}

void quantize_symmetric_i8(const float* v, std::int8_t* out, std::size_t n,
                           float inv_scale) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    // nearbyint under the current rounding mode, like the scalar codec.
    const __m256 r = _mm256_round_ps(
        _mm256_mul_ps(x, vinv),
        _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    // min/max pass NaN through from r (second operand is the constant),
    // matching std::clamp; the unord mask then forces those lanes to 0.
    const __m256 t = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
    const __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    __m256i q = _mm256_cvtps_epi32(t);
    q = _mm256_andnot_si256(_mm256_castps_si256(unord), q);
    store_i32x8_as_i8(out + i, q);
  }
  for (; i < n; ++i) {
    float t = v[i] * inv_scale;
    t = __builtin_nearbyintf(t);
    t = t < -127.0f ? -127.0f : (t > 127.0f ? 127.0f : t);
    out[i] = v[i] != v[i] ? std::int8_t{0} : static_cast<std::int8_t>(t);
  }
}

void quantize_affine_i8(const float* v, std::int8_t* out, std::size_t n,
                        float inv_scale, std::int32_t zp) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vzpf = _mm256_set1_ps(static_cast<float>(zp));
  const __m256 lo = _mm256_set1_ps(-128.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256i vzp = _mm256_set1_epi32(zp);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 r = _mm256_round_ps(
        _mm256_mul_ps(x, vinv),
        _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    const __m256 t =
        _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(r, vzpf), lo), hi);
    const __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    __m256i q = _mm256_cvtps_epi32(t);
    q = _mm256_blendv_epi8(q, vzp, _mm256_castps_si256(unord));
    store_i32x8_as_i8(out + i, q);
  }
  const float zpf = static_cast<float>(zp);
  for (; i < n; ++i) {
    float t = __builtin_nearbyintf(v[i] * inv_scale) + zpf;
    t = t < -128.0f ? -128.0f : (t > 127.0f ? 127.0f : t);
    out[i] = v[i] != v[i] ? static_cast<std::int8_t>(zp)
                          : static_cast<std::int8_t>(t);
  }
}

void scale_i32_f32(const std::int32_t* acc, float* out, std::size_t n,
                   float scale) {
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(f, vs));
  }
  for (; i < n; ++i) {
    out[i] = scale * static_cast<float>(acc[i]);
  }
}

}  // namespace pp::tensor::simd


#else  // !(__AVX2__ && __FMA__)

#include <cstdlib>

namespace pp::tensor::simd {

void nn_i8i32_range(const std::int8_t*, const std::int8_t*,
                    const unsigned char*, std::int32_t*, std::size_t,
                    std::size_t, std::size_t, std::size_t) {
  std::abort();
}

float finite_max_abs_f32(const float*, std::size_t) { std::abort(); }

void finite_range_f32(const float*, std::size_t, float*, float*) {
  std::abort();
}

void quantize_symmetric_i8(const float*, std::int8_t*, std::size_t, float) {
  std::abort();
}

void quantize_affine_i8(const float*, std::int8_t*, std::size_t, float,
                        std::int32_t) {
  std::abort();
}

void scale_i32_f32(const std::int32_t*, float*, std::size_t, float) {
  std::abort();
}

}  // namespace pp::tensor::simd

#endif

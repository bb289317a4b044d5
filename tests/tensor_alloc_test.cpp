// Steady-state allocation test for the GEMM entry points: once a warm-up
// call has sized the kernels' grow-only thread-local scratch, a product
// must not touch the heap. This binary replaces global operator new with
// a counting version; only the calls inside a measured window count, so
// gtest's own allocations outside it do not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::size_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pp::tensor {
namespace {

constexpr std::size_t kM = 8, kK = 96, kN = 48;
constexpr int kCalls = 100;

/// Heap allocations made by kCalls calls of `product` after one warm-up.
template <class Fn>
std::size_t steady_state_allocations(Fn&& product) {
  product();
  const std::size_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < kCalls; ++i) product();
  return g_news.load(std::memory_order_relaxed) - before;
}

std::vector<std::int8_t> random_int8(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  return v;
}

TEST(GemmAlloc, QGemmBlockedAllocatesNothing) {
  Rng rng(1);
  const auto a = random_int8(kM * kK, rng);
  const auto b = random_int8(kK * kN, rng);
  std::vector<std::int32_t> c(kM * kN, 0);
  EXPECT_EQ(steady_state_allocations([&] {
              qgemm_nn_i32_blocked(a.data(), b.data(), c.data(), kM, kK, kN);
            }),
            0u);
}

TEST(GemmAlloc, QGemmSimdAllocatesNothing) {
  Rng rng(2);
  const auto a = random_int8(kM * kK, rng);
  const QuantizedWeights b(
      QuantizedMatrix::from_raw(kK, kN, 1.0f, random_int8(kK * kN, rng)));
  std::vector<std::int32_t> c(kM * kN, 0);
  EXPECT_EQ(steady_state_allocations(
                [&] { qgemm_nn_i32_simd(a.data(), b, c.data(), kM); }),
            0u);
}

TEST(GemmAlloc, GemmAccumulateAllocatesNothing) {
  Rng rng(3);
  const Matrix a = Matrix::randn(kM, kK, rng);
  const Matrix b = Matrix::randn(kK, kN, rng);
  Matrix c(kM, kN);
  EXPECT_EQ(steady_state_allocations([&] { gemm_accumulate(a, b, c); }), 0u);
}

}  // namespace
}  // namespace pp::tensor

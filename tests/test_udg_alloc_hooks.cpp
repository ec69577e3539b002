// Largest-allocation probe used by the bounding-box guard in
// test_udg_builder.cpp. Lives in its own translation unit for the same
// reason as test_obs_alloc_hooks.cpp: the compiler must not see the
// malloc-backed operator new at container call sites. Replacing the
// global operator new is legal exactly once per program; this test
// binary owns it.

#include <atomic>
#include <cstdlib>
#include <new>

namespace mcds_test {
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace mcds_test

void* operator new(std::size_t n) {
  std::size_t seen = mcds_test::g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !mcds_test::g_largest_alloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

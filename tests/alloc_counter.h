#ifndef OASIS_TESTS_ALLOC_COUNTER_H_
#define OASIS_TESTS_ALLOC_COUNTER_H_

// Global operator new/delete replacements that count heap allocations and
// the bytes they request, for the zero-allocation hot-path and footprint
// tests. Counting is toggled around the measured region only, so unrelated
// gtest allocations don't interfere:
//
//   g_allocation_count.store(0);
//   g_count_allocations.store(true);
//   ... measured code ...
//   g_count_allocations.store(false);
//   EXPECT_EQ(g_allocation_count.load(), 0);
//
// g_allocated_bytes sums the sizes requested while counting is on (reset it
// the same way); frees are not subtracted.
//
// The replacements are definitions, not declarations: include this header
// from exactly one translation unit of a test binary (every tests/*_test.cc
// is its own binary).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};
std::atomic<int64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(static_cast<int64_t>(size),
                                std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) { return operator new(size); }

// Out of line, so GCC does not inline free() into `delete new T` call sites
// and misreport the pair as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

#endif  // OASIS_TESTS_ALLOC_COUNTER_H_

// Heap allocations of the occupancy grid: a grid is one word array, so
// copying one and drawing one are each a single allocation.
//
// This binary replaces the global operator new with a counting one. The
// sanitizers replace it themselves, so under ASan or TSan the replacement
// is left out and the cases skip.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "lattice/grid.hpp"
#include "loading/loader.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QRM_COUNTS_ALLOCATIONS 0
#else
#define QRM_COUNTS_ALLOCATIONS 1
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

#if QRM_COUNTS_ALLOCATIONS
// This operator new allocates with malloc, so free is the matching release;
// GCC cannot see that once it inlines these into the standard allocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace qrm {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(GridAllocations, CopyingAGridIsOneAllocation) {
  if (!QRM_COUNTS_ALLOCATIONS) GTEST_SKIP() << "a sanitizer owns operator new";
  for (const std::int32_t side : {1, 50, 64, 65, 256}) {
    const OccupancyGrid grid = load_random(side, side, {0.5, 7});
    bool same = false;
    EXPECT_EQ(allocations_of([&] {
                const OccupancyGrid copy = grid;
                same = copy == grid;
              }),
              1u)
        << side << "x" << side;
    EXPECT_TRUE(same);
  }
}

TEST(GridAllocations, LoadRandomIsOneAllocation) {
  if (!QRM_COUNTS_ALLOCATIONS) GTEST_SKIP() << "a sanitizer owns operator new";
  std::int64_t atoms = 0;
  for (const std::int32_t side : {1, 50, 64, 65, 256}) {
    EXPECT_EQ(allocations_of([&] { atoms += load_random(side, side, {0.5, 7}).atom_count(); }), 1u)
        << side << "x" << side;
  }
  EXPECT_GT(atoms, 0);
}

}  // namespace
}  // namespace qrm

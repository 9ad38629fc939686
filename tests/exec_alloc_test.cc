// Allocation guard for the relational executor: its intermediate join rows
// live in one flat table per plan part, so the number of heap allocations a
// query makes must not grow with the number of rows. This binary replaces
// the global operator new/delete to count calls (deterministic, unlike
// timing) and compares ExecuteBindings on documents with ~1k and ~10k
// matches.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "blas/blas.h"
#include "exec/executor.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

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

namespace blas {
namespace {

/// `<r>` holding `n` `<a>` elements, each with one `<b>` child and every
/// other one nested in an extra `<g>` wrapper (so `//a` is not a single
/// simple path).
std::string Document(int n) {
  std::string xml = "<r>";
  for (int i = 0; i < n; ++i) {
    xml += i % 2 == 0 ? "<a><b/></a>" : "<g><a><b/></a></g>";
  }
  return xml + "</r>";
}

/// Heap allocations made by one ExecuteBindings of `xpath` (after a warm-up
/// run, so the buffer pool already holds every page). Checks the plan has
/// `parts` parts and yields `n` bindings.
uint64_t AllocationsPerQuery(int n, const char* xpath, size_t parts) {
  BlasOptions options;
  options.cache_pages = 1 << 14;
  Result<BlasSystem> sys = BlasSystem::FromXml(Document(n), options);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  if (!sys.ok()) return 0;
  Result<ExecPlan> plan = sys->Plan(xpath, Translator::kPushUp);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return 0;
  EXPECT_EQ(plan->parts.size(), parts) << xpath;

  RelationalExecutor exec(&sys->store(), &sys->dict());
  ExecStats warm;
  EXPECT_TRUE(exec.ExecuteBindings(*plan, &warm).ok());

  ExecStats stats;
  const uint64_t before = g_allocations.load();
  Result<std::vector<DLabel>> bindings = exec.ExecuteBindings(*plan, &stats);
  const uint64_t after = g_allocations.load();
  EXPECT_TRUE(bindings.ok());
  if (bindings.ok()) {
    EXPECT_EQ(bindings->size(), static_cast<size_t>(n)) << xpath;
  }
  return after - before;
}

// Vector doubling from ~1k to ~10k entries adds about 3 allocations per
// growing buffer; a handful of buffers per part stays well under this.
constexpr uint64_t kSlack = 16;

TEST(ExecAllocTest, OnePartPlanAllocatesIndependentlyOfRows) {
  const uint64_t small = AllocationsPerQuery(1000, "//a/b", 1);
  const uint64_t large = AllocationsPerQuery(10000, "//a/b", 1);
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, small + kSlack) << "1k: " << small << ", 10k: " << large;
}

TEST(ExecAllocTest, TwoPartPlanAllocatesIndependentlyOfRows) {
  const uint64_t small = AllocationsPerQuery(1000, "//r//b", 2);
  const uint64_t large = AllocationsPerQuery(10000, "//r//b", 2);
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, small + kSlack) << "1k: " << small << ", 10k: " << large;
}

}  // namespace
}  // namespace blas

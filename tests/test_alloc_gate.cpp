// Allocation gate: heap allocations per shuffle fetch on a
// shuffle-heavy scene, counted by a replacing global operator new.
//
// Transfers keep their paths inline, take their fetch lists from a
// pooled slab and derive shuffle shares instead of storing them
// (DESIGN.md §5, "Transfer memory"), so a drive's allocations do not
// grow with its flows. Wall time on a shared host cannot see a slide
// back; this count can, and it is the same on every machine and build:
// the allocations of one seeded drive divided by the shuffle fetches
// its tracer saw. The bound sits between the count before transfers
// left the heap (14.8 per fetch) and the count after (1.8).
//
// The counting operator new lives in this binary only, so rcmp_tests
// keeps the sanitizer runtimes' own allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "obs/trace.hpp"
#include "workloads/presets.hpp"
#include "workloads/scenario.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The array and nothrow forms forward here, so one counter sees every
// allocation of default alignment. All three stay out of line: with one
// side inlined, GCC pairs malloc() or free() with the other side's
// operator and warns of a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rcmp {
namespace {

using namespace rcmp::literals;

// Bound on heap allocations per shuffle fetch; see the header comment.
constexpr double kMaxAllocationsPerFetch = 5.0;

TEST(AllocationGate, ShuffleFetchesStayOffTheHeap) {
  // Three jobs of the Fig. 8c DCO shape on 60 nodes in 3 racks, with a
  // node killed in job 3: cross-rack shuffles, recomputation and
  // split reducers.
  auto cfg = workloads::dco_config_nodes(60);
  cfg.chain_length = 3;
  cfg.per_node_input = 4_GiB;
  cfg.trace_capacity = std::size_t{1} << 20;
  workloads::Scenario sc(cfg);
  core::StrategyConfig strategy;
  strategy.strategy = core::Strategy::kRcmpSplit;
  cluster::FailurePlan plan;
  plan.at_job_ordinals = {3};

  const std::uint64_t before = g_allocations.load();
  const core::ChainResult result = sc.run(strategy, plan);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(result.completed);

  const obs::Tracer& tracer = sc.obs().tracer;
  ASSERT_EQ(tracer.dropped(), 0u);
  std::uint64_t fetches = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    fetches += ev.type == static_cast<std::uint8_t>(
                              obs::EventType::kShuffleFetch);
  }
  ASSERT_GT(fetches, 0u);
  const double per_fetch =
      static_cast<double>(allocations) / static_cast<double>(fetches);
  std::printf("allocations %llu, shuffle fetches %llu, per fetch %.2f\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(fetches), per_fetch);
  EXPECT_LT(per_fetch, kMaxAllocationsPerFetch);
}

}  // namespace
}  // namespace rcmp

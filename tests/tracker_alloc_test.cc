// Direct check of the tracker's zero-allocation steady state: this binary
// replaces the global operator new/delete with counting versions and counts
// the heap allocations of one full tracker cycle on a warmed tracker.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/vse_instance.h"
#include "query/parser.h"
#include "relational/database.h"
#include "solvers/damage_tracker.h"
#include "workload/path_schema.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace delprop {
namespace {

/// One steady-state cycle: rebind to the same plan, a marginal + delete
/// sweep over every candidate, a batch marginal pass into `marginals`
/// (reserved by the caller), undelete of every deleted base, and Reset.
double Cycle(DamageTracker& tracker, const VseInstance& instance,
             std::vector<double>* marginals) {
  tracker.Rebind(instance);
  const std::vector<uint32_t>& candidates = tracker.plan().candidate_bases();
  double fingerprint = 0.0;
  for (uint32_t base : candidates) {
    fingerprint += tracker.MarginalDamageBase(base);
    fingerprint += tracker.DeleteBase(base);
  }
  tracker.MarginalDamageAll(candidates, marginals);
  for (double m : *marginals) fingerprint += m;
  while (!tracker.DeletedBases().empty()) {
    tracker.UndeleteBase(tracker.DeletedBases().back());
  }
  tracker.Reset();
  return fingerprint;
}

/// Allocations of one cycle on a tracker warmed by a first cycle.
uint64_t SteadyStateAllocations(const VseInstance& instance) {
  DamageTracker tracker(instance);
  std::vector<double> marginals;
  marginals.reserve(tracker.plan().candidate_bases().size());
  double warm = Cycle(tracker, instance, &marginals);
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  double again = Cycle(tracker, instance, &marginals);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(warm, again);
  return after - before;
}

std::vector<int> g_sink;  // escapes, so the allocation cannot be elided

TEST(TrackerAllocTest, CountingAllocatorSeesAllocations) {
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  g_sink.reserve(g_sink.capacity() + 16);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 1u);
}

TEST(TrackerAllocTest, SteadyStateCycleAllocatesNothingOnPathLevel6) {
  Rng rng(5);
  PathSchemaParams params;
  params.levels = 6;
  params.roots = 3;
  params.fanout = 3;
  params.deletion_fraction = 0.25;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(SteadyStateAllocations(*generated->instance), 0u);
}

TEST(TrackerAllocTest, SteadyStateCycleAllocatesNothingAtFanIn65) {
  // Q(x) :- R(x, y), S(y) over ("h", y_i) / ("p", y_i) / S(y_i): two view
  // tuples with 65 witnesses each, past one alive word.
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 2, {0, 1}).ok());
  ASSERT_TRUE(db.AddRelation("S", 1, {0}).ok());
  for (int i = 0; i < 65; ++i) {
    std::string y = "y" + std::to_string(i);
    ASSERT_TRUE(db.InsertText(0, std::vector<std::string>{"h", y}).ok());
    ASSERT_TRUE(db.InsertText(0, std::vector<std::string>{"p", y}).ok());
    ASSERT_TRUE(db.InsertText(1, std::vector<std::string>{y}).ok());
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x) :- R(x, y), S(y)", db.schema(), db.dict());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Result<VseInstance> instance = VseInstance::Create(db, {&*q});
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  ASSERT_TRUE(instance->MarkForDeletionByValues(0, {"h"}).ok());
  ASSERT_EQ(instance->compiled()->max_witnesses_per_tuple(), 65u);
  EXPECT_EQ(SteadyStateAllocations(*instance), 0u);
}

}  // namespace
}  // namespace delprop

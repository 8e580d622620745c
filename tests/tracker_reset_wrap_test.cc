// DamageTracker::Reset is called once per local-search restart and, through
// Rebind, once per engine request, so a long-lived tracker sees billions of
// them. None of them may make an undeleted base read as deleted. Labelled
// `slow`: the 2^32 - 1 resets take tens of seconds in an optimised build.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "plan/compiled_instance.h"
#include "solvers/damage_tracker.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

TEST(TrackerResetWrapTest, NoBaseReadsDeletedAfterTwoToThe32Resets) {
  Rng rng(5);
  PathSchemaParams params;
  params.levels = 4;
  params.roots = 3;
  params.fanout = 3;
  params.deletion_fraction = 0.25;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const VseInstance& instance = *generated->instance;

  DamageTracker tracker(instance);
  for (uint64_t i = 0; i < 0xFFFFFFFFull; ++i) tracker.Reset();

  const std::vector<uint32_t>& candidates = tracker.plan().candidate_bases();
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(tracker.deleted_count(), 0u);
  for (uint32_t base : candidates) {
    EXPECT_FALSE(tracker.IsDeletedBase(base)) << "base " << base;
  }

  // And the tracker still behaves like a fresh one.
  DamageTracker fresh(instance);
  for (uint32_t base : candidates) {
    ASSERT_EQ(tracker.MarginalDamageBase(base), fresh.MarginalDamageBase(base))
        << "base " << base;
    ASSERT_EQ(tracker.DeleteBase(base), fresh.DeleteBase(base))
        << "base " << base;
    ASSERT_TRUE(tracker.IsDeletedBase(base));
  }
  EXPECT_EQ(tracker.killed_preserved_weight(), fresh.killed_preserved_weight());
  EXPECT_EQ(tracker.unkilled_deletion_count(), fresh.unkilled_deletion_count());
}

}  // namespace
}  // namespace delprop

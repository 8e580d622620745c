#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "query/parser.h"
#include "relational/database.h"
#include "solvers/damage_tracker.h"
#include "solvers/exact_solver.h"
#include "solvers/greedy_solver.h"
#include "solvers/kill_kernels.h"
#include "solvers/local_search_solver.h"
#include "testing/oracles.h"

namespace delprop {
namespace {

// ---------------------------------------------------------------------------
// Word primitives across the boundaries that matter: 63/64/65/127/128.
// ---------------------------------------------------------------------------

TEST(KernelPrimitivesTest, LowMaskBoundaries) {
  EXPECT_EQ(kernels::LowMask(0), 0u);
  EXPECT_EQ(kernels::LowMask(1), 1u);
  EXPECT_EQ(kernels::LowMask(63), ~0ull >> 1);
  EXPECT_EQ(kernels::LowMask(64), ~0ull);
}

TEST(KernelPrimitivesTest, ExtractBitsStraddlesWords) {
  // Bits 62..66 set across a 3-word array.
  uint64_t words[3] = {0, 0, 0};
  for (uint32_t bit : {62u, 63u, 64u, 65u, 66u}) {
    kernels::SetBit(words, bit);
  }
  EXPECT_EQ(kernels::ExtractBits(words, 62, 5), 0b11111u);
  EXPECT_EQ(kernels::ExtractBits(words, 63, 2), 0b11u);
  EXPECT_EQ(kernels::ExtractBits(words, 64, 3), 0b111u);
  EXPECT_EQ(kernels::ExtractBits(words, 60, 2), 0u);
  EXPECT_EQ(kernels::ExtractBits(words, 0, 64), 1ull << 62 | 1ull << 63);
  EXPECT_EQ(kernels::ExtractBits(words, 62, 0), 0u);
}

TEST(KernelPrimitivesTest, RangeOpsAtEveryWidth) {
  for (uint32_t width : {63u, 64u, 65u, 127u, 128u}) {
    for (uint32_t offset : {0u, 1u, 37u, 63u}) {
      std::vector<uint64_t> words((offset + width + 63) / 64 + 1, 0);
      EXPECT_TRUE(kernels::RangeIsZero(words.data(), offset, width));
      EXPECT_EQ(kernels::RangePopCount(words.data(), offset, width), 0u);
      // Set the first, middle, and last bit of the range.
      kernels::SetBit(words.data(), offset);
      kernels::SetBit(words.data(), offset + width / 2);
      kernels::SetBit(words.data(), offset + width - 1);
      EXPECT_FALSE(kernels::RangeIsZero(words.data(), offset, width));
      // The three markers collapse when width makes them coincide.
      uint32_t expected = width == 1 ? 1 : (width == 2 ? 2 : 3);
      EXPECT_EQ(kernels::RangePopCount(words.data(), offset, width), expected)
          << "width " << width << " offset " << offset;
      // Clearing the exact range leaves neighbors untouched.
      kernels::SetBit(words.data(), offset + width);  // sentinel past the end
      kernels::ClearRange(words.data(), offset, width);
      EXPECT_TRUE(kernels::RangeIsZero(words.data(), offset, width));
      EXPECT_TRUE(kernels::TestBit(words.data(), offset + width));
    }
  }
}

// ---------------------------------------------------------------------------
// Witness fan-in at the one-word boundary. Q(x) :- R(x, y), S(y) over rows
// ("h", y_i) / ("p", y_i) / S(y_i) yields two view tuples with `n` witnesses
// of two members each; the S rows are shared between them, so deleting S
// damages the preserved tuple while killing the ΔV one.
// ---------------------------------------------------------------------------

struct FanInCase {
  std::unique_ptr<Database> db;
  std::unique_ptr<ConjunctiveQuery> query;
  std::unique_ptr<VseInstance> instance;
  std::vector<TupleRef> s_rows;
  std::vector<TupleRef> r_rows;
};

FanInCase BuildFanIn(uint32_t n) {
  FanInCase c;
  c.db = std::make_unique<Database>();
  EXPECT_TRUE(c.db->AddRelation("R", 2, {0, 1}).ok());
  EXPECT_TRUE(c.db->AddRelation("S", 1, {0}).ok());
  for (uint32_t i = 0; i < n; ++i) {
    std::string y = "y" + std::to_string(i);
    Result<TupleRef> r =
        c.db->InsertText(0, std::vector<std::string>{"h", y});
    EXPECT_TRUE(r.ok());
    c.r_rows.push_back(*r);
    EXPECT_TRUE(c.db->InsertText(0, std::vector<std::string>{"p", y}).ok());
    Result<TupleRef> s = c.db->InsertText(1, std::vector<std::string>{y});
    EXPECT_TRUE(s.ok());
    c.s_rows.push_back(*s);
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x) :- R(x, y), S(y)", c.db->schema(), c.db->dict());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  c.query = std::make_unique<ConjunctiveQuery>(std::move(*q));
  Result<VseInstance> instance =
      VseInstance::Create(*c.db, {c.query.get()});
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  c.instance = std::make_unique<VseInstance>(std::move(*instance));
  EXPECT_TRUE(c.instance->MarkForDeletionByValues(0, {"h"}).ok());
  return c;
}

/// One tracker driven through a fan-in case, checked after every step
/// against a from-scratch recount (testing::DiffTrackerAgainstScratch) and
/// every marginal against the real delete it predicts; then the whole
/// tracker-vs-scratch op script. Past 64 witnesses every marginal goes
/// through the kernels' cold wide-tuple path.
void RunAgainstScratch(const FanInCase& c) {
  DamageTracker tracker(*c.instance);
  EXPECT_EQ(c.instance->compiled()->max_witnesses_per_tuple(),
            c.s_rows.size());
  auto agree = [&](const char* when) {
    ASSERT_EQ(testing::DiffTrackerAgainstScratch(*c.instance, tracker), "")
        << when;
  };
  agree("initial");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);

  // Kill via the shared S rows: the i-th delete hits witness i of both view
  // tuples; the final one kills both at once, with the preserved weight
  // crossing from 0 to 1 in that step.
  for (size_t i = 0; i < c.s_rows.size(); ++i) {
    double marginal = tracker.MarginalDamage(c.s_rows[i]);
    ASSERT_EQ(tracker.Delete(c.s_rows[i]), marginal) << "delete " << i;
    ASSERT_EQ(marginal, i + 1 == c.s_rows.size() ? 1.0 : 0.0) << i;
  }
  agree("all S deleted");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 0u);
  EXPECT_EQ(tracker.killed_preserved_weight(), 1.0);

  // All rows dead: every further marginal is zero, and no S row is
  // droppable (each is the sole deleted member of its witness pair).
  for (const TupleRef& r : c.r_rows) {
    ASSERT_EQ(tracker.MarginalDamage(r), 0.0);
  }
  const CompiledInstance& plan = tracker.plan();
  for (const TupleRef& s : c.s_rows) {
    uint32_t base = plan.FindBase(s);
    ASSERT_NE(base, CompiledInstance::kNpos);
    EXPECT_FALSE(tracker.CanDropBase(base));
  }

  // Undelete the even rows; the re-kill path must agree too.
  for (size_t i = 0; i < c.s_rows.size(); i += 2) {
    tracker.Undelete(c.s_rows[i]);
  }
  agree("half undeleted");
  for (size_t i = 0; i < c.s_rows.size(); i += 2) {
    double marginal = tracker.MarginalDamage(c.s_rows[i]);
    ASSERT_EQ(tracker.Delete(c.s_rows[i]), marginal) << "re-delete " << i;
  }
  agree("re-deleted");

  tracker.Reset();
  agree("after reset");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  EXPECT_EQ(tracker.killed_preserved_weight(), 0.0);

  std::vector<testing::OracleViolation> violations =
      testing::CheckKernelOracle(*c.instance);
  for (const testing::OracleViolation& v : violations) {
    ADD_FAILURE() << v.oracle << ": " << v.detail;
  }
}

TEST(KernelFanInTest, Width63) { RunAgainstScratch(BuildFanIn(63)); }
TEST(KernelFanInTest, Width64) { RunAgainstScratch(BuildFanIn(64)); }
TEST(KernelFanInTest, Width65) { RunAgainstScratch(BuildFanIn(65)); }
TEST(KernelFanInTest, Width127) { RunAgainstScratch(BuildFanIn(127)); }
TEST(KernelFanInTest, Width128) { RunAgainstScratch(BuildFanIn(128)); }
TEST(KernelFanInTest, Width129) { RunAgainstScratch(BuildFanIn(129)); }

/// The y indices whose S(y) row local search deletes on BuildFanIn(n); every
/// other y is covered by deleting R("h", y). Recorded from the solvers
/// before the wide-tuple kernels existed, when tuples past 64 witnesses
/// ran on a separate per-witness counter path.
const std::vector<uint32_t> kLocalSearchS65 = {
    3,  5,  6,  7,  16, 17, 18, 19, 20, 21, 23, 24, 25, 26, 30, 32,
    33, 35, 36, 38, 39, 40, 41, 42, 44, 45, 49, 50, 55, 57, 62};
const std::vector<uint32_t> kLocalSearchS128 = {
    3,   5,   6,   7,   16,  17,  18,  19,  20,  21,  23,  24,  25,  26,  30,
    32,  33,  35,  36,  38,  39,  40,  41,  42,  44,  45,  49,  50,  55,  57,
    62,  70,  72,  73,  74,  76,  80,  82,  84,  86,  87,  90,  91,  100, 101,
    102, 103, 106, 107, 108, 109, 110, 115, 118, 119, 121, 122, 124, 125, 127};

/// Expected sorted deletion: S(y) for y in `s_indices`, R("h", y) otherwise.
std::vector<TupleRef> FanInDeletion(const FanInCase& c,
                                    const std::vector<uint32_t>& s_indices) {
  std::vector<TupleRef> out;
  for (uint32_t y = 0; y < c.s_rows.size(); ++y) {
    bool via_s = std::find(s_indices.begin(), s_indices.end(), y) !=
                 s_indices.end();
    out.push_back(via_s ? c.s_rows[y] : c.r_rows[y]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(KernelFanInTest, SolversMatchAcrossKernelsAtBoundaryWidths) {
  for (uint32_t n : {65u, 128u}) {
    FanInCase c = BuildFanIn(n);
    const std::vector<uint32_t>& ls_s =
        n == 65 ? kLocalSearchS65 : kLocalSearchS128;
    GreedySolver greedy;
    LocalSearchSolver local_search;
    ExactSolver exact;
    struct Expected {
      VseSolver* solver;
      std::vector<TupleRef> deletion;
    };
    for (const Expected& e : {Expected{&greedy, FanInDeletion(c, {})},
                              Expected{&local_search, FanInDeletion(c, ls_s)},
                              Expected{&exact, FanInDeletion(c, {})}}) {
      Result<VseSolution> r = e.solver->Solve(*c.instance);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->deletion.Sorted(), e.deletion)
          << e.solver->name() << " at width " << n;
      EXPECT_EQ(r->Cost(), 0.0) << e.solver->name() << " at width " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Single-member witnesses: Q(x) :- R(x, y) gives every witness exactly one
// member, so each delete is a direct witness kill.
// ---------------------------------------------------------------------------

TEST(KernelSingleMemberTest, EachDeleteKillsExactlyOneWitness) {
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 2, {0, 1}).ok());
  std::vector<TupleRef> rows;
  for (uint32_t i = 0; i < 64; ++i) {
    Result<TupleRef> r = db.InsertText(
        0, std::vector<std::string>{"h", "y" + std::to_string(i)});
    ASSERT_TRUE(r.ok());
    rows.push_back(*r);
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x) :- R(x, y)", db.schema(), db.dict());
  ASSERT_TRUE(q.ok());
  Result<VseInstance> instance = VseInstance::Create(db, {&*q});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(instance->MarkForDeletionByValues(0, {"h"}).ok());

  DamageTracker tracker(*instance);
  uint32_t dense = tracker.plan().deletion_dense()[0];
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(tracker.dead_witness_count(dense), i);
    EXPECT_FALSE(tracker.IsKilledDense(dense));
    tracker.Delete(rows[i]);
    for (uint32_t w = 0; w <= i; ++w) {
      EXPECT_EQ(tracker.witness_hits(tracker.plan().tuple_witness_begin(
                    dense) + w),
                1u);
    }
  }
  EXPECT_TRUE(tracker.IsKilledDense(dense));
  EXPECT_EQ(tracker.unkilled_deletion_count(), 0u);
  // Undeleting any single row revives the tuple (its witness comes back).
  tracker.Undelete(rows[17]);
  EXPECT_FALSE(tracker.IsKilledDense(dense));
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  EXPECT_EQ(tracker.FirstUnhitWitness(dense),
            tracker.plan().tuple_witness_begin(dense) + 17);
}

// ---------------------------------------------------------------------------
// Regressions for the foreign-ref side list and the sparse reset.
// ---------------------------------------------------------------------------

TEST(KernelRegressionTest, ForeignRefsStayBoundedAndExact) {
  FanInCase c = BuildFanIn(8);
  DamageTracker tracker(*c.instance);
  size_t interned = tracker.deleted_count();
  ASSERT_EQ(interned, 0u);
  // Rows far past the stored relation: never interned, tracked on the
  // sorted side list. Insert out of order to exercise the sorted insert.
  std::vector<TupleRef> foreign;
  for (uint32_t i = 0; i < 100; ++i) {
    foreign.push_back(TupleRef{0, 100000 + ((i * 37) % 100)});
  }
  for (const TupleRef& ref : foreign) {
    EXPECT_FALSE(tracker.IsDeleted(ref));
    EXPECT_EQ(tracker.Delete(ref), 0.0);
    EXPECT_TRUE(tracker.IsDeleted(ref));
  }
  EXPECT_EQ(tracker.deleted_count(), 100u);
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);  // ΔV untouched
  // Undelete in a different order; membership stays exact throughout.
  for (uint32_t i = 0; i < 100; ++i) {
    TupleRef ref{0, 100000 + i};
    EXPECT_TRUE(tracker.IsDeleted(ref));
    tracker.Undelete(ref);
    EXPECT_FALSE(tracker.IsDeleted(ref));
  }
  EXPECT_EQ(tracker.deleted_count(), 0u);
}

TEST(KernelRegressionTest, ResetRestoresPristineStateSparselyAndAfterOverflow) {
  FanInCase c = BuildFanIn(32);
  DamageTracker tracker(*c.instance);
  DamageTracker fresh(*c.instance);
  auto expect_pristine = [&](const char* when) {
    const CompiledInstance& plan = tracker.plan();
    ASSERT_EQ(tracker.unkilled_deletion_count(),
              fresh.unkilled_deletion_count())
        << when;
    ASSERT_EQ(tracker.killed_preserved_weight(),
              fresh.killed_preserved_weight())
        << when;
    ASSERT_EQ(tracker.deleted_count(), 0u) << when;
    for (uint32_t w = 0; w < plan.witness_count(); ++w) {
      ASSERT_EQ(tracker.witness_hits(w), 0u) << when << " witness " << w;
    }
    for (uint32_t d = 0; d < plan.tuple_count(); ++d) {
      ASSERT_EQ(tracker.IsKilledDense(d), fresh.IsKilledDense(d))
          << when << " tuple " << d;
    }
  };

  // Sparse path: touch a handful of witnesses, well under the log caps.
  tracker.Delete(c.s_rows[3]);
  tracker.Delete(c.s_rows[7]);
  tracker.Reset();
  expect_pristine("sparse reset");

  // Overflow path: hammer one base through delete/undelete cycles — every
  // re-delete logs its witness transitions again, so the touch log
  // overflows and Reset must fall back to the full clear.
  for (int cycle = 0; cycle < 500; ++cycle) {
    tracker.Delete(c.s_rows[0]);
    tracker.Undelete(c.s_rows[0]);
  }
  for (const TupleRef& s : c.s_rows) tracker.Delete(s);
  tracker.Reset();
  expect_pristine("overflow reset");

  // Back-to-back reset on an untouched tracker is a no-op.
  tracker.Reset();
  expect_pristine("idle reset");
}

}  // namespace
}  // namespace delprop

// EvaluateDeletion walks only the deletion's neighbourhood (the deleted
// bases' kill rows plus ΔV). These tests compare it field by field, weights
// bitwise, with the full reference scan on the shapes the fuzz families never
// produce: several witnesses per view tuple, more than 64 of them, duplicate
// members from self-joins, refs outside every witness. The last test pins
// the walk's work counter at two database sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dp/side_effect.h"
#include "dp/vse_instance.h"
#include "query/parser.h"
#include "relational/database.h"
#include "testing/reference_eval.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

struct Case {
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<ConjunctiveQuery>> queries;
  std::unique_ptr<VseInstance> instance;
};

void AddQuery(Case& c, const std::string& text) {
  Result<ConjunctiveQuery> q = ParseQuery(text, c.db->schema(), c.db->dict());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  c.queries.push_back(std::make_unique<ConjunctiveQuery>(std::move(*q)));
}

void Materialize(Case& c) {
  std::vector<const ConjunctiveQuery*> ptrs;
  for (const auto& q : c.queries) ptrs.push_back(q.get());
  Result<VseInstance> instance = VseInstance::Create(*c.db, ptrs);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  c.instance = std::make_unique<VseInstance>(std::move(*instance));
  // Weights whose sums depend on the addition order, so a report that adds
  // in any order but ascending (view, tuple) differs in the last bits.
  for (size_t v = 0; v < c.instance->view_count(); ++v) {
    for (size_t t = 0; t < c.instance->view(v).size(); ++t) {
      double w = 0.1 + 1.0 / static_cast<double>(3 + 7 * v + t);
      ASSERT_TRUE(c.instance->SetWeight(ViewTupleId{v, t}, w).ok());
    }
  }
}

TupleRef Insert(Case& c, RelationId relation,
                const std::vector<std::string>& values) {
  Result<TupleRef> ref = c.db->InsertText(relation, values);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  return ref.ok() ? *ref : TupleRef{};
}

/// EvaluateDeletion against the reference scan; returns the report.
SideEffectReport ExpectMatchesReference(const VseInstance& instance,
                                        const DeletionSet& deletion) {
  SideEffectReport got = EvaluateDeletion(instance, deletion);
  SideEffectReport want =
      testing::ReferenceEvaluateDeletion(instance, deletion);
  EXPECT_EQ(testing::DiffSideEffectReports(got, want), "");
  return got;
}

/// Every subset of `refs` (at most 2^12 of them).
void ExpectEverySubsetMatches(const VseInstance& instance,
                              const std::vector<TupleRef>& refs) {
  ASSERT_LE(refs.size(), 12u);
  for (uint32_t mask = 0; mask < (1u << refs.size()); ++mask) {
    DeletionSet deletion;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (mask >> i & 1) deletion.Insert(refs[i]);
    }
    SCOPED_TRACE("subset mask " + std::to_string(mask));
    ExpectMatchesReference(instance, deletion);
  }
}

// Q(x) :- R(x, y), S(y) projects y away, so the hub value "h" has one witness
// per y; "p" shares every S row with it. ΔV = {Q(h)}.
Case BuildHub(uint32_t witnesses) {
  Case c;
  c.db = std::make_unique<Database>();
  EXPECT_TRUE(c.db->AddRelation("R", 2, {0, 1}).ok());
  EXPECT_TRUE(c.db->AddRelation("S", 1, {0}).ok());
  for (uint32_t i = 0; i < witnesses; ++i) {
    std::string y = "y" + std::to_string(i);
    Insert(c, 0, {"h", y});
    Insert(c, 0, {"p", y});
    Insert(c, 1, {y});
  }
  AddQuery(c, "Q(x) :- R(x, y), S(y)");
  Materialize(c);
  EXPECT_TRUE(c.instance->MarkForDeletionByValues(0, {"h"}).ok());
  return c;
}

std::vector<TupleRef> SRows(const Case& c) {
  std::vector<TupleRef> rows;
  for (uint32_t r = 0; r < c.db->relation(1).row_count(); ++r) {
    rows.push_back(TupleRef{1, r});
  }
  return rows;
}

TEST(SideEffectReportTest, ProjectingHubWithSomeWitnessesHit) {
  Case c = BuildHub(4);
  const VseInstance& instance = *c.instance;
  ASSERT_EQ(instance.view(0).size(), 2u);
  ASSERT_EQ(instance.view(0).tuple(0).witnesses.size(), 4u);
  const std::vector<TupleRef> s = SRows(c);
  // Hitting any one witness, whichever it is, leaves the other three alive.
  for (const TupleRef& ref : s) {
    SideEffectReport report =
        ExpectMatchesReference(instance, DeletionSet({ref}));
    EXPECT_FALSE(report.eliminates_all_deletions);
    EXPECT_EQ(report.side_effect_count, 0u);
  }
  // Hitting all but the last leaves both tuples alive; all four kills both.
  SideEffectReport partial = ExpectMatchesReference(
      instance, DeletionSet({s[0], s[1], s[2]}));
  EXPECT_EQ(partial.surviving_deletions.size(), 1u);
  SideEffectReport all = ExpectMatchesReference(instance, DeletionSet(s));
  EXPECT_TRUE(all.eliminates_all_deletions);
  EXPECT_EQ(all.side_effect_count, 1u);
  // Mixed R and S rows: 2^12 deletions over every R row and every S row.
  std::vector<TupleRef> refs = s;
  for (uint32_t r = 0; r < c.db->relation(0).row_count(); ++r) {
    refs.push_back(TupleRef{0, r});
  }
  ExpectEverySubsetMatches(instance, refs);
}

TEST(SideEffectReportTest, TupleWithMoreThanSixtyFourWitnesses) {
  for (uint32_t width : {65u, 130u}) {
    SCOPED_TRACE("witnesses=" + std::to_string(width));
    Case c = BuildHub(width);
    const VseInstance& instance = *c.instance;
    ASSERT_EQ(instance.view(0).tuple(0).witnesses.size(), width);
    std::vector<TupleRef> s = SRows(c);
    // Every witness but one hit, for each choice of the spared one (the
    // spared witness sits below, at and above the 64-bit word boundary).
    for (uint32_t spared : {0u, 63u, 64u, width - 1}) {
      std::vector<TupleRef> hit = s;
      hit.erase(hit.begin() + spared);
      SideEffectReport report =
          ExpectMatchesReference(instance, DeletionSet(hit));
      EXPECT_EQ(report.surviving_deletions.size(), 1u);
      EXPECT_EQ(report.side_effect_count, 0u);
    }
    SideEffectReport all = ExpectMatchesReference(instance, DeletionSet(s));
    EXPECT_TRUE(all.eliminates_all_deletions);
    EXPECT_EQ(all.side_effect_count, 1u);
    // Random mixes of R and S rows.
    Rng rng(width);
    for (int round = 0; round < 50; ++round) {
      DeletionSet deletion;
      for (uint32_t r = 0; r < c.db->relation(0).row_count(); ++r) {
        if (rng.NextBool(0.05)) deletion.Insert(TupleRef{0, r});
      }
      for (const TupleRef& ref : s) {
        if (rng.NextBool(0.9)) deletion.Insert(ref);
      }
      ExpectMatchesReference(instance, deletion);
    }
  }
}

// Q(x, z) :- E(x, y), E(y, z): the row E(a, a) fills both atoms of the
// witness for (a, a), so that member row lists the same base twice.
TEST(SideEffectReportTest, SelfJoinMemberRowWithDuplicates) {
  Case c;
  c.db = std::make_unique<Database>();
  ASSERT_TRUE(c.db->AddRelation("E", 2, {0, 1}).ok());
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"a", "a"}, {"a", "b"}, {"b", "c"}, {"c", "a"}, {"b", "b"}}) {
    Insert(c, 0, {from, to});
  }
  AddQuery(c, "Q(x, z) :- E(x, y), E(y, z)");
  AddQuery(c, "P(x) :- E(x, y), E(y, y)");
  Materialize(c);
  bool has_duplicate_row = false;
  for (size_t v = 0; v < c.instance->view_count(); ++v) {
    for (size_t t = 0; t < c.instance->view(v).size(); ++t) {
      for (const Witness& w : c.instance->view(v).tuple(t).witnesses) {
        has_duplicate_row |= w.size() == 2 && w[0] == w[1];
      }
    }
  }
  ASSERT_TRUE(has_duplicate_row);
  ASSERT_TRUE(c.instance->MarkForDeletionByValues(0, {"a", "a"}).ok());
  ASSERT_TRUE(c.instance->MarkForDeletionByValues(1, {"b"}).ok());
  std::vector<TupleRef> refs;
  for (uint32_t r = 0; r < c.db->relation(0).row_count(); ++r) {
    refs.push_back(TupleRef{0, r});
  }
  ExpectEverySubsetMatches(*c.instance, refs);
}

// A base row that joins nothing and a row of a relation no query reads lie
// in no witness: they count toward |ΔD| and change nothing else.
TEST(SideEffectReportTest, ForeignRefsLieInNoWitness) {
  Case c;
  c.db = std::make_unique<Database>();
  ASSERT_TRUE(c.db->AddRelation("R", 2, {0, 1}).ok());
  ASSERT_TRUE(c.db->AddRelation("S", 1, {0}).ok());
  ASSERT_TRUE(c.db->AddRelation("U", 1, {0}).ok());
  std::vector<TupleRef> refs;
  for (const char* y : {"y0", "y1", "y2"}) {
    refs.push_back(Insert(c, 0, {"h", y}));
    refs.push_back(Insert(c, 1, {y}));
  }
  refs.push_back(Insert(c, 0, {"p", "y0"}));
  TupleRef dangling = Insert(c, 0, {"q", "nowhere"});
  TupleRef unused = Insert(c, 2, {"u"});
  AddQuery(c, "Q(x) :- R(x, y), S(y)");
  Materialize(c);
  ASSERT_TRUE(c.instance->MarkForDeletionByValues(0, {"h"}).ok());
  const VseInstance& instance = *c.instance;
  ASSERT_EQ(instance.view(0).size(), 2u);
  SideEffectReport foreign =
      ExpectMatchesReference(instance, DeletionSet({unused, dangling}));
  EXPECT_EQ(foreign.source_deletion_count, 2u);
  EXPECT_EQ(foreign.side_effect_count, 0u);
  EXPECT_EQ(foreign.surviving_deletions.size(), 1u);
  refs.push_back(dangling);
  refs.push_back(unused);
  ExpectEverySubsetMatches(instance, refs);
}

TEST(SideEffectReportTest, EmptyDeletion) {
  Case c = BuildHub(3);
  SideEffectReport report = ExpectMatchesReference(*c.instance, DeletionSet());
  EXPECT_FALSE(report.eliminates_all_deletions);
  EXPECT_EQ(report.surviving_deletions.size(), 1u);
  EXPECT_EQ(report.source_deletion_count, 0u);
  EXPECT_EQ(report.balanced_cost,
            c.instance->weight(c.instance->deletion_tuples()[0]));
  // No deleted base: only the ΔV tuple is tested, and its first witness
  // (2 members, neither deleted) already proves it survives.
  EXPECT_EQ(report.entries_examined, 2u);
}

// ΔV tuples outside every deleted base's kill row still enter the report as
// survivors, between killed preserved tuples in (view, tuple) order.
TEST(SideEffectReportTest, DeltaVTupleThatSurvives) {
  Rng rng(3);
  PathSchemaParams params;
  params.levels = 4;
  params.roots = 3;
  params.fanout = 2;
  params.deletion_fraction = 0.3;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const VseInstance& instance = *generated->instance;
  std::vector<TupleRef> candidates = instance.CandidateTuples();
  ASSERT_GE(candidates.size(), 2u);
  SideEffectReport one =
      ExpectMatchesReference(instance, DeletionSet({candidates[0]}));
  EXPECT_FALSE(one.surviving_deletions.empty());
  for (int round = 0; round < 100; ++round) {
    DeletionSet deletion;
    for (const TupleRef& ref : candidates) {
      if (rng.NextBool(0.3)) deletion.Insert(ref);
    }
    ExpectMatchesReference(instance, deletion);
  }
}

// The walk's work is local: deleting one leaf reads that leaf's kill row and
// the member rows of the tuples in it, plus the ΔV tuples' member rows, so
// the counter does not depend on the database size. Path schema with 5
// levels and fanout 3; the second instance has 3x the roots and view tuples
// of the first.
TEST(SideEffectWorkTest, LeafDeleteExaminesEntriesIndependentOfDatabaseSize) {
  auto examined_for = [](size_t roots, size_t* view_tuples) -> size_t {
    PathSchemaParams params;
    params.levels = 5;
    params.roots = roots;
    params.fanout = 3;
    Rng rng(11);
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    if (!generated.ok()) return 0;
    Database& db = *generated->database;
    VseInstance& instance = *generated->instance;
    *view_tuples = instance.TotalViewTuples();
    RelationId leaf = *db.schema().FindRelation("L4");
    TupleRef deleted{leaf, 0};
    // ΔV: the deleted leaf's tuple in the longest view (killed), and the
    // first tuple of the shortest view, [3, 4], whose path avoids the leaf
    // (survives).
    std::vector<ViewTupleId> killed = instance.KilledBy(deleted);
    EXPECT_EQ(killed.size(), 4u);
    size_t shortest = instance.view_count() - 1;
    size_t spared = 0;
    while (spared < instance.view(shortest).size() &&
           std::find(killed.begin(), killed.end(),
                     ViewTupleId{shortest, spared}) != killed.end()) {
      ++spared;
    }
    EXPECT_TRUE(
        instance.ResetDeletions({killed.front(), {shortest, spared}}).ok());
    DeletionSet deletion({deleted});
    SideEffectReport report = ExpectMatchesReference(instance, deletion);
    EXPECT_EQ(report.surviving_deletions.size(), 1u);
    EXPECT_EQ(report.side_effect_count, 3u);
    return report.entries_examined;
  };
  size_t small_views = 0;
  size_t large_views = 0;
  size_t small = examined_for(3, &small_views);
  size_t large = examined_for(9, &large_views);
  EXPECT_EQ(large_views, 3 * small_views);
  // The leaf's kill row holds its tuple in each suffix view [a, 4], a = 0..3:
  // 4 entries. Each such witness lists levels a..4 in atom order with the
  // leaf last, so its survival test reads 5 - a slots before the hit:
  // 5 + 4 + 3 + 2 = 14. The surviving ΔV tuple's witness (levels 3 and 4)
  // is read in full without a hit: 2 slots. 4 + 14 + 2 = 20.
  EXPECT_EQ(small, 20u);
  EXPECT_EQ(large, 20u);
}

}  // namespace
}  // namespace delprop

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dp/base_delta.h"
#include "dp/vse_instance.h"
#include "common/rng.h"
#include "plan/compiled_instance.h"
#include "query/parser.h"
#include "workload/author_journal.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

// All tests run on the paper's Fig. 1 example: T1(AuName, Journal),
// T2(Journal, Topic, NumPapers), views Q3(x,z) and Q4(x,y,z). T1 rows:
// 0=(Joe,TKDE) 1=(John,TKDE) 2=(Tom,TKDE) 3=(John,TODS); T2 rows:
// 0=(TKDE,XML) 1=(TKDE,CUBE) 2=(TODS,XML).
class ApplyDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<GeneratedVse> generated = BuildFig1Example();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    generated_ = std::move(*generated);
  }

  VseInstance& instance() { return *generated_.instance; }
  Database& db() { return *generated_.database; }

  TupleRef Row(const char* rel, uint32_t row) {
    RelationId id = *db().schema().FindRelation(rel);
    return TupleRef{id, row};
  }

  BaseInsert T1Insert(const char* author, const char* journal) {
    RelationId id = *db().schema().FindRelation("T1");
    return BaseInsert{
        id, {db().dict().Intern(author), db().dict().Intern(journal)}};
  }

  /// Byte-compares the live instance's derived state against a fresh
  /// re-index of a copy of its views (CreateFromMaterializedViews), carrying
  /// over ΔV and weights — the unit-test-sized version of the mutate-vs-
  /// rebuild oracle in testing/mutation.h.
  void ExpectMatchesReindex() {
    std::vector<const ConjunctiveQuery*> queries;
    for (const auto& query : generated_.queries) queries.push_back(query.get());
    std::vector<View> views;
    for (size_t v = 0; v < instance().view_count(); ++v) {
      views.push_back(instance().view(v));
    }
    Result<VseInstance> reindexed = VseInstance::CreateFromMaterializedViews(
        db(), queries, std::move(views));
    ASSERT_TRUE(reindexed.ok()) << reindexed.status().ToString();
    VseInstance& shadow = *reindexed;
    ASSERT_TRUE(shadow.ResetDeletions(instance().deletion_tuples()).ok());
    for (size_t v = 0; v < instance().view_count(); ++v) {
      for (size_t t = 0; t < instance().view(v).size(); ++t) {
        ViewTupleId id{v, t};
        if (instance().weight(id) != 1.0) {
          ASSERT_TRUE(shadow.SetWeight(id, instance().weight(id)).ok());
        }
      }
    }
    EXPECT_EQ(instance().all_unique_witness(), shadow.all_unique_witness());
    const PlanCore& a = *instance().compiled()->core();
    const PlanCore& b = *shadow.compiled()->core();
    EXPECT_EQ(a.view_first, b.view_first);
    EXPECT_EQ(a.tuple_view, b.tuple_view);
    EXPECT_EQ(a.weight, b.weight);
    EXPECT_EQ(a.tuple_witness_first, b.tuple_witness_first);
    EXPECT_EQ(a.witness_owner, b.witness_owner);
    EXPECT_EQ(a.witness_member_first, b.witness_member_first);
    EXPECT_EQ(a.witness_member_base, b.witness_member_base);
    EXPECT_EQ(a.base_refs, b.base_refs);
    EXPECT_EQ(a.base_occ_first, b.base_occ_first);
    EXPECT_EQ(a.occ_tuple, b.occ_tuple);
    EXPECT_EQ(a.occ_witness, b.occ_witness);
    EXPECT_EQ(a.base_kill_first, b.base_kill_first);
    EXPECT_EQ(a.kill_tuple, b.kill_tuple);
    EXPECT_EQ(a.witness_bit_first, b.witness_bit_first);
    EXPECT_EQ(a.occ_hit_bit, b.occ_hit_bit);
    EXPECT_EQ(a.kill_witness_mask, b.kill_witness_mask);
    EXPECT_EQ(a.max_witnesses_per_tuple, b.max_witnesses_per_tuple);
    EXPECT_EQ(a.max_witness_members, b.max_witness_members);
    EXPECT_EQ(a.min_witness_raw_members, b.min_witness_raw_members);
    EXPECT_EQ(instance().compiled()->deletion_dense(),
              shadow.compiled()->deletion_dense());
    EXPECT_EQ(instance().compiled()->candidate_bases(),
              shadow.compiled()->candidate_bases());
  }

  GeneratedVse generated_;
};

TEST_F(ApplyDeltaTest, InsertExpandsViewsIncrementally) {
  BaseDelta delta;
  delta.inserts.push_back(T1Insert("Bob", "TKDE"));
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());

  // Bob×TKDE joins T2's two TKDE rows: Q3 gains (Bob,XML),(Bob,CUBE), Q4
  // gains (Bob,TKDE,XML),(Bob,TKDE,CUBE).
  EXPECT_EQ(instance().view(0).size(), 8u);
  EXPECT_EQ(instance().view(1).size(), 9u);
  EXPECT_EQ(report.view_tuples_added, 4u);
  EXPECT_EQ(report.witnesses_added, 4u);
  EXPECT_EQ(report.view_tuples_removed, 0u);
  EXPECT_EQ(instance().structure_epoch(), 1u);

  // The new base row is live, present in the kill map, and the new view
  // tuples carry real witnesses through it.
  TupleRef bob = Row("T1", 4);
  EXPECT_FALSE(instance().base_mask().Contains(bob));
  EXPECT_EQ(instance().KilledBy(bob).size(), 4u);
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, DeleteShrinksViewsAndDropsDeadMarks) {
  // Mark Q4 (John,TODS,XML) — killed by the delete below — and Q3 (Tom,*),
  // which survive but shift when Q3 loses nothing... Q3 keeps its size here:
  // only Q4 loses a tuple, Q3's (John,XML) just loses one witness.
  ASSERT_TRUE(
      instance().MarkForDeletionByValues(1, {"John", "TODS", "XML"}).ok());
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"Tom", "XML"}).ok());
  ASSERT_FALSE(instance().all_unique_witness()) << "(John, XML) has 2";

  BaseDelta delta;
  delta.deletes.push_back(Row("T1", 3));  // (John, TODS)
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());

  EXPECT_EQ(instance().view(0).size(), 6u);  // (John,XML) survives via TKDE
  EXPECT_EQ(instance().view(1).size(), 6u);  // (John,TODS,XML) is gone
  EXPECT_EQ(report.view_tuples_removed, 1u);
  EXPECT_EQ(report.witnesses_removed, 2u);
  EXPECT_TRUE(instance().base_mask().Contains(Row("T1", 3)));

  // The dead tuple's mark is dropped; the surviving mark still points at
  // (Tom, XML). The last multi-witness tuple lost a witness, so the
  // unique-witness property now holds.
  ASSERT_EQ(instance().deletion_tuples().size(), 1u);
  EXPECT_EQ(instance().RenderViewTuple(instance().deletion_tuples()[0]),
            "Q3(Tom, XML)");
  EXPECT_TRUE(instance().all_unique_witness());
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, MixedDeltaMatchesReindexUnderWeights) {
  ASSERT_TRUE(instance().SetWeight(ViewTupleId{0, 0}, 3.5).ok());
  BaseDelta delta;
  delta.inserts.push_back(T1Insert("Bob", "TODS"));
  delta.deletes.push_back(Row("T1", 0));  // (Joe, TKDE)
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());
  EXPECT_GT(report.view_tuples_added, 0u);
  EXPECT_GT(report.view_tuples_removed, 0u);
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, ErrorsNameTheOffendingRelationAndRow) {
  auto expect_invalid = [&](const BaseDelta& delta, const char* fragment) {
    Status status = instance().ApplyDelta(db(), delta);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << status.ToString();
  };

  BaseDelta bad_relation;
  bad_relation.inserts.push_back(BaseInsert{99, {0, 0}});
  expect_invalid(bad_relation, "relation id 99, which does not exist");

  BaseDelta bad_arity;
  bad_arity.inserts.push_back(T1Insert("Bob", "TKDE"));
  bad_arity.inserts[0].tuple.push_back(0);
  expect_invalid(bad_arity, "has 3 value(s) for relation 'T1' of arity 2");

  BaseDelta duplicate;
  duplicate.inserts.push_back(T1Insert("John", "TKDE"));
  expect_invalid(duplicate, "duplicates row 1 of relation 'T1'");

  BaseDelta batch_repeat;
  batch_repeat.inserts.push_back(T1Insert("Bob", "TKDE"));
  batch_repeat.inserts.push_back(T1Insert("Bob", "TKDE"));
  expect_invalid(batch_repeat, "repeats the key of an earlier insert");

  BaseDelta dangling;
  dangling.deletes.push_back(Row("T1", 40));
  expect_invalid(dangling,
                 "row 40 of relation 'T1' does not exist (4 row(s))");

  BaseDelta witnessed;
  witnessed.deletes.push_back(Row("T1", 0));
  ApplyDeltaOptions forbid;
  forbid.forbid_witnessed_deletes = true;
  Status status = instance().ApplyDelta(db(), witnessed, forbid);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("still occurs in a witness"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("Q3(Joe,"), std::string::npos)
      << "error should render the referencing view tuple: "
      << status.ToString();

  // Masked rows stay masked and keep their keys occupied.
  BaseDelta first;
  first.deletes.push_back(Row("T1", 3));
  ASSERT_TRUE(instance().ApplyDelta(db(), first).ok());
  BaseDelta again;
  again.deletes.push_back(Row("T1", 3));
  expect_invalid(again, "row 3 of relation 'T1' is already deleted");
  BaseDelta reuse_key;
  reuse_key.inserts.push_back(T1Insert("John", "TODS"));
  expect_invalid(reuse_key,
                 "logically deleted rows keep their keys occupied");
}

TEST_F(ApplyDeltaTest, RejectedDeltaHasNoSideEffects) {
  size_t rows_before = db().relation(Row("T1", 0).relation).row_count();
  size_t q3_before = instance().view(0).size();
  uint64_t epoch_before = instance().structure_epoch();

  // Valid insert + dangling delete: the whole delta must be rejected and the
  // insert must NOT reach the database.
  BaseDelta delta;
  delta.inserts.push_back(T1Insert("Bob", "TKDE"));
  delta.deletes.push_back(Row("T2", 77));
  EXPECT_EQ(instance().ApplyDelta(db(), delta).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db().relation(Row("T1", 0).relation).row_count(), rows_before);
  EXPECT_EQ(instance().view(0).size(), q3_before);
  EXPECT_EQ(instance().structure_epoch(), epoch_before);
  EXPECT_TRUE(instance().base_mask().Sorted().empty());
}

TEST_F(ApplyDeltaTest, SmallDeltaPatchesCoreLargeDeltaRebuilds) {
  (void)instance().compiled();
  ASSERT_EQ(instance().plan_stats().full_builds, 1u);

  BaseDelta small;
  small.deletes.push_back(Row("T1", 3));
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), small, {}, &report).ok());
  EXPECT_TRUE(report.core_patched);
  EXPECT_FALSE(report.core_rebuilt);
  PlanBuildStats stats = instance().plan_stats();
  EXPECT_EQ(stats.core_patches, 1u);
  EXPECT_EQ(stats.core_patch_fallbacks, 0u);

  // The patched core serves the next compiled() without a full build.
  (void)instance().compiled();
  EXPECT_EQ(instance().plan_stats().full_builds, 1u);
  ExpectMatchesReindex();

  // threshold 0 forces the fallback: the core is dropped and the next
  // compiled() pays a counted full rebuild.
  BaseDelta large;
  large.deletes.push_back(Row("T1", 0));
  ApplyDeltaOptions rebuild_always;
  rebuild_always.patch_threshold = 0.0;
  ASSERT_TRUE(
      instance().ApplyDelta(db(), large, rebuild_always, &report).ok());
  EXPECT_FALSE(report.core_patched);
  EXPECT_TRUE(report.core_rebuilt);
  stats = instance().plan_stats();
  EXPECT_EQ(stats.core_patch_fallbacks, 1u);
  (void)instance().compiled();
  EXPECT_EQ(instance().plan_stats().full_builds, 2u);
  ExpectMatchesReindex();
}

// Satellite regression: SetWeight used to discard the shared PlanCore
// (InvalidateDerivedCaches(false)), forcing a full re-intern on the next
// compiled(). It must now patch the weight array in place.
TEST_F(ApplyDeltaTest, SetWeightPatchesCoreWithoutRebuild) {
  std::shared_ptr<const CompiledInstance> before = instance().compiled();
  ASSERT_EQ(instance().plan_stats().full_builds, 1u);

  ViewTupleId id{0, 2};
  ASSERT_TRUE(instance().SetWeight(id, 7.5).ok());
  PlanBuildStats stats = instance().plan_stats();
  EXPECT_EQ(stats.full_builds, 1u) << "SetWeight must not drop the core";
  EXPECT_EQ(stats.weight_patches + stats.core_clones, 1u);

  std::shared_ptr<const CompiledInstance> after = instance().compiled();
  EXPECT_EQ(instance().plan_stats().full_builds, 1u);
  EXPECT_EQ(after->weight(after->DenseOf(id)), 7.5);
  EXPECT_EQ(instance().weight(id), 7.5);
  (void)before;
}

TEST_F(ApplyDeltaTest, SetWeightClonesCoreWhenReplicasShareIt) {
  (void)instance().compiled();
  VseInstance replica = instance().Replicate();
  std::shared_ptr<const CompiledInstance> replica_plan = replica.compiled();
  double replica_weight_before = replica_plan->weight(
      replica_plan->DenseOf(ViewTupleId{0, 1}));

  ASSERT_TRUE(instance().SetWeight(ViewTupleId{0, 1}, 9.0).ok());
  PlanBuildStats stats = instance().plan_stats();
  EXPECT_EQ(stats.core_clones, 1u) << "shared core must be cloned, not "
                                      "mutated under the replica";
  EXPECT_EQ(stats.full_builds, 1u);

  // The replica's frozen plan still sees the old weight; the primary's new
  // plan sees the new one.
  EXPECT_EQ(replica_plan->weight(replica_plan->DenseOf(ViewTupleId{0, 1})),
            replica_weight_before);
  std::shared_ptr<const CompiledInstance> primary_plan = instance().compiled();
  EXPECT_EQ(primary_plan->weight(primary_plan->DenseOf(ViewTupleId{0, 1})),
            9.0);
}

// Satellite regression: ResetDeletions used to rebuild a shadow hash set per
// request; membership is now derived from the sorted deletion_tuples_ alone
// and must stay consistent through resets, marks, and deltas.
TEST_F(ApplyDeltaTest, DeletionMembershipStaysConsistent) {
  std::vector<ViewTupleId> dv = {{1, 3}, {0, 1}, {1, 3}, {0, 5}};  // dupes ok
  ASSERT_TRUE(instance().ResetDeletions(dv).ok());
  EXPECT_EQ(instance().TotalDeletionTuples(), 3u);
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{0, 1}));
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{0, 5}));
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{1, 3}));
  EXPECT_FALSE(instance().IsMarkedForDeletion(ViewTupleId{0, 0}));
  EXPECT_TRUE(std::is_sorted(instance().deletion_tuples().begin(),
                             instance().deletion_tuples().end()));

  ASSERT_TRUE(instance().MarkForDeletion(ViewTupleId{0, 0}).ok());
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{0, 0}));
  EXPECT_TRUE(std::is_sorted(instance().deletion_tuples().begin(),
                             instance().deletion_tuples().end()));

  // Every marked id appears in PreservedTuples' complement exactly.
  const std::vector<ViewTupleId>& preserved = instance().PreservedTuples();
  EXPECT_EQ(preserved.size() + instance().TotalDeletionTuples(),
            instance().TotalViewTuples());
  for (const ViewTupleId& id : preserved) {
    EXPECT_FALSE(instance().IsMarkedForDeletion(id));
  }

  ASSERT_TRUE(instance().ResetDeletions({}).ok());
  EXPECT_FALSE(instance().IsMarkedForDeletion(ViewTupleId{0, 1}));
  EXPECT_EQ(instance().TotalDeletionTuples(), 0u);
}

TEST_F(ApplyDeltaTest, DeleteOfUnreferencedRowIsAllowedUnderForbid) {
  // (Bob, Nowhere) joins nothing, so it lands in no witness; deleting it
  // with forbid_witnessed_deletes on must succeed and change no view.
  BaseDelta insert;
  insert.inserts.push_back(T1Insert("Bob", "Nowhere"));
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), insert, {}, &report).ok());
  EXPECT_EQ(report.view_tuples_added, 0u);

  BaseDelta remove;
  remove.deletes.push_back(Row("T1", 4));
  ApplyDeltaOptions forbid;
  forbid.forbid_witnessed_deletes = true;
  ASSERT_TRUE(instance().ApplyDelta(db(), remove, forbid, &report).ok());
  EXPECT_EQ(report.view_tuples_removed, 0u);
  EXPECT_TRUE(instance().base_mask().Contains(Row("T1", 4)));
  ExpectMatchesReindex();
}

// A bulk insert whose only repeat is its last row is rejected, naming that
// row by its index in the delta, and nothing of the delta is applied.
TEST_F(ApplyDeltaTest, BulkInsertNamesTheRepeatedKeyAtItsEnd) {
  constexpr size_t kInserts = 3000;
  BaseDelta bulk;
  for (size_t i = 0; i < kInserts; ++i) {
    std::string author = "Author" + std::to_string(i);
    bulk.inserts.push_back(T1Insert(author.c_str(), "TKDE"));
  }
  bulk.inserts.push_back(T1Insert("Author17", "TKDE"));
  size_t rows_before = db().relation(Row("T1", 0).relation).row_count();
  Status status = instance().ApplyDelta(db(), bulk);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find(
                "delta insert 3000 repeats the key of an earlier insert in "
                "the same delta for relation 'T1'"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(db().relation(Row("T1", 0).relation).row_count(), rows_before);

  bulk.inserts.pop_back();
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), bulk, {}, &report).ok());
  EXPECT_EQ(db().relation(Row("T1", 0).relation).row_count(),
            rows_before + kInserts);
}

// A kill mask holds a tuple's first 64 witness offsets. A patch that pushes
// a tuple past 64 witnesses, one that brings it back to 63, and one that
// lands on exactly 64 must each match a from-scratch build.
TEST_F(ApplyDeltaTest, PatchFollowsTheBitLayoutAcrossSixtyFourWitnesses) {
  GeneratedVse built;
  built.database = std::make_unique<Database>();
  Database& database = *built.database;
  RelationId a = *database.AddRelation("A", 2, {0});
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(database.InsertText(a, {"k" + std::to_string(k), "hot"}).ok());
  }
  ASSERT_TRUE(database.InsertText(a, {"k_cold", "cold"}).ok());
  for (const char* text : {"Q(x) :- A(k, x)", "P(k, x) :- A(k, x)"}) {
    Result<ConjunctiveQuery> query =
        ParseQuery(text, database.schema(), database.dict());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    built.queries.push_back(
        std::make_unique<ConjunctiveQuery>(std::move(*query)));
  }
  Result<VseInstance> created = VseInstance::Create(
      database, {built.queries[0].get(), built.queries[1].get()});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  built.instance = std::make_unique<VseInstance>(std::move(*created));
  generated_ = std::move(built);
  ASSERT_TRUE(instance().MarkForDeletion(ViewTupleId{0, 1}).ok());
  ASSERT_EQ(instance().compiled()->max_witnesses_per_tuple(), 64u);

  auto apply = [&](const BaseDelta& delta, uint32_t fan_in_after) {
    ApplyDeltaReport report;
    ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());
    EXPECT_TRUE(report.core_patched);
    EXPECT_EQ(instance().compiled()->max_witnesses_per_tuple(), fan_in_after);
    ExpectMatchesReindex();
  };
  BaseDelta grow;  // Q(hot) reaches 65 witnesses.
  grow.inserts.push_back(BaseInsert{
      a, {db().dict().Intern("k64"), db().dict().Intern("hot")}});
  apply(grow, 65);
  BaseDelta shrink;  // back to 63.
  shrink.deletes.push_back(TupleRef{a, 3});
  shrink.deletes.push_back(TupleRef{a, 40});
  apply(shrink, 63);
  BaseDelta steady;  // 64 again, masks copied where untouched.
  steady.inserts.push_back(BaseInsert{
      a, {db().dict().Intern("k65"), db().dict().Intern("hot")}});
  steady.deletes.push_back(TupleRef{a, 64});  // the cold row
  apply(steady, 64);
}

// The insert join's work is local: one new leaf under a live parent walks up
// the parent keys once per query, so the rows it examines do not depend on
// the database size. Path schema with 5 levels and fanout 3; the second
// instance has 3x the roots, rows and view tuples of the first.
TEST(ApplyDeltaWorkTest, LeafInsertExaminesRowsIndependentOfDatabaseSize) {
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
    BaseDelta delta;
    delta.inserts.push_back(BaseInsert{
        leaf,
        {db.dict().Intern("n4_new"), db.dict().Intern("n3_0"),
         db.dict().Intern("p1")}});
    ApplyDeltaReport report;
    Status status = instance.ApplyDelta(db, delta, {}, &report);
    EXPECT_TRUE(status.ok()) << status.ToString();
    // One new view tuple per suffix query [a, 4], a = 0..3.
    EXPECT_EQ(report.view_tuples_added, 4u);
    return report.delta_rows_examined;
  };
  size_t small_views = 0;
  size_t large_views = 0;
  size_t small = examined_for(3, &small_views);
  size_t large = examined_for(9, &large_views);
  EXPECT_EQ(large_views, 3 * small_views);
  // The pivot plus one key probe per ancestor level, per query:
  // 5 + 4 + 3 + 2 atoms.
  EXPECT_EQ(small, 14u);
  EXPECT_EQ(large, 14u);
}

// The core patch re-derives only the base rows a delta's witnesses touch and
// copies the rest. On the path schema every view tuple has one witness, so a
// one-leaf delete removes the witnesses through the leaf and a one-leaf
// insert appends the new leaf's, and the re-derived rows are exactly the
// distinct bases of those witnesses — independent of ‖V‖.
TEST(ApplyDeltaWorkTest, CorePatchRederivesOnlyTheDeltaWitnessBases) {
  for (size_t levels : {6u, 8u}) {
    SCOPED_TRACE("levels=" + std::to_string(levels));
    PathSchemaParams params;
    params.levels = levels;
    params.roots = 3;
    params.fanout = 3;
    Rng rng(7);
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    Database& db = *generated->database;
    VseInstance& instance = *generated->instance;
    (void)instance.compiled();
    const std::string leaf_level = std::to_string(levels - 1);
    RelationId leaf = *db.schema().FindRelation("L" + leaf_level);
    auto distinct_bases = [](const std::vector<const Witness*>& witnesses) {
      std::vector<TupleRef> refs;
      for (const Witness* witness : witnesses) {
        refs.insert(refs.end(), witness->begin(), witness->end());
      }
      std::sort(refs.begin(), refs.end());
      return static_cast<size_t>(
          std::unique(refs.begin(), refs.end()) - refs.begin());
    };

    // Delete leaf row 4: its removed witnesses are those of KilledBy.
    TupleRef deleted{leaf, 4};
    std::vector<const Witness*> removed;
    for (const ViewTupleId& id : instance.KilledBy(deleted)) {
      for (const Witness& witness : instance.view_tuple(id).witnesses) {
        removed.push_back(&witness);
      }
    }
    size_t expected_delete = distinct_bases(removed);
    BaseDelta delete_delta;
    delete_delta.deletes.push_back(deleted);
    ApplyDeltaReport report;
    ASSERT_TRUE(instance.ApplyDelta(db, delete_delta, {}, &report).ok());
    ASSERT_TRUE(report.core_patched);
    EXPECT_EQ(report.view_tuples_removed, levels - 1);
    EXPECT_EQ(report.core_rows_rederived, expected_delete);
    EXPECT_EQ(expected_delete, levels);  // the leaf and its ancestors

    // Insert a fresh leaf: its appended witnesses are those of the tuples
    // it created, at the end of each view.
    std::vector<size_t> sizes_before;
    for (size_t v = 0; v < instance.view_count(); ++v) {
      sizes_before.push_back(instance.view(v).size());
    }
    BaseDelta insert_delta;
    insert_delta.inserts.push_back(BaseInsert{
        leaf,
        {db.dict().Intern("n" + leaf_level + "_new"),
         db.dict().Intern("n" + std::to_string(levels - 2) + "_1"),
         db.dict().Intern("p1")}});
    ASSERT_TRUE(instance.ApplyDelta(db, insert_delta, {}, &report).ok());
    ASSERT_TRUE(report.core_patched);
    EXPECT_EQ(report.view_tuples_added, levels - 1);
    std::vector<const Witness*> appended;
    for (size_t v = 0; v < instance.view_count(); ++v) {
      for (size_t t = sizes_before[v]; t < instance.view(v).size(); ++t) {
        for (const Witness& witness : instance.view(v).tuple(t).witnesses) {
          appended.push_back(&witness);
        }
      }
    }
    EXPECT_EQ(report.core_rows_rederived, distinct_bases(appended));
    // The new leaf and its levels - 1 ancestors.
    EXPECT_EQ(report.core_rows_rederived, levels);
  }
}

TEST_F(ApplyDeltaTest, WrongDatabaseIsRejected) {
  Database other;
  BaseDelta delta;
  delta.deletes.push_back(Row("T1", 0));
  EXPECT_EQ(instance().ApplyDelta(other, delta).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace delprop

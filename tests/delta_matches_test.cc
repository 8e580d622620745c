// Byte-order differential for the insert join: internal::CollectDeltaMatches
// (pivot-first, key and position probes) must return exactly the reference
// body-order scan's (head values, witness) pairs in exactly its order —
// ApplyDelta numbers new view tuples in that order.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dp/base_delta.h"
#include "query/parser.h"
#include "testing/fuzzer.h"
#include "testing/reference_eval.h"

namespace delprop {
namespace {

using Matches = std::vector<std::pair<Tuple, Witness>>;

std::vector<uint32_t> RowCounts(const Database& db) {
  std::vector<uint32_t> counts(db.relation_count());
  for (RelationId r = 0; r < db.relation_count(); ++r) {
    counts[r] = static_cast<uint32_t>(db.relation(r).row_count());
  }
  return counts;
}

/// Runs both enumerators and expects identical output; returns the matches.
Matches ExpectSameAsReference(const Database& db,
                              const ConjunctiveQuery& query,
                              const DeletionSet& mask,
                              const std::vector<uint32_t>& first_new_row) {
  Matches indexed;
  Matches reference;
  Status status = internal::CollectDeltaMatches(db, query, mask,
                                                first_new_row, &indexed);
  EXPECT_TRUE(status.ok()) << status.ToString();
  testing::ReferenceDeltaMatches(db, query, mask, first_new_row, &reference);
  EXPECT_EQ(indexed, reference) << query.name();
  return indexed;
}

/// Hand-built schema: E(src, dst) keyed on both (a graph with fan-out),
/// R(a, b) keyed on a, S(b, c) keyed on b.
class DeltaMatchesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_ = *db_.AddRelationNamed("E", {"src", "dst"}, {0, 1});
    r_ = *db_.AddRelationNamed("R", {"a", "b"}, {0});
    s_ = *db_.AddRelationNamed("S", {"b", "c"}, {0});
    for (auto [src, dst] : std::vector<std::pair<const char*, const char*>>{
             {"a", "b"}, {"b", "c"}, {"b", "hub"}, {"hub", "a"}, {"c", "c"},
             {"hub", "c"}, {"c", "a"}}) {
      ASSERT_TRUE(db_.InsertText(e_, {src, dst}).ok());
    }
    for (auto [a, b] : std::vector<std::pair<const char*, const char*>>{
             {"r1", "x"}, {"r2", "y"}, {"r3", "x"}}) {
      ASSERT_TRUE(db_.InsertText(r_, {a, b}).ok());
    }
    for (auto [b, c] : std::vector<std::pair<const char*, const char*>>{
             {"x", "1"}, {"y", "2"}}) {
      ASSERT_TRUE(db_.InsertText(s_, {b, c}).ok());
    }
    first_new_row_ = RowCounts(db_);
  }

  ConjunctiveQuery Parse(const char* text) {
    Result<ConjunctiveQuery> query = ParseQuery(text, db_.schema(), db_.dict());
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    return std::move(query).value();
  }

  void Insert(RelationId relation, std::initializer_list<std::string_view> row) {
    ASSERT_TRUE(db_.InsertText(relation, row).ok());
  }

  Database db_;
  RelationId e_ = 0;
  RelationId r_ = 0;
  RelationId s_ = 0;
  std::vector<uint32_t> first_new_row_;
  DeletionSet mask_;
};

TEST_F(DeltaMatchesTest, SelfJoinWithSeveralNewRowsInOneRelation) {
  Insert(e_, {"a", "hub"});
  Insert(e_, {"hub", "b"});
  Insert(e_, {"c", "b"});
  ConjunctiveQuery two = Parse("P2(x, y, z) :- E(x, y), E(y, z)");
  ConjunctiveQuery three = Parse("P3(x, y, z, w) :- E(x, y), E(y, z), E(z, w)");
  Matches matches = ExpectSameAsReference(db_, two, mask_, first_new_row_);
  // Both orders of new-row pivots fire, e.g. (a,hub)(hub,b) pins atom 0 and
  // (b,hub)(hub,b) pins atom 1.
  EXPECT_EQ(matches.size(), 13u);
  EXPECT_FALSE(
      ExpectSameAsReference(db_, three, mask_, first_new_row_).empty());
}

TEST_F(DeltaMatchesTest, ConstantsAndRepeatedVariables) {
  Insert(e_, {"hub", "hub"});
  Insert(e_, {"a", "a"});
  Insert(e_, {"c", "hub"});
  ConjunctiveQuery constants = Parse("C(x) :- E(x, 'hub'), E('hub', x)");
  ConjunctiveQuery loops = Parse("L(x, y) :- E(x, x), E(x, y)");
  ConjunctiveQuery key_constant = Parse("K(y) :- E('c', y), E(y, 'a')");
  EXPECT_FALSE(
      ExpectSameAsReference(db_, constants, mask_, first_new_row_).empty());
  EXPECT_FALSE(
      ExpectSameAsReference(db_, loops, mask_, first_new_row_).empty());
  EXPECT_FALSE(
      ExpectSameAsReference(db_, key_constant, mask_, first_new_row_).empty());
}

TEST_F(DeltaMatchesTest, MaskedOldAndNewRowsAreSkipped) {
  Insert(e_, {"a", "hub"});
  Insert(e_, {"hub", "b"});
  Insert(e_, {"a", "c"});
  ConjunctiveQuery two = Parse("P2(x, y, z) :- E(x, y), E(y, z)");
  Matches unmasked = ExpectSameAsReference(db_, two, mask_, first_new_row_);
  mask_.Insert(TupleRef{e_, 3});                    // old (hub, a)
  mask_.Insert(TupleRef{e_, first_new_row_[e_]});   // new (a, hub)
  Matches masked = ExpectSameAsReference(db_, two, mask_, first_new_row_);
  EXPECT_LT(masked.size(), unmasked.size());
  for (const auto& match : masked) {
    for (const TupleRef& ref : match.second) EXPECT_FALSE(mask_.Contains(ref));
  }
}

TEST_F(DeltaMatchesTest, NewRowsInTwoRelationsOfOneQuery) {
  Insert(r_, {"r4", "y"});
  Insert(r_, {"r5", "z"});
  Insert(s_, {"z", "3"});
  Insert(s_, {"w", "4"});
  ConjunctiveQuery chain = Parse("J(a, b, c) :- R(a, b), S(b, c)");
  Matches matches = ExpectSameAsReference(db_, chain, mask_, first_new_row_);
  // (r4,y)(y,2) pins R; (r5,z)(z,3) is new on both sides and must come out
  // once, under the R pivot.
  EXPECT_EQ(matches.size(), 2u);
  // Nothing bound across atoms: the second atom falls back to a scan.
  ConjunctiveQuery product = Parse("X(a, c) :- R(a, b), S(d, c)");
  EXPECT_EQ(ExpectSameAsReference(db_, product, mask_, first_new_row_).size(),
            5u * 4u - 3u * 2u);
}

TEST_F(DeltaMatchesTest, RowsExaminedCountsEveryCandidateTested) {
  Insert(r_, {"r4", "x"});
  ConjunctiveQuery chain = Parse("J(a, b, c) :- R(a, b), S(b, c)");
  Matches out;
  size_t examined = 0;
  ASSERT_TRUE(internal::CollectDeltaMatches(db_, chain, mask_, first_new_row_,
                                            &out, &examined)
                  .ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(examined, 2u);  // the pivot row, then one key probe into S
}

// Random fuzz instances: append rows that reuse existing column values (so
// they join), mask a few old and new rows, and compare every query.
TEST(DeltaMatchesFuzzTest, FuzzSeedsMatchReferenceOrder) {
  size_t cases = 0;
  size_t matches = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Result<testing::FuzzCase> generated = testing::GenerateFuzzCase(seed);
    if (!generated.ok()) continue;
    Database& db = *generated->generated.database;
    std::vector<uint32_t> first_new_row = RowCounts(db);
    Rng rng(seed * 7919);
    size_t fresh = 0;
    for (RelationId rel = 0; rel < db.relation_count(); ++rel) {
      const Relation& relation = db.relation(rel);
      size_t arity = db.schema().relation(rel).arity;
      for (size_t n = 0; n < 3 && relation.row_count() > 0; ++n) {
        Tuple tuple(arity);
        for (size_t p = 0; p < arity; ++p) {
          size_t row = rng.NextBelow(relation.row_count());
          tuple[p] = relation.row(static_cast<uint32_t>(row))[p];
        }
        if (relation.FindByKey(relation.KeyOf(tuple)).has_value()) {
          for (size_t p : db.schema().relation(rel).key_positions) {
            tuple[p] = db.dict().Intern("fresh" + std::to_string(fresh++));
          }
        }
        ASSERT_TRUE(db.Insert(rel, std::move(tuple)).ok());
      }
    }
    DeletionSet mask;
    for (RelationId rel = 0; rel < db.relation_count(); ++rel) {
      size_t rows = db.relation(rel).row_count();
      if (rows > 0 && rng.NextBool(0.5)) {
        mask.Insert(TupleRef{rel, static_cast<uint32_t>(rng.NextBelow(rows))});
      }
    }
    for (const auto& query : generated->generated.queries) {
      matches += ExpectSameAsReference(db, *query, mask, first_new_row).size();
    }
    ++cases;
  }
  EXPECT_GT(cases, 100u);
  EXPECT_GT(matches, 100u);
}

}  // namespace
}  // namespace delprop

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "dp/side_effect.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "workload/author_journal.h"

namespace delprop {
namespace {

class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddRelation("E", 2, {0, 1}).ok());
    ASSERT_TRUE(db_.InsertText(0, {"a", "b"}).ok());
    Result<ConjunctiveQuery> q =
        ParseQuery("Q(x, y) :- E(x, y)", db_.schema(), db_.dict());
    ASSERT_TRUE(q.ok());
    query_ = std::make_unique<ConjunctiveQuery>(std::move(*q));
  }

  Database db_;
  std::unique_ptr<ConjunctiveQuery> query_;
};

TEST_F(ViewTest, AddMatchDeduplicatesWitnesses) {
  View view(query_.get(), &db_);
  Tuple values = {db_.dict().Intern("a"), db_.dict().Intern("b")};
  Witness witness = {{0, 0}};
  size_t first = view.AddMatch(values, witness);
  size_t second = view.AddMatch(values, witness);
  EXPECT_EQ(first, second);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.tuple(first).witnesses.size(), 1u);
  // A different witness accumulates.
  view.AddMatch(values, Witness{{0, 1}});
  EXPECT_EQ(view.tuple(first).witnesses.size(), 2u);
}

TEST_F(ViewTest, FindMissingReturnsNullopt) {
  View view(query_.get(), &db_);
  Tuple missing = {db_.dict().Intern("zzz"), db_.dict().Intern("b")};
  EXPECT_FALSE(view.Find(missing).has_value());
}

// Positions shift under RemoveTuples, serials do not: Find, PositionOf and
// AddMatch must keep agreeing across interleaved removals and appends.
TEST_F(ViewTest, FindTracksPositionsAcrossRemovalsAndAppends) {
  View view(query_.get(), &db_);
  auto values_of = [&](int i) {
    return Tuple{db_.dict().Intern("a" + std::to_string(i)),
                 db_.dict().Intern("b")};
  };
  std::vector<int> live;  // expected content, in position order
  int next = 0;
  auto append = [&](int count) {
    for (int k = 0; k < count; ++k, ++next) {
      size_t index = view.AddMatch(values_of(next), Witness{{0, 0}});
      EXPECT_EQ(index, live.size());
      live.push_back(next);
    }
  };
  auto remove = [&](std::vector<size_t> positions) {
    view.RemoveTuples(positions);
    for (size_t i = positions.size(); i-- > 0;) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(positions[i]));
    }
  };
  auto expect_consistent = [&]() {
    ASSERT_EQ(view.size(), live.size());
    for (size_t pos = 0; pos < live.size(); ++pos) {
      EXPECT_EQ(view.tuple(pos).values, values_of(live[pos]));
      std::optional<size_t> found = view.Find(values_of(live[pos]));
      ASSERT_TRUE(found.has_value()) << "a" << live[pos];
      EXPECT_EQ(*found, pos);
      EXPECT_EQ(view.PositionOf(view.serial(pos)), pos);
      if (pos > 0) EXPECT_LT(view.serial(pos - 1), view.serial(pos));
    }
    for (int i = 0; i < next; ++i) {
      bool present = std::find(live.begin(), live.end(), i) != live.end();
      EXPECT_EQ(view.Find(values_of(i)).has_value(), present) << "a" << i;
    }
  };
  append(6);
  remove({0, 2, 5});
  expect_consistent();
  append(3);
  expect_consistent();
  remove({1, 3});
  expect_consistent();
  // A witness for an existing head lands on its current position.
  size_t index = view.AddMatch(values_of(live[2]), Witness{{0, 1}});
  EXPECT_EQ(index, 2u);
  EXPECT_EQ(view.tuple(2).witnesses.size(), 2u);
  append(2);
  remove({0});
  expect_consistent();
  // A removed head comes back as a new tuple at the end.
  size_t again = view.AddMatch(values_of(0), Witness{{0, 0}});
  EXPECT_EQ(again, view.size() - 1);
  live.push_back(0);
  expect_consistent();
}

TEST_F(ViewTest, SurvivesRequiresDisjointWitness) {
  View view(query_.get(), &db_);
  Tuple values = {db_.dict().Intern("a"), db_.dict().Intern("b")};
  view.AddMatch(values, Witness{{0, 0}});
  view.AddMatch(values, Witness{{0, 1}});
  DeletionSet one;
  one.Insert({0, 0});
  EXPECT_TRUE(view.Survives(0, one)) << "second witness intact";
  one.Insert({0, 1});
  EXPECT_FALSE(view.Survives(0, one));
}

TEST_F(ViewTest, RenderTupleUsesQueryName) {
  Result<View> view = Evaluate(db_, *query_);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 1u);
  EXPECT_EQ(view->RenderTuple(0), "Q(a, b)");
}

TEST(EvaluatorGuardTest, MaxMatchesTriggersOnCartesianBlowup) {
  Database db;
  ASSERT_TRUE(db.AddRelation("A", 1, {0}).ok());
  ASSERT_TRUE(db.AddRelation("B", 1, {0}).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.InsertText(0, {"a" + std::to_string(i)}).ok());
    ASSERT_TRUE(db.InsertText(1, {"b" + std::to_string(i)}).ok());
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x, y) :- A(x), B(y)", db.schema(), db.dict());
  ASSERT_TRUE(q.ok());
  EvalOptions options;
  options.max_matches = 100;
  Result<View> view = Evaluate(db, *q, options);  // 900 matches > 100
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kOutOfRange);
  // Within the limit it succeeds.
  options.max_matches = 1000;
  EXPECT_TRUE(Evaluate(db, *q, options).ok());
  // Zero disables the guard.
  options.max_matches = 0;
  EXPECT_TRUE(Evaluate(db, *q, options).ok());
}

TEST(PerViewSideEffectTest, BreakdownMatchesDefinition) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  VseInstance& instance = *generated->instance;
  ASSERT_TRUE(instance.MarkForDeletionByValues(0, {"John", "XML"}).ok());
  RelationId t1 = *generated->database->schema().FindRelation("T1");
  DeletionSet deletion;
  deletion.Insert({t1, 1});
  deletion.Insert({t1, 3});
  SideEffectReport report = EvaluateDeletion(instance, deletion);
  ASSERT_EQ(report.per_view_side_effect.size(), 2u);
  EXPECT_EQ(report.per_view_side_effect[0], 1u) << "Q3 loses (John, CUBE)";
  EXPECT_EQ(report.per_view_side_effect[1], 3u) << "Q4 loses John's 3 rows";
  EXPECT_EQ(report.per_view_side_effect[0] + report.per_view_side_effect[1],
            report.side_effect_count);
}

}  // namespace
}  // namespace delprop

#ifndef DELPROP_QUERY_EVALUATOR_H_
#define DELPROP_QUERY_EVALUATOR_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "query/conjunctive_query.h"
#include "query/view.h"
#include "relational/database.h"
#include "relational/deletion_set.h"
#include "runtime/index_cache.h"

namespace delprop {

/// Counters filled during evaluation (plan + work measures), for tests,
/// EXPLAIN output, and the substrate benches.
struct EvalStats {
  /// The greedy join order chosen, as original atom indices.
  std::vector<size_t> atom_order;
  /// Matches emitted (including duplicates collapsing into one view tuple).
  size_t matches = 0;
  /// Candidate rows examined across all lookups.
  size_t rows_scanned = 0;
  /// Per-(relation, position) hash indexes built on demand (cache misses
  /// included, cache hits not — a hit builds nothing).
  size_t indexes_built = 0;
  /// Indexes served by EvalOptions::index_cache without building (counted
  /// once per (relation, position) per evaluation).
  size_t index_cache_hits = 0;
  /// Indexes the shared cache had to build for this evaluation.
  size_t index_cache_misses = 0;
};

/// Options for query evaluation.
struct EvalOptions {
  /// If set, evaluate against D \ mask (rows in the mask are invisible).
  const DeletionSet* mask = nullptr;
  /// If set, filled with plan and work counters.
  EvalStats* stats = nullptr;
  /// Guard against runaway results (cartesian products of ad-hoc queries):
  /// evaluation fails with OutOfRange once this many matches were emitted.
  /// 0 disables the guard.
  size_t max_matches = 0;
  /// If set, per-(relation, position) indexes are taken from (and published
  /// to) this shared cache instead of being rebuilt per Evaluate() call.
  /// The cache must belong to the evaluated database; it may be shared by
  /// concurrent evaluations. Results are identical with or without a cache.
  IndexCache* index_cache = nullptr;
};

/// The greedy join order, as original atom indices: repeatedly the unplaced
/// atom with the most terms bound by constants or previously placed atoms,
/// ties towards the smaller relation, then the lower atom index. If `first`
/// is set, that atom is placed first and the rule orders the rest. Evaluate()
/// runs this order with no pre-placed atom.
std::vector<size_t> GreedyAtomOrder(const Database& database,
                                    const ConjunctiveQuery& query,
                                    std::optional<size_t> first = std::nullopt);

/// Renders the evaluation plan (join order with per-atom binding info) the
/// evaluator would choose, without running the query.
std::string ExplainPlan(const Database& database,
                        const ConjunctiveQuery& query);

/// Evaluates `query` over `database` and materializes the result with
/// why-provenance (every match's witness set is recorded on its view tuple).
///
/// The evaluator is a backtracking join: atoms are ordered greedily (most
/// bound terms first), and per-(relation, position) hash indexes accelerate
/// lookups of partially bound atoms. Works for arbitrary CQs, including
/// self-joins and repeated head variables.
Result<View> Evaluate(const Database& database, const ConjunctiveQuery& query,
                      const EvalOptions& options = {});

}  // namespace delprop

#endif  // DELPROP_QUERY_EVALUATOR_H_

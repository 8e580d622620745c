#ifndef DELPROP_TESTING_REFERENCE_EVAL_H_
#define DELPROP_TESTING_REFERENCE_EVAL_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dp/side_effect.h"
#include "dp/vse_instance.h"
#include "query/evaluator.h"
#include "query/view.h"
#include "relational/database.h"
#include "relational/deletion_set.h"

namespace delprop {
namespace testing {

/// Canonical (ordered, hence directly comparable) form of a query result:
/// head values -> set of witnesses. Both the naive reference evaluator and
/// the projection of an indexed View use it, so differential checks are a
/// single operator==.
using WitnessSet = std::set<Witness>;
using ResultMap = std::map<Tuple, WitnessSet>;

/// Brute-force reference evaluator: tries every combination of rows for the
/// body atoms (full cartesian enumeration). Exponential in the atom count —
/// use only on instances small enough for the fuzz oracles; callers should
/// gate on NaiveEvaluationCost. Semantically authoritative: the indexed
/// evaluator must produce exactly this map (answers AND witness sets).
ResultMap NaiveEvaluate(const Database& database,
                        const ConjunctiveQuery& query,
                        const DeletionSet* mask = nullptr);

/// Flattens a materialized View into the canonical map form.
ResultMap ViewToResultMap(const View& view);

/// Number of row combinations NaiveEvaluate would enumerate (product of the
/// atoms' relation sizes), saturating at SIZE_MAX. The fuzz oracles skip the
/// crosscheck when this exceeds their budget.
size_t NaiveEvaluationCost(const Database& database,
                           const ConjunctiveQuery& query);

/// Reference for internal::CollectDeltaMatches (dp/base_delta.h): the plain
/// body-order backtracking scan it replaced. For each pivot atom in body
/// order and each new row of its relation ascending, atoms are bound in body
/// order over ascending rows — atoms before the pivot over old rows only,
/// atoms after it over every row, masked rows skipped — so the (head values,
/// witness) pairs come out in exactly the order the indexed join must
/// reproduce. Cost is every old partial match of the query per pivot row;
/// use only to check the indexed join. `first_new_row` must have one entry
/// per relation.
void ReferenceDeltaMatches(const Database& database,
                           const ConjunctiveQuery& query,
                           const DeletionSet& mask,
                           const std::vector<uint32_t>& first_new_row,
                           std::vector<std::pair<Tuple, Witness>>* out);

/// Reference for EvaluateDeletion (dp/side_effect.h): the full scan it
/// replaced. Visits every view tuple in ascending (view, tuple) order and
/// tests each witness's raw member row against a per-base mark array, so
/// it costs O(‖V‖ · members + bases) per call whatever the deletion. Use
/// only to check the neighbourhood walk; `entries_examined` stays 0.
SideEffectReport ReferenceEvaluateDeletion(const VseInstance& instance,
                                           const DeletionSet& deletion);

/// The first field on which `got` and `want` differ, or "" when they agree
/// on every field that describes the deletion's effect: the flags, counts,
/// id lists and per-view breakdown exactly, and the weights bitwise (so a
/// changed addition order shows). `entries_examined` is a work counter of
/// the evaluation, not part of the effect, and is not compared.
std::string DiffSideEffectReports(const SideEffectReport& got,
                                  const SideEffectReport& want);

}  // namespace testing
}  // namespace delprop

#endif  // DELPROP_TESTING_REFERENCE_EVAL_H_

#ifndef DELPROP_DP_SIDE_EFFECT_H_
#define DELPROP_DP_SIDE_EFFECT_H_

#include <vector>

#include "dp/vse_instance.h"
#include "relational/deletion_set.h"

namespace delprop {

/// Full accounting of what a source deletion ΔD does to the views. Computed
/// from the recorded lineage: a view tuple survives iff some witness is
/// disjoint from ΔD (correct for monotone CQs).
struct SideEffectReport {
  /// Condition (a) of the problem statement: every ΔV tuple eliminated,
  /// i.e. Qi(D \ ΔD) ⊆ Vi \ ΔVi for all i.
  bool eliminates_all_deletions = false;

  /// Preserved view tuples (in V \ ΔV) killed by ΔD — the side-effect.
  std::vector<ViewTupleId> killed_preserved;
  /// ΔV tuples that survive ΔD (empty iff eliminates_all_deletions).
  std::vector<ViewTupleId> surviving_deletions;

  /// The standard objective: Σ si as a count, and its weighted value.
  size_t side_effect_count = 0;
  double side_effect_weight = 0.0;

  /// The per-view breakdown: si = |Vi \ ΔVi| − |Qi(D \ ΔD)| exactly as the
  /// problem statement defines it (one entry per view).
  std::vector<size_t> per_view_side_effect;

  /// The balanced objective (Section III, fixed per DESIGN.md):
  /// weight(ΔV tuples not eliminated) + weight(preserved tuples eliminated).
  double balanced_cost = 0.0;

  /// |ΔD| — the source side-effect counterpart (Tables II/III).
  size_t source_deletion_count = 0;

  /// Deterministic work counter of the evaluation that produced this report:
  /// kill-row entries walked plus witness member slots read. It describes
  /// the computation, not the deletion's effect, so report comparisons
  /// leave it out.
  size_t entries_examined = 0;
};

/// Evaluates the deletion against every view of the instance. Only the
/// deletion's neighbourhood is visited: the kill rows of the deleted bases
/// and the ΔV tuples, each tested against its witnesses in ascending
/// (view, tuple) order. Every other view tuple keeps a witness disjoint from
/// ΔD and so is preserved and alive. The cost is O(|ΔD| log |bases| + the
/// neighbourhood's kill-row entries and member slots + ‖V‖/64) — the last
/// term zeroes and sweeps the candidate bitset — with the doubles summed in
/// the same order as a scan of every view tuple
/// (testing::ReferenceEvaluateDeletion, the reference it is checked against).
SideEffectReport EvaluateDeletion(const VseInstance& instance,
                                  const DeletionSet& deletion);

}  // namespace delprop

#endif  // DELPROP_DP_SIDE_EFFECT_H_

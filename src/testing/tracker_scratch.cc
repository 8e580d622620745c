// The tracker-vs-scratch oracle: DamageTracker's incremental kill state and
// its read-only probes, checked against a from-scratch recount and against
// real mutations of the same tracker.
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dp/side_effect.h"
#include "plan/compiled_instance.h"
#include "solvers/damage_tracker.h"
#include "testing/oracles.h"
#include "testing/reference_eval.h"

namespace delprop {
namespace testing {
namespace {

constexpr uint32_t kNpos = CompiledInstance::kNpos;

std::string FormatCost(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// Kill state of a deletion recomputed from the plan's raw witness member
/// rows and the deleted base list alone — no tracker state, no packed
/// layout, no occurrence or kill rows.
struct KillRecount {
  std::vector<uint32_t> witness_hits;    // distinct deleted members
  std::vector<uint32_t> dead_witnesses;  // per view tuple
  std::vector<uint8_t> killed;           // per view tuple
};

KillRecount RecountKills(const CompiledInstance& plan,
                         const std::vector<uint32_t>& deleted_bases) {
  std::vector<uint8_t> deleted(plan.base_count(), 0);
  for (uint32_t base : deleted_bases) deleted[base] = 1;
  KillRecount rc;
  rc.witness_hits.assign(plan.witness_count(), 0);
  std::vector<uint32_t> members;
  for (uint32_t w = 0; w < plan.witness_count(); ++w) {
    members.clear();
    for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
         ++slot) {
      members.push_back(plan.member_base(slot));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (uint32_t base : members) rc.witness_hits[w] += deleted[base];
  }
  rc.dead_witnesses.assign(plan.tuple_count(), 0);
  rc.killed.assign(plan.tuple_count(), 0);
  for (uint32_t t = 0; t < plan.tuple_count(); ++t) {
    for (uint32_t w = plan.tuple_witness_begin(t);
         w < plan.tuple_witness_end(t); ++w) {
      if (rc.witness_hits[w] != 0) ++rc.dead_witnesses[t];
    }
    rc.killed[t] = rc.dead_witnesses[t] == plan.tuple_witness_count(t);
  }
  return rc;
}

/// The exact search's branch pick as the literal nested scan: unkilled ΔV
/// tuples ascending, their unhit witnesses ascending, strict-< first-min on
/// raw member count.
uint32_t ScanBranchWitness(const CompiledInstance& plan,
                           const KillRecount& rc) {
  uint32_t best = kNpos;
  uint32_t best_size = std::numeric_limits<uint32_t>::max();
  for (uint32_t dense : plan.deletion_dense()) {
    if (rc.killed[dense]) continue;
    for (uint32_t w = plan.tuple_witness_begin(dense);
         w < plan.tuple_witness_end(dense); ++w) {
      if (rc.witness_hits[w] != 0) continue;
      uint32_t size = plan.member_end(w) - plan.member_begin(w);
      if (size < best_size) {
        best = w;
        best_size = size;
      }
    }
  }
  return best;
}

bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// Probe-vs-mutation checks at the tracker's current state, leaving the
/// deletion as it was. Every probe must equal, bitwise, what the real
/// Delete → read → Undelete (or Undelete → read → Delete) reports.
std::string ProbeAgainstMutation(DamageTracker& tracker) {
  const CompiledInstance& plan = tracker.plan();
  const std::vector<uint32_t>& candidates = plan.candidate_bases();
  std::vector<double> batch;
  tracker.MarginalDamageAll(candidates, &batch);
  for (size_t i = 0; i < candidates.size(); ++i) {
    uint32_t base = candidates[i];
    std::string at = "base " + std::to_string(base) + ": ";
    if (tracker.IsDeletedBase(base)) {
      size_t unkilled = tracker.unkilled_deletion_count();
      bool probe = tracker.CanDropBase(base);
      tracker.UndeleteBase(base);
      bool real = tracker.unkilled_deletion_count() == unkilled;
      tracker.DeleteBase(base);
      if (probe != real) {
        return at + "CanDropBase says " + std::to_string(probe) +
               ", a real undelete says " + std::to_string(real);
      }
      continue;
    }
    double marginal = tracker.MarginalDamageBase(base);
    double kpw_probe = tracker.KpwAfterDeleteBase(base);
    double killed = tracker.DeleteBase(base);
    double kpw_real = tracker.killed_preserved_weight();
    tracker.UndeleteBase(base);
    if (marginal != killed || batch[i] != killed) {
      return at + "MarginalDamageBase " + FormatCost(marginal) +
             " / MarginalDamageAll " + FormatCost(batch[i]) +
             ", DeleteBase killed " + FormatCost(killed);
    }
    if (kpw_probe != kpw_real) {
      return at + "KpwAfterDeleteBase " + FormatCost(kpw_probe) +
             ", killed preserved weight after DeleteBase " +
             FormatCost(kpw_real);
    }
  }
  return "";
}

}  // namespace

std::string DiffTrackerAgainstScratch(const VseInstance& instance,
                                      DamageTracker& tracker) {
  const CompiledInstance& plan = tracker.plan();
  KillRecount rc = RecountKills(plan, tracker.DeletedBases());
  for (uint32_t w = 0; w < plan.witness_count(); ++w) {
    if (tracker.witness_hits(w) != rc.witness_hits[w]) {
      return "witness " + std::to_string(w) + " hits " +
             std::to_string(tracker.witness_hits(w)) + ", recount " +
             std::to_string(rc.witness_hits[w]);
    }
  }
  std::vector<uint32_t> unhit;
  std::vector<uint32_t> unhit_rc;
  std::vector<uint32_t> unkilled_deletions;
  for (uint32_t t = 0; t < plan.tuple_count(); ++t) {
    std::string at = "tuple " + std::to_string(t) + ": ";
    if (tracker.IsKilledDense(t) != (rc.killed[t] != 0)) {
      return at + "killed " + std::to_string(tracker.IsKilledDense(t)) +
             ", recount " + std::to_string(rc.killed[t]);
    }
    if (tracker.dead_witness_count(t) != rc.dead_witnesses[t]) {
      return at + "dead witnesses " +
             std::to_string(tracker.dead_witness_count(t)) + ", recount " +
             std::to_string(rc.dead_witnesses[t]);
    }
    unhit.clear();
    tracker.ForEachUnhitWitness(t, [&unhit](uint32_t w) {
      unhit.push_back(w);
      return true;
    });
    unhit_rc.clear();
    for (uint32_t w = plan.tuple_witness_begin(t);
         w < plan.tuple_witness_end(t); ++w) {
      if (rc.witness_hits[w] == 0) unhit_rc.push_back(w);
    }
    if (unhit != unhit_rc) {
      return at + "ForEachUnhitWitness visits " +
             std::to_string(unhit.size()) + " witness(es), recount " +
             std::to_string(unhit_rc.size());
    }
    uint32_t first = unhit_rc.empty() ? kNpos : unhit_rc.front();
    if (tracker.FirstUnhitWitness(t) != first) {
      return at + "first unhit witness " +
             std::to_string(tracker.FirstUnhitWitness(t)) + ", recount " +
             std::to_string(first);
    }
    if (plan.is_deletion(t) && !rc.killed[t]) unkilled_deletions.push_back(t);
  }
  std::vector<uint32_t> visited;
  tracker.ForEachUnkilledDeletion([&visited](uint32_t t) {
    visited.push_back(t);
    return true;
  });
  if (visited != unkilled_deletions ||
      tracker.unkilled_deletion_count() != unkilled_deletions.size()) {
    return "unkilled ΔV tuples: tracker counts " +
           std::to_string(tracker.unkilled_deletion_count()) + " and visits " +
           std::to_string(visited.size()) + ", recount " +
           std::to_string(unkilled_deletions.size());
  }
  uint32_t branch = tracker.SelectBranchWitness();
  if (branch != ScanBranchWitness(plan, rc)) {
    return "SelectBranchWitness " + std::to_string(branch) +
           ", nested scan " + std::to_string(ScanBranchWitness(plan, rc));
  }

  // The view-level truth: killed and surviving sets as the full reference
  // scan evaluates the same deletion (independent of the production report).
  SideEffectReport report =
      ReferenceEvaluateDeletion(instance, tracker.CurrentDeletion());
  std::vector<uint32_t> killed_preserved;
  for (const ViewTupleId& id : report.killed_preserved) {
    killed_preserved.push_back(plan.DenseOf(id));
  }
  std::vector<uint32_t> surviving;
  for (const ViewTupleId& id : report.surviving_deletions) {
    surviving.push_back(plan.DenseOf(id));
  }
  std::sort(killed_preserved.begin(), killed_preserved.end());
  std::sort(surviving.begin(), surviving.end());
  std::vector<uint32_t> killed_preserved_rc;
  for (uint32_t t = 0; t < plan.tuple_count(); ++t) {
    if (rc.killed[t] && !plan.is_deletion(t)) killed_preserved_rc.push_back(t);
  }
  if (killed_preserved != killed_preserved_rc) {
    return "reference scan kills " + std::to_string(killed_preserved.size()) +
           " preserved tuple(s), recount " +
           std::to_string(killed_preserved_rc.size());
  }
  if (surviving != unkilled_deletions) {
    return "reference scan leaves " + std::to_string(surviving.size()) +
           " ΔV tuple(s), recount " +
           std::to_string(unkilled_deletions.size());
  }
  // Aggregates: the scan sums in its own order, hence the slack.
  if (!NearlyEqual(tracker.killed_preserved_weight(),
                   report.side_effect_weight) ||
      !NearlyEqual(tracker.killed_preserved_weight() +
                       tracker.surviving_deletion_weight(),
                   report.balanced_cost)) {
    return "aggregates: killed preserved weight " +
           FormatCost(tracker.killed_preserved_weight()) +
           " + surviving ΔV weight " +
           FormatCost(tracker.surviving_deletion_weight()) +
           ", reference scan " + FormatCost(report.side_effect_weight) +
           " / balanced " + FormatCost(report.balanced_cost);
  }
  return "";
}

std::vector<OracleViolation> CheckKernelOracle(const VseInstance& instance) {
  std::vector<OracleViolation> out;
  if (instance.TotalDeletionTuples() == 0) return out;
  DamageTracker tracker(instance);
  const CompiledInstance& plan = tracker.plan();
  const std::vector<uint32_t>& candidates = plan.candidate_bases();
  auto check = [&](const char* phase) {
    std::string diff = DiffTrackerAgainstScratch(instance, tracker);
    if (diff.empty()) diff = ProbeAgainstMutation(tracker);
    if (!diff.empty()) {
      out.push_back({"tracker-vs-scratch", std::string(phase) + ": " + diff});
    }
    return diff.empty();
  };

  if (!check("initial")) return out;
  // Phase 1: delete every candidate, greedy-style.
  for (uint32_t base : candidates) tracker.DeleteBase(base);
  if (!check("all-deleted")) return out;
  // Phase 2: undelete every other candidate (reverse order) so re-kill
  // paths run against a mixed state.
  for (size_t i = candidates.size(); i-- > 0;) {
    if (i % 2 != 0) tracker.UndeleteBase(candidates[i]);
  }
  if (!check("half-undeleted")) return out;
  // Phase 3: the sparse reset must restore the pristine state.
  tracker.Reset();
  if (!check("after-reset")) return out;

  // Phase 4: exchange probes from the all-deleted state. Undelete one base,
  // collect its revived ΔV tuples, and ask every other candidate whether
  // swapping it in would improve; a real delete → read → undelete decides.
  for (uint32_t base : candidates) tracker.DeleteBase(base);
  std::vector<uint32_t> revived;
  for (uint32_t out_base : candidates) {
    tracker.UndeleteBase(out_base);
    tracker.CollectUnkilledDeletions(out_base, &revived);
    std::vector<uint32_t> revived_rc;
    for (uint32_t slot = plan.kill_begin(out_base);
         slot < plan.kill_end(out_base); ++slot) {
      uint32_t t = plan.kill_tuple(slot);
      if (plan.is_deletion(t) && !tracker.IsKilledDense(t)) {
        revived_rc.push_back(t);
      }
    }
    if (revived != revived_rc) {
      out.push_back({"tracker-vs-scratch",
                     "CollectUnkilledDeletions(" + std::to_string(out_base) +
                         ") returns " + std::to_string(revived.size()) +
                         " tuple(s), kill-row scan " +
                         std::to_string(revived_rc.size())});
      return out;
    }
    double budget = tracker.killed_preserved_weight() + 1.0;
    for (uint32_t in : candidates) {
      if (tracker.IsDeletedBase(in)) continue;
      bool probe = tracker.SwapWouldImprove(in, revived, budget);
      tracker.DeleteBase(in);
      bool feasible = std::all_of(
          revived.begin(), revived.end(),
          [&tracker](uint32_t t) { return tracker.IsKilledDense(t); });
      bool real = feasible && tracker.killed_preserved_weight() < budget;
      tracker.UndeleteBase(in);
      if (probe != real) {
        out.push_back({"tracker-vs-scratch",
                       "SwapWouldImprove(" + std::to_string(in) + ", out=" +
                           std::to_string(out_base) + ") says " +
                           std::to_string(probe) + ", a real delete says " +
                           std::to_string(real)});
        return out;
      }
    }
    tracker.DeleteBase(out_base);
  }
  check("after-swaps");
  return out;
}

}  // namespace testing
}  // namespace delprop

#ifndef DELPROP_SOLVERS_DAMAGE_TRACKER_H_
#define DELPROP_SOLVERS_DAMAGE_TRACKER_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "relational/deletion_set.h"
#include "solvers/kill_kernels.h"

namespace delprop {

/// Incremental accounting of which view tuples die as base tuples are
/// deleted, with exact multi-witness semantics: a witness is dead when it
/// loses any member; a view tuple is killed when all of its witnesses are
/// dead. Supports O(occurrences) delete/undelete and marginal-damage queries,
/// shared by the greedy, exact, local-search, and ILP solvers.
///
/// Runs entirely on the instance's CompiledInstance plan, with its state
/// held by the bit-parallel kill kernels (src/solvers/kill_kernels.h):
/// word-packed member-hit bits, a witness-alive bitset and a tuple-killed
/// bitset, with marginal queries answered from the kill rows'
/// witness-incidence masks. Tuples with more than 64 witnesses take a cold
/// out-of-line path inside the kernels; nothing here depends on the width.
/// The `tracker-vs-scratch` fuzz oracle checks every query against a
/// from-scratch recount and against a real delete → read → undelete.
///
/// The TupleRef overloads stay for callers holding refs; the *Base overloads
/// take dense base ids straight from the plan. Refs that occur in no witness
/// ("foreign" refs, possible through the public API) are tracked on a small
/// sorted side list (binary-searched, never scanned on the solver hot path)
/// and are harmless no-ops for damage.
class DamageTracker {
 public:
  explicit DamageTracker(const VseInstance& instance);

  /// Rebinds the tracker to `instance`'s current compiled plan in the
  /// freshly-constructed state, reusing the existing state arrays when the
  /// new plan's dimensions match (same shared core, different ΔV —
  /// the batched-serving steady state). Drops the old plan reference BEFORE
  /// acquiring the new one so the instance can recycle a retired plan's
  /// overlay buffers. Returns true when array storage was reused (no
  /// allocation happened).
  bool Rebind(const VseInstance& instance);

  /// Releases the tracker's plan reference without rebinding; the tracker
  /// is unusable until the next Rebind. Engine workers call this before
  /// mutating their replica's ΔV so the retired plan becomes recyclable.
  void ReleasePlan() { plan_.reset(); }

  /// Deletes `ref` (must not be deleted already). Returns the preserved
  /// weight newly killed by this deletion.
  double Delete(const TupleRef& ref);

  /// Reverts a prior Delete of `ref` (order-independent).
  void Undelete(const TupleRef& ref);

  bool IsDeleted(const TupleRef& ref) const;

  /// Preserved weight that deleting `ref` would newly kill right now.
  double MarginalDamage(const TupleRef& ref) const;

  /// Dense-id variants (ids from plan(); never foreign). Inline — the exact
  /// search's delete/undelete pair runs tens of millions of times per solve.
  double DeleteBase(uint32_t base) {
    assert(!IsDeletedBase(base));
    deleted_pos_[base] = static_cast<uint32_t>(deleted_.size());
    deleted_.push_back(base);
    return kernels_.DeleteBase(base, &touch_, &unkilled_deletions_,
                               &killed_preserved_weight_,
                               &surviving_deletion_weight_);
  }
  void UndeleteBase(uint32_t base) {
    assert(IsDeletedBase(base));
    uint32_t hole = deleted_pos_[base];
    if (hole + 1 != deleted_.size()) {
      deleted_[hole] = deleted_.back();
      deleted_pos_[deleted_[hole]] = hole;
    }
    deleted_.pop_back();
    kernels_.UndeleteBase(base, &unkilled_deletions_,
                          &killed_preserved_weight_,
                          &surviving_deletion_weight_);
  }
  /// Sparse-set membership: `base` is deleted iff its recorded position in
  /// deleted_ is in range and holds it, so clearing deleted_ clears every
  /// base at once with no stamp that could wrap.
  bool IsDeletedBase(uint32_t base) const {
    uint32_t pos = deleted_pos_[base];
    return pos < deleted_.size() && deleted_[pos] == base;
  }
  double MarginalDamageBase(uint32_t base) const;

  /// Batch marginal damage: out[i] = MarginalDamageBase(bases[i]). `out` is
  /// resized to match.
  void MarginalDamageAll(const std::vector<uint32_t>& bases,
                         std::vector<double>* out) const;

  /// True iff undeleting `base` (currently deleted) would not revive any
  /// currently-killed ΔV tuple — i.e. the drop keeps feasibility. Read-only
  /// twin of the Undelete → check → re-Delete dance.
  bool CanDropBase(uint32_t base) const;

  /// Collects the currently-unkilled ΔV tuples in `base`'s kill row
  /// (ascending) into `out` (cleared first). After undeleting one member of
  /// a feasible solution these are exactly the revived tuples.
  void CollectUnkilledDeletions(uint32_t base, std::vector<uint32_t>* out) const;

  /// Exchange probe: would deleting `base` kill every tuple in `revived`
  /// (currently-unkilled ΔV tuples, ascending) and leave the killed
  /// preserved weight strictly below `budget`? The cost accumulates from
  /// killed_preserved_weight() in DeleteBase's addition order, so the
  /// comparison is bit-identical to a real Delete → compare → Undelete.
  bool SwapWouldImprove(uint32_t base, const std::vector<uint32_t>& revived,
                        double budget) const;

  /// The killed_preserved_weight() this tracker would report after
  /// DeleteBase(base) (`base` not deleted), accumulated from the current
  /// value in DeleteBase's own addition order (ascending newly-killed
  /// tuple) — bit-identical to a real Delete → read → Undelete, so
  /// branch-and-bound entry prunes can run without mutating state. Inline:
  /// one call per exact-search node.
  double KpwAfterDeleteBase(uint32_t base) const {
    return kernels_.KpwAfterDelete(base, killed_preserved_weight_);
  }

  /// Calls fn(dense) for every preserved tuple DeleteBase(base) would newly
  /// kill, ascending — the tuples MarginalDamageBase sums, for bounding code
  /// that weighs them its own way (the ILP packs).
  template <typename Fn>
  void ForEachNewlyKilled(uint32_t base, Fn&& fn) const {
    kernels_.ForEachNewlyKilled(base, fn);
  }

  /// Number of ΔV tuples not yet killed.
  size_t unkilled_deletion_count() const { return unkilled_deletions_; }

  /// Weight of preserved tuples killed so far.
  double killed_preserved_weight() const { return killed_preserved_weight_; }

  /// Weight of ΔV tuples not yet killed (for the balanced objective).
  double surviving_deletion_weight() const {
    return surviving_deletion_weight_;
  }

  bool IsKilled(const ViewTupleId& id) const {
    return IsKilledDense(plan_->DenseOf(id));
  }
  bool IsKilledDense(uint32_t dense) const {
    return kernels::TestBit(kstate_.killed_words.data(), dense);
  }

  /// Deleted-member count of witness `wid` (0 = the witness is alive).
  uint32_t witness_hits(uint32_t wid) const {
    return kernels_.WitnessHits(wid);
  }

  /// Dead-witness count of view tuple `dense` (== its witness count exactly
  /// when the tuple is killed). Lets bounding code derive the number of
  /// still-unhit witnesses without rescanning the witness row.
  uint32_t dead_witness_count(uint32_t dense) const {
    return kernels_.DeadWitnessCount(dense);
  }

  /// Branch pick for the exact search: the first witness — scanning unkilled
  /// ΔV tuples ascending, then their unhit witnesses ascending — whose raw
  /// member count equals the minimum over that whole scan, or
  /// CompiledInstance::kNpos when every ΔV tuple is killed. Answered from a
  /// per-size witness-bitmask index in a few word ANDs
  /// (kernels::KillKernels::SelectBranchWitness — equivalence argued there).
  /// Non-const only because the index is built lazily.
  uint32_t SelectBranchWitness() { return kernels_.SelectBranchWitness(); }

  /// First still-unhit witness of `dense` in witness-id order, or
  /// CompiledInstance::kNpos when every witness is dead.
  uint32_t FirstUnhitWitness(uint32_t dense) const {
    uint32_t first = CompiledInstance::kNpos;
    ForEachUnhitWitness(dense, [&first](uint32_t wid) {
      first = wid;
      return false;
    });
    return first;
  }

  /// Calls fn(wid) for every still-unhit witness of `dense`, ascending, one
  /// alive word at a time. fn returns false to stop early.
  template <typename Fn>
  void ForEachUnhitWitness(uint32_t dense, Fn&& fn) const {
    const uint64_t* alive = kstate_.alive_words.data();
    uint32_t wb = plan_->tuple_witness_begin(dense);
    uint32_t n = plan_->tuple_witness_end(dense) - wb;
    for (uint32_t off = 0; off < n; off += 64) {
      uint32_t width = n - off < 64 ? n - off : 64;
      uint64_t la = kernels::ExtractBits(alive, wb + off, width);
      while (la != 0) {
        if (!fn(wb + off + kernels::Ctz64(la))) return;
        la &= la - 1;
      }
    }
  }

  /// Calls fn(dense) for every not-yet-killed ΔV tuple, ascending (the
  /// deletion_dense order), scanning deletion_words & ~killed_words one
  /// word at a time. fn returns false to stop early.
  template <typename Fn>
  void ForEachUnkilledDeletion(Fn&& fn) const {
    const std::vector<uint64_t>& del = plan_->deletion_words();
    const uint64_t* killed = kstate_.killed_words.data();
    for (size_t i = 0; i < del.size(); ++i) {
      uint64_t w = del[i] & ~killed[i];
      while (w != 0) {
        uint32_t dense = static_cast<uint32_t>(i << 6) + kernels::Ctz64(w);
        if (!fn(dense)) return;
        w &= w - 1;
      }
    }
  }

  /// Snapshot of the current deletion as a DeletionSet.
  DeletionSet CurrentDeletion() const;

  /// Deleted interned bases, in deletion order (excludes foreign refs).
  const std::vector<uint32_t>& DeletedBases() const { return deleted_; }

  /// Number of deleted base tuples (interned + foreign). O(1) — two vector
  /// sizes; never scans the foreign side list.
  size_t deleted_count() const { return deleted_.size() + foreign_.size(); }

  /// Reverts to the freshly-constructed state: restores the aggregate
  /// weights to their exact initial values (no floating-point drift from
  /// incremental rollback) and clears the deleted list, which un-deletes
  /// every base in O(1). The per-witness/per-tuple state rolls back
  /// sparsely — O(touched) — when the touch log stayed under its caps, and
  /// falls back to the O(‖V‖ + witnesses) full zeroing otherwise. Lets
  /// restart-style callers (local search) reuse one tracker cheaply.
  void Reset();

  const CompiledInstance& plan() const { return *plan_; }

 private:
  /// Sizes the state arrays for the bound plan and clears them; returns
  /// true when array storage was reused.
  bool PrepareState();
  /// Rolls the state back to pristine (sparse when the touch log allows),
  /// clears the log, and restamps `state_core_`.
  void ClearState();

  std::shared_ptr<const CompiledInstance> plan_;

  kernels::KillKernels kernels_;
  kernels::KernelState kstate_;
  // Transition log driving the sparse Reset/Rebind rollback.
  kernels::TouchLog touch_;
  // Core whose layout the dirty state (and touch log) was produced under;
  // a sparse rollback is only sound against the same core.
  const void* state_core_ = nullptr;
  // Tuples with an empty witness row are killed from the start, so their
  // killed bits are seeded after every full clear. Cached per core; empty
  // on every real workload.
  std::vector<uint32_t> zero_witness_tuples_;
  const void* zero_witness_core_ = nullptr;

  // Per base: position in deleted_ (meaningful only while deleted; stale
  // entries are told apart by IsDeletedBase's cross-check).
  std::vector<uint32_t> deleted_pos_;
  std::vector<uint32_t> deleted_;
  // Refs not interned in the plan (occur in no witness); rare, test-only in
  // practice. Kept sorted so IsDeleted/Undelete are binary searches —
  // bounded even if a script piles up foreign refs.
  std::vector<TupleRef> foreign_;

  size_t unkilled_deletions_ = 0;
  double killed_preserved_weight_ = 0.0;
  double surviving_deletion_weight_ = 0.0;
  // Exact initial aggregates, restored by Reset().
  size_t initial_unkilled_deletions_ = 0;
  double initial_surviving_deletion_weight_ = 0.0;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_DAMAGE_TRACKER_H_

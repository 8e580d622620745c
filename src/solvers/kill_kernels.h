#ifndef DELPROP_SOLVERS_KILL_KERNELS_H_
#define DELPROP_SOLVERS_KILL_KERNELS_H_

#include <cstdint>
#include <vector>

#include "plan/compiled_instance.h"

namespace delprop {
namespace kernels {

// ---------------------------------------------------------------------------
// Word-level primitives. All hot, all inline.
// ---------------------------------------------------------------------------

inline int PopCount64(uint64_t w) { return __builtin_popcountll(w); }
inline uint32_t Ctz64(uint64_t w) {
  return static_cast<uint32_t>(__builtin_ctzll(w));
}
/// Mask of the `n` lowest bits, n in [0, 64].
inline uint64_t LowMask(uint32_t n) {
  return n >= 64 ? ~0ull : (1ull << n) - 1;
}
inline bool TestBit(const uint64_t* words, uint32_t bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}
inline void SetBit(uint64_t* words, uint32_t bit) {
  words[bit >> 6] |= 1ull << (bit & 63);
}
inline void ClearBit(uint64_t* words, uint32_t bit) {
  words[bit >> 6] &= ~(1ull << (bit & 63));
}
/// Extracts bits [first, first + count) as one word; count in [0, 64]. The
/// straddling read of words[wi + 1] is in bounds whenever the range itself
/// is (the range's last bit lives in that word).
inline uint64_t ExtractBits(const uint64_t* words, uint32_t first,
                            uint32_t count) {
  if (count == 0) return 0;
  uint32_t wi = first >> 6;
  uint32_t off = first & 63;
  uint64_t lo = words[wi] >> off;
  if (off + count > 64) lo |= words[wi + 1] << (64 - off);
  return lo & LowMask(count);
}
/// True iff bits [first, first + count) are all zero (count unbounded —
/// witness member rows can exceed one word).
inline bool RangeIsZero(const uint64_t* words, uint32_t first,
                        uint32_t count) {
  while (count > 64) {
    if (ExtractBits(words, first, 64) != 0) return false;
    first += 64;
    count -= 64;
  }
  return ExtractBits(words, first, count) == 0;
}
/// Popcount of bits [first, first + count) (count unbounded).
inline uint32_t RangePopCount(const uint64_t* words, uint32_t first,
                              uint32_t count) {
  uint32_t total = 0;
  while (count > 64) {
    total += static_cast<uint32_t>(PopCount64(ExtractBits(words, first, 64)));
    first += 64;
    count -= 64;
  }
  total += static_cast<uint32_t>(PopCount64(ExtractBits(words, first, count)));
  return total;
}
/// Zeroes bits [first, first + count).
inline void ClearRange(uint64_t* words, uint32_t first, uint32_t count) {
  while (count > 0) {
    uint32_t off = first & 63;
    uint32_t step = 64 - off;
    if (step > count) step = count;
    words[first >> 6] &= ~(LowMask(step) << off);
    first += step;
    count -= step;
  }
}

// ---------------------------------------------------------------------------
// Packed tracker state + sparse-reset log.
// ---------------------------------------------------------------------------

/// DamageTracker's kill state. Invariants while bound: alive bit of witness
/// w ⇔ w's hit slice is all-zero; killed bit of tuple t ⇔ t's alive slice
/// is all-zero (so a tuple with no witnesses is killed from the start).
struct KernelState {
  std::vector<uint64_t> hit_words;    // deleted-member bits, hit-bit space
  std::vector<uint64_t> alive_words;  // 1 bit per witness, 1 = unhit
  std::vector<uint64_t> killed_words;  // 1 bit per view tuple
};

/// Records which witnesses died and which tuples were killed since the last
/// reset, so Reset/Rebind can roll back sparsely instead of zeroing whole
/// arrays. Past the caps the log overflows and the owner falls back to a
/// full clear — the caps are a fraction of the array sizes, so a sparse
/// rollback is only attempted when it is actually cheaper.
struct TouchLog {
  std::vector<uint32_t> witnesses;
  std::vector<uint32_t> tuples;
  size_t witness_cap = 0;
  size_t tuple_cap = 0;
  bool overflow = false;

  void Bind(size_t witness_count, size_t tuple_count) {
    witness_cap = witness_count / 8 + 8;
    tuple_cap = tuple_count / 8 + 8;
    witnesses.clear();
    tuples.clear();
    witnesses.reserve(witness_cap);
    tuples.reserve(tuple_cap);
    overflow = false;
  }
  void NoteWitness(uint32_t wid) {
    if (overflow) return;
    if (witnesses.size() >= witness_cap) {
      overflow = true;
      return;
    }
    witnesses.push_back(wid);
  }
  void NoteTuple(uint32_t dense) {
    if (overflow) return;
    if (tuples.size() >= tuple_cap) {
      overflow = true;
      return;
    }
    tuples.push_back(dense);
  }
  void Clear() {
    witnesses.clear();
    tuples.clear();
    overflow = false;
  }
};

// ---------------------------------------------------------------------------
// KillKernels: the word-level delete/undelete/marginal engine. Non-owning —
// DamageTracker owns the KernelState and aggregate counters and binds them
// here; the kernels mutate state through masked OR/ANDN word ops and report
// aggregate transitions straight into the tracker's counters.
// ---------------------------------------------------------------------------

class KillKernels {
 public:
  void Bind(const CompiledInstance* plan, KernelState* state) {
    plan_ = plan;
    state_ = state;
    wide_ = plan->max_witnesses_per_tuple() > 64;
    branch_index_built_ = false;
  }

  /// Masked-OR delete of `base`'s hit bits; returns the preserved weight
  /// newly killed (same contract as DamageTracker::DeleteBase). Aggregate
  /// counters are the tracker's; transitions are logged into `log`. Inline:
  /// the exact search calls this tens of millions of times per solve.
  double DeleteBase(uint32_t base, TouchLog* log, size_t* unkilled_deletions,
                    double* killed_preserved_weight,
                    double* surviving_deletion_weight) {
    // Fan-in-1 plans (every tuple has exactly one witness wherever it has
    // any) skip the per-kill alive-range extract: a newly-dead witness
    // always kills its owner.
    return plan_->max_witnesses_per_tuple() <= 1
               ? DeleteBaseImpl<true>(base, log, unkilled_deletions,
                                      killed_preserved_weight,
                                      surviving_deletion_weight)
               : DeleteBaseImpl<false>(base, log, unkilled_deletions,
                                       killed_preserved_weight,
                                       surviving_deletion_weight);
  }

  /// Masked-ANDN undelete of `base`'s hit bits (reverse of DeleteBase). No
  /// touch logging: an undelete restores the pristine value, and a later
  /// re-kill logs the tuple again. Inline, same reason as DeleteBase.
  void UndeleteBase(uint32_t base, size_t* unkilled_deletions,
                    double* killed_preserved_weight,
                    double* surviving_deletion_weight) {
    if (plan_->max_witnesses_per_tuple() <= 1) {
      UndeleteBaseImpl<true>(base, unkilled_deletions, killed_preserved_weight,
                             surviving_deletion_weight);
    } else {
      UndeleteBaseImpl<false>(base, unkilled_deletions, killed_preserved_weight,
                              surviving_deletion_weight);
    }
  }

  /// True iff deleting `base` (not deleted) would newly kill the view tuple
  /// owning witnesses [wb, wb + count): some witness is still alive and
  /// every alive witness contains `base`. `mask` is the kill entry's
  /// witness-incidence mask. Every marginal query asks this, so it is the
  /// one place the answer is computed: a single word test, plus — only when
  /// `kWide` — the cold occurrence-row count for tuples past one word. The
  /// walks below instantiate kWide only for plans that have such tuples, so
  /// fan-in ≤ 64 plans (every key-preserving one) keep the call out of
  /// their loops: a never-taken call inside the ILP's pack-bound loop made
  /// GCC reload the loop's array pointers and cost ~20% per bound.
  template <bool kWide>
  bool NewlyKills(uint32_t base, uint32_t wb, uint32_t count,
                  uint64_t mask) const {
    if constexpr (kWide) {
      if (count > 64) return NewlyKillsWide(base, wb, count);
    }
    uint64_t la = ExtractBits(state_->alive_words.data(), wb, count);
    return la != 0 && (la & ~mask) == 0;
  }

  /// Calls fn(dense) for every preserved tuple of `base`'s kill row that
  /// deleting `base` would newly kill, ascending — DeleteBase's addition
  /// order, so sums over it are bit-identical to a real delete.
  template <typename Fn>
  void ForEachNewlyKilled(uint32_t base, Fn&& fn) const {
    if (wide_) {
      ForEachNewlyKilledImpl<true>(base, fn);
    } else {
      ForEachNewlyKilledImpl<false>(base, fn);
    }
  }

  /// Preserved weight deleting `base` would newly kill: the sum over
  /// ForEachNewlyKilled.
  double MarginalDamageBase(uint32_t base) const;

  /// True iff undeleting `base` keeps every ΔV tuple killed (no witness
  /// with `base` as its only deleted member under a ΔV tuple).
  bool CanDropBase(uint32_t base) const;

  /// Exchange probe: would deleting `base` (given the `n` currently-unkilled
  /// ΔV tuples in `revived`, ascending) restore feasibility with total
  /// killed preserved weight strictly below `budget`? `current_kpw` is the
  /// tracker's killed_preserved_weight; the probe accumulates in DeleteBase
  /// order so the comparison is bit-identical to a real delete.
  bool SwapWouldImprove(uint32_t base, const uint32_t* revived, uint32_t n,
                        double current_kpw, double budget) const;

  /// The killed preserved weight the tracker would hold after DeleteBase
  /// (`base` not deleted), accumulated from `current_kpw` in DeleteBase's
  /// own addition order (ascending newly-killed tuple) — bit-identical to a
  /// real delete, so branch-and-bound entry prunes can be hoisted above the
  /// delete/undelete pair. Inline: one call per search node.
  double KpwAfterDelete(uint32_t base, double current_kpw) const {
    if (branch_index_built_) {
      // Fast path: the packed probe records carry the same preserved tuples
      // in the same ascending order with identical extract parameters, mask,
      // and weight — the adds are bit-for-bit those of the fallback below —
      // but the walk touches one sequential stream instead of four arrays.
      return wide_ ? KpwPacked<true>(base, current_kpw)
                   : KpwPacked<false>(base, current_kpw);
    }
    double acc = current_kpw;
    ForEachNewlyKilled(base,
                       [&](uint32_t dense) { acc += plan_->weight(dense); });
    return acc;
  }

  /// Branch pick for the exact search: the lowest-id still-unhit witness of
  /// a ΔV tuple among those with globally minimal raw member count, or
  /// CompiledInstance::kNpos when every ΔV tuple is killed. Equivalent to
  /// the legacy nested scan (ascending ΔV tuple, ascending witness, strict-<
  /// first-min) because witness ids ascend with their owning tuple's dense
  /// id — so "first witness reaching the running minimum in scan order" IS
  /// "lowest witness id in the smallest nonempty size bucket". The first
  /// call builds a per-size witness-bitmask index over the ΔV witnesses
  /// (size = raw member count); each later call is a handful of word ANDs
  /// against alive_words per size class instead of a walk over every
  /// unkilled ΔV tuple. Inline (minus the one-time build): one call per
  /// expanded search node.
  uint32_t SelectBranchWitness() {
    if (!branch_index_built_) {
      BuildBranchIndex();
      branch_index_built_ = true;
    }
    // An alive (unhit) witness implies its owner is unkilled, so bucket-mask
    // ∧ alive is exactly "unhit witness of an unkilled ΔV tuple" — no
    // separate killed-tuple filter needed. Trailing padding bits of
    // alive_words are masked off by the bucket masks, which only carry real
    // witness ids.
    const uint64_t* alive = state_->alive_words.data();
    const uint64_t* bucket = branch_words_.data();
    for (size_t b = 0; b < branch_sizes_.size();
         ++b, bucket += witness_word_count_) {
      for (size_t i = 0; i < witness_word_count_; ++i) {
        uint64_t w = bucket[i] & alive[i];
        if (w != 0) return static_cast<uint32_t>(i << 6) + Ctz64(w);
      }
    }
    return CompiledInstance::kNpos;
  }

  bool IsKilled(uint32_t dense) const {
    return TestBit(state_->killed_words.data(), dense);
  }
  uint32_t WitnessHits(uint32_t wid) const {
    uint32_t first = plan_->witness_bit_begin(wid);
    return RangePopCount(state_->hit_words.data(), first,
                         plan_->witness_bit_end(wid) - first);
  }
  uint32_t DeadWitnessCount(uint32_t dense) const {
    uint32_t wb = plan_->tuple_witness_begin(dense);
    uint32_t n = plan_->tuple_witness_end(dense) - wb;
    return n - RangePopCount(state_->alive_words.data(), wb, n);
  }

 private:
  void BuildBranchIndex();

  template <bool kWide, typename Fn>
  void ForEachNewlyKilledImpl(uint32_t base, Fn& fn) const {
    const CompiledInstance& plan = *plan_;
    uint32_t end = plan.kill_end(base);
    for (uint32_t slot = plan.kill_begin(base); slot < end; ++slot) {
      uint32_t dense = plan.kill_tuple(slot);
      if (plan.is_deletion(dense)) continue;
      uint32_t wb = plan.tuple_witness_begin(dense);
      if (NewlyKills<kWide>(base, wb, plan.tuple_witness_end(dense) - wb,
                            plan.kill_witness_mask(slot))) {
        fn(dense);
      }
    }
  }

  template <bool kWide>
  double KpwPacked(uint32_t base, double acc) const {
    const KpwEntry* e = kpw_entries_.data() + kpw_first_[base];
    const KpwEntry* stop = kpw_entries_.data() + kpw_first_[base + 1];
    for (; e != stop; ++e) {
      if (NewlyKills<kWide>(base, e->wb, e->wcount, e->mask)) acc += e->weight;
    }
    return acc;
  }
  /// NewlyKills past one word: the tuple's alive-witness count must be
  /// nonzero and equal to the alive witnesses in `base`'s occurrence run
  /// for the tuple (found by binary search; occurrence rows ascend by
  /// witness). Declared pure: it only reads, so the wide walks keep their
  /// hoisted array pointers across the call.
  [[gnu::cold, gnu::pure]] bool NewlyKillsWide(uint32_t base, uint32_t wb,
                                    uint32_t count) const;

  template <bool kFanInOne>
  double DeleteBaseImpl(uint32_t base, TouchLog* log,
                        size_t* unkilled_deletions,
                        double* killed_preserved_weight,
                        double* surviving_deletion_weight) {
    const CompiledInstance& plan = *plan_;
    uint64_t* hit = state_->hit_words.data();
    uint64_t* alive = state_->alive_words.data();
    uint64_t* killed = state_->killed_words.data();
    double newly_killed = 0.0;
    uint32_t end = plan.occ_end(base);
    for (uint32_t slot = plan.occ_begin(base); slot < end; ++slot) {
      uint32_t bit = plan.occ_hit_bit(slot);
      hit[bit >> 6] |= 1ull << (bit & 63);
      uint32_t wid = plan.occ_witness(slot);
      if (!TestBit(alive, wid)) continue;  // witness already hit elsewhere
      ClearBit(alive, wid);
      log->NoteWitness(wid);
      uint32_t dense = plan.occ_tuple(slot);
      if constexpr (!kFanInOne) {
        uint32_t wb = plan.tuple_witness_begin(dense);
        if (!RangeIsZero(alive, wb, plan.tuple_witness_end(dense) - wb)) {
          continue;  // some witness still alive — tuple survives
        }
      }
      // Fan-in 1: the witness that just died is its owner's only one.
      SetBit(killed, dense);
      log->NoteTuple(dense);
      if (plan.is_deletion(dense)) {
        --*unkilled_deletions;
        *surviving_deletion_weight -= plan.weight(dense);
      } else {
        double w = plan.weight(dense);
        *killed_preserved_weight += w;
        newly_killed += w;
      }
    }
    return newly_killed;
  }

  template <bool kFanInOne>
  void UndeleteBaseImpl(uint32_t base, size_t* unkilled_deletions,
                        double* killed_preserved_weight,
                        double* surviving_deletion_weight) {
    const CompiledInstance& plan = *plan_;
    uint64_t* hit = state_->hit_words.data();
    uint64_t* alive = state_->alive_words.data();
    uint64_t* killed = state_->killed_words.data();
    uint32_t end = plan.occ_end(base);
    for (uint32_t slot = plan.occ_begin(base); slot < end; ++slot) {
      uint32_t bit = plan.occ_hit_bit(slot);
      hit[bit >> 6] &= ~(1ull << (bit & 63));
      uint32_t wid = plan.occ_witness(slot);
      uint32_t first = plan.witness_bit_begin(wid);
      if (!RangeIsZero(hit, first, plan.witness_bit_end(wid) - first)) {
        continue;  // another deleted member still pins the witness dead
      }
      SetBit(alive, wid);
      uint32_t dense = plan.occ_tuple(slot);
      if constexpr (!kFanInOne) {
        if (!TestBit(killed, dense)) continue;
      }
      // Fan-in 1: the revived witness is its owner's only one, so the owner
      // was necessarily killed.
      ClearBit(killed, dense);
      if (plan.is_deletion(dense)) {
        ++*unkilled_deletions;
        *surviving_deletion_weight += plan.weight(dense);
      } else {
        *killed_preserved_weight -= plan.weight(dense);
      }
    }
  }

  /// One packed probe record per preserved tuple in a base's kill row
  /// (KpwAfterDelete fast path): the alive-extract parameters, the kill
  /// witness-incidence mask, and the tuple weight, laid out in one stream.
  struct KpwEntry {
    uint32_t wb;
    uint32_t wcount;
    uint64_t mask;
    double weight;
  };

  const CompiledInstance* plan_ = nullptr;
  KernelState* state_ = nullptr;
  // Some tuple has more than 64 witnesses: walks take NewlyKills' wide arm.
  bool wide_ = false;
  // Lazy branch-selection index (SelectBranchWitness): distinct raw member
  // counts of ΔV witnesses ascending, and one witness bitmask per count.
  // Depends only on the plan (including its ΔV overlay), never on state, so
  // Reset leaves it valid; Bind invalidates it.
  bool branch_index_built_ = false;
  size_t witness_word_count_ = 0;
  std::vector<uint32_t> branch_sizes_;
  std::vector<uint64_t> branch_words_;  // branch_sizes_.size() blocks
  std::vector<uint32_t> kpw_first_;     // base_count + 1 prefix
  std::vector<KpwEntry> kpw_entries_;
};

}  // namespace kernels
}  // namespace delprop

#endif  // DELPROP_SOLVERS_KILL_KERNELS_H_

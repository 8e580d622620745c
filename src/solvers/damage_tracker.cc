#include "solvers/damage_tracker.h"

#include <algorithm>
#include <cassert>

namespace delprop {

using kernels::ClearBit;
using kernels::ClearRange;
using kernels::LowMask;
using kernels::SetBit;

DamageTracker::DamageTracker(const VseInstance& instance) {
  (void)Rebind(instance);
}

bool DamageTracker::Rebind(const VseInstance& instance) {
  // Release the previous plan before acquiring the new one: if this tracker
  // held the last outside reference to a retired plan, the acquire below can
  // now recycle its overlay buffers instead of allocating.
  plan_.reset();
  plan_ = instance.compiled();
  kernels_.Bind(plan_.get(), &kstate_);
  bool reused = PrepareState();
  deleted_.clear();
  foreign_.clear();
  initial_unkilled_deletions_ = 0;
  initial_surviving_deletion_weight_ = 0.0;
  for (uint32_t d : plan_->deletion_dense()) {
    ++initial_unkilled_deletions_;
    initial_surviving_deletion_weight_ += plan_->weight(d);
  }
  unkilled_deletions_ = initial_unkilled_deletions_;
  killed_preserved_weight_ = 0.0;
  surviving_deletion_weight_ = initial_surviving_deletion_weight_;
  return reused;
}

bool DamageTracker::PrepareState() {
  uint32_t witness_count = plan_->witness_count();
  size_t hit_words = (static_cast<size_t>(plan_->hit_bit_count()) + 63) / 64;
  size_t alive_words = (static_cast<size_t>(witness_count) + 63) / 64;
  size_t killed_words = (static_cast<size_t>(plan_->tuple_count()) + 63) / 64;
  uint32_t base_count = plan_->base_count();
  if (kstate_.hit_words.size() == hit_words &&
      kstate_.alive_words.size() == alive_words &&
      kstate_.killed_words.size() == killed_words &&
      deleted_pos_.size() == base_count) {
    ClearState();
    return true;
  }
  kstate_.hit_words.assign(hit_words, 0);
  kstate_.alive_words.assign(alive_words, ~0ull);
  kstate_.killed_words.assign(killed_words, 0);
  deleted_pos_.assign(base_count, 0);
  // At most every candidate base can be deleted; reserving here keeps
  // DeleteBase (the per-pick hot path) allocation-free.
  deleted_.reserve(base_count);
  touch_.Bind(witness_count, plan_->tuple_count());
  state_core_ = nullptr;  // freshly assigned arrays still need seeding
  ClearState();
  return false;
}

void DamageTracker::ClearState() {
  uint64_t* hit = kstate_.hit_words.data();
  uint64_t* alive = kstate_.alive_words.data();
  uint64_t* killed = kstate_.killed_words.data();
  // A sparse rollback replays the touch log against the layout it was
  // recorded under, so it requires the same core (identical witness-bit
  // ranges) and a log that never overflowed its caps.
  if (!touch_.overflow && state_core_ == plan_->core().get()) {
    for (uint32_t wid : touch_.witnesses) {
      uint32_t first = plan_->witness_bit_begin(wid);
      ClearRange(hit, first, plan_->witness_bit_end(wid) - first);
      SetBit(alive, wid);
    }
    for (uint32_t dense : touch_.tuples) ClearBit(killed, dense);
  } else {
    uint32_t witness_count = plan_->witness_count();
    uint32_t tuple_count = plan_->tuple_count();
    std::fill(kstate_.hit_words.begin(), kstate_.hit_words.end(), 0);
    std::fill(kstate_.alive_words.begin(), kstate_.alive_words.end(), ~0ull);
    if (witness_count % 64 != 0 && !kstate_.alive_words.empty()) {
      kstate_.alive_words.back() = LowMask(witness_count % 64);
    }
    std::fill(kstate_.killed_words.begin(), kstate_.killed_words.end(), 0);
    // Witness-less tuples are killed from the start. Absent on every
    // generated workload; the list is cached per core.
    if (zero_witness_core_ != plan_->core().get()) {
      zero_witness_tuples_.clear();
      for (uint32_t t = 0; t < tuple_count; ++t) {
        if (plan_->tuple_witness_count(t) == 0) {
          // delprop-lint: hot-path-allocation-ok once per core, cold
          zero_witness_tuples_.push_back(t);
        }
      }
      zero_witness_core_ = plan_->core().get();
    }
    for (uint32_t t : zero_witness_tuples_) SetBit(killed, t);
  }
  touch_.Clear();
  state_core_ = plan_->core().get();
}

void DamageTracker::Reset() {
  ClearState();
  deleted_.clear();
  foreign_.clear();
  unkilled_deletions_ = initial_unkilled_deletions_;
  killed_preserved_weight_ = 0.0;
  surviving_deletion_weight_ = initial_surviving_deletion_weight_;
}

bool DamageTracker::IsDeleted(const TupleRef& ref) const {
  uint32_t base = plan_->FindBase(ref);
  if (base != CompiledInstance::kNpos) return IsDeletedBase(base);
  return std::binary_search(foreign_.begin(), foreign_.end(), ref);
}

double DamageTracker::Delete(const TupleRef& ref) {
  uint32_t base = plan_->FindBase(ref);
  if (base == CompiledInstance::kNpos) {
    // Not in any witness: deleting it kills nothing. Track it (sorted) so
    // IsDeleted/Undelete/CurrentDeletion stay consistent.
    auto it = std::lower_bound(foreign_.begin(), foreign_.end(), ref);
    assert(it == foreign_.end() || !(*it == ref));
    // Foreign refs (tuples outside every witness) never occur on the engine
    // steady-state path — solvers only delete candidate bases; this branch
    // serves ad-hoc script use.
    // delprop-lint: hot-path-allocation-ok cold branch, see above
    foreign_.insert(it, ref);
    return 0.0;
  }
  return DeleteBase(base);
}

void DamageTracker::Undelete(const TupleRef& ref) {
  uint32_t base = plan_->FindBase(ref);
  if (base == CompiledInstance::kNpos) {
    auto it = std::lower_bound(foreign_.begin(), foreign_.end(), ref);
    assert(it != foreign_.end() && *it == ref);
    if (it != foreign_.end() && *it == ref) foreign_.erase(it);
    return;
  }
  UndeleteBase(base);
}

double DamageTracker::MarginalDamage(const TupleRef& ref) const {
  uint32_t base = plan_->FindBase(ref);
  if (base == CompiledInstance::kNpos) return 0.0;
  return MarginalDamageBase(base);
}

double DamageTracker::MarginalDamageBase(uint32_t base) const {
  return kernels_.MarginalDamageBase(base);
}

void DamageTracker::MarginalDamageAll(const std::vector<uint32_t>& bases,
                                      std::vector<double>* out) const {
  out->resize(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    (*out)[i] = MarginalDamageBase(bases[i]);
  }
}

bool DamageTracker::CanDropBase(uint32_t base) const {
  assert(IsDeletedBase(base));
  return kernels_.CanDropBase(base);
}

void DamageTracker::CollectUnkilledDeletions(uint32_t base,
                                             std::vector<uint32_t>* out) const {
  out->clear();
  uint32_t end = plan_->kill_end(base);
  for (uint32_t slot = plan_->kill_begin(base); slot < end; ++slot) {
    uint32_t dense = plan_->kill_tuple(slot);
    if (plan_->is_deletion(dense) && !IsKilledDense(dense)) {
      // delprop-lint: hot-path-allocation-ok caller reserves to ΔV size
      out->push_back(dense);
    }
  }
}

bool DamageTracker::SwapWouldImprove(uint32_t base,
                                     const std::vector<uint32_t>& revived,
                                     double budget) const {
  return kernels_.SwapWouldImprove(base, revived.data(),
                                   static_cast<uint32_t>(revived.size()),
                                   killed_preserved_weight_, budget);
}

// Result materialization: builds the final DeletionSet once, after the
// solver's delete/undelete loops are done.
// delprop-hot-stop
DeletionSet DamageTracker::CurrentDeletion() const {
  DeletionSet out;
  for (uint32_t base : deleted_) out.Insert(plan_->base_ref(base));
  for (const TupleRef& ref : foreign_) out.Insert(ref);
  return out;
}

}  // namespace delprop

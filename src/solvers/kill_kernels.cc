#include "solvers/kill_kernels.h"

#include <algorithm>

namespace delprop {
namespace kernels {

double KillKernels::MarginalDamageBase(uint32_t base) const {
  double damage = 0.0;
  ForEachNewlyKilled(base,
                     [&](uint32_t dense) { damage += plan_->weight(dense); });
  return damage;
}

bool KillKernels::NewlyKillsWide(uint32_t base, uint32_t wb,
                                 uint32_t count) const {
  const CompiledInstance& plan = *plan_;
  const uint64_t* alive = state_->alive_words.data();
  uint32_t alive_total = RangePopCount(alive, wb, count);
  if (alive_total == 0) return false;  // already killed
  uint32_t lo = plan.occ_begin(base);
  uint32_t end = plan.occ_end(base);
  uint32_t hi = end;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (plan.occ_witness(mid) < wb) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  uint32_t alive_mine = 0;
  for (uint32_t slot = lo; slot < end && plan.occ_witness(slot) < wb + count;
       ++slot) {
    alive_mine += TestBit(alive, plan.occ_witness(slot)) ? 1 : 0;
  }
  return alive_mine == alive_total;
}

bool KillKernels::CanDropBase(uint32_t base) const {
  const CompiledInstance& plan = *plan_;
  const uint64_t* hit = state_->hit_words.data();
  uint32_t end = plan.occ_end(base);
  uint32_t slot = plan.occ_begin(base);
  while (slot < end) {
    uint32_t dense = plan.occ_tuple(slot);
    if (!plan.is_deletion(dense) || !IsKilled(dense)) {
      // Only killed ΔV tuples can make the drop infeasible; skip the run.
      do {
        ++slot;
      } while (slot < end && plan.occ_tuple(slot) == dense);
      continue;
    }
    do {
      uint32_t wid = plan.occ_witness(slot);
      uint32_t first = plan.witness_bit_begin(wid);
      if (RangePopCount(hit, first, plan.witness_bit_end(wid) - first) == 1) {
        return false;  // base is this witness's only deleted member
      }
      ++slot;
    } while (slot < end && plan.occ_tuple(slot) == dense);
  }
  return true;
}

void KillKernels::BuildBranchIndex() {
  const CompiledInstance& plan = *plan_;
  witness_word_count_ = (plan.witness_count() + 63) / 64;
  branch_sizes_.clear();
  size_t delta_witnesses = 0;
  for (uint32_t dense : plan.deletion_dense()) {
    delta_witnesses += plan.tuple_witness_end(dense) -
                       plan.tuple_witness_begin(dense);
  }
  branch_sizes_.reserve(delta_witnesses);
  for (uint32_t dense : plan.deletion_dense()) {
    uint32_t wend = plan.tuple_witness_end(dense);
    for (uint32_t w = plan.tuple_witness_begin(dense); w < wend; ++w) {
      branch_sizes_.push_back(plan.member_end(w) - plan.member_begin(w));
    }
  }
  std::sort(branch_sizes_.begin(), branch_sizes_.end());
  branch_sizes_.erase(std::unique(branch_sizes_.begin(), branch_sizes_.end()),
                      branch_sizes_.end());
  branch_words_.assign(branch_sizes_.size() * witness_word_count_, 0);
  for (uint32_t dense : plan.deletion_dense()) {
    uint32_t wend = plan.tuple_witness_end(dense);
    for (uint32_t w = plan.tuple_witness_begin(dense); w < wend; ++w) {
      uint32_t size = plan.member_end(w) - plan.member_begin(w);
      size_t bucket = static_cast<size_t>(
          std::lower_bound(branch_sizes_.begin(), branch_sizes_.end(), size) -
          branch_sizes_.begin());
      SetBit(branch_words_.data() + bucket * witness_word_count_, w);
    }
  }
  // Packed KpwAfterDelete probe records: for each base, the preserved tuples
  // of its kill row in kill-row (ascending-tuple) order, each with its
  // alive-extract parameters, kill mask, and weight inlined. Same entries,
  // same order, same operands as the CSR walk — only the layout changes.
  kpw_first_.assign(plan.base_count() + 1, 0);
  kpw_entries_.clear();
  kpw_entries_.reserve(plan.kill_begin(plan.base_count()));
  for (uint32_t base = 0; base < plan.base_count(); ++base) {
    kpw_first_[base] = static_cast<uint32_t>(kpw_entries_.size());
    uint32_t end = plan.kill_end(base);
    for (uint32_t slot = plan.kill_begin(base); slot < end; ++slot) {
      uint32_t dense = plan.kill_tuple(slot);
      if (plan.is_deletion(dense)) continue;
      uint32_t wb = plan.tuple_witness_begin(dense);
      kpw_entries_.push_back({wb, plan.tuple_witness_end(dense) - wb,
                              plan.kill_witness_mask(slot),
                              plan.weight(dense)});
    }
  }
  kpw_first_[plan.base_count()] = static_cast<uint32_t>(kpw_entries_.size());
}

bool KillKernels::SwapWouldImprove(uint32_t base, const uint32_t* revived,
                                   uint32_t n, double current_kpw,
                                   double budget) const {
  const CompiledInstance& plan = *plan_;
  // Feasibility first: every revived ΔV tuple must be newly killed by
  // `base`. Each check is a binary search into the base's (ascending) kill
  // row plus one mask test — O(r log k) total, so infeasible candidates are
  // rejected without walking their full kill row.
  uint32_t lo = plan.kill_begin(base);
  uint32_t end = plan.kill_end(base);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t target = revived[i];
    uint32_t hi = end;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (plan.kill_tuple(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == end || plan.kill_tuple(lo) != target) return false;
    uint32_t wb = plan.tuple_witness_begin(target);
    if (!NewlyKills<true>(base, wb, plan.tuple_witness_end(target) - wb,
                          plan.kill_witness_mask(lo))) {
      return false;
    }
    ++lo;  // revived ids ascend, so the next search starts past this entry
  }
  // Cost: accumulate the post-delete killed preserved weight in the exact
  // order DeleteBase would (ascending tuple), so `acc < budget` is
  // bit-identical to comparing after a real delete + undelete pair.
  double acc = current_kpw;
  ForEachNewlyKilled(base, [&](uint32_t dense) { acc += plan.weight(dense); });
  return acc < budget;
}

}  // namespace kernels
}  // namespace delprop

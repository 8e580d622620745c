#include "dp/side_effect.h"

#include <bit>
#include <cstdint>

#include "plan/compiled_instance.h"

namespace delprop {

SideEffectReport EvaluateDeletion(const VseInstance& instance,
                                  const DeletionSet& deletion) {
  SideEffectReport report;
  report.source_deletion_count = deletion.size();
  report.per_view_side_effect.assign(instance.view_count(), 0);

  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  // One allocation holds both bitsets: the deleted bases, then the candidate
  // view tuples. Refs outside every witness cannot affect any view tuple, so
  // they are dropped here (they still count toward source_deletion_count).
  const size_t base_words = (plan->base_count() + 63) / 64;
  const size_t tuple_words = (plan->tuple_count() + 63) / 64;
  std::vector<uint64_t> words(base_words + tuple_words, 0);
  uint64_t* deleted = words.data();
  uint64_t* candidate = deleted + base_words;
  auto set_bit = [](uint64_t* bits, uint32_t i) {
    bits[i >> 6] |= uint64_t{1} << (i & 63);
  };

  // Every tuple has at least one witness, so a tuple can only die if some
  // deleted base lies in one of its witnesses, i.e. if it is in that base's
  // kill row. Those tuples plus ΔV (added word by word in pass 1) are the
  // only ones whose report entry can differ from "preserved and alive".
  for (const TupleRef& ref : deletion) {
    uint32_t base = plan->FindBase(ref);
    if (base == CompiledInstance::kNpos) continue;
    set_bit(deleted, base);
    uint32_t end = plan->kill_end(base);
    for (uint32_t slot = plan->kill_begin(base); slot < end; ++slot) {
      set_bit(candidate, plan->kill_tuple(slot));
    }
    report.entries_examined += end - plan->kill_begin(base);
  }

  // Pass 1: test each candidate and keep its bit only if it enters the
  // report — a preserved tuple that dies or a ΔV tuple that survives — so
  // the id lists can be sized exactly before they are filled.
  const uint64_t* is_deletion = plan->deletion_words().data();
  size_t killed_count = 0;
  size_t surviving_count = 0;
  for (size_t w = 0; w < tuple_words; ++w) {
    uint64_t keep = 0;
    for (uint64_t bits = candidate[w] | is_deletion[w]; bits != 0;
         bits &= bits - 1) {
      uint32_t dense = static_cast<uint32_t>(w * 64) +
                       static_cast<uint32_t>(std::countr_zero(bits));
      // Survives iff some witness is disjoint from ΔD.
      bool survives = false;
      uint32_t wend = plan->tuple_witness_end(dense);
      for (uint32_t wid = plan->tuple_witness_begin(dense); wid < wend;
           ++wid) {
        bool hit = false;
        uint32_t mend = plan->member_end(wid);
        for (uint32_t slot = plan->member_begin(wid); slot < mend; ++slot) {
          ++report.entries_examined;
          uint32_t base = plan->member_base(slot);
          if ((deleted[base >> 6] >> (base & 63)) & 1) {
            hit = true;
            break;
          }
        }
        if (!hit) {
          survives = true;
          break;
        }
      }
      if (survives == plan->is_deletion(dense)) keep |= bits & -bits;
    }
    candidate[w] = keep;
    surviving_count += std::popcount(keep & is_deletion[w]);
    killed_count += std::popcount(keep & ~is_deletion[w]);
  }

  // Pass 2: the kept tuples in ascending dense id, i.e. ascending
  // (view, tuple) — the order in which a scan of every view tuple adds the
  // weights, so the doubles match that scan bit for bit.
  report.killed_preserved.reserve(killed_count);
  report.surviving_deletions.reserve(surviving_count);
  report.side_effect_count = killed_count;
  for (size_t w = 0; w < tuple_words; ++w) {
    for (uint64_t bits = candidate[w]; bits != 0; bits &= bits - 1) {
      uint32_t dense = static_cast<uint32_t>(w * 64) +
                       static_cast<uint32_t>(std::countr_zero(bits));
      ViewTupleId id = plan->IdOf(dense);
      report.balanced_cost += plan->weight(dense);
      if (plan->is_deletion(dense)) {
        report.surviving_deletions.push_back(id);
      } else {
        report.killed_preserved.push_back(id);
        report.side_effect_weight += plan->weight(dense);
        report.per_view_side_effect[id.view] += 1;
      }
    }
  }
  report.eliminates_all_deletions = report.surviving_deletions.empty();
  return report;
}

}  // namespace delprop

#include "plan/compiled_instance.h"

#include <algorithm>
#include <numeric>

#include "query/view.h"

namespace delprop {

uint32_t CompiledInstance::FindBase(const TupleRef& ref) const {
  const std::vector<TupleRef>& refs = core_->base_refs;
  auto it = std::lower_bound(refs.begin(), refs.end(), ref);
  if (it == refs.end() || !(*it == ref)) return kNpos;
  return static_cast<uint32_t>(it - refs.begin());
}

namespace {

/// Tail of BuildCore: derives the occurrence and kill CSR arrays from the
/// witness member rows (PatchCore splices them instead). Appending in
/// ascending wid order leaves every per-base occurrence row sorted by (tuple,
/// witness) — the invariant MarginalDamage relies on to walk runs — and the
/// kill rows are its per-base run-dedup.
void FinishCore(PlanCore* core) {
  uint32_t base_count = core->base_count();
  uint32_t witness_count = core->witness_count();
  core->base_occ_first.assign(static_cast<size_t>(base_count) + 1, 0);
  // Deduped member lists, flattened: computed once in the counting pass and
  // replayed by the fill pass, so the per-witness sorts are paid once. A
  // witness whose members are already strictly ascending — every schema
  // without self-joins — skips the sort entirely.
  std::vector<uint32_t> dedup;
  dedup.reserve(core->witness_member_base.size());
  std::vector<uint32_t> dedup_first(static_cast<size_t>(witness_count) + 1,
                                    0);
  std::vector<uint32_t> scratch;  // per-witness unique base ids
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    dedup_first[wid] = static_cast<uint32_t>(dedup.size());
    uint32_t first = core->witness_member_first[wid];
    uint32_t last = core->witness_member_first[wid + 1];
    bool ascending = true;
    for (uint32_t slot = first; ascending && slot + 1 < last; ++slot) {
      ascending = core->witness_member_base[slot] <
                  core->witness_member_base[slot + 1];
    }
    if (ascending) {
      dedup.insert(dedup.end(), core->witness_member_base.begin() + first,
                   core->witness_member_base.begin() + last);
    } else {
      scratch.assign(core->witness_member_base.begin() + first,
                     core->witness_member_base.begin() + last);
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      dedup.insert(dedup.end(), scratch.begin(), scratch.end());
    }
    for (size_t i = dedup_first[wid]; i < dedup.size(); ++i) {
      ++core->base_occ_first[dedup[i] + 1];
    }
  }
  dedup_first[witness_count] = static_cast<uint32_t>(dedup.size());
  for (uint32_t b = 0; b < base_count; ++b) {
    core->base_occ_first[b + 1] += core->base_occ_first[b];
  }
  size_t occ_total = core->base_occ_first[base_count];
  core->occ_tuple.resize(occ_total);
  core->occ_witness.resize(occ_total);
  core->occ_hit_bit.resize(occ_total);
  {
    std::vector<uint32_t> cursor(core->base_occ_first.begin(),
                                 core->base_occ_first.end() - 1);
    for (uint32_t wid = 0; wid < witness_count; ++wid) {
      uint32_t owner = core->witness_owner[wid];
      for (uint32_t i = dedup_first[wid]; i < dedup_first[wid + 1]; ++i) {
        uint32_t slot = cursor[dedup[i]]++;
        core->occ_tuple[slot] = owner;
        core->occ_witness[slot] = wid;
        // Hit bit = position in the flattened dedup list: witness wid owns
        // bits [dedup_first[wid], dedup_first[wid+1]), one per unique
        // member. Witness ids ascend along every occ row (rows are sorted
        // by (tuple, witness) and wid ranges follow tuple order), so hit
        // bits ascend too — the kernels' word-merge relies on that.
        core->occ_hit_bit[slot] = i;
      }
    }
  }
  core->witness_bit_first = std::move(dedup_first);

  // Row-width statistics.
  uint32_t tuple_count = core->tuple_count();
  core->max_witnesses_per_tuple = 0;
  for (uint32_t t = 0; t < tuple_count; ++t) {
    core->max_witnesses_per_tuple =
        std::max(core->max_witnesses_per_tuple,
                 core->tuple_witness_first[t + 1] - core->tuple_witness_first[t]);
  }
  core->max_witness_members = 0;
  core->min_witness_raw_members =
      witness_count == 0 ? 0 : 0xFFFFFFFFu;
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    core->max_witness_members =
        std::max(core->max_witness_members, core->witness_bit_first[wid + 1] -
                                                core->witness_bit_first[wid]);
    core->min_witness_raw_members =
        std::min(core->min_witness_raw_members,
                 core->witness_member_first[wid + 1] -
                     core->witness_member_first[wid]);
  }

  // Kill rows: unique view tuples per base, in row order (ascending) —
  // byte-compatible with the legacy kill_map_ (first-witness dedup, (view,
  // tuple) iteration order).
  core->base_kill_first.assign(static_cast<size_t>(base_count) + 1, 0);
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t kills = 0;
    uint32_t prev = CompiledInstance::kNpos;
    for (uint32_t slot = core->base_occ_first[b];
         slot < core->base_occ_first[b + 1]; ++slot) {
      if (core->occ_tuple[slot] != prev) {
        prev = core->occ_tuple[slot];
        ++kills;
      }
    }
    core->base_kill_first[b + 1] = kills;
  }
  for (uint32_t b = 0; b < base_count; ++b) {
    core->base_kill_first[b + 1] += core->base_kill_first[b];
  }
  core->kill_tuple.resize(core->base_kill_first[base_count]);
  core->kill_witness_mask.assign(core->kill_tuple.size(), 0);
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t out = core->base_kill_first[b];
    uint32_t prev = CompiledInstance::kNpos;
    for (uint32_t slot = core->base_occ_first[b];
         slot < core->base_occ_first[b + 1]; ++slot) {
      uint32_t t = core->occ_tuple[slot];
      if (t != prev) {
        prev = t;
        core->kill_tuple[out++] = t;
      }
      uint32_t offset = core->occ_witness[slot] - core->tuple_witness_first[t];
      if (offset < 64) core->kill_witness_mask[out - 1] |= 1ull << offset;
    }
  }
}

/// Appends src[first, last) to `dst`, rewriting each appended element e as
/// f(e, its index in `src`). Chunked, so the rewrite finds in cache what the
/// copy just wrote; unlike resize-then-assign, nothing is zero-filled first.
template <typename T, typename F>
void AppendRemapped(std::vector<T>& dst, const std::vector<T>& src,
                    size_t first, size_t last, F f) {
  constexpr size_t kChunk = 4096;
  while (first < last) {
    size_t end = std::min(last, first + kChunk);
    size_t at = dst.size();
    dst.insert(dst.end(), src.begin() + static_cast<std::ptrdiff_t>(first),
               src.begin() + static_cast<std::ptrdiff_t>(end));
    T* data = dst.data() + at;
    for (size_t j = first; j < end; ++j, ++data) *data = f(*data, j);
    first = end;
  }
}

std::shared_ptr<const PlanCore> BuildCore(const VseInstance& instance) {
  auto core = std::make_shared<PlanCore>();

  // View tuples: dense ids in ascending (view, tuple) order.
  size_t view_count = instance.view_count();
  core->view_first.resize(view_count + 1);
  uint32_t dense = 0;
  for (size_t v = 0; v < view_count; ++v) {
    core->view_first[v] = dense;
    dense += static_cast<uint32_t>(instance.view(v).size());
  }
  core->view_first[view_count] = dense;
  uint32_t tuple_count = dense;
  core->tuple_view.resize(tuple_count);
  core->weight.resize(tuple_count);
  for (size_t v = 0; v < view_count; ++v) {
    const View& view = instance.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
      core->tuple_view[d] = static_cast<uint32_t>(v);
      core->weight[d] = instance.weight(ViewTupleId{v, t});
    }
  }

  // Witness CSR + raw member refs; intern base refs in sorted order.
  core->tuple_witness_first.resize(tuple_count + 1);
  std::vector<TupleRef> all_refs;
  {
    uint32_t wid = 0;
    size_t member_total = 0;
    for (size_t v = 0; v < view_count; ++v) {
      const View& view = instance.view(v);
      for (size_t t = 0; t < view.size(); ++t) {
        uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
        core->tuple_witness_first[d] = wid;
        for (const Witness& witness : view.tuple(t).witnesses) {
          ++wid;
          member_total += witness.size();
        }
      }
    }
    core->tuple_witness_first[tuple_count] = wid;
    core->witness_owner.resize(wid);
    core->witness_member_first.resize(static_cast<size_t>(wid) + 1);
    core->witness_member_base.reserve(member_total);
    all_refs.reserve(member_total);
  }
  for (size_t v = 0; v < view_count; ++v) {
    const View& view = instance.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      for (const Witness& witness : view.tuple(t).witnesses) {
        for (const TupleRef& ref : witness) all_refs.push_back(ref);
      }
    }
  }
  std::sort(all_refs.begin(), all_refs.end());
  all_refs.erase(std::unique(all_refs.begin(), all_refs.end()),
                 all_refs.end());
  core->base_refs = std::move(all_refs);
  auto find_base = [core](const TupleRef& ref) {
    auto it = std::lower_bound(core->base_refs.begin(), core->base_refs.end(),
                               ref);
    return static_cast<uint32_t>(it - core->base_refs.begin());
  };

  // Member rows (raw, atom order).
  {
    uint32_t wid = 0;
    uint32_t member_slot = 0;
    for (size_t v = 0; v < view_count; ++v) {
      const View& view = instance.view(v);
      for (size_t t = 0; t < view.size(); ++t) {
        uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
        for (const Witness& witness : view.tuple(t).witnesses) {
          core->witness_owner[wid] = d;
          core->witness_member_first[wid] = member_slot;
          for (const TupleRef& ref : witness) {
            core->witness_member_base.push_back(find_base(ref));
            ++member_slot;
          }
          ++wid;
        }
      }
    }
    core->witness_member_first[wid] = member_slot;
  }
  FinishCore(core.get());
  return core;
}

}  // namespace

std::shared_ptr<const PlanCore> CompiledInstance::PatchCore(
    const PlanCore& old, const VseInstance& instance, const CoreDelta& delta,
    size_t* rows_rederived) {
  auto core = std::make_shared<PlanCore>();
  PlanCore& out = *core;
  const size_t view_count = instance.view_count();
  const std::vector<uint32_t>& removed_tuples = delta.removed_tuples;
  const std::vector<uint32_t>& removed_witnesses = delta.removed_witnesses;

  // ---- Tuple space: per view, the survivors in old order, then the tuples
  // the delta created. `removed_begin[v]` indexes view v's first removed
  // tuple.
  out.view_first.resize(view_count + 1);
  std::vector<size_t> removed_begin(view_count + 1);
  std::vector<uint32_t> survivors(view_count);
  {
    size_t rt = 0;
    uint32_t dense = 0;
    for (size_t v = 0; v < view_count; ++v) {
      removed_begin[v] = rt;
      while (rt < removed_tuples.size() &&
             removed_tuples[rt] < old.view_first[v + 1]) {
        ++rt;
      }
      survivors[v] = old.view_first[v + 1] - old.view_first[v] -
                     static_cast<uint32_t>(rt - removed_begin[v]);
      out.view_first[v] = dense;
      dense += static_cast<uint32_t>(instance.view(v).size());
    }
    removed_begin[view_count] = rt;
    out.view_first[view_count] = dense;
  }
  const uint32_t tuple_count = out.view_first[view_count];

  // Old->new tuple remap and the per-tuple arrays, one survivor run at a
  // time; created tuples read their weight from the instance.
  std::vector<uint32_t> tuple_remap(old.tuple_count());
  out.tuple_view.reserve(tuple_count);
  out.weight.reserve(tuple_count);
  for (size_t v = 0; v < view_count; ++v) {
    uint32_t od = old.view_first[v];
    const uint32_t end = old.view_first[v + 1];
    size_t rt = removed_begin[v];
    while (od < end) {
      uint32_t stop = rt < removed_begin[v + 1] ? removed_tuples[rt] : end;
      std::iota(tuple_remap.begin() + od, tuple_remap.begin() + stop,
                static_cast<uint32_t>(out.weight.size()));
      out.weight.insert(out.weight.end(), old.weight.begin() + od,
                        old.weight.begin() + stop);
      od = stop;
      if (od < end) {
        tuple_remap[od++] = kNpos;
        ++rt;
      }
    }
    const View& view = instance.view(v);
    for (size_t t = survivors[v]; t < view.size(); ++t) {
      out.weight.push_back(instance.weight(ViewTupleId{v, t}));
    }
    out.tuple_view.insert(out.tuple_view.end(), view.size(),
                          static_cast<uint32_t>(v));
  }

  // ---- Where the new witnesses go, in old witness ids: a surviving tuple's
  // after its last old witness, a created tuple's at the end of its view.
  // Grown tuples ascend by new dense id, so the points ascend too.
  struct Insertion {
    uint32_t at;     // old witness id the new witnesses precede
    uint32_t tuple;  // new dense id of the owner
    const Witness* first;
    uint32_t count;
  };
  std::vector<Insertion> insertions;
  insertions.reserve(delta.grown.size());
  size_t appended_members = 0;
  for (const CoreDelta::Growth& growth : delta.grown) {
    uint32_t at;
    if (growth.tuple < survivors[growth.view]) {
      // Old dense id of the view's growth.tuple-th survivor.
      uint32_t od = old.view_first[growth.view] + growth.tuple;
      for (size_t i = removed_begin[growth.view];
           i < removed_begin[growth.view + 1] && removed_tuples[i] <= od;
           ++i) {
        ++od;
      }
      at = old.tuple_witness_first[od + 1];
    } else {
      at = old.tuple_witness_first[old.view_first[growth.view + 1]];
    }
    const std::vector<Witness>& witnesses =
        instance.view(growth.view).tuple(growth.tuple).witnesses;
    const Witness* first = witnesses.data() + witnesses.size() - growth.added;
    for (uint32_t w = 0; w < growth.added; ++w) {
      appended_members += first[w].size();
    }
    insertions.push_back(Insertion{
        at, out.view_first[growth.view] + growth.tuple, first, growth.added});
  }

  // ---- Base space: surviving old refs merged with the refs the delta
  // brings in. An old base leaves when its occurrence count (one per
  // witness) drops to zero, which only a removed witness can cause.
  std::vector<uint32_t> scratch;  // one witness's unique member bases
  std::vector<std::pair<uint32_t, int32_t>> count_delta;  // (old base, ±1)
  size_t removed_members = 0;
  size_t removed_occurrences = 0;
  for (uint32_t ow : removed_witnesses) {
    auto first = old.witness_member_base.begin() + old.witness_member_first[ow];
    auto last =
        old.witness_member_base.begin() + old.witness_member_first[ow + 1];
    removed_members += static_cast<size_t>(last - first);
    removed_occurrences +=
        old.witness_bit_first[ow + 1] - old.witness_bit_first[ow];
    scratch.assign(first, last);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    for (uint32_t base : scratch) count_delta.emplace_back(base, -1);
  }
  auto find_old_base = [&old](const TupleRef& ref) {
    auto it = std::lower_bound(old.base_refs.begin(), old.base_refs.end(), ref);
    if (it == old.base_refs.end() || !(*it == ref)) return kNpos;
    return static_cast<uint32_t>(it - old.base_refs.begin());
  };
  std::vector<TupleRef> new_refs;
  std::vector<TupleRef> ref_scratch;
  for (const Insertion& insertion : insertions) {
    for (uint32_t w = 0; w < insertion.count; ++w) {
      const Witness& witness = insertion.first[w];
      ref_scratch.assign(witness.begin(), witness.end());
      std::sort(ref_scratch.begin(), ref_scratch.end());
      ref_scratch.erase(std::unique(ref_scratch.begin(), ref_scratch.end()),
                        ref_scratch.end());
      for (const TupleRef& ref : ref_scratch) {
        uint32_t base = find_old_base(ref);
        if (base != kNpos) {
          count_delta.emplace_back(base, 1);
        } else {
          new_refs.push_back(ref);
        }
      }
    }
  }
  std::sort(new_refs.begin(), new_refs.end());
  new_refs.erase(std::unique(new_refs.begin(), new_refs.end()),
                 new_refs.end());
  std::sort(count_delta.begin(), count_delta.end());
  std::vector<uint32_t> dropped;  // old base ids, ascending
  for (size_t i = 0; i < count_delta.size();) {
    uint32_t base = count_delta[i].first;
    int64_t count = static_cast<int64_t>(old.base_occ_first[base + 1]) -
                    static_cast<int64_t>(old.base_occ_first[base]);
    for (; i < count_delta.size() && count_delta[i].first == base; ++i) {
      count += count_delta[i].second;
    }
    if (count == 0) dropped.push_back(base);
  }

  const uint32_t old_base_count = old.base_count();
  const uint32_t base_count = old_base_count -
                              static_cast<uint32_t>(dropped.size()) +
                              static_cast<uint32_t>(new_refs.size());
  std::vector<uint32_t> base_remap(old_base_count);   // old -> new or kNpos
  std::vector<uint32_t> base_source(base_count);      // new -> old or kNpos
  out.base_refs.resize(base_count);
  {
    uint32_t ob = 0;
    uint32_t nb = 0;
    size_t nr = 0;
    size_t di = 0;
    while (ob < old_base_count || nr < new_refs.size()) {
      if (nr < new_refs.size() &&
          (ob == old_base_count || new_refs[nr] < old.base_refs[ob])) {
        base_source[nb] = kNpos;
        out.base_refs[nb++] = new_refs[nr++];
      } else if (di < dropped.size() && dropped[di] == ob) {
        base_remap[ob++] = kNpos;
        ++di;
      } else {
        base_remap[ob] = nb;
        base_source[nb] = ob;
        out.base_refs[nb++] = old.base_refs[ob++];
      }
    }
  }
  auto find_base = [&out](const TupleRef& ref) {
    return static_cast<uint32_t>(
        std::lower_bound(out.base_refs.begin(), out.base_refs.end(), ref) -
        out.base_refs.begin());
  };

  // ---- Witness space: runs of kept old witnesses are copied with their
  // ids, member slots, hit bits and owners shifted and member bases
  // remapped; the delta's witnesses are spliced in at their insertion
  // points. A from-scratch build orders witnesses the same way: by tuple,
  // kept ones first, appended ones last.
  size_t appended_count = 0;
  for (const Insertion& insertion : insertions) {
    appended_count += insertion.count;
  }
  const uint32_t old_witness_count = old.witness_count();
  const uint32_t witness_count =
      old_witness_count - static_cast<uint32_t>(removed_witnesses.size()) +
      static_cast<uint32_t>(appended_count);
  out.witness_owner.reserve(witness_count);
  out.witness_member_first.reserve(static_cast<size_t>(witness_count) + 1);
  out.witness_bit_first.reserve(static_cast<size_t>(witness_count) + 1);
  out.witness_member_base.reserve(old.witness_member_base.size() -
                                  removed_members + appended_members);
  std::vector<uint32_t> witness_remap(old_witness_count);  // or kNpos
  // Per kept old witness: new hit bit - old hit bit (mod 2^32), constant
  // along each copied run.
  std::vector<uint32_t> bit_shift(old_witness_count);
  // Occurrences of the appended witnesses: (base, witness, tuple, hit bit).
  struct Occurrence {
    uint32_t base;
    uint32_t witness;
    uint32_t tuple;
    uint32_t hit_bit;
  };
  std::vector<Occurrence> fresh;
  {
    uint32_t ow = 0;
    uint32_t bit_out = 0;
    size_t ri = 0;
    size_t gi = 0;
    while (true) {
      uint32_t stop = old_witness_count;
      if (ri < removed_witnesses.size()) {
        stop = std::min(stop, removed_witnesses[ri]);
      }
      if (gi < insertions.size()) stop = std::min(stop, insertions[gi].at);
      if (stop > ow) {
        const uint32_t nw = static_cast<uint32_t>(out.witness_owner.size());
        const uint32_t member_first = old.witness_member_first[ow];
        const uint32_t member_shift =
            static_cast<uint32_t>(out.witness_member_base.size()) -
            member_first;
        const uint32_t shift = bit_out - old.witness_bit_first[ow];
        std::iota(witness_remap.begin() + ow, witness_remap.begin() + stop,
                  nw);
        std::fill(bit_shift.begin() + ow, bit_shift.begin() + stop, shift);
        AppendRemapped(out.witness_owner, old.witness_owner, ow, stop,
                       [&](uint32_t t, size_t) { return tuple_remap[t]; });
        AppendRemapped(
            out.witness_member_first, old.witness_member_first, ow, stop,
            [member_shift](uint32_t slot, size_t) {
              return slot + member_shift;
            });
        AppendRemapped(out.witness_bit_first, old.witness_bit_first, ow, stop,
                       [shift](uint32_t bit, size_t) { return bit + shift; });
        AppendRemapped(out.witness_member_base, old.witness_member_base,
                       member_first, old.witness_member_first[stop],
                       [&](uint32_t b, size_t) { return base_remap[b]; });
        bit_out = old.witness_bit_first[stop] + shift;
        ow = stop;
      }
      if (gi < insertions.size() && insertions[gi].at == ow) {
        const Insertion& insertion = insertions[gi++];
        for (uint32_t w = 0; w < insertion.count; ++w) {
          const uint32_t nw = static_cast<uint32_t>(out.witness_owner.size());
          out.witness_owner.push_back(insertion.tuple);
          out.witness_member_first.push_back(
              static_cast<uint32_t>(out.witness_member_base.size()));
          out.witness_bit_first.push_back(bit_out);
          scratch.clear();
          for (const TupleRef& ref : insertion.first[w]) {
            uint32_t base = find_base(ref);
            out.witness_member_base.push_back(base);
            scratch.push_back(base);
          }
          std::sort(scratch.begin(), scratch.end());
          scratch.erase(std::unique(scratch.begin(), scratch.end()),
                        scratch.end());
          for (uint32_t base : scratch) {
            fresh.push_back(Occurrence{base, nw, insertion.tuple, bit_out++});
          }
        }
        continue;
      }
      if (ow == old_witness_count) break;
      witness_remap[ow++] = kNpos;  // removed
      ++ri;
    }
    out.witness_member_first.push_back(
        static_cast<uint32_t>(out.witness_member_base.size()));
    out.witness_bit_first.push_back(bit_out);
  }

  // Tuple -> witness CSR from the (ascending) owners; every tuple owns at
  // least one witness.
  out.tuple_witness_first.resize(static_cast<size_t>(tuple_count) + 1);
  {
    uint32_t w = 0;
    for (uint32_t t = 0; t < tuple_count; ++t) {
      out.tuple_witness_first[t] = w;
      while (w < witness_count && out.witness_owner[w] == t) ++w;
    }
    out.tuple_witness_first[tuple_count] = w;
  }

  // Row-width statistics, as FinishCore derives them.
  out.max_witnesses_per_tuple = 0;
  for (uint32_t t = 0; t < tuple_count; ++t) {
    out.max_witnesses_per_tuple =
        std::max(out.max_witnesses_per_tuple, out.tuple_witness_first[t + 1] -
                                                  out.tuple_witness_first[t]);
  }
  out.max_witness_members = 0;
  out.min_witness_raw_members = witness_count == 0 ? 0 : 0xFFFFFFFFu;
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    out.max_witness_members =
        std::max(out.max_witness_members,
                 out.witness_bit_first[wid + 1] - out.witness_bit_first[wid]);
    out.min_witness_raw_members =
        std::min(out.min_witness_raw_members,
                 out.witness_member_first[wid + 1] -
                     out.witness_member_first[wid]);
  }

  // ---- Which base rows are re-derived. A row is copied (ids remapped) when
  // no witness in it changed and every tuple in it kept its witness list, so
  // its kill masks, which index witnesses from tuple_witness_first, still
  // hold. Otherwise it is re-derived: bases of removed or appended witnesses
  // and of every witness of a tuple whose list changed.
  std::vector<uint8_t> rederive(base_count, 0);
  auto mark_witness = [&](uint32_t wid) {
    for (uint32_t slot = out.witness_member_first[wid];
         slot < out.witness_member_first[wid + 1]; ++slot) {
      rederive[out.witness_member_base[slot]] = 1;
    }
  };
  auto mark_tuple = [&](uint32_t t) {
    for (uint32_t wid = out.tuple_witness_first[t];
         wid < out.tuple_witness_first[t + 1]; ++wid) {
      mark_witness(wid);
    }
  };
  for (uint32_t ow : removed_witnesses) {
    for (uint32_t slot = old.witness_member_first[ow];
         slot < old.witness_member_first[ow + 1]; ++slot) {
      uint32_t base = base_remap[old.witness_member_base[slot]];
      if (base != kNpos) rederive[base] = 1;
    }
    uint32_t owner = tuple_remap[old.witness_owner[ow]];
    if (owner != kNpos) mark_tuple(owner);
  }
  for (const Insertion& insertion : insertions) mark_tuple(insertion.tuple);
  if (rows_rederived != nullptr) {
    *rows_rederived =
        dropped.size() +
        static_cast<size_t>(std::count(rederive.begin(), rederive.end(), 1));
  }

  // ---- Occurrence and kill rows, base by base. Rows are sorted by
  // witness, which within a base is (tuple, witness) order.
  std::sort(fresh.begin(), fresh.end(),
            [](const Occurrence& a, const Occurrence& b) {
              return a.base != b.base ? a.base < b.base
                                      : a.witness < b.witness;
            });
  const size_t occ_total =
      old.occ_tuple.size() - removed_occurrences + fresh.size();
  out.base_occ_first.reserve(static_cast<size_t>(base_count) + 1);
  out.occ_tuple.reserve(occ_total);
  out.occ_witness.reserve(occ_total);
  out.occ_hit_bit.reserve(occ_total);
  // Kill rows can only shrink, except by one entry per fresh occurrence.
  const size_t kill_bound = old.kill_tuple.size() + fresh.size();
  out.base_kill_first.reserve(static_cast<size_t>(base_count) + 1);
  out.kill_tuple.reserve(kill_bound);
  out.kill_witness_mask.reserve(kill_bound);
  auto to_tuple = [&](uint32_t t, size_t) { return tuple_remap[t]; };
  std::vector<Occurrence> row;
  size_t fi = 0;
  for (uint32_t nb = 0; nb < base_count;) {
    const uint32_t ob = base_source[nb];
    if (!rederive[nb]) {
      // A run of copied bases with consecutive old ids owns one contiguous
      // slice of each old row array.
      uint32_t len = 1;
      while (nb + len < base_count && !rederive[nb + len] &&
             base_source[nb + len] == ob + len) {
        ++len;
      }
      const uint32_t occ_first = old.base_occ_first[ob];
      const uint32_t occ_last = old.base_occ_first[ob + len];
      const uint32_t kill_first = old.base_kill_first[ob];
      const uint32_t kill_last = old.base_kill_first[ob + len];
      const uint32_t occ_shift =
          static_cast<uint32_t>(out.occ_tuple.size()) - occ_first;
      const uint32_t kill_shift =
          static_cast<uint32_t>(out.kill_tuple.size()) - kill_first;
      AppendRemapped(out.base_occ_first, old.base_occ_first, ob, ob + len,
                     [occ_shift](uint32_t slot, size_t) {
                       return slot + occ_shift;
                     });
      AppendRemapped(out.base_kill_first, old.base_kill_first, ob, ob + len,
                     [kill_shift](uint32_t slot, size_t) {
                       return slot + kill_shift;
                     });
      AppendRemapped(out.occ_tuple, old.occ_tuple, occ_first, occ_last,
                     to_tuple);
      AppendRemapped(out.occ_witness, old.occ_witness, occ_first, occ_last,
                     [&](uint32_t w, size_t) { return witness_remap[w]; });
      AppendRemapped(out.occ_hit_bit, old.occ_hit_bit, occ_first, occ_last,
                     [&](uint32_t bit, size_t slot) {
                       return bit + bit_shift[old.occ_witness[slot]];
                     });
      AppendRemapped(out.kill_tuple, old.kill_tuple, kill_first, kill_last,
                     to_tuple);
      out.kill_witness_mask.insert(out.kill_witness_mask.end(),
                                   old.kill_witness_mask.begin() + kill_first,
                                   old.kill_witness_mask.begin() + kill_last);
      nb += len;
      continue;
    }
    out.base_occ_first.push_back(static_cast<uint32_t>(out.occ_tuple.size()));
    out.base_kill_first.push_back(
        static_cast<uint32_t>(out.kill_tuple.size()));
    row.clear();
    if (ob != kNpos) {
      for (uint32_t slot = old.base_occ_first[ob];
           slot < old.base_occ_first[ob + 1]; ++slot) {
        uint32_t ow = old.occ_witness[slot];
        uint32_t nw = witness_remap[ow];
        if (nw == kNpos) continue;
        row.push_back(Occurrence{nb, nw, tuple_remap[old.occ_tuple[slot]],
                                 old.occ_hit_bit[slot] + bit_shift[ow]});
      }
    }
    size_t kept = row.size();
    for (; fi < fresh.size() && fresh[fi].base == nb; ++fi) {
      row.push_back(fresh[fi]);
    }
    std::inplace_merge(row.begin(), row.begin() + kept, row.end(),
                       [](const Occurrence& a, const Occurrence& b) {
                         return a.witness < b.witness;
                       });
    uint32_t prev = kNpos;
    for (const Occurrence& occ : row) {
      out.occ_tuple.push_back(occ.tuple);
      out.occ_witness.push_back(occ.witness);
      out.occ_hit_bit.push_back(occ.hit_bit);
      if (occ.tuple != prev) {
        prev = occ.tuple;
        out.kill_tuple.push_back(occ.tuple);
        out.kill_witness_mask.push_back(0);
      }
      uint32_t offset = occ.witness - out.tuple_witness_first[occ.tuple];
      if (offset < 64) out.kill_witness_mask.back() |= 1ull << offset;
    }
    ++nb;
  }
  out.base_occ_first.push_back(static_cast<uint32_t>(out.occ_tuple.size()));
  out.base_kill_first.push_back(static_cast<uint32_t>(out.kill_tuple.size()));
  return core;
}

std::shared_ptr<const CompiledInstance> CompiledInstance::Build(
    const VseInstance& instance) {
  return BuildFromCore(BuildCore(instance), instance.deletion_tuples(),
                       nullptr);
}

std::shared_ptr<const CompiledInstance> CompiledInstance::BuildFromCore(
    std::shared_ptr<const PlanCore> core,
    const std::vector<ViewTupleId>& deletions,
    std::shared_ptr<const CompiledInstance> recycle) {
  auto plan = std::shared_ptr<CompiledInstance>(new CompiledInstance());
  uint32_t tuple_count = core->tuple_count();
  uint32_t base_count = core->base_count();

  if (recycle != nullptr && recycle.use_count() == 1 &&
      recycle->core_->tuple_count() == tuple_count &&
      recycle->core_->base_count() == base_count) {
    // Sole owner of a retired plan with matching dimensions (the same core,
    // or a weight-patched clone of it): steal its overlay buffers. Clearing
    // by the retired ΔV/candidate lists (instead of a full fill) keeps the
    // reset O(previous ΔV incidence), and re-establishes the all-zero
    // `touched_` invariant. The const_cast is sound: we hold the only
    // reference, so no reader can observe the mutation.
    CompiledInstance& prev = const_cast<CompiledInstance&>(*recycle);
    for (uint32_t d : prev.deletion_dense_) {
      prev.is_deletion_[d] = 0;
      prev.deletion_words_[d >> 6] &= ~(1ull << (d & 63));
      prev.deletion_index_[d] = kNpos;
    }
    for (uint32_t b : prev.candidate_bases_) prev.touched_[b] = 0;
    plan->is_deletion_ = std::move(prev.is_deletion_);
    plan->deletion_words_ = std::move(prev.deletion_words_);
    plan->deletion_index_ = std::move(prev.deletion_index_);
    plan->touched_ = std::move(prev.touched_);
    plan->deletion_dense_ = std::move(prev.deletion_dense_);
    plan->deletion_dense_.clear();
    plan->candidate_bases_ = std::move(prev.candidate_bases_);
    plan->candidate_bases_.clear();
    plan->overlay_recycled_ = true;
  } else {
    plan->is_deletion_.assign(tuple_count, 0);
    plan->deletion_words_.assign((static_cast<size_t>(tuple_count) + 63) / 64,
                                 0);
    plan->deletion_index_.assign(tuple_count, kNpos);
    plan->touched_.assign(base_count, 0);
    plan->deletion_dense_.reserve(deletions.size());
  }
  recycle.reset();
  plan->core_ = std::move(core);

  for (size_t i = 0; i < deletions.size(); ++i) {
    uint32_t d = plan->DenseOf(deletions[i]);
    plan->is_deletion_[d] = 1;
    plan->deletion_words_[d >> 6] |= 1ull << (d & 63);
    plan->deletion_index_[d] = static_cast<uint32_t>(i);
    plan->deletion_dense_.push_back(d);
  }

  // Candidates: bases in witnesses of ΔV tuples, ascending. Collect-then-sort
  // (instead of the full 0..base_count scan) so a recycled rebuild stays
  // proportional to the ΔV neighborhood; the sorted result is identical.
  const PlanCore& c = *plan->core_;
  for (uint32_t d : plan->deletion_dense_) {
    for (uint32_t w = c.tuple_witness_first[d];
         w < c.tuple_witness_first[d + 1]; ++w) {
      for (uint32_t slot = c.witness_member_first[w];
           slot < c.witness_member_first[w + 1]; ++slot) {
        uint32_t base = c.witness_member_base[slot];
        if (!plan->touched_[base]) {
          plan->touched_[base] = 1;
          plan->candidate_bases_.push_back(base);
        }
      }
    }
  }
  std::sort(plan->candidate_bases_.begin(), plan->candidate_bases_.end());
  return plan;
}

// Lazy build: the first compiled() after an invalidation pays for the plan
// (or overlay) construction; every later call is a cache hit. Allocation
// here is the sanctioned cost of rebinding, not per-pick work.
// delprop-hot-stop
std::shared_ptr<const CompiledInstance> VseInstance::compiled() const {
  std::lock_guard<std::mutex> lock(caches_->mu);
  if (caches_->compiled == nullptr) {
    if (caches_->plan_core != nullptr) {
      // ΔV-only invalidation (or an ApplyDelta core patch) kept a core;
      // rebuild just the overlay, recycling the retired plan's buffers when
      // we are its sole owner and the dimensions still line up.
      ++caches_->plan_stats.core_rebinds;
      caches_->compiled = CompiledInstance::BuildFromCore(
          caches_->plan_core, deletion_tuples_, std::move(caches_->retired));
      caches_->retired.reset();
      if (caches_->compiled->overlay_recycled()) {
        ++caches_->plan_stats.overlay_recycles;
      }
    } else {
      ++caches_->plan_stats.full_builds;
      caches_->compiled = CompiledInstance::Build(*this);
      caches_->plan_core = caches_->compiled->core();
    }
  }
  return caches_->compiled;
}

}  // namespace delprop

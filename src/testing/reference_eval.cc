#include "testing/reference_eval.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "plan/compiled_instance.h"

namespace delprop {
namespace testing {

ResultMap NaiveEvaluate(const Database& db, const ConjunctiveQuery& query,
                        const DeletionSet* mask) {
  ResultMap results;
  size_t atom_count = query.atoms().size();
  std::vector<uint32_t> choice(atom_count, 0);

  std::vector<size_t> row_counts(atom_count);
  for (size_t a = 0; a < atom_count; ++a) {
    row_counts[a] = db.relation(query.atoms()[a].relation).row_count();
    if (row_counts[a] == 0) return results;
  }

  constexpr ValueId kUnbound = 0xFFFFFFFF;
  for (;;) {
    // Check this combination of rows against constants and join variables.
    std::vector<ValueId> assignment(query.variable_count(), kUnbound);
    bool match = true;
    bool masked = false;
    for (size_t a = 0; a < atom_count && match; ++a) {
      const Atom& atom = query.atoms()[a];
      TupleRef ref{atom.relation, choice[a]};
      if (mask != nullptr && mask->Contains(ref)) {
        masked = true;
        break;
      }
      const Tuple& row = db.relation(atom.relation).row(choice[a]);
      for (size_t p = 0; p < atom.terms.size(); ++p) {
        const Term& t = atom.terms[p];
        if (t.is_constant()) {
          if (row[p] != t.id) match = false;
        } else if (assignment[t.id] == kUnbound) {
          assignment[t.id] = row[p];
        } else if (assignment[t.id] != row[p]) {
          match = false;
        }
        if (!match) break;
      }
    }
    if (match && !masked) {
      Tuple head;
      for (const Term& t : query.head()) {
        head.push_back(t.is_constant() ? t.id : assignment[t.id]);
      }
      Witness witness;
      for (size_t a = 0; a < atom_count; ++a) {
        witness.push_back({query.atoms()[a].relation, choice[a]});
      }
      results[head].insert(std::move(witness));
    }
    // Advance the odometer.
    size_t a = 0;
    while (a < atom_count) {
      if (++choice[a] < row_counts[a]) break;
      choice[a] = 0;
      ++a;
    }
    if (a == atom_count) break;
  }
  return results;
}

ResultMap ViewToResultMap(const View& view) {
  ResultMap map;
  for (size_t t = 0; t < view.size(); ++t) {
    for (const Witness& w : view.tuple(t).witnesses) {
      map[view.tuple(t).values].insert(w);
    }
  }
  return map;
}

size_t NaiveEvaluationCost(const Database& db, const ConjunctiveQuery& query) {
  size_t cost = 1;
  for (const Atom& atom : query.atoms()) {
    size_t rows = db.relation(atom.relation).row_count();
    if (rows == 0) return 0;
    if (cost > std::numeric_limits<size_t>::max() / rows) {
      return std::numeric_limits<size_t>::max();
    }
    cost *= rows;
  }
  return cost;
}

namespace {

/// State of one ReferenceDeltaMatches call; Assign binds atom `atom_index`
/// and recurses, unwinding its own bindings before it returns.
struct DeltaScan {
  DeltaScan(const Database& database, const ConjunctiveQuery& query,
            const DeletionSet& mask, const std::vector<uint32_t>& first_new_row,
            std::vector<std::pair<Tuple, Witness>>* out)
      : database(database),
        query(query),
        mask(mask),
        first_new_row(first_new_row),
        out(out),
        binding(query.variable_count(), 0),
        bound(query.variable_count(), 0) {}

  const Database& database;
  const ConjunctiveQuery& query;
  const DeletionSet& mask;
  const std::vector<uint32_t>& first_new_row;
  std::vector<std::pair<Tuple, Witness>>* out;
  size_t pivot_atom = 0;
  uint32_t pivot_row = 0;
  std::vector<ValueId> binding;
  std::vector<uint8_t> bound;
  Witness witness;

  void Assign(size_t atom_index) {
    const std::vector<Atom>& atoms = query.atoms();
    if (atom_index == atoms.size()) {
      Tuple values;
      for (const Term& t : query.head()) {
        values.push_back(t.is_constant() ? t.id : binding[t.id]);
      }
      out->emplace_back(std::move(values), witness);
      return;
    }
    const Atom& atom = atoms[atom_index];
    const Relation& relation = database.relation(atom.relation);
    uint32_t begin = 0;
    uint32_t end = static_cast<uint32_t>(relation.row_count());
    if (atom_index == pivot_atom) {
      begin = pivot_row;
      end = pivot_row + 1;
    } else if (atom_index < pivot_atom) {
      end = first_new_row[atom.relation];
    }
    for (uint32_t r = begin; r < end; ++r) {
      if (mask.Contains(TupleRef{atom.relation, r})) continue;
      const Tuple& row = relation.row(r);
      std::vector<VarId> fresh;
      bool match = true;
      for (size_t p = 0; p < atom.terms.size() && match; ++p) {
        const Term& t = atom.terms[p];
        if (t.is_constant()) {
          match = row[p] == t.id;
        } else if (bound[t.id]) {
          match = row[p] == binding[t.id];
        } else {
          bound[t.id] = 1;
          binding[t.id] = row[p];
          fresh.push_back(t.id);
        }
      }
      if (match) {
        witness.push_back(TupleRef{atom.relation, r});
        Assign(atom_index + 1);
        witness.pop_back();
      }
      for (VarId v : fresh) bound[v] = 0;
    }
  }
};

}  // namespace

void ReferenceDeltaMatches(const Database& database,
                           const ConjunctiveQuery& query,
                           const DeletionSet& mask,
                           const std::vector<uint32_t>& first_new_row,
                           std::vector<std::pair<Tuple, Witness>>* out) {
  DeltaScan scan(database, query, mask, first_new_row, out);
  const std::vector<Atom>& atoms = query.atoms();
  for (size_t a = 0; a < atoms.size(); ++a) {
    uint32_t row_count =
        static_cast<uint32_t>(database.relation(atoms[a].relation).row_count());
    for (uint32_t r = first_new_row[atoms[a].relation]; r < row_count; ++r) {
      scan.pivot_atom = a;
      scan.pivot_row = r;
      scan.Assign(0);
    }
  }
}

SideEffectReport ReferenceEvaluateDeletion(const VseInstance& instance,
                                           const DeletionSet& deletion) {
  SideEffectReport report;
  report.source_deletion_count = deletion.size();
  report.per_view_side_effect.assign(instance.view_count(), 0);

  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  std::vector<char> deleted(plan->base_count(), 0);
  for (const TupleRef& ref : deletion) {
    uint32_t base = plan->FindBase(ref);
    if (base != CompiledInstance::kNpos) deleted[base] = 1;
  }

  for (size_t v = 0; v < instance.view_count(); ++v) {
    const size_t view_size = instance.view(v).size();
    for (size_t t = 0; t < view_size; ++t) {
      ViewTupleId id{v, t};
      uint32_t dense = plan->DenseOf(id);
      // Survives iff some witness is disjoint from ΔD.
      bool survives = false;
      uint32_t wend = plan->tuple_witness_end(dense);
      for (uint32_t w = plan->tuple_witness_begin(dense); w < wend; ++w) {
        bool hit = false;
        uint32_t mend = plan->member_end(w);
        for (uint32_t slot = plan->member_begin(w); slot < mend; ++slot) {
          if (deleted[plan->member_base(slot)]) {
            hit = true;
            break;
          }
        }
        if (!hit) {
          survives = true;
          break;
        }
      }
      if (plan->is_deletion(dense)) {
        if (survives) {
          report.surviving_deletions.push_back(id);
          report.balanced_cost += plan->weight(dense);
        }
      } else if (!survives) {
        report.killed_preserved.push_back(id);
        report.side_effect_count += 1;
        report.side_effect_weight += plan->weight(dense);
        report.balanced_cost += plan->weight(dense);
        report.per_view_side_effect[v] += 1;
      }
    }
  }
  report.eliminates_all_deletions = report.surviving_deletions.empty();
  return report;
}

namespace {

std::string DescribeDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g (%016llx)", value,
                static_cast<unsigned long long>(
                    std::bit_cast<uint64_t>(value)));
  return buffer;
}

std::string DescribeIds(const std::vector<ViewTupleId>& ids) {
  std::string out = std::to_string(ids.size()) + " id(s)";
  for (size_t i = 0; i < ids.size() && i < 4; ++i) {
    out += (i == 0 ? " [" : ", ") + std::to_string(ids[i].view) + ":" +
           std::to_string(ids[i].tuple);
  }
  if (!ids.empty()) out += ids.size() > 4 ? ", ...]" : "]";
  return out;
}

}  // namespace

std::string DiffSideEffectReports(const SideEffectReport& got,
                                  const SideEffectReport& want) {
  auto same_double = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  if (got.eliminates_all_deletions != want.eliminates_all_deletions) {
    return std::string("eliminates_all_deletions ") +
           (got.eliminates_all_deletions ? "true" : "false") + " vs " +
           (want.eliminates_all_deletions ? "true" : "false");
  }
  if (got.killed_preserved != want.killed_preserved) {
    return "killed_preserved " + DescribeIds(got.killed_preserved) + " vs " +
           DescribeIds(want.killed_preserved);
  }
  if (got.surviving_deletions != want.surviving_deletions) {
    return "surviving_deletions " + DescribeIds(got.surviving_deletions) +
           " vs " + DescribeIds(want.surviving_deletions);
  }
  if (got.side_effect_count != want.side_effect_count) {
    return "side_effect_count " + std::to_string(got.side_effect_count) +
           " vs " + std::to_string(want.side_effect_count);
  }
  if (!same_double(got.side_effect_weight, want.side_effect_weight)) {
    return "side_effect_weight " + DescribeDouble(got.side_effect_weight) +
           " vs " + DescribeDouble(want.side_effect_weight);
  }
  if (got.per_view_side_effect != want.per_view_side_effect) {
    return "per_view_side_effect differs over " +
           std::to_string(got.per_view_side_effect.size()) + " vs " +
           std::to_string(want.per_view_side_effect.size()) + " view(s)";
  }
  if (!same_double(got.balanced_cost, want.balanced_cost)) {
    return "balanced_cost " + DescribeDouble(got.balanced_cost) + " vs " +
           DescribeDouble(want.balanced_cost);
  }
  if (got.source_deletion_count != want.source_deletion_count) {
    return "source_deletion_count " +
           std::to_string(got.source_deletion_count) + " vs " +
           std::to_string(want.source_deletion_count);
  }
  return "";
}

}  // namespace testing
}  // namespace delprop

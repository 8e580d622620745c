#include "testing/reference_eval.h"

#include <cstdint>
#include <limits>

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

}  // namespace testing
}  // namespace delprop

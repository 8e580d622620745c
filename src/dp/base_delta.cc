#include "dp/base_delta.h"

#include <algorithm>
#include <optional>

#include "query/evaluator.h"

namespace delprop {
namespace internal {
namespace {

/// One atom of a pivot's join order and how its candidate rows are found:
/// the pinned pivot row, one Relation::FindByKey (every key position bound),
/// or a scan of the atom's row range.
struct JoinStep {
  enum Probe : uint8_t { kPivot, kKey, kScan };
  size_t atom = 0;
  Probe probe = kPivot;
};

/// Pivot-first index-nested-loop enumerator for the delta matches of one
/// query. One instance is reused across pivots; Assign always unwinds its
/// bindings, so the valuation is all-unbound between top-level calls.
class DeltaMatcher {
 public:
  DeltaMatcher(const Database& database, const ConjunctiveQuery& query,
               const DeletionSet& mask,
               const std::vector<uint32_t>& first_new_row,
               std::vector<std::pair<Tuple, Witness>>* out)
      : database_(database),
        query_(query),
        mask_(mask),
        first_new_row_(first_new_row),
        out_(out) {
    binding_.resize(query.variable_count(), 0);
    bound_.resize(query.variable_count(), 0);
    witness_.resize(query.atoms().size());
  }

  /// Fixes the join order for pivots on `pivot_atom` — the evaluator's
  /// greedy order with the pivot placed first — and picks each later atom's
  /// probe: its key if the earlier atoms bind every key position, else a
  /// scan.
  void PlanPivot(size_t pivot_atom) {
    const std::vector<Atom>& atoms = query_.atoms();
    pivot_atom_ = pivot_atom;
    order_.clear();
    std::vector<uint8_t> bound(query_.variable_count(), 0);
    for (size_t a : GreedyAtomOrder(database_, query_, pivot_atom)) {
      const std::vector<Term>& terms = atoms[a].terms;
      const std::vector<size_t>& key =
          database_.relation(atoms[a].relation).schema().key_positions;
      JoinStep step{a, JoinStep::kScan};
      if (order_.empty()) {
        step.probe = JoinStep::kPivot;
      } else if (std::all_of(key.begin(), key.end(), [&](size_t p) {
                   return terms[p].is_constant() || bound[terms[p].id] != 0;
                 })) {
        step.probe = JoinStep::kKey;
      }
      order_.push_back(step);
      for (const Term& t : terms) {
        if (t.is_variable()) bound[t.id] = 1;
      }
    }
  }

  /// Appends every match whose earliest new-row atom is the planned pivot
  /// atom bound to row `pivot_row`, sorted by witness — the body-order,
  /// ascending-row order a plain backtracking scan would emit them in.
  void EnumeratePivot(uint32_t pivot_row) {
    pivot_row_ = pivot_row;
    size_t first = out_->size();
    Assign(0);
    std::sort(out_->begin() + static_cast<std::ptrdiff_t>(first), out_->end(),
              [](const std::pair<Tuple, Witness>& a,
                 const std::pair<Tuple, Witness>& b) {
                return a.second < b.second;
              });
  }

  size_t rows_examined() const { return rows_examined_; }

 private:
  void Assign(size_t depth) {
    if (depth == order_.size()) {
      Emit();
      return;
    }
    const JoinStep& step = order_[depth];
    const Atom& atom = query_.atoms()[step.atom];
    const Relation& relation = database_.relation(atom.relation);
    // Atoms before the pivot see only old rows (their new-row matches are
    // some earlier pivot's); atoms after it see everything live.
    uint32_t end = step.atom < pivot_atom_
                       ? first_new_row_[atom.relation]
                       : static_cast<uint32_t>(relation.row_count());
    switch (step.probe) {
      case JoinStep::kPivot:
        TryRow(depth, pivot_row_);
        break;
      case JoinStep::kKey: {
        const std::vector<size_t>& key = relation.schema().key_positions;
        key_.resize(key.size());
        for (size_t k = 0; k < key.size(); ++k) {
          key_[k] = ValueOf(atom.terms[key[k]]);
        }
        std::optional<uint32_t> row = relation.FindByKey(key_);
        if (row.has_value() && *row < end) TryRow(depth, *row);
        break;
      }
      case JoinStep::kScan:
        for (uint32_t r = 0; r < end; ++r) TryRow(depth, r);
        break;
    }
  }

  /// Tests one candidate row for the atom at `depth` and recurses on a match.
  void TryRow(size_t depth, uint32_t row) {
    ++rows_examined_;
    const Atom& atom = query_.atoms()[order_[depth].atom];
    TupleRef ref{atom.relation, row};
    if (mask_.Contains(ref)) return;
    size_t unwind = trail_.size();
    if (BindRow(atom, database_.relation(atom.relation).row(row))) {
      witness_[order_[depth].atom] = ref;
      Assign(depth + 1);
    }
    Unwind(unwind);
  }

  /// Unifies `row` with the atom's terms, recording fresh bindings on the
  /// trail. On mismatch the caller unwinds to its saved trail mark.
  bool BindRow(const Atom& atom, const Tuple& row) {
    for (size_t p = 0; p < atom.terms.size(); ++p) {
      const Term& term = atom.terms[p];
      if (term.is_constant()) {
        if (row[p] != term.id) return false;
      } else if (bound_[term.id]) {
        if (row[p] != binding_[term.id]) return false;
      } else {
        bound_[term.id] = 1;
        binding_[term.id] = row[p];
        trail_.push_back(term.id);
      }
    }
    return true;
  }

  void Unwind(size_t mark) {
    while (trail_.size() > mark) {
      bound_[trail_.back()] = 0;
      trail_.pop_back();
    }
  }

  /// A constant's id or a bound variable's value (the plan only probes on
  /// terms that are one of the two).
  ValueId ValueOf(const Term& term) const {
    return term.is_constant() ? term.id : binding_[term.id];
  }

  void Emit() {
    Tuple values;
    values.reserve(query_.head().size());
    for (const Term& term : query_.head()) values.push_back(ValueOf(term));
    out_->emplace_back(std::move(values), witness_);
  }

  const Database& database_;
  const ConjunctiveQuery& query_;
  const DeletionSet& mask_;
  const std::vector<uint32_t>& first_new_row_;
  std::vector<std::pair<Tuple, Witness>>* out_;

  size_t pivot_atom_ = 0;
  uint32_t pivot_row_ = 0;
  std::vector<JoinStep> order_;
  std::vector<ValueId> binding_;
  std::vector<uint8_t> bound_;
  std::vector<VarId> trail_;
  Witness witness_;  // indexed by atom: body order, whatever the join order
  Tuple key_;
  size_t rows_examined_ = 0;
};

}  // namespace

Status CollectDeltaMatches(const Database& database,
                           const ConjunctiveQuery& query,
                           const DeletionSet& mask,
                           const std::vector<uint32_t>& first_new_row,
                           std::vector<std::pair<Tuple, Witness>>* out,
                           size_t* rows_examined) {
  if (first_new_row.size() != database.relation_count()) {
    return Status::InvalidArgument(
        "CollectDeltaMatches needs one first_new_row entry per relation");
  }
  DeltaMatcher matcher(database, query, mask, first_new_row, out);
  const std::vector<Atom>& atoms = query.atoms();
  for (size_t a = 0; a < atoms.size(); ++a) {
    const Relation& relation = database.relation(atoms[a].relation);
    uint32_t row_count = static_cast<uint32_t>(relation.row_count());
    uint32_t first_new = first_new_row[atoms[a].relation];
    if (first_new >= row_count) continue;
    matcher.PlanPivot(a);
    for (uint32_t r = first_new; r < row_count; ++r) {
      matcher.EnumeratePivot(r);
    }
  }
  if (rows_examined != nullptr) *rows_examined += matcher.rows_examined();
  return Status::Ok();
}

}  // namespace internal
}  // namespace delprop

#include "testing/mutation.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dp/base_delta.h"
#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "solvers/solver_registry.h"
#include "testing/fuzzer.h"
#include "testing/reference_eval.h"

namespace delprop {
namespace testing {

namespace {

/// Per-case scratch result; RunMutationFuzz aggregates them in index order.
struct CaseOutcome {
  uint64_t seed = 0;
  Status generation = Status::Ok();
  size_t steps_applied = 0;
  size_t rows_inserted = 0;
  size_t rows_deleted = 0;
  size_t view_tuples_added = 0;
  size_t view_tuples_removed = 0;
  size_t core_patches = 0;
  size_t core_rebuilds = 0;
  std::vector<MutationViolation> violations;
};

/// Builds a random delta over the live database: up to two logical deletes
/// of not-yet-masked rows, then inserts in one of two shapes. Scattered:
/// up to two inserts whose values mix reuse of existing column values (join
/// pressure — reused values are what make new witnesses form) with fresh
/// interned constants; their key columns are all freshened until the key is
/// unused, since masked rows keep their keys occupied. Fan-in (one delta in
/// four): 2–4 inserts into one relation, all copies of one existing row
/// whose key columns are freshened one at a time (from a random one on), so
/// each copy keeps every non-key value and as many key values as a free key
/// allows. The copies join the same rows as their source: inserted at once
/// they give one pivot row several new partners, and a query projecting
/// the freshened column away gives surviving tuples new witnesses.
BaseDelta MakeRandomDelta(Database& db, const DeletionSet& mask, Rng& rng,
                          size_t case_index, size_t step) {
  BaseDelta delta;
  size_t relation_count = db.relation_count();
  if (relation_count == 0) return delta;

  size_t want_deletes = rng.NextBelow(3);
  for (size_t attempt = 0; attempt < 8 && delta.deletes.size() < want_deletes;
       ++attempt) {
    RelationId rel = static_cast<RelationId>(rng.NextBelow(relation_count));
    size_t rows = db.relation(rel).row_count();
    if (rows == 0) continue;
    TupleRef ref{rel, static_cast<uint32_t>(rng.NextBelow(rows))};
    if (mask.Contains(ref)) continue;
    if (std::find(delta.deletes.begin(), delta.deletes.end(), ref) !=
        delta.deletes.end()) {
      continue;
    }
    delta.deletes.push_back(ref);
  }

  size_t fresh_counter = 0;
  auto fresh_value = [&]() {
    std::string text = "mut" + std::to_string(case_index) + "_" +
                       std::to_string(step) + "_" +
                       std::to_string(fresh_counter++);
    return db.dict().Intern(text);
  };
  std::vector<Tuple> batch_keys;
  // Freshens the key of `tuple` until it is unused — every key column per
  // attempt, or one column per attempt from `first_key` on — and queues the
  // insert; drops it if no free key turns up.
  auto add_insert = [&](RelationId rel, Tuple tuple, bool one_column,
                        size_t first_key) {
    const std::vector<size_t>& key_positions =
        db.schema().relation(rel).key_positions;
    const Relation& relation = db.relation(rel);
    for (size_t attempt = 0; attempt < 8; ++attempt) {
      Tuple key = relation.KeyOf(tuple);
      bool taken = relation.FindByKey(key).has_value() ||
                   std::find(batch_keys.begin(), batch_keys.end(), key) !=
                       batch_keys.end();
      if (!taken || key_positions.empty()) break;
      if (one_column) {
        size_t slot = (first_key + attempt) % key_positions.size();
        tuple[key_positions[slot]] = fresh_value();
      } else {
        for (size_t pos : key_positions) tuple[pos] = fresh_value();
      }
    }
    Tuple key = relation.KeyOf(tuple);
    if (relation.FindByKey(key).has_value() ||
        std::find(batch_keys.begin(), batch_keys.end(), key) !=
            batch_keys.end()) {
      return;
    }
    batch_keys.push_back(std::move(key));
    delta.inserts.push_back(BaseInsert{rel, std::move(tuple)});
  };

  if (rng.NextBool(0.25)) {
    RelationId rel = static_cast<RelationId>(rng.NextBelow(relation_count));
    const Relation& relation = db.relation(rel);
    if (relation.row_count() > 0) {
      Tuple source = relation.row(
          static_cast<uint32_t>(rng.NextBelow(relation.row_count())));
      size_t want_inserts = 2 + rng.NextBelow(3);
      size_t first_key = rng.NextBelow(
          std::max<size_t>(1, db.schema().relation(rel).key_positions.size()));
      for (size_t n = 0; n < want_inserts; ++n) {
        add_insert(rel, source, /*one_column=*/true, first_key);
      }
      return delta;
    }
  }
  size_t want_inserts = rng.NextBelow(3);
  for (size_t n = 0; n < want_inserts; ++n) {
    RelationId rel = static_cast<RelationId>(rng.NextBelow(relation_count));
    const RelationSchema& schema = db.schema().relation(rel);
    const Relation& relation = db.relation(rel);
    Tuple tuple(schema.arity);
    for (size_t pos = 0; pos < schema.arity; ++pos) {
      if (relation.row_count() > 0 && rng.NextBool(0.6)) {
        size_t row = rng.NextBelow(relation.row_count());
        tuple[pos] = relation.row(static_cast<uint32_t>(row))[pos];
      } else {
        tuple[pos] = fresh_value();
      }
    }
    add_insert(rel, std::move(tuple), /*one_column=*/false, 0);
  }
  return delta;
}

/// Adds a projecting three-atom query to a random-family case and rebuilds
/// its instance, keeping ΔV: Qhub(x) :- Ri(x, y0), Rj(x, y1), Rk(x, y2) over
/// random binary relations. The family's own queries are project-free
/// chains, so every view tuple has one witness, and no pivot row of the
/// insert join ever has several matches from two later atoms. Here it does:
/// every row with the hub value joins, the two non-pivot atoms are visited
/// smaller relation first rather than in body order (the emission order the
/// join must restore), and projecting to x gives a view tuple one witness
/// per combination, which inserts extend and deletes thin.
Status AddHubQuery(FuzzCase& fuzz_case, Rng& rng) {
  GeneratedVse& generated = fuzz_case.generated;
  const Database& db = *generated.database;
  auto query = std::make_unique<ConjunctiveQuery>("Qhub");
  VarId hub = query->AddVariable("x");
  for (size_t a = 0; a < 3; ++a) {
    Atom atom;
    atom.relation = static_cast<RelationId>(rng.NextBelow(db.relation_count()));
    atom.terms = {Term::Variable(hub),
                  Term::Variable(query->AddVariable("y" + std::to_string(a)))};
    query->AddAtom(std::move(atom));
  }
  query->AddHeadTerm(Term::Variable(hub));
  generated.queries.push_back(std::move(query));
  std::vector<const ConjunctiveQuery*> queries;
  for (const auto& q : generated.queries) queries.push_back(q.get());
  Result<VseInstance> rebuilt = VseInstance::Create(db, queries);
  if (!rebuilt.ok()) return rebuilt.status();
  // The original views come first, in the same order, so ΔV ids carry over.
  if (Status s = rebuilt->ResetDeletions(generated.instance->deletion_tuples());
      !s.ok()) {
    return s;
  }
  *generated.instance = std::move(rebuilt).value();
  return Status::Ok();
}

std::string RenderRef(const Database& db, const TupleRef& ref) {
  return db.schema().relation(ref.relation).name + "#" +
         std::to_string(ref.row);
}

/// Sorted copy of a tuple's witness list, for set-level comparison (the live
/// instance appends incrementally; a from-scratch Create enumerates in
/// evaluator order).
std::vector<Witness> SortedWitnesses(const ViewTuple& tuple) {
  std::vector<Witness> witnesses = tuple.witnesses;
  std::sort(witnesses.begin(), witnesses.end());
  return witnesses;
}

/// Views of `live` and of a from-scratch rebuild must agree as sets.
void CheckContent(const VseInstance& live, const VseInstance& rebuilt,
                  size_t case_index, uint64_t seed, size_t step,
                  std::vector<MutationViolation>* violations) {
  for (size_t v = 0; v < live.view_count(); ++v) {
    const View& lv = live.view(v);
    const View& rv = rebuilt.view(v);
    if (lv.size() != rv.size()) {
      violations->push_back(
          {case_index, seed, step, "content",
           "view " + std::to_string(v) + " has " + std::to_string(lv.size()) +
               " tuple(s) live vs " + std::to_string(rv.size()) +
               " rebuilt"});
      continue;
    }
    for (size_t t = 0; t < rv.size(); ++t) {
      const ViewTuple& rt = rv.tuple(t);
      std::optional<size_t> found = lv.Find(rt.values);
      if (!found.has_value()) {
        violations->push_back({case_index, seed, step, "content",
                               "rebuilt tuple " + rv.RenderTuple(t) +
                                   " is missing from the live view"});
        continue;
      }
      if (SortedWitnesses(lv.tuple(*found)) != SortedWitnesses(rt)) {
        violations->push_back({case_index, seed, step, "content",
                               "witness sets of " + rv.RenderTuple(t) +
                                   " differ between live and rebuilt"});
      }
    }
  }
}

/// Every array and statistic of the two cores: the thirteen CSR arrays,
/// the packed kill-kernel layout and the row-width statistics.
bool SameCore(const PlanCore& a, const PlanCore& b) {
  return a.view_first == b.view_first && a.tuple_view == b.tuple_view &&
         a.weight == b.weight &&
         a.tuple_witness_first == b.tuple_witness_first &&
         a.witness_owner == b.witness_owner &&
         a.witness_member_first == b.witness_member_first &&
         a.witness_member_base == b.witness_member_base &&
         a.base_refs == b.base_refs && a.base_occ_first == b.base_occ_first &&
         a.occ_tuple == b.occ_tuple && a.occ_witness == b.occ_witness &&
         a.base_kill_first == b.base_kill_first &&
         a.kill_tuple == b.kill_tuple &&
         a.witness_bit_first == b.witness_bit_first &&
         a.occ_hit_bit == b.occ_hit_bit &&
         a.kill_witness_mask == b.kill_witness_mask &&
         a.max_witnesses_per_tuple == b.max_witnesses_per_tuple &&
         a.max_witness_members == b.max_witness_members &&
         a.min_witness_raw_members == b.min_witness_raw_members;
}

/// Derived state of `live` (kill map, unique-witness flag, compiled core and
/// overlay, solver outcomes) must be byte-identical to `shadow`, a fresh
/// CreateFromMaterializedViews over a copy of the live views carrying the
/// same ΔV and weights.
void CheckDerivedState(const VseInstance& live, const VseInstance& shadow,
                       const std::vector<std::string>& solvers,
                       size_t case_index, uint64_t seed, size_t step,
                       std::vector<MutationViolation>* violations) {
  if (live.all_unique_witness() != shadow.all_unique_witness()) {
    violations->push_back(
        {case_index, seed, step, "unique-witness",
         std::string("live reports ") +
             (live.all_unique_witness() ? "true" : "false") +
             ", reindexed rebuild reports the opposite"});
  }

  std::vector<TupleRef> refs;
  for (size_t v = 0; v < live.view_count(); ++v) {
    const View& view = live.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      for (const Witness& witness : view.tuple(t).witnesses) {
        refs.insert(refs.end(), witness.begin(), witness.end());
      }
    }
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  for (const TupleRef& ref : refs) {
    if (live.KilledBy(ref) != shadow.KilledBy(ref)) {
      violations->push_back({case_index, seed, step, "kill-map",
                             "KilledBy(" + RenderRef(live.database(), ref) +
                                 ") differs from the reindexed rebuild"});
      break;
    }
  }

  std::shared_ptr<const CompiledInstance> live_plan = live.compiled();
  std::shared_ptr<const CompiledInstance> shadow_plan = shadow.compiled();
  if (!SameCore(*live_plan->core(), *shadow_plan->core())) {
    violations->push_back({case_index, seed, step, "core",
                           "patched PlanCore is not byte-identical to a "
                           "from-scratch build over the mutated views"});
  }
  if (live_plan->deletion_dense() != shadow_plan->deletion_dense() ||
      live_plan->candidate_bases() != shadow_plan->candidate_bases()) {
    violations->push_back({case_index, seed, step, "core",
                           "compiled ΔV overlay (deletion_dense / "
                           "candidate_bases) differs from rebuild"});
  }

  std::vector<SolverRun> live_runs = RunAll(live, nullptr, solvers);
  std::vector<SolverRun> shadow_runs = RunAll(shadow, nullptr, solvers);
  for (size_t i = 0; i < live_runs.size(); ++i) {
    const SolverRun& a = live_runs[i];
    const SolverRun& b = shadow_runs[i];
    std::string check = "solver:" + a.name;
    if (a.result.ok() != b.result.ok()) {
      violations->push_back({case_index, seed, step, check,
                             "one arm solved, the other returned: " +
                                 (a.result.ok() ? b.result.status().ToString()
                                                : a.result.status().ToString())});
      continue;
    }
    if (!a.result.ok()) continue;  // both refused identically-shaped inputs
    const VseSolution& sa = a.result.value();
    const VseSolution& sb = b.result.value();
    if (sa.deletion.Sorted() != sb.deletion.Sorted() ||
        sa.Cost() != sb.Cost() || sa.Feasible() != sb.Feasible()) {
      violations->push_back(
          {case_index, seed, step, check,
           "outcome differs: live cost " + std::to_string(sa.Cost()) +
               " (|ΔD|=" + std::to_string(sa.deletion.size()) +
               ") vs rebuilt cost " + std::to_string(sb.Cost()) +
               " (|ΔD|=" + std::to_string(sb.deletion.size()) + ")"});
    }
  }
}

/// The indexed insert join must return the reference scan's (head, witness)
/// pairs in the reference's order: view-tuple numbering after an insert
/// follows it.
void CheckDeltaMatches(const Database& db,
                       const std::vector<const ConjunctiveQuery*>& queries,
                       const DeletionSet& mask,
                       const std::vector<uint32_t>& first_new_row,
                       size_t case_index, uint64_t seed, size_t step,
                       std::vector<MutationViolation>* violations) {
  for (const ConjunctiveQuery* query : queries) {
    std::vector<std::pair<Tuple, Witness>> indexed;
    std::vector<std::pair<Tuple, Witness>> reference;
    Status collected = internal::CollectDeltaMatches(db, *query, mask,
                                                     first_new_row, &indexed);
    ReferenceDeltaMatches(db, *query, mask, first_new_row, &reference);
    if (!collected.ok()) {
      violations->push_back({case_index, seed, step, "delta-matches",
                             query->name() + ": " + collected.ToString()});
      continue;
    }
    if (indexed == reference) continue;
    size_t at = 0;
    while (at < indexed.size() && at < reference.size() &&
           indexed[at] == reference[at]) {
      ++at;
    }
    violations->push_back(
        {case_index, seed, step, "delta-matches",
         query->name() + ": " + std::to_string(indexed.size()) +
             " indexed vs " + std::to_string(reference.size()) +
             " reference matches, first difference at match " +
             std::to_string(at)});
  }
}

void RunOneCase(const MutationFuzzOptions& options, size_t index,
                CaseOutcome* outcome) {
  outcome->seed = DeriveTaskSeed(options.seed_start, index);
  Result<FuzzCase> generated = GenerateFuzzCase(outcome->seed);
  if (!generated.ok()) {
    outcome->generation = generated.status();
    return;
  }
  FuzzCase fuzz_case = std::move(generated).value();
  Rng rng(DeriveTaskSeed(outcome->seed, 0x6d757461));  // "muta"
  if (fuzz_case.family == "random") {
    if (Status s = AddHubQuery(fuzz_case, rng); !s.ok()) {
      outcome->generation = s;
      return;
    }
  }
  Database& db = *fuzz_case.generated.database;
  std::vector<const ConjunctiveQuery*> queries;
  for (const auto& query : fuzz_case.generated.queries) {
    queries.push_back(query.get());
  }
  VseInstance live = std::move(*fuzz_case.generated.instance);

  ApplyDeltaOptions apply_options;
  apply_options.patch_threshold = options.patch_threshold;

  for (size_t step = 0; step < options.steps_per_case; ++step) {
    BaseDelta delta =
        MakeRandomDelta(db, live.base_mask(), rng, index, step);
    if (delta.empty()) continue;

    std::vector<uint32_t> first_new_row(db.relation_count());
    for (RelationId r = 0; r < db.relation_count(); ++r) {
      first_new_row[r] = static_cast<uint32_t>(db.relation(r).row_count());
    }
    ApplyDeltaReport report;
    Status applied = live.ApplyDelta(db, delta, apply_options, &report);
    if (!applied.ok()) {
      outcome->violations.push_back({index, outcome->seed, step, "apply",
                                     applied.ToString()});
      return;  // the live instance may be inconsistent; stop this case
    }
    ++outcome->steps_applied;
    outcome->rows_inserted += delta.inserts.size();
    outcome->rows_deleted += delta.deletes.size();
    outcome->view_tuples_added += report.view_tuples_added;
    outcome->view_tuples_removed += report.view_tuples_removed;
    if (report.core_patched) ++outcome->core_patches;
    if (report.core_rebuilt) ++outcome->core_rebuilds;
    if (!delta.inserts.empty()) {
      CheckDeltaMatches(db, queries, live.base_mask(), first_new_row, index,
                        outcome->seed, step, &outcome->violations);
    }

    // Interleave ΔV marks and reweights so every oracle pass also covers
    // post-delta mark remapping and the SetWeight core-patch path.
    size_t marks = rng.NextBelow(3);
    for (size_t m = 0; m < marks && live.view_count() > 0; ++m) {
      size_t v = rng.NextBelow(live.view_count());
      if (live.view(v).size() == 0) continue;
      ViewTupleId id{v, rng.NextBelow(live.view(v).size())};
      Status marked = live.MarkForDeletion(id);
      if (!marked.ok()) {
        outcome->violations.push_back({index, outcome->seed, step, "apply",
                                       "MarkForDeletion after delta: " +
                                           marked.ToString()});
        return;
      }
    }
    if (rng.NextBool(0.5) && live.view_count() > 0) {
      size_t v = rng.NextBelow(live.view_count());
      if (live.view(v).size() > 0) {
        ViewTupleId id{v, rng.NextBelow(live.view(v).size())};
        double weight = 1.0 + static_cast<double>(rng.NextBelow(5));
        Status reweighted = live.SetWeight(id, weight);
        if (!reweighted.ok()) {
          outcome->violations.push_back({index, outcome->seed, step, "apply",
                                         "SetWeight after delta: " +
                                             reweighted.ToString()});
          return;
        }
      }
    }

    // Arm 1: content — a from-scratch Create over the mutated database under
    // the live mask must produce the same views as sets.
    Result<VseInstance> recreated =
        VseInstance::Create(db, queries, &live.base_mask());
    if (!recreated.ok()) {
      outcome->violations.push_back({index, outcome->seed, step, "content",
                                     "from-scratch Create failed: " +
                                         recreated.status().ToString()});
      return;
    }
    CheckContent(live, recreated.value(), index, outcome->seed, step,
                 &outcome->violations);

    // Arm 2: derived state — re-indexing a copy of the live views must yield
    // byte-identical kill map, core, overlay, and solver outcomes.
    std::vector<View> views_copy;
    views_copy.reserve(live.view_count());
    for (size_t v = 0; v < live.view_count(); ++v) {
      views_copy.push_back(live.view(v));
    }
    Result<VseInstance> reindexed = VseInstance::CreateFromMaterializedViews(
        db, queries, std::move(views_copy));
    if (!reindexed.ok()) {
      outcome->violations.push_back(
          {index, outcome->seed, step, "core",
           "CreateFromMaterializedViews over the live views failed: " +
               reindexed.status().ToString()});
      return;
    }
    VseInstance shadow = std::move(reindexed).value();
    Status reset = shadow.ResetDeletions(live.deletion_tuples());
    if (!reset.ok()) {
      outcome->violations.push_back({index, outcome->seed, step, "core",
                                     "live ΔV does not fit the rebuilt "
                                     "views: " +
                                         reset.ToString()});
      return;
    }
    for (size_t v = 0; v < live.view_count(); ++v) {
      for (size_t t = 0; t < live.view(v).size(); ++t) {
        ViewTupleId id{v, t};
        double weight = live.weight(id);
        if (weight != 1.0) {
          Status set = shadow.SetWeight(id, weight);
          if (!set.ok()) {
            outcome->violations.push_back(
                {index, outcome->seed, step, "core",
                 "transferring weights to the rebuild failed: " +
                     set.ToString()});
            return;
          }
        }
      }
    }
    CheckDerivedState(live, shadow, options.solvers, index, outcome->seed,
                      step, &outcome->violations);
    if (!outcome->violations.empty()) return;  // stop at first failing step
  }
}

}  // namespace

std::string MutationFuzzSummary::ToString() const {
  std::ostringstream out;
  out << "delprop_fuzz mutation summary\n";
  out << "  seed-start: " << options.seed_start << "\n";
  out << "  iterations: " << options.iterations << "\n";
  out << "  steps-per-case: " << options.steps_per_case << "\n";
  out << "  patch-threshold: " << options.patch_threshold << "\n";
  out << "  solvers:";
  for (const std::string& solver : options.solvers) out << " " << solver;
  out << "\n";
  out << "  cases: " << cases << "\n";
  out << "  generation failures: " << generation_failures << "\n";
  out << "  deltas applied: " << steps_applied << " (+" << rows_inserted
      << " rows, -" << rows_deleted << " rows)\n";
  out << "  view delta: +" << view_tuples_added << " / -"
      << view_tuples_removed << " tuples\n";
  out << "  core patches: " << core_patches
      << ", rebuild fallbacks: " << core_rebuilds << "\n";
  out << "  failing cases: " << failing_cases << "\n";
  for (const MutationViolation& violation : violations) {
    out << "  seed " << violation.seed << " (index " << violation.case_index
        << ", step " << violation.step << ") " << violation.check << ": "
        << violation.detail << "\n";
  }
  return out.str();
}

MutationFuzzSummary RunMutationFuzz(const MutationFuzzOptions& options,
                                    ThreadPool* pool) {
  std::vector<CaseOutcome> outcomes(options.iterations);
  ParallelFor(pool, options.iterations,
              [&](size_t i) { RunOneCase(options, i, &outcomes[i]); });

  MutationFuzzSummary summary;
  summary.options = options;
  for (CaseOutcome& outcome : outcomes) {
    if (!outcome.generation.ok()) {
      ++summary.generation_failures;
      continue;
    }
    ++summary.cases;
    summary.steps_applied += outcome.steps_applied;
    summary.rows_inserted += outcome.rows_inserted;
    summary.rows_deleted += outcome.rows_deleted;
    summary.view_tuples_added += outcome.view_tuples_added;
    summary.view_tuples_removed += outcome.view_tuples_removed;
    summary.core_patches += outcome.core_patches;
    summary.core_rebuilds += outcome.core_rebuilds;
    if (!outcome.violations.empty()) {
      ++summary.failing_cases;
      summary.violations.insert(summary.violations.end(),
                                outcome.violations.begin(),
                                outcome.violations.end());
    }
  }
  return summary;
}

}  // namespace testing
}  // namespace delprop

#include "replay.h"

#include <algorithm>
#include <cstdio>

#include "hypergraph/data_forest.h"
#include "reductions/vse_to_rbsc.h"
#include "setcover/red_blue_solvers.h"
#include "solvers/solver_registry.h"

namespace perfbench {

using delprop::Objective;
using delprop::SolveRequest;
using delprop::ViewTupleId;
using delprop::VseSolution;

DirectReplayer::DirectReplayer(const delprop::VseInstance& primary,
                               Tracer* tracer)
    : tracer_(tracer) {
  replica_.emplace(primary.Replicate());
  if (tracer_ != nullptr) {
    n_overlay_ = tracer_->Name("plan.overlay");
    n_reduce_ = tracer_->Name("reductions.vse_to_rbsc");
    n_rbsc_greedy_ = tracer_->Name("setcover.rbsc_greedy");
    n_rbsc_lowdeg_ = tracer_->Name("setcover.rbsc_lowdeg");
    n_apply_ = tracer_->Name("dp.apply_delta");
    n_patch_ = tracer_->Name("plan.patch_compile");
    n_replicate_ = tracer_->Name("engine.replicate");
  }
}

void DirectReplayer::Override(const std::string& name,
                              std::unique_ptr<delprop::VseSolver> solver) {
  SolverSlot slot;
  slot.solver = std::move(solver);
  if (tracer_ != nullptr) slot.span = tracer_->Name("solvers.solve." + name);
  solvers_[name] = std::move(slot);
}

DirectReplayer::SolverSlot& DirectReplayer::Slot(const std::string& name) {
  auto it = solvers_.find(name);
  if (it != solvers_.end()) return it->second;
  SolverSlot slot;
  slot.solver = delprop::MakeSolver(name);
  if (tracer_ != nullptr) slot.span = tracer_->Name("solvers.solve." + name);
  return solvers_.emplace(name, std::move(slot)).first->second;
}

Result<VseSolution> DirectReplayer::SolveRbsc(const std::string& name,
                                              uint64_t request_id) {
  const delprop::VseInstance& instance = *replica_;
  if (instance.TotalDeletionTuples() == 0) {
    return delprop::MakeSolution(instance, delprop::DeletionSet(), name);
  }
  if (!instance.all_unique_witness()) {
    return Status::FailedPrecondition(
        "RBSC reduction requires unique-witness (key-preserving) views");
  }
  Result<delprop::VseToRbscMapping> mapping =
      Status::Internal("reduction did not run");
  {
    ScopedSpan span(tracer_, n_reduce_, request_id);
    mapping = delprop::ReduceVseToRbsc(instance);
  }
  if (!mapping.ok()) return mapping.status();
  Result<delprop::RbscSolution> chosen = Status::Internal("rbsc did not run");
  if (name == "rbsc-greedy") {
    ScopedSpan span(tracer_, n_rbsc_greedy_, request_id);
    chosen = delprop::SolveRbscGreedy(mapping->rbsc);
  } else {
    ScopedSpan span(tracer_, n_rbsc_lowdeg_, request_id);
    chosen = delprop::SolveRbscLowDegTwo(mapping->rbsc);
  }
  if (!chosen.ok()) return chosen.status();
  delprop::DeletionSet deletion =
      delprop::MapRbscChoiceToDeletion(*mapping, *chosen);
  VseSolution solution =
      delprop::MakeSolution(instance, std::move(deletion), name);
  if (!solution.Feasible()) {
    return Status::Internal(
        "RBSC image solution did not eliminate all deletions");
  }
  return solution;
}

Result<VseSolution> DirectReplayer::Solve(const SolveRequest& request,
                                          uint64_t request_id) {
  dv_.assign(request.delta_v.begin(), request.delta_v.end());
  std::sort(dv_.begin(), dv_.end());
  dv_.erase(std::unique(dv_.begin(), dv_.end()), dv_.end());
  auto key = std::make_pair(request.solver, dv_);
  auto hit = memo_.find(key);
  if (hit != memo_.end()) return hit->second;

  SolverSlot& slot = Slot(request.solver);
  if (slot.solver == nullptr) {
    return Status::NotFound("unknown solver '" + request.solver + "'");
  }
  scratch_.ReleasePlans();
  {
    ScopedSpan span(tracer_, n_overlay_, request_id);
    if (Status s = replica_->ResetDeletions(dv_); !s.ok()) return s;
    (void)replica_->compiled();
  }
  Result<VseSolution> result = Status::Internal("solver did not run");
  {
    ScopedSpan span(tracer_, slot.span, request_id);
    if (request.solver == "rbsc-greedy" || request.solver == "rbsc-lowdeg") {
      result = SolveRbsc(request.solver, request_id);
    } else {
      result = slot.solver->SolveWith(*replica_, &scratch_);
    }
  }
  if (result.ok() && request.solver == "ilp") {
    solved_ilp_nodes_ += result->gap.nodes;
  }
  memo_.emplace(std::move(key), result);
  return result;
}

Status DirectReplayer::ApplyDelta(delprop::VseInstance& primary,
                                  delprop::Database& database,
                                  const delprop::BaseDelta& delta,
                                  uint64_t request_id,
                                  delprop::ApplyDeltaReport* report) {
  scratch_.ReleasePlans();
  replica_.reset();
  Status applied;
  {
    ScopedSpan span(tracer_, n_apply_, request_id);
    applied = primary.ApplyDelta(database, delta, {}, report);
  }
  {
    ScopedSpan span(tracer_, n_patch_, request_id);
    (void)primary.compiled();
  }
  {
    ScopedSpan span(tracer_, n_replicate_, request_id);
    replica_.emplace(primary.Replicate());
  }
  if (applied.ok()) memo_.clear();
  return applied;
}

const std::vector<std::string>& ProbeSolvers() {
  static const std::vector<std::string> names = {
      "greedy",      "local-search", "rbsc-greedy", "rbsc-lowdeg",
      "ilp",         "balanced-pnpsc", "primal-dual", "lowdeg-tree",
      "dp-tree"};
  return names;
}

namespace {

Objective ObjectiveOf(const std::string& solver) {
  return solver == "balanced-pnpsc" ? Objective::kBalanced
                                    : Objective::kStandard;
}

// A live base row of the deepest level that still carries a view tuple.
Result<delprop::TupleRef> PickLiveLeaf(const Built& built, delprop::Rng& rng) {
  delprop::RelationId relation = built.level_relations.back();
  size_t rows = built.database->relation(relation).row_count();
  for (int attempt = 0; attempt < 100000; ++attempt) {
    delprop::TupleRef ref{relation,
                          static_cast<uint32_t>(rng.NextBelow(rows))};
    if (!built.instance->base_mask().Contains(ref) &&
        !built.instance->KilledBy(ref).empty()) {
      return ref;
    }
  }
  return Status::Internal("no live leaf left for the probe delta");
}

}  // namespace

Result<ProbeResult> RunLayerProbe(Built& built, Tracer& tracer,
                                  uint64_t seed) {
  tracer.SetProbe(true);
  delprop::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  delprop::VseInstance& instance = *built.instance;
  std::vector<ViewTupleId> dv = SampleTuples(rng, ViewSizes(instance), 16);
  std::vector<std::vector<SolveRequest>> batches;
  for (const std::string& name : ProbeSolvers()) {
    batches.push_back({SolveRequest{dv, name, ObjectiveOf(name)}});
  }
  uint32_t n_op = tracer.Name("bench.op");
  uint32_t n_batch = tracer.Name("engine.solve_batch");
  uint32_t n_hit = tracer.Name("engine.memo_hit");
  uint32_t n_ilp = tracer.Name("solvers.solve.ilp");
  uint32_t n_handoff = tracer.Name("engine.handoff");
  uint32_t n_forest = tracer.Name("hypergraph.forest_build");

  // Each request through the engine, again (a memo hit), then through the
  // direct path, interleaved so both paths see the same host conditions.
  ProbeResult out;
  Fingerprint engine_fp;
  Fingerprint direct_fp;
  double engine_ms = 0.0;
  double direct_layer_ms = 0.0;
  auto engine = std::make_unique<delprop::BatchSolveEngine>(
      instance, delprop::BatchSolveEngine::Options{1, true});
  DirectReplayer replayer(instance, &tracer);
  for (size_t i = 0; i < batches.size(); ++i) {
    uint32_t span = tracer.Begin(n_batch, i);
    std::vector<delprop::RequestOutcome> first = engine->SolveBatch(batches[i]);
    tracer.End(span);
    engine_ms += tracer.spans()[span].ms();
    engine_fp.Mix(first[0].result);
    uint32_t again = tracer.Begin(n_batch, i);
    std::vector<delprop::RequestOutcome> second =
        engine->SolveBatch(batches[i]);
    tracer.End(again);
    if (second[0].stats.cache_hit) tracer.Rename(again, n_hit);
    uint32_t op = tracer.Begin(n_op, i);
    Result<VseSolution> result = replayer.Solve(batches[i][0], i);
    tracer.End(op);
    direct_layer_ms += tracer.ChildrenMs(op);
    direct_fp.Mix(result);
    if (result.ok() && batches[i][0].solver == "ilp") {
      out.ilp_nodes = result->gap.nodes;
      for (uint32_t child = op + 1; child < tracer.spans().size(); ++child) {
        if (tracer.spans()[child].name == n_ilp) {
          out.ilp_ms = tracer.spans()[child].ms();
        }
      }
    }
  }
  out.engine_overhead_ms = engine_ms - direct_layer_ms;
  if (engine_fp.value() != direct_fp.value()) {
    return Status::Internal(
        "probe: engine outcomes and direct-call replay differ");
  }

  // One leaf delete through the engine, then another (the first is masked
  // by then) through the direct path.
  delprop::BaseDelta through_engine;
  Result<delprop::TupleRef> leaf = PickLiveLeaf(built, rng);
  if (!leaf.ok()) return leaf.status();
  through_engine.deletes.push_back(*leaf);
  {
    ScopedSpan span(&tracer, n_handoff, 0);
    if (Status s = engine->ApplyDelta(*built.database, through_engine);
        !s.ok()) {
      return s;
    }
  }
  engine.reset();
  delprop::BaseDelta direct;
  leaf = PickLiveLeaf(built, rng);
  if (!leaf.ok()) return leaf.status();
  direct.deletes.push_back(*leaf);
  if (Status s = replayer.ApplyDelta(instance, *built.database, direct, 0,
                                     nullptr);
      !s.ok()) {
    return s;
  }
  size_t forest_nodes = 0;
  {
    ScopedSpan span(&tracer, n_forest, 0);
    delprop::DataForest forest =
        delprop::DataForest::Build(instance.ViewPointers());
    forest_nodes = forest.node_count();
  }
  tracer.SetProbe(false);
  if (forest_nodes == 0) return Status::Internal("probe: empty data forest");
  return out;
}

void AddLayerMetrics(RunReport& report, const Tracer& tracer,
                     const TracedSummary& summary, const ProbeResult& probe,
                     const JobCounters& counters) {
  Metrics& m = report.per_layer;
  auto p50 = [&](const std::string& span) {
    return Median(tracer.Durations(span));
  };
  auto rate = [](size_t part, size_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };

  // Set-up layers, from the traced set-up build.
  m.Add("tool.csv_load_ms", p50("tool.csv_load"), "ms");
  m.Add("dp.create_ms", p50("dp.create"), "ms");
  m.Add("dp.view_tuples", static_cast<double>(counters.view_tuples), "count");
  m.Add("plan.compile_ms", p50("plan.compile"), "ms");

  m.Add("plan.overlay_p50_ms", p50("plan.overlay"), "ms");
  m.Add("plan.patch_compile_p50_ms", p50("plan.patch_compile"), "ms");
  m.Add("plan.full_builds", static_cast<double>(counters.plan_full_builds),
        "count");
  m.Add("plan.overlay_recycle_rate",
        rate(counters.plan_overlay_recycles, counters.plan_core_rebinds),
        "ratio");
  m.Add("plan.core_patch_rate", rate(counters.core_patches, counters.deltas),
        "ratio");

  for (const std::string& name : ProbeSolvers()) {
    m.Add("solvers.solve_p50_ms." + name, p50("solvers.solve." + name), "ms");
  }
  m.Add("solvers.deleted_bases", static_cast<double>(counters.deleted_bases),
        "count");
  m.Add("reductions.vse_to_rbsc_ms", p50("reductions.vse_to_rbsc"), "ms");
  m.Add("setcover.rbsc_greedy_ms", p50("setcover.rbsc_greedy"), "ms");
  m.Add("setcover.rbsc_lowdeg_ms", p50("setcover.rbsc_lowdeg"), "ms");
  m.Add("hypergraph.forest_build_ms", p50("hypergraph.forest_build"), "ms");

  double job_ilp_ms = tracer.JobTotalMs("solvers.solve.ilp");
  bool job_ran_ilp = summary.replay_ilp_nodes > 0 && job_ilp_ms > 0.0;
  m.Add("ilp.nodes", static_cast<double>(counters.ilp_nodes), "count");
  m.Add("ilp.ms_per_node",
        job_ran_ilp
            ? job_ilp_ms / static_cast<double>(summary.replay_ilp_nodes)
        : probe.ilp_nodes > 0
            ? probe.ilp_ms / static_cast<double>(probe.ilp_nodes)
            : 0.0,
        "ms");

  double replay_ms = tracer.JobTotalMs("bench.op");
  double replay_layer_ms = tracer.JobChildrenMs("bench.op");
  double engine_path_ms = tracer.JobTotalMs("engine.solve_batch") +
                          tracer.JobTotalMs("engine.memo_hit") +
                          tracer.JobTotalMs("engine.handoff");
  m.Add("engine.memo_hit_rate", rate(counters.memo_hits, counters.requests),
        "ratio");
  m.Add("engine.memo_hit_p50_ms", p50("engine.memo_hit"), "ms");
  m.Add("engine.overhead_ms",
        engine_path_ms > 0.0 ? engine_path_ms - replay_layer_ms
                             : probe.engine_overhead_ms,
        "ms");
  m.Add("engine.scratch_allocs", static_cast<double>(counters.scratch_allocs),
        "count");
  m.Add("engine.handoff_p50_ms", p50("engine.handoff"), "ms");
  m.Add("engine.replicate_ms", p50("engine.replicate"), "ms");

  m.Add("dp.apply_delta_p50_ms", p50("dp.apply_delta"), "ms");
  m.Add("dp.view_tuples_removed",
        static_cast<double>(counters.view_tuples_removed), "count");
  m.Add("dp.view_tuples_added",
        static_cast<double>(counters.view_tuples_added), "count");

  m.Add("trace.job_s", replay_ms / 1000.0, "s");
  m.Add("trace.layer_share", replay_ms > 0.0 ? replay_layer_ms / replay_ms : 0.0,
        "ratio");
  m.Add("trace.overhead_ratio",
        summary.untraced_op_p50_ms > 0.0
            ? Percentile(summary.engine_op_ms, 0.5) / summary.untraced_op_p50_ms
            : 0.0,
        "ratio");

  // Self time per span name and module over the traced job (printed, and
  // in the span file; not part of the metric set).
  std::map<std::string, double> self = tracer.SelfTimes(summary.root);
  double root_ms = tracer.spans()[summary.root].ms();
  std::map<std::string, double> by_module;
  for (const auto& [name, ms] : self) {
    by_module[name.substr(0, name.find('.'))] += ms;
  }
  std::printf("\nself time of the traced job (%.3f ms, engine path and "
              "direct-call replay interleaved)\n",
              root_ms);
  for (const auto& [module, ms] : by_module) {
    std::printf("  %-12s %12.3f ms  %6.2f%%\n", module.c_str(), ms,
                root_ms > 0.0 ? 100.0 * ms / root_ms : 0.0);
  }
  for (const auto& [name, ms] : self) {
    std::printf("    %-34s %12.3f ms\n", name.c_str(), ms);
  }
}

}  // namespace perfbench

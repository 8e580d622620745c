// offline: the paper's use — one big ΔV through each algorithm. One
// instance, three ΔV sizes (1%, 5%, 25% of ‖V‖) swapped in with
// ResetDeletions, each solved once by greedy, rbsc-greedy, primal-dual,
// lowdeg-tree, dp-tree and an IlpSolver with no deadline and a fixed node
// budget, so every result is independent of host speed.
#include <algorithm>
#include <functional>

#include "ilp/ilp_solver.h"
#include "replay.h"
#include "solvers/scratch_pool.h"
#include "solvers/solver_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using delprop::ViewTupleId;

constexpr uint64_t kIlpNodeBudget = 1000;
const double kDeltaShares[] = {0.01, 0.05, 0.25};
const char* const kSolvers[] = {"greedy",      "rbsc-greedy", "primal-dual",
                                "lowdeg-tree", "dp-tree",     "ilp"};
constexpr size_t kSolverCount = sizeof(kSolvers) / sizeof(kSolvers[0]);

std::unique_ptr<delprop::VseSolver> MakeOfflineSolver(const std::string& name) {
  if (name != "ilp") return delprop::MakeSolver(name);
  delprop::IlpOptions ilp;
  ilp.node_budget = kIlpNodeBudget;  // deadline_ms stays at infinity
  return std::make_unique<delprop::IlpSolver>(delprop::Objective::kStandard,
                                              ilp);
}

// Solves every ΔV with every solver on `instance`, with fresh solvers and
// scratch so that every repetition does identical work. op_ms holds one
// entry per (ΔV, solver), in job order. With a tracer, each solver run is
// one span, and `after_op(i)` runs after op i, outside its timing.
JobResult RunJob(delprop::VseInstance& instance,
                 const std::vector<std::vector<ViewTupleId>>& deltas,
                 Tracer* tracer,
                 const std::function<void(size_t)>& after_op = {}) {
  std::vector<std::unique_ptr<delprop::VseSolver>> solvers;
  for (const char* name : kSolvers) {
    solvers.push_back(MakeOfflineSolver(name));
  }
  delprop::ScratchPool scratch;
  uint32_t n_op = tracer ? tracer->Name("bench.job_op") : 0;
  JobResult job;
  std::vector<Result<delprop::VseSolution>> results;
  results.reserve(deltas.size() * kSolverCount);
  delprop::PlanBuildStats plan_before = instance.plan_stats();
  Clock::time_point start = Clock::now();
  for (size_t d = 0; d < deltas.size(); ++d) {
    scratch.ReleasePlans();
    if (Status s = instance.ResetDeletions(deltas[d]); !s.ok()) {
      results.push_back(s);
      continue;
    }
    (void)instance.compiled();
    for (size_t s = 0; s < kSolverCount; ++s) {
      size_t id = d * kSolverCount + s;
      Clock::time_point op_start = Clock::now();
      {
        ScopedSpan span(tracer, n_op, id);
        results.push_back(solvers[s]->SolveWith(instance, &scratch));
      }
      job.op_ms.push_back(MsSince(op_start));
      if (after_op) after_op(id);
    }
  }
  job.job_ms = MsSince(start);
  for (const Result<delprop::VseSolution>& result : results) {
    job.tally.CountOp(job.tally.Add(result, delprop::Objective::kStandard));
  }
  delprop::PlanBuildStats plan_after = instance.plan_stats();
  job.counters.plan_full_builds =
      plan_after.full_builds - plan_before.full_builds;
  job.counters.plan_core_rebinds =
      plan_after.core_rebinds - plan_before.core_rebinds;
  job.counters.plan_overlay_recycles =
      plan_after.overlay_recycles - plan_before.overlay_recycles;
  job.counters.scratch_allocs = scratch.stats().tracker_allocs;
  job.counters.view_tuples = instance.TotalViewTuples();
  job.counters.deleted_bases = job.tally.deleted_bases;
  job.counters.ilp_nodes = job.tally.ilp_nodes;
  return job;
}

}  // namespace

Status RunOffline(const Options& options, RunReport& report) {
  PathData data = GeneratePathData(options.seed, Levels(options));
  std::vector<size_t> sizes = ViewSizes(data);
  size_t total = sizes.size() * data.level_rows.back();
  delprop::Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<std::vector<ViewTupleId>> deltas;
  for (double share : kDeltaShares) {
    size_t count = std::max<size_t>(1, static_cast<size_t>(share * total));
    deltas.push_back(SampleTuples(rng, sizes, count));
  }

  Built built;
  Result<std::vector<double>> setup_ms =
      TimedSetups(data, deltas[0], kSetupBuilds, /*with_engine=*/false, &built);
  if (!setup_ms.ok()) return setup_ms.status();

  // Untraced pass: whole jobs back to back for the run's duration, with one
  // more set-up sample after each (after the peak RSS was read).
  LoopSummary loop;
  JobResult first;
  ResetPeakRss();
  WallClock::time_point start = WallClock::now();
  for (size_t rep = 0; KeepGoing(start, options.seconds, rep, kMinReps);
       ++rep) {
    RecordRepetition("offline", rep, RunJob(*built.instance, deltas, nullptr),
                     loop, report, &first);
    Built throwaway;
    Result<double> setup =
        TimedSetup(data, deltas[0], /*with_engine=*/false, &throwaway);
    if (!setup.ok()) return setup.status();
    setup_ms->push_back(*setup);
  }
  PrintJobs("offline", loop, first);
  AddEndToEnd(report, *setup_ms, loop, first.tally);

  // Traced pass: the direct-call replay on a fresh instance, whose
  // fingerprint gates every run, interleaved op by op with the same job on a
  // traced set-up build (--trace 1 only). Separate instances keep the
  // replay's replica from holding plans the job would otherwise recycle.
  Tracer tracer;
  Result<Built> traced = BuildInstance(data, deltas[0], &tracer);
  if (!traced.ok()) return traced.status();
  Result<Built> replayed = BuildInstance(data, deltas[0], nullptr);
  if (!replayed.ok()) return replayed.status();
  DirectReplayer replayer(*replayed->instance, &tracer);
  replayer.Override("ilp", MakeOfflineSolver("ilp"));
  uint32_t n_op = tracer.Name("bench.op");
  Fingerprint replay_fp;
  auto replay_op = [&](size_t id) {
    ScopedSpan op(&tracer, n_op, id);
    replay_fp.Mix(replayer.Solve(
        delprop::SolveRequest{deltas[id / kSolverCount],
                              kSolvers[id % kSolverCount],
                              delprop::Objective::kStandard},
        id));
  };
  JobResult engine_job;
  uint32_t root = tracer.Begin(tracer.Name("bench.traced_job"), 0);
  if (options.trace) {
    engine_job = RunJob(*traced->instance, deltas, &tracer, replay_op);
  } else {
    for (size_t id = 0; id < deltas.size() * kSolverCount; ++id) {
      replay_op(id);
    }
  }
  tracer.End(root);
  if (options.trace && !engine_job.SameWork(first)) {
    report.Fail("offline: traced job differs from the untraced job");
  }
  if (replay_fp.value() != first.tally.fingerprint.value()) {
    report.Fail("offline: direct-call replay fingerprint differs");
  }
  if (!options.trace) return Status::Ok();

  Result<ProbeResult> probe = RunLayerProbe(*traced, tracer, options.seed);
  if (!probe.ok()) return probe.status();
  TracedSummary summary;
  summary.root = root;
  summary.engine_op_ms = engine_job.op_ms;
  summary.replay_ilp_nodes = replayer.solved_ilp_nodes();
  summary.untraced_op_p50_ms = Percentile(loop.OpMedians(), 0.5);
  AddLayerMetrics(report, tracer, summary, *probe, first.counters);
  return WriteTrace(options, tracer);
}

}  // namespace perfbench

// serve: a closed loop of single-request SolveBatch calls into one
// single-thread BatchSolveEngine. Each request asks one solver for a small
// ΔV (1-32 uniformly drawn view tuples); a quarter repeat an earlier request
// exactly, so the engine's memo cache gets hits.
#include <functional>

#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using delprop::BatchSolveEngine;
using delprop::Objective;
using delprop::SolveRequest;

constexpr size_t kRequests = 1500;
constexpr size_t kSmokeRequests = 120;

// Solver mix, one cycle of 20 fresh requests: greedy 10 (50%), local-search
// 3 (15%), rbsc-greedy 3 (15%), rbsc-lowdeg 1 (5%), ilp 2 (10%),
// balanced-pnpsc 1 (5%).
const char* const kSolverCycle[] = {
    "greedy", "local-search", "greedy", "rbsc-greedy", "greedy",
    "ilp",    "greedy",       "local-search", "greedy", "rbsc-greedy",
    "greedy", "rbsc-lowdeg",  "greedy", "local-search", "greedy",
    "rbsc-greedy", "greedy",  "ilp",    "greedy", "balanced-pnpsc"};
constexpr size_t kCycle = sizeof(kSolverCycle) / sizeof(kSolverCycle[0]);

// Every fourth request repeats an earlier one; the fresh ones cycle through
// the solver mix and through ΔV sizes 1..32. The mix is the same for every
// seed, so job times and the objective total compare across seeds; the seed
// picks the tuples and which request each repeat copies.
std::vector<std::vector<SolveRequest>> MakeRequests(
    uint64_t seed, const std::vector<size_t>& view_sizes, size_t count) {
  delprop::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::vector<SolveRequest>> batches;
  batches.reserve(count);
  size_t fresh = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 4 == 3) {
      batches.push_back(batches[rng.NextBelow(i)]);
      continue;
    }
    SolveRequest request;
    request.solver = kSolverCycle[fresh % kCycle];
    request.objective = request.solver == "balanced-pnpsc"
                            ? Objective::kBalanced
                            : Objective::kStandard;
    request.delta_v = SampleTuples(rng, view_sizes, 1 + fresh % 32);
    batches.push_back({std::move(request)});
    ++fresh;
  }
  return batches;
}

// One job through a fresh engine (empty memo): the untraced pass's unit of
// repetition. With a tracer, each SolveBatch call is one span, renamed to
// engine.memo_hit when the engine answered it from its memo, and
// `after_op(i)` runs after op i, outside its timing.
JobResult RunJob(delprop::VseInstance& instance,
                 const std::vector<std::vector<SolveRequest>>& batches,
                 Tracer* tracer,
                 const std::function<void(size_t)>& after_op = {}) {
  uint32_t n_batch = tracer ? tracer->Name("engine.solve_batch") : 0;
  uint32_t n_hit = tracer ? tracer->Name("engine.memo_hit") : 0;
  JobResult job;
  job.op_ms.reserve(batches.size());
  std::vector<delprop::RequestOutcome> outcomes;
  outcomes.reserve(batches.size());
  BatchSolveEngine engine(instance, BatchSolveEngine::Options{1, true});
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < batches.size(); ++i) {
    std::vector<delprop::RequestOutcome> out;
    Clock::time_point op_start = Clock::now();
    {
      ScopedSpan span(tracer, n_batch, i);
      out = engine.SolveBatch(batches[i]);
      if (tracer != nullptr && out[0].stats.cache_hit) {
        tracer->Rename(span.index(), n_hit);
      }
    }
    job.op_ms.push_back(MsSince(op_start));
    outcomes.push_back(std::move(out[0]));
    if (after_op) after_op(i);
  }
  job.job_ms = MsSince(start);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    job.tally.CountOp(job.tally.Add(outcomes[i].result, batches[i][0].objective));
  }
  job.counters.AddEngine(engine.stats());
  job.counters.view_tuples = instance.TotalViewTuples();
  job.counters.deleted_bases = job.tally.deleted_bases;
  job.counters.ilp_nodes = job.tally.ilp_nodes;
  return job;
}

}  // namespace

Status RunServe(const Options& options, RunReport& report) {
  PathData data = GeneratePathData(options.seed, Levels(options));
  Built built;
  Result<std::vector<double>> setup_ms =
      TimedSetups(data, {}, kSetupBuilds, /*with_engine=*/true, &built);
  if (!setup_ms.ok()) return setup_ms.status();
  std::vector<std::vector<SolveRequest>> batches =
      MakeRequests(options.seed, ViewSizes(*built.instance),
                   options.smoke ? kSmokeRequests : kRequests);

  // Untraced pass: whole jobs back to back for the run's duration, with one
  // more set-up sample after each (after the peak RSS was read).
  LoopSummary loop;
  JobResult first;
  ResetPeakRss();
  WallClock::time_point start = WallClock::now();
  for (size_t rep = 0; KeepGoing(start, options.seconds, rep, kMinReps);
       ++rep) {
    RecordRepetition("serve", rep, RunJob(*built.instance, batches, nullptr),
                     loop, report, &first);
    Built throwaway;
    Result<double> setup =
        TimedSetup(data, {}, /*with_engine=*/true, &throwaway);
    if (!setup.ok()) return setup.status();
    setup_ms->push_back(*setup);
  }
  PrintJobs("serve", loop, first);
  AddEndToEnd(report, *setup_ms, loop, first.tally);

  // Traced pass: the direct-call replay of the stream on a fresh instance,
  // whose fingerprint gates every run, interleaved request by request with
  // the same job through the engine on a traced set-up build (--trace 1
  // only).
  Tracer tracer;
  Result<Built> traced = BuildInstance(data, {}, &tracer);
  if (!traced.ok()) return traced.status();
  Result<Built> replayed = BuildInstance(data, {}, nullptr);
  if (!replayed.ok()) return replayed.status();
  DirectReplayer replayer(*replayed->instance, &tracer);
  uint32_t n_op = tracer.Name("bench.op");
  Fingerprint replay_fp;
  auto replay_op = [&](size_t i) {
    ScopedSpan op(&tracer, n_op, i);
    replay_fp.Mix(replayer.Solve(batches[i][0], i));
  };
  JobResult engine_job;
  uint32_t root = tracer.Begin(tracer.Name("bench.traced_job"), 0);
  if (options.trace) {
    engine_job = RunJob(*traced->instance, batches, &tracer, replay_op);
  } else {
    for (size_t i = 0; i < batches.size(); ++i) replay_op(i);
  }
  tracer.End(root);
  if (options.trace && !engine_job.SameWork(first)) {
    report.Fail("serve: traced engine job differs from the untraced job");
  }
  if (replay_fp.value() != first.tally.fingerprint.value()) {
    report.Fail("serve: direct-call replay fingerprint differs from the "
                "engine's");
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

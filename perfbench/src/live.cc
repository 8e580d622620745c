// live: a closed loop of steps, each one BatchSolveEngine::ApplyDelta of
// 1-4 base-row changes followed by one SolveBatch of 8 small greedy
// requests. Deletes hit the bottom two levels; inserts add fresh leaves
// under live parents, as many as the delete removed, so ‖V‖ stays at its
// initial size.
#include <algorithm>
#include <functional>

#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using delprop::BatchSolveEngine;
using delprop::SolveRequest;
using delprop::TupleRef;
using delprop::ViewTupleId;

constexpr size_t kSteps = 12;
constexpr size_t kSmokeSteps = 8;
constexpr size_t kRequestsPerStep = 8;

// One step of the stream, independent of any instance: rows to delete (by
// level and row index), leaves to insert, and each request's ΔV as
// positions in [0, 1) of the view-tuple space, resolved against ‖V‖ at
// the time of the request.
struct LeafInsert {
  std::string id;
  std::string parent;
  std::string payload;
};
struct Step {
  std::vector<std::pair<size_t, uint32_t>> deletes;  // (level, row)
  std::vector<LeafInsert> inserts;
  std::vector<std::vector<double>> requests;
};

// Simulates the tree's shape to draw a valid delta stream that keeps ‖V‖
// exactly at its start. A leaf with a live parent carries one view tuple per
// query; no other row of the bottom two levels carries any. Three steps in
// four delete one leaf and insert one fresh leaf; every fourth deletes a
// parent of the leaf level and inserts as many fresh leaves as that removed
// (at most 3). The mix is the same for every seed, so job times and the latency
// percentiles compare across seeds; the seed picks rows, parents and
// requests.
std::vector<Step> MakeSteps(uint64_t seed, const PathData& data,
                            size_t count) {
  delprop::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
  const size_t leaf_level = data.levels - 1;
  const size_t parent_level = data.levels - 2;
  std::vector<uint32_t> live_parents;
  std::vector<size_t> parent_slot(data.level_rows[parent_level]);
  for (uint32_t p = 0; p < parent_slot.size(); ++p) {
    parent_slot[p] = live_parents.size();
    live_parents.push_back(p);
  }
  // Leaves that still carry view tuples.
  std::vector<uint32_t> leaves;
  std::vector<size_t> leaf_slot;
  std::vector<std::vector<uint32_t>> children(parent_slot.size());
  auto add_leaf = [&](uint32_t row, uint32_t parent) {
    if (leaf_slot.size() <= row) leaf_slot.resize(row + 1, SIZE_MAX);
    leaf_slot[row] = leaves.size();
    leaves.push_back(row);
    children[parent].push_back(row);
  };
  // Returns whether the leaf still carried view tuples.
  auto drop_leaf = [&](uint32_t row) {
    size_t slot = leaf_slot[row];
    if (slot == SIZE_MAX) return false;
    leaves[slot] = leaves.back();
    leaf_slot[leaves[slot]] = slot;
    leaves.pop_back();
    leaf_slot[row] = SIZE_MAX;
    return true;
  };
  uint32_t next_row = static_cast<uint32_t>(data.level_rows[leaf_level]);
  for (uint32_t row = 0; row < next_row; ++row) {
    add_leaf(row, row / static_cast<uint32_t>(data.fanout));
  }
  size_t fresh = 0;

  std::vector<Step> steps(count);
  for (size_t s = 0; s < count; ++s) {
    Step& step = steps[s];
    size_t removed = 0;
    if (s % 4 == 3 && live_parents.size() > 1) {
      uint32_t parent = live_parents[rng.NextBelow(live_parents.size())];
      size_t slot = parent_slot[parent];
      live_parents[slot] = live_parents.back();
      parent_slot[live_parents[slot]] = slot;
      live_parents.pop_back();
      for (uint32_t child : children[parent]) removed += drop_leaf(child);
      step.deletes.emplace_back(parent_level, parent);
    } else {
      uint32_t row = leaves[rng.NextBelow(leaves.size())];
      removed += drop_leaf(row);
      step.deletes.emplace_back(leaf_level, row);
    }
    std::vector<std::pair<uint32_t, uint32_t>> born;  // (row, parent)
    for (size_t i = 0; i < removed; ++i) {
      uint32_t parent = live_parents[rng.NextBelow(live_parents.size())];
      step.inserts.push_back(LeafInsert{
          Cat("n", std::to_string(leaf_level), "_f", std::to_string(fresh++)),
          Cat("n", std::to_string(parent_level), "_", std::to_string(parent)),
          Cat("p", std::to_string(rng.NextBelow(1000)))});
      born.emplace_back(next_row++, parent);
    }
    // Rows inserted by this delta become deletable from the next step on.
    for (auto [row, parent] : born) add_leaf(row, parent);
    // ΔV sizes cycle through 1..32 so every job has the same size mix; the
    // tuples themselves are uniform.
    for (size_t r = 0; r < kRequestsPerStep; ++r) {
      std::vector<double> positions(1 + (s * kRequestsPerStep + r) % 32);
      for (double& p : positions) p = rng.NextDouble();
      step.requests.push_back(std::move(positions));
    }
  }
  return steps;
}

delprop::BaseDelta MaterializeDelta(const Step& step, Built& built) {
  delprop::BaseDelta delta;
  for (auto [level, row] : step.deletes) {
    delta.deletes.push_back(TupleRef{built.level_relations[level], row});
  }
  delprop::ValueDictionary& dict = built.database->dict();
  for (const LeafInsert& leaf : step.inserts) {
    delta.inserts.push_back(delprop::BaseInsert{
        built.level_relations.back(),
        {dict.Intern(leaf.id), dict.Intern(leaf.parent),
         dict.Intern(leaf.payload)}});
  }
  return delta;
}

void ResolveRequests(const Step& step, const delprop::VseInstance& instance,
                     std::vector<SolveRequest>* requests) {
  std::vector<size_t> sizes = ViewSizes(instance);
  size_t total = instance.TotalViewTuples();
  requests->resize(step.requests.size());
  for (size_t r = 0; r < step.requests.size(); ++r) {
    SolveRequest& request = (*requests)[r];
    request.solver = "greedy";
    request.delta_v.clear();
    for (double p : step.requests[r]) {
      size_t global = std::min(total - 1, static_cast<size_t>(p * total));
      request.delta_v.push_back(TupleAt(sizes, global));
    }
  }
}

// Folds one step's outcome: the op succeeds when the delta applied and all
// of its requests pass the result gate.
void FoldStep(const Status& applied,
              const std::vector<delprop::RequestOutcome>& outcomes,
              Tally& tally) {
  bool ok = applied.ok();
  if (!applied.ok() && tally.first_failure.empty()) {
    tally.first_failure = Cat("ApplyDelta: ", applied.ToString());
  }
  for (const delprop::RequestOutcome& outcome : outcomes) {
    ok = tally.Add(outcome.result, delprop::Objective::kStandard) && ok;
  }
  tally.CountOp(ok);
}

// One job on `built` (a fresh instance) through a single-thread engine.
// With a tracer, each ApplyDelta and SolveBatch call is one span, and
// `after_step(s)` runs after step s, outside its timing.
JobResult RunJob(Built& built, const std::vector<Step>& steps, Tracer* tracer,
                 const std::function<void(size_t)>& after_step = {}) {
  uint32_t n_handoff = tracer ? tracer->Name("engine.handoff") : 0;
  uint32_t n_batch = tracer ? tracer->Name("engine.solve_batch") : 0;
  JobResult job;
  job.op_ms.reserve(steps.size());
  std::vector<Status> applied(steps.size());
  std::vector<std::vector<delprop::RequestOutcome>> outcomes(steps.size());
  std::vector<SolveRequest> requests;
  BatchSolveEngine engine(*built.instance, BatchSolveEngine::Options{1, true});
  Clock::time_point start = Clock::now();
  for (size_t s = 0; s < steps.size(); ++s) {
    delprop::BaseDelta delta = MaterializeDelta(steps[s], built);
    delprop::ApplyDeltaReport delta_report;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, n_handoff, s);
      applied[s] = engine.ApplyDelta(*built.database, delta, {}, &delta_report);
    }
    double apply_ms = MsSince(t0);
    ResolveRequests(steps[s], *built.instance, &requests);
    Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(tracer, n_batch, s);
      outcomes[s] = engine.SolveBatch(requests);
    }
    job.op_ms.push_back(apply_ms + MsSince(t1));
    ++job.counters.deltas;
    if (delta_report.core_patched) ++job.counters.core_patches;
    job.counters.view_tuples_added += delta_report.view_tuples_added;
    job.counters.view_tuples_removed += delta_report.view_tuples_removed;
    if (after_step) after_step(s);
  }
  job.job_ms = MsSince(start);
  for (size_t s = 0; s < steps.size(); ++s) {
    FoldStep(applied[s], outcomes[s], job.tally);
  }
  job.counters.AddEngine(engine.stats());
  job.counters.view_tuples = built.instance->TotalViewTuples();
  job.counters.deleted_bases = job.tally.deleted_bases;
  job.counters.ilp_nodes = job.tally.ilp_nodes;
  return job;
}

}  // namespace

Status RunLive(const Options& options, RunReport& report) {
  PathData data = GeneratePathData(options.seed, Levels(options));
  Built built;
  Result<std::vector<double>> setup_ms =
      TimedSetups(data, {}, kSetupBuilds, /*with_engine=*/true, &built);
  if (!setup_ms.ok()) return setup_ms.status();
  std::vector<Step> steps =
      MakeSteps(options.seed, data, options.smoke ? kSmokeSteps : kSteps);

  // Untraced pass. Every job starts from a fresh instance, so every
  // repetition replays the identical stream; each rebuild is one more
  // set-up sample.
  LoopSummary loop;
  JobResult first;
  ResetPeakRss();
  WallClock::time_point start = WallClock::now();
  for (size_t rep = 0; KeepGoing(start, options.seconds, rep, kMinReps);
       ++rep) {
    if (rep > 0) {
      Result<double> setup = TimedSetup(data, {}, /*with_engine=*/true, &built);
      if (!setup.ok()) return setup.status();
      setup_ms->push_back(*setup);
    }
    RecordRepetition("live", rep, RunJob(built, steps, nullptr), loop, report,
                     &first);
    if (rep == 0) {
      if (Status s = CheckViewsMatchFreshCreate(built); !s.ok()) {
        report.Fail(Cat("live: ", s.ToString()));
      }
    }
  }
  PrintJobs("live", loop, first);
  AddEndToEnd(report, *setup_ms, loop, first.tally);

  // Traced pass: the direct-call replay on a fresh instance, whose results
  // gate every run, interleaved step by step with the same job through the
  // engine on a traced set-up build (--trace 1 only).
  Tracer tracer;
  Result<Built> traced = Status::Internal("no traced build");
  if (options.trace) {
    traced = BuildInstance(data, {}, &tracer);
    if (!traced.ok()) return traced.status();
  }
  Result<Built> replayed = BuildInstance(data, {}, nullptr);
  if (!replayed.ok()) return replayed.status();
  DirectReplayer replayer(*replayed->instance, &tracer);
  uint32_t n_op = tracer.Name("bench.op");
  std::vector<SolveRequest> requests;
  Tally replay_tally;
  auto replay_step = [&](size_t s) {
    ScopedSpan op(&tracer, n_op, s);
    delprop::BaseDelta delta = MaterializeDelta(steps[s], *replayed);
    Status applied = replayer.ApplyDelta(
        *replayed->instance, *replayed->database, delta, s, nullptr);
    ResolveRequests(steps[s], *replayed->instance, &requests);
    std::vector<delprop::RequestOutcome> outcomes(requests.size());
    for (size_t r = 0; r < requests.size(); ++r) {
      outcomes[r].result = replayer.Solve(requests[r], s);
    }
    FoldStep(applied, outcomes, replay_tally);
  };
  JobResult engine_job;
  uint32_t root = tracer.Begin(tracer.Name("bench.traced_job"), 0);
  if (options.trace) {
    engine_job = RunJob(*traced, steps, &tracer, replay_step);
  } else {
    for (size_t s = 0; s < steps.size(); ++s) replay_step(s);
  }
  tracer.End(root);
  if (options.trace && !engine_job.SameWork(first)) {
    report.Fail("live: traced engine job differs from the untraced job");
  }
  if (!replay_tally.SameWork(first.tally)) {
    report.Fail("live: direct-call replay differs from the engine's results");
  }
  if (Status s = CheckViewsMatchFreshCreate(*replayed); !s.ok()) {
    report.Fail(Cat("live (replay): ", s.ToString()));
  }
  if (!options.trace) return Status::Ok();

  Result<ProbeResult> probe = RunLayerProbe(*replayed, tracer, options.seed);
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

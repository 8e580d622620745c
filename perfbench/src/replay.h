// The traced pass's direct-call path: the same steps BatchSolveEngine takes
// per request and per base delta, but made by the benchmark through each
// layer's public function, one span per call. Its outcomes must fingerprint
// identically to the engine's. Also the layer probe, which gives every
// workload a measurement of the layers its own job does not run.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "dp/base_delta.h"
#include "dp/solver.h"
#include "engine/batch_engine.h"
#include "solvers/scratch_pool.h"
#include "trace.h"

namespace perfbench {

/// One engine worker's request path, replayed layer by layer: memo lookup
/// (the benchmark's own map, keyed like the engine's), ΔV overlay swap on a
/// replica (`plan.overlay`), then the solver (`solvers.solve.<name>`). The
/// two RBSC solvers are decomposed into `reductions.vse_to_rbsc` and
/// `setcover.rbsc_greedy` / `setcover.rbsc_lowdeg`, exactly as
/// RbscReductionSolver::Solve composes them.
class DirectReplayer {
 public:
  DirectReplayer(const delprop::VseInstance& primary, Tracer* tracer);

  /// Serves requests for `name` with `solver` instead of the registry's.
  void Override(const std::string& name,
                std::unique_ptr<delprop::VseSolver> solver);

  Result<delprop::VseSolution> Solve(const delprop::SolveRequest& request,
                                     uint64_t request_id);

  /// Branch-and-bound nodes of the `ilp` results this replayer solved
  /// itself (memo answers excluded): the nodes its `solvers.solve.ilp`
  /// spans explored.
  uint64_t solved_ilp_nodes() const { return solved_ilp_nodes_; }

  /// The engine's base-delta handoff, one span per layer: drop the replica,
  /// VseInstance::ApplyDelta on the primary (`dp.apply_delta`), compiled()
  /// (`plan.patch_compile`), re-replicate (`engine.replicate`), clear memo.
  Status ApplyDelta(delprop::VseInstance& primary,
                    delprop::Database& database,
                    const delprop::BaseDelta& delta, uint64_t request_id,
                    delprop::ApplyDeltaReport* report);

 private:
  struct SolverSlot {
    std::unique_ptr<delprop::VseSolver> solver;
    uint32_t span = 0;
  };
  SolverSlot& Slot(const std::string& name);
  Result<delprop::VseSolution> SolveRbsc(const std::string& name,
                                         uint64_t request_id);

  Tracer* tracer_;
  std::optional<delprop::VseInstance> replica_;
  delprop::ScratchPool scratch_;
  std::map<std::string, SolverSlot> solvers_;
  std::map<std::pair<std::string, std::vector<delprop::ViewTupleId>>,
           Result<delprop::VseSolution>>
      memo_;
  std::vector<delprop::ViewTupleId> dv_;
  uint64_t solved_ilp_nodes_ = 0;
  uint32_t n_overlay_ = 0;
  uint32_t n_reduce_ = 0;
  uint32_t n_rbsc_greedy_ = 0;
  uint32_t n_rbsc_lowdeg_ = 0;
  uint32_t n_apply_ = 0;
  uint32_t n_patch_ = 0;
  uint32_t n_replicate_ = 0;
};

/// The registry solvers a layer probe sends one request to, in order.
const std::vector<std::string>& ProbeSolvers();

/// What the probe measured besides its spans.
struct ProbeResult {
  uint64_t ilp_nodes = 0;
  double ilp_ms = 0.0;
  /// Engine path minus direct-call layer time for the probe's requests.
  double engine_overhead_ms = 0.0;
};

/// Runs, with spans flagged as probe spans, one small-ΔV request per
/// ProbeSolvers() entry through a fresh single-thread engine (then again,
/// as a memo hit) and through a DirectReplayer, checks both fingerprint
/// alike, applies one leaf delete through the engine (`engine.handoff`) and
/// one through the direct path, and builds the data forest
/// (`hypergraph.forest_build`). Mutates `built`; run it last.
Result<ProbeResult> RunLayerProbe(Built& built, Tracer& tracer,
                                  uint64_t seed);

/// What the traced pass measured outside the spans. The traced pass runs
/// the engine path (the untraced job's own code, one span per op) and the
/// direct-call replay interleaved op by op under one root span, so both see
/// the same host conditions; engine-path ops are `engine.*` or
/// `bench.job_op` spans, replay ops `bench.op` spans.
struct TracedSummary {
  uint32_t root = 0;                 // root span of the traced job
  std::vector<double> engine_op_ms;  // per-op latency on the engine path
  uint64_t replay_ilp_nodes = 0;     // DirectReplayer::solved_ilp_nodes()
  double untraced_op_p50_ms = 0.0;   // untraced median of per-op medians
};

/// Folds a traced pass into the per-layer metrics: span timings (job spans
/// first, probe spans where the job has none), the counters, the replay's
/// self time per module and the tracing overhead. Prints the self-time
/// table.
void AddLayerMetrics(RunReport& report, const Tracer& tracer,
                     const TracedSummary& summary, const ProbeResult& probe,
                     const JobCounters& counters);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_

// The benchmark's three workloads. Each fills `report` with its end-to-end
// metrics (untraced pass) and, with --trace 1, its per-layer metrics
// (traced pass); correctness-gate failures are recorded in the report,
// infrastructure errors are returned.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

/// Fresh instance builds at the start of a run for the set-up metric; one
/// more follows every repetition, so the reported median samples the whole
/// run.
constexpr size_t kSetupBuilds = 3;
/// Every run repeats its job at least this often, however long it takes.
constexpr size_t kMinReps = 3;

Status RunServe(const Options& options, RunReport& report);
Status RunLive(const Options& options, RunReport& report);
Status RunOffline(const Options& options, RunReport& report);

/// Writes the span file `<trace_dir>/<workload>-seed<seed>.tsv` if a trace
/// directory was given.
Status WriteTrace(const Options& options, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Shared pieces of the delprop benchmark: the generated path-schema input,
// the timed instance build (the benchmark's set-up), request/result
// bookkeeping, fingerprints and the metric sink every workload reports into.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dp/solution.h"
#include "dp/vse_instance.h"
#include "engine/batch_engine.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace perfbench {

using delprop::Result;
using delprop::Status;

/// The benchmark's timer: CPU time of the process (CLOCK_PROCESS_CPUTIME_ID).
/// Every timed phase is single-threaded and never waits, so this is its wall
/// time minus the time the host took the CPU away (preemption, vCPU steal),
/// which a wall clock would count. Work moved to another thread would still
/// be counted.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};
/// Wall clock, for the run's time budget only.
using WallClock = std::chrono::steady_clock;

class Tracer;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Concatenates strings by appending to one buffer.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: a level-4 instance (120 rows) and short jobs, for the
  /// self-test; the benchmark itself runs level 8.
  bool smoke = false;
  std::string git = "unknown";
  std::string trace_dir;
};

/// The generated database of one run, as CSV text per relation L0..L{n-1}
/// (roots=3, fanout=3, random payloads), plus the query texts over it: one
/// project-free (hence key-preserving) query per suffix interval [a, n-1].
/// Generating it is not part of the timed set-up; loading it is.
struct PathData {
  size_t levels = 0;
  size_t roots = 3;
  size_t fanout = 3;
  std::vector<std::string> relation_names;
  std::vector<std::string> csv;
  std::vector<std::string> queries;
  /// Rows per level of the generated tree.
  std::vector<size_t> level_rows;
};

PathData GeneratePathData(uint64_t seed, size_t levels);

/// One loaded instance: owns the database and queries the instance points
/// into. Move-only.
struct Built {
  std::unique_ptr<delprop::Database> database;
  std::vector<std::unique_ptr<delprop::ConjunctiveQuery>> queries;
  std::unique_ptr<delprop::VseInstance> instance;
  std::vector<delprop::RelationId> level_relations;

  std::vector<const delprop::ConjunctiveQuery*> QueryPointers() const;
};

/// The benchmark's set-up: LoadCsvRelation per level, query parsing,
/// VseInstance::Create, the ΔV marks in `marks`, the first compiled(). With
/// a tracer, each stage is recorded as a span.
Result<Built> BuildInstance(const PathData& data,
                            const std::vector<delprop::ViewTupleId>& marks,
                            Tracer* tracer);

/// Path-schema depth of the run's instance.
inline size_t Levels(const Options& options) { return options.smoke ? 4 : 8; }

/// Maps a global view-tuple index in [0, ‖V‖) to its (view, tuple) id.
delprop::ViewTupleId TupleAt(const std::vector<size_t>& view_sizes,
                             size_t global);

/// View sizes of the generated instance before any delta: one view per
/// query, one tuple per leaf.
std::vector<size_t> ViewSizes(const PathData& data);
std::vector<size_t> ViewSizes(const delprop::VseInstance& instance);

/// `count` distinct uniformly drawn view tuples over views of the given
/// sizes, sorted.
std::vector<delprop::ViewTupleId> SampleTuples(
    delprop::Rng& rng, const std::vector<size_t>& view_sizes, size_t count);

/// FNV-1a over solver outcomes: status, solver name, feasibility, cost and
/// the sorted deleted base rows — the byte-identity contract between the
/// engine path and the traced direct-call replay.
class Fingerprint {
 public:
  void Mix(const Result<delprop::VseSolution>& result);
  uint64_t value() const { return hash_; }

 private:
  void MixBytes(const void* data, size_t size);
  void MixString(const std::string& text) { MixBytes(text.data(), text.size()); }
  void MixU64(uint64_t value) { MixBytes(&value, sizeof(value)); }
  uint64_t hash_ = 14695981039346656037ull;
};

/// Per-job accounting of operation outcomes. An op succeeds when every
/// result it produced is ok, not stopped by a deadline, and — for the
/// standard objective — eliminates all of ΔV.
struct Tally {
  size_t ops = 0;
  size_t failed_ops = 0;
  double objective_total = 0.0;  // Cost(), or BalancedCost() if balanced
  size_t deleted_bases = 0;
  uint64_t ilp_nodes = 0;
  Fingerprint fingerprint;
  std::string first_failure;

  /// Folds one result in; returns whether it passes the correctness gate.
  bool Add(const Result<delprop::VseSolution>& result,
           delprop::Objective objective);
  void CountOp(bool ok) {
    ++ops;
    if (!ok) ++failed_ops;
  }
  /// Exactly-repeatable content of the tally (no timings).
  bool SameWork(const Tally& other) const;
};

/// Median (by nearest rank) and percentile helpers; empty input gives 0.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double GeoMean(const std::vector<double>& samples);

/// Ordered name → (value, unit) sink for the final JSON line and the table.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void PrintTable(const char* title) const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Deterministic work counters of one job; every workload reports all of
/// them (zero where its job does no such work) and they must repeat
/// exactly between repetitions and runs.
struct JobCounters {
  size_t view_tuples = 0;
  size_t plan_full_builds = 0;
  size_t plan_core_rebinds = 0;
  size_t plan_overlay_recycles = 0;
  size_t deltas = 0;
  size_t core_patches = 0;
  size_t requests = 0;
  size_t memo_hits = 0;
  size_t scratch_allocs = 0;
  size_t view_tuples_added = 0;
  size_t view_tuples_removed = 0;
  size_t deleted_bases = 0;
  uint64_t ilp_nodes = 0;

  void AddEngine(const delprop::EngineStats& stats);
  bool operator==(const JobCounters&) const = default;
};

/// One job's measurements: time, per-op latencies, outcomes, counters.
struct JobResult {
  double job_ms = 0.0;
  std::vector<double> op_ms;
  Tally tally;
  JobCounters counters;

  /// Same outcomes and counters: the job did the same work.
  bool SameWork(const JobResult& other) const {
    return tally.SameWork(other.tally) && counters == other.counters;
  }
};

/// Outcome of one workload run: the end-to-end and per-layer metrics plus
/// the correctness verdict and op counts of the untraced pass.
struct RunReport {
  Metrics end_to_end;
  Metrics per_layer;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> gate_failures;

  void Fail(const std::string& what) { gate_failures.push_back(what); }
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// Returns freed heap to the system and restarts the VmHWM count at the
/// current resident size, so a later PeakRssMib() measures what follows
/// (the job) and not the set-up builds before it. Warns if the kernel
/// refuses the reset.
void ResetPeakRss();

/// Shared end-to-end summary of a closed loop of repeated jobs.
struct LoopSummary {
  std::vector<double> job_ms;      // one per repetition
  std::vector<std::vector<double>> per_op;  // op i's latency, per repetition
  size_t ops = 0;
  double peak_rss_mib = 0.0;       // VmHWM right after the first job

  /// Each op's fastest latency over the repetitions, in job order: the
  /// samples every end-to-end timing but setup_s is taken from.
  std::vector<double> OpMins() const;
  /// Each op's median latency over the repetitions, in job order.
  std::vector<double> OpMedians() const;
};

/// Adds setup_s (median of `setup_ms`), job_s, throughput_rps,
/// latency_p50_ms, latency_p99_ms, solve_geomean_ms (from loop.OpMins()),
/// side_effect_total, success_rate and peak_rss_mb.
void AddEndToEnd(RunReport& report, const std::vector<double>& setup_ms,
                 const LoopSummary& loop, const Tally& tally);

/// Folds repetition `rep` of the untraced pass into `loop` and `report`;
/// keeps the first repetition in `*first` and gates every later one on
/// doing the same work. Reads the peak RSS after the first repetition,
/// before any later rebuild can raise it.
void RecordRepetition(const char* workload, size_t rep, JobResult job,
                      LoopSummary& loop, RunReport& report, JobResult* first);

/// Prints each repetition's job time, so host-speed drift inside a run
/// shows in the report, the first repetition's fingerprint, and the job
/// time the end-to-end metrics use (each op at its fastest).
void PrintJobs(const char* workload, const LoopSummary& loop,
               const JobResult& first);

/// Repetition policy: jobs run back to back until `seconds` have passed,
/// with at least `min_reps` of them.
bool KeepGoing(WallClock::time_point start, double seconds, size_t reps,
               size_t min_reps);

/// One timed set-up: frees `*out`, then BuildInstance into it plus, with
/// `with_engine`, constructing (and dropping) a single-thread engine over
/// it. Returns ms. Only one instance is alive at a time.
Result<double> TimedSetup(const PathData& data,
                          const std::vector<delprop::ViewTupleId>& marks,
                          bool with_engine, Built* out);

/// `count` timed set-ups back to back; the last build is kept in `*kept`.
Result<std::vector<double>> TimedSetups(
    const PathData& data, const std::vector<delprop::ViewTupleId>& marks,
    size_t count, bool with_engine, Built* kept);

/// Views of `live` equal, as sets of (head values, witness set), the views
/// of a fresh VseInstance::Create over the same database and base mask.
Status CheckViewsMatchFreshCreate(const Built& built);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include <malloc.h>

#include "query/parser.h"
#include "tool/csv.h"
#include "trace.h"

namespace perfbench {

using delprop::ViewTupleId;

Clock::time_point Clock::now() noexcept {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return time_point(std::chrono::seconds(now.tv_sec) +
                    std::chrono::nanoseconds(now.tv_nsec));
}

PathData GeneratePathData(uint64_t seed, size_t levels) {
  PathData data;
  data.levels = levels;
  delprop::Rng rng(seed);
  size_t rows = 0;
  for (size_t i = 0; i < levels; ++i) {
    rows = (i == 0) ? data.roots : rows * data.fanout;
    data.level_rows.push_back(rows);
    std::string csv = (i == 0) ? "id*,payload\n" : "id*,parent,payload\n";
    for (size_t j = 0; j < rows; ++j) {
      csv += Cat("n", std::to_string(i), "_", std::to_string(j), ",");
      if (i > 0) {
        csv += Cat("n", std::to_string(i - 1), "_",
                   std::to_string(j / data.fanout), ",");
      }
      csv += Cat("p", std::to_string(rng.NextBelow(1000)), "\n");
    }
    data.relation_names.push_back(Cat("L", std::to_string(i)));
    data.csv.push_back(std::move(csv));
  }
  // Q_a joins levels a..n-1 along the parent key; every variable is in the
  // head, so the query is project-free and each answer has one witness.
  for (size_t a = 0; a + 1 < levels; ++a) {
    std::string head;
    std::string body;
    for (size_t i = a; i < levels; ++i) {
      std::string x = Cat("x", std::to_string(i));
      std::string w = Cat("w", std::to_string(i));
      std::string parent = (i == a) ? "par" : Cat("x", std::to_string(i - 1));
      if (!head.empty()) head += ", ";
      if (!body.empty()) body += ", ";
      head += x;
      if (i > 0 && i == a) head += Cat(", ", parent);
      head += Cat(", ", w);
      body += Cat("L", std::to_string(i), "(", x);
      if (i > 0) body += Cat(", ", parent);
      body += Cat(", ", w, ")");
    }
    data.queries.push_back(
        Cat("Q", std::to_string(a), "(", head, ") :- ", body));
  }
  return data;
}

std::vector<const delprop::ConjunctiveQuery*> Built::QueryPointers() const {
  std::vector<const delprop::ConjunctiveQuery*> pointers;
  for (const auto& query : queries) pointers.push_back(query.get());
  return pointers;
}

Result<Built> BuildInstance(const PathData& data,
                            const std::vector<ViewTupleId>& marks,
                            Tracer* tracer) {
  uint32_t n_csv = tracer ? tracer->Name("tool.csv_load") : 0;
  uint32_t n_create = tracer ? tracer->Name("dp.create") : 0;
  uint32_t n_marks = tracer ? tracer->Name("dp.marks") : 0;
  uint32_t n_compile = tracer ? tracer->Name("plan.compile") : 0;

  Built built;
  built.database = std::make_unique<delprop::Database>();
  {
    ScopedSpan span(tracer, n_csv, 0);
    for (size_t i = 0; i < data.csv.size(); ++i) {
      Result<delprop::RelationId> relation = delprop::LoadCsvRelation(
          *built.database, data.relation_names[i], data.csv[i]);
      if (!relation.ok()) return relation.status();
      built.level_relations.push_back(*relation);
    }
  }
  {
    ScopedSpan span(tracer, n_create, 0);
    for (const std::string& text : data.queries) {
      Result<delprop::ConjunctiveQuery> query = delprop::ParseQuery(
          text, built.database->schema(), built.database->dict());
      if (!query.ok()) return query.status();
      built.queries.push_back(
          std::make_unique<delprop::ConjunctiveQuery>(std::move(*query)));
    }
    Result<delprop::VseInstance> instance =
        delprop::VseInstance::Create(*built.database, built.QueryPointers());
    if (!instance.ok()) return instance.status();
    built.instance =
        std::make_unique<delprop::VseInstance>(std::move(*instance));
  }
  {
    ScopedSpan span(tracer, n_marks, 0);
    for (const ViewTupleId& id : marks) {
      if (Status s = built.instance->MarkForDeletion(id); !s.ok()) return s;
    }
  }
  {
    ScopedSpan span(tracer, n_compile, 0);
    (void)built.instance->compiled();
  }
  return built;
}

std::vector<size_t> ViewSizes(const PathData& data) {
  return std::vector<size_t>(data.levels - 1, data.level_rows.back());
}

std::vector<size_t> ViewSizes(const delprop::VseInstance& instance) {
  std::vector<size_t> sizes;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    sizes.push_back(instance.view(v).size());
  }
  return sizes;
}

ViewTupleId TupleAt(const std::vector<size_t>& view_sizes, size_t global) {
  for (size_t v = 0; v < view_sizes.size(); ++v) {
    if (global < view_sizes[v]) return ViewTupleId{v, global};
    global -= view_sizes[v];
  }
  return ViewTupleId{0, 0};
}

std::vector<ViewTupleId> SampleTuples(delprop::Rng& rng,
                                      const std::vector<size_t>& view_sizes,
                                      size_t count) {
  size_t total = 0;
  for (size_t size : view_sizes) total += size;
  count = std::min(count, total);
  std::vector<size_t> globals;
  if (count * 4 < total) {
    std::set<size_t> seen;
    while (seen.size() < count) seen.insert(rng.NextBelow(total));
    globals.assign(seen.begin(), seen.end());
  } else {
    globals = rng.SampleIndices(total, count);
    std::sort(globals.begin(), globals.end());
  }
  std::vector<ViewTupleId> ids;
  ids.reserve(globals.size());
  for (size_t g : globals) ids.push_back(TupleAt(view_sizes, g));
  return ids;
}

void Fingerprint::MixBytes(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::Mix(const Result<delprop::VseSolution>& result) {
  if (!result.ok()) {
    MixString(std::string(delprop::StatusCodeName(result.status().code())));
    MixString(result.status().message());
    return;
  }
  MixString(result->solver_name);
  MixU64(result->Feasible() ? 1 : 0);
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.9f/%.9f", result->Cost(),
                result->BalancedCost());
  MixString(cost);
  for (const delprop::TupleRef& ref : result->deletion.Sorted()) {
    MixU64(ref.relation);
    MixU64(ref.row);
  }
}

bool Tally::Add(const Result<delprop::VseSolution>& result,
                delprop::Objective objective) {
  fingerprint.Mix(result);
  std::string problem;
  if (!result.ok()) {
    problem = result.status().ToString();
  } else if (result->gap.deadline_hit) {
    problem = result->solver_name + " stopped on its wall-clock deadline";
  } else if (objective == delprop::Objective::kStandard &&
             !result->Feasible()) {
    problem = result->solver_name + " returned an infeasible deletion";
  }
  if (result.ok()) {
    objective_total += objective == delprop::Objective::kBalanced
                           ? result->BalancedCost()
                           : result->Cost();
    deleted_bases += result->deletion.size();
    ilp_nodes += result->gap.nodes;
  }
  if (!problem.empty() && first_failure.empty()) first_failure = problem;
  return problem.empty();
}

bool Tally::SameWork(const Tally& other) const {
  return ops == other.ops && failed_ops == other.failed_ops &&
         objective_total == other.objective_total &&
         deleted_bases == other.deleted_bases &&
         ilp_nodes == other.ilp_nodes &&
         fingerprint.value() == other.fingerprint.value();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double s : samples) log_sum += std::log(std::max(s, 1e-9));
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

void Metrics::PrintTable(const char* title) const {
  std::printf("\n%s\n", title);
  for (const Entry& entry : entries_) {
    std::printf("  %-40s %16.6f  %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    double v = entries_[i].value;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}";
  return out;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5\n";
  clear.flush();
  if (!clear.good()) {
    std::printf("WARNING: could not reset VmHWM; peak_rss_mb includes the "
                "set-up builds\n");
  }
}

void AddEndToEnd(RunReport& report, const std::vector<double>& setup_ms,
                 const LoopSummary& loop, const Tally& tally) {
  std::vector<double> op_ms = loop.OpMins();
  double job_ms = 0.0;
  for (double ms : op_ms) job_ms += ms;
  Metrics& m = report.end_to_end;
  m.Add("setup_s", Median(setup_ms) / 1000.0, "s");
  m.Add("job_s", job_ms / 1000.0, "s");
  m.Add("throughput_rps",
        job_ms > 0.0 ? static_cast<double>(op_ms.size()) / (job_ms / 1000.0)
                     : 0.0,
        "1/s");
  m.Add("latency_p50_ms", Percentile(op_ms, 0.50), "ms");
  m.Add("latency_p99_ms", Percentile(op_ms, 0.99), "ms");
  m.Add("solve_geomean_ms", GeoMean(op_ms), "ms");
  m.Add("side_effect_total", tally.objective_total, "weight");
  m.Add("success_rate",
        tally.ops == 0 ? 0.0
                       : static_cast<double>(tally.ops - tally.failed_ops) /
                             static_cast<double>(tally.ops),
        "ratio");
  m.Add("peak_rss_mb", loop.peak_rss_mib, "MiB");
}

std::vector<double> LoopSummary::OpMins() const {
  std::vector<double> mins;
  for (const std::vector<double>& samples : per_op) {
    mins.push_back(*std::min_element(samples.begin(), samples.end()));
  }
  return mins;
}

std::vector<double> LoopSummary::OpMedians() const {
  std::vector<double> medians;
  for (const std::vector<double>& samples : per_op) {
    medians.push_back(Median(samples));
  }
  return medians;
}

void JobCounters::AddEngine(const delprop::EngineStats& stats) {
  requests += stats.requests;
  memo_hits += stats.cache_hits;
  scratch_allocs += stats.scratch_allocs;
  plan_full_builds += stats.plan_full_builds;
  plan_core_rebinds += stats.plan_core_rebinds;
  plan_overlay_recycles += stats.plan_overlay_recycles;
}

void RecordRepetition(const char* workload, size_t rep, JobResult job,
                      LoopSummary& loop, RunReport& report, JobResult* first) {
  loop.job_ms.push_back(job.job_ms);
  loop.ops += job.op_ms.size();
  loop.per_op.resize(std::max(loop.per_op.size(), job.op_ms.size()));
  for (size_t i = 0; i < job.op_ms.size(); ++i) {
    loop.per_op[i].push_back(job.op_ms[i]);
  }
  report.attempted += job.tally.ops;
  report.failed += job.tally.failed_ops;
  if (rep == 0) {
    loop.peak_rss_mib = PeakRssMib();
    if (!job.tally.first_failure.empty()) {
      report.Fail(Cat(workload, ": ", job.tally.first_failure));
    }
    *first = std::move(job);
  } else if (!job.SameWork(*first)) {
    report.Fail(Cat(workload, ": repetition ", std::to_string(rep),
                    " did different work than the first"));
  }
}

void PrintJobs(const char* workload, const LoopSummary& loop,
               const JobResult& first) {
  std::printf("%s: %zu ops in %zu jobs, fingerprint %016llx; job ms:",
              workload, loop.ops, loop.job_ms.size(),
              static_cast<unsigned long long>(first.tally.fingerprint.value()));
  for (double ms : loop.job_ms) std::printf(" %.1f", ms);
  double fastest_ms = 0.0;
  for (double ms : loop.OpMins()) fastest_ms += ms;
  std::printf("\n%s: job ms with each op at its fastest repetition: %.1f\n",
              workload, fastest_ms);
}

bool KeepGoing(WallClock::time_point start, double seconds, size_t reps,
               size_t min_reps) {
  return reps < min_reps ||
         std::chrono::duration<double>(WallClock::now() - start).count() <
             seconds;
}

Result<double> TimedSetup(const PathData& data,
                          const std::vector<ViewTupleId>& marks,
                          bool with_engine, Built* out) {
  *out = Built();
  Clock::time_point start = Clock::now();
  Result<Built> built = BuildInstance(data, marks, nullptr);
  if (!built.ok()) return built.status();
  if (with_engine) {
    delprop::BatchSolveEngine engine(*built->instance, {1, true});
  }
  double total = MsSince(start);
  *out = std::move(*built);
  return total;
}

Result<std::vector<double>> TimedSetups(const PathData& data,
                                        const std::vector<ViewTupleId>& marks,
                                        size_t count, bool with_engine,
                                        Built* kept) {
  std::vector<double> totals;
  for (size_t i = 0; i < count; ++i) {
    Result<double> ms = TimedSetup(data, marks, with_engine, kept);
    if (!ms.ok()) return ms.status();
    totals.push_back(*ms);
  }
  return totals;
}

namespace {

// One view as a sorted list of (head values, sorted witness list).
using CanonicalView =
    std::vector<std::pair<delprop::Tuple, std::vector<delprop::Witness>>>;

CanonicalView Canonical(const delprop::View& view) {
  CanonicalView out;
  out.reserve(view.size());
  for (size_t t = 0; t < view.size(); ++t) {
    std::vector<delprop::Witness> witnesses = view.tuple(t).witnesses;
    std::sort(witnesses.begin(), witnesses.end());
    out.emplace_back(view.tuple(t).values, std::move(witnesses));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Status CheckViewsMatchFreshCreate(const Built& built) {
  delprop::DeletionSet mask = built.instance->base_mask();
  Result<delprop::VseInstance> fresh = delprop::VseInstance::Create(
      *built.database, built.QueryPointers(), &mask);
  if (!fresh.ok()) return fresh.status();
  if (fresh->view_count() != built.instance->view_count()) {
    return Status::Internal("fresh Create has a different view count");
  }
  for (size_t v = 0; v < fresh->view_count(); ++v) {
    if (Canonical(fresh->view(v)) != Canonical(built.instance->view(v))) {
      return Status::Internal(Cat("view ", std::to_string(v),
                                  " differs from a fresh Create over the "
                                  "mutated database"));
    }
  }
  return Status::Ok();
}

}  // namespace perfbench

// Kill-kernel microbench: the DamageTracker operation mix timed on the
// bit-parallel kill kernels (src/solvers/kill_kernels.h, docs/perf.md
// "Bit-parallel kill kernels"). Each family runs four deterministic op
// scripts (delete sweep with per-op marginals, delete/undelete churn, probe
// mix, reset cycling) from a pristine tracker. Each script accumulates a
// floating-point fingerprint, so a change to the kernels that alters any
// returned value shows up as a changed `cost` in the JSON rows.
//
// With --json <path> the run also writes a machine-readable report (one row
// per op, cost = fingerprint, wall_ms = median over --repeat runs after
// --warmup discarded runs).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "plan/compiled_instance.h"
#include "solvers/damage_tracker.h"
#include "workload/path_schema.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"
#include "workload/trap_chain.h"

namespace delprop {
namespace {

/// One op script: runs against a pristine tracker, returns a fingerprint.
struct OpScript {
  const char* name;
  std::function<double(DamageTracker&, const CompiledInstance&)> run;
};

std::vector<OpScript> Scripts() {
  std::vector<OpScript> ops;
  // Greedy's inner loop shape: query the marginal, then commit the delete,
  // over every candidate in plan order.
  ops.push_back(
      {"sweep", [](DamageTracker& t, const CompiledInstance& plan) {
         double fp = 0.0;
         for (uint32_t base : plan.candidate_bases()) {
           fp += t.MarginalDamageBase(base);
           fp += t.DeleteBase(base);
         }
         return fp + t.killed_preserved_weight();
       }});
  // Local search's exchange shape: build the full deletion, then walk it
  // back with masked-ANDN undeletes.
  ops.push_back(
      {"churn", [](DamageTracker& t, const CompiledInstance& plan) {
         const std::vector<uint32_t>& candidates = plan.candidate_bases();
         double fp = 0.0;
         for (uint32_t base : candidates) fp += t.DeleteBase(base);
         for (size_t i = candidates.size(); i-- > 0;) {
           t.UndeleteBase(candidates[i]);
         }
         return fp + t.killed_preserved_weight();
       }});
  // Read-mostly probes at a half-deleted state: the batch marginal pass and
  // the drop scan, both pure queries against the packed state.
  ops.push_back(
      {"probe", [](DamageTracker& t, const CompiledInstance& plan) {
         const std::vector<uint32_t>& candidates = plan.candidate_bases();
         double fp = 0.0;
         for (size_t i = 0; i < candidates.size(); i += 2) {
           fp += t.DeleteBase(candidates[i]);
         }
         std::vector<double> marginals;
         t.MarginalDamageAll(candidates, &marginals);
         for (double m : marginals) fp += m;
         for (size_t i = 0; i < candidates.size(); i += 2) {
           fp += t.CanDropBase(candidates[i]) ? 1.0 : 0.0;
         }
         return fp;
       }});
  // Restart shape: small dirty region, then Reset — the sparse-rollback
  // path when the touch log stays under its caps.
  ops.push_back(
      {"reset", [](DamageTracker& t, const CompiledInstance& plan) {
         const std::vector<uint32_t>& candidates = plan.candidate_bases();
         size_t touch = candidates.size() < 8 ? candidates.size() : 8;
         double fp = 0.0;
         for (int cycle = 0; cycle < 32; ++cycle) {
           for (size_t i = 0; i < touch; ++i) {
             fp += t.DeleteBase(candidates[i]);
           }
           t.Reset();
         }
         return fp;
       }});
  return ops;
}

/// Times every script on one tracker, Reset between runs (untimed), median
/// over `repeat` after `warmup` discarded runs; prints the table and records
/// one JSON row per op.
void RunFamily(const char* family, const VseInstance& instance, size_t repeat,
               size_t warmup, bench::BenchReport* report) {
  DamageTracker tracker(instance);
  const CompiledInstance& plan = tracker.plan();
  std::printf("\n-- %s: ‖V‖=%u candidates=%zu max-fan-in=%u --\n", family,
              plan.tuple_count(), plan.candidate_bases().size(),
              plan.max_witnesses_per_tuple());

  bench::FamilyRecord record;
  record.family = family;
  record.view_tuples = plan.tuple_count();
  record.deletion_tuples = instance.TotalDeletionTuples();
  record.max_arity = instance.max_arity();

  TextTable table({"op", "ms", "fingerprint"});
  for (const OpScript& op : Scripts()) {
    double fingerprint = 0.0;
    std::vector<double> samples;
    for (size_t rep = 0; rep < warmup + repeat; ++rep) {
      tracker.Reset();
      auto [fp, ms] = bench::Timed([&] { return op.run(tracker, plan); });
      if (rep >= warmup) {
        samples.push_back(ms);
        fingerprint = fp;  // all runs agree: same script, same state
      }
    }
    tracker.Reset();
    double median_ms = bench::Median(samples);
    table.AddRow({op.name, FmtDouble(median_ms, 3), FmtDouble(fingerprint, 3)});
    bench::SolverRecord row;
    row.solver = op.name;
    row.status = "ok";
    row.cost = fingerprint;
    row.wall_ms = median_ms;
    record.solvers.push_back(std::move(row));
    record.total_ms += median_ms;
  }
  table.Print();
  report->families.push_back(std::move(record));
}

int Run(int argc, char** argv) {
  size_t repeat = 5;
  size_t warmup = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      warmup = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--repeat N] [--warmup K] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (repeat == 0) repeat = 1;

  bench::Header("Kill-kernel microbench: DamageTracker op scripts");
  std::printf("repeat: %zu  warmup: %zu\n", repeat, warmup);
  bench::BenchReport report;
  report.bench = "kill_kernels";
  report.threads = 1;
  report.git = bench::GitDescribe();
  report.repeat = repeat;
  report.warmup = warmup;

  {
    // The scaling family from bench_solver_comparison — the workload where
    // tracker inner loops dominate solver wall-clock.
    Rng rng(5);
    PathSchemaParams params;
    params.levels = 6;
    params.roots = 3;
    params.fanout = 3;
    params.deletion_fraction = 0.25;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    if (!generated.ok()) return 2;
    RunFamily("large hypertree paths (scaling)", *generated->instance, repeat,
              warmup, &report);
  }
  {
    Rng rng(2);
    StarSchemaParams params;
    params.dimensions = 3;
    params.fact_rows = 20;
    params.deletion_fraction = 0.25;
    Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
    if (!generated.ok()) return 2;
    RunFamily("star joins", *generated->instance, repeat, warmup, &report);
  }
  {
    Result<GeneratedVse> generated = MakeTrapChain(26);
    if (!generated.ok()) return 2;
    RunFamily("trap chain", *generated->instance, repeat, warmup, &report);
  }
  {
    Rng rng(3);
    RandomWorkloadParams params;
    params.relations = 3;
    params.rows_per_relation = 10;
    params.queries = 3;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    if (!generated.ok()) return 2;
    RunFamily("random project-free multi-query", *generated->instance,
              repeat, warmup, &report);
  }

  if (!json_path.empty() && !bench::WriteBenchJson(report, json_path)) {
    return 2;
  }
  std::printf("\nkill-kernels: %zu family(ies)\n", report.families.size());
  return 0;
}

}  // namespace
}  // namespace delprop

int main(int argc, char** argv) { return delprop::Run(argc, argv); }

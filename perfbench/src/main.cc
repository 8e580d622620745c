// delprop_perfbench: the repository benchmark. Runs one workload (serve,
// live or offline) single-threaded on a generated path-schema instance,
// prints a host block, every metric by name and unit, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 if any correctness gate failed.
//
//   delprop_perfbench --workload serve|live|offline --seed N --seconds S
//                     --trace 0|1 [--smoke] [--git REV]
//                     [--trace-dir DIR]
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

bool Optimised() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

// Pins the process to the CPU it runs on, so the scheduler does not move
// the single benchmark thread (and its cache) between CPUs. Returns the CPU,
// or -1 if pinning failed.
int PinToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

void PrintHost(const Options& options, int pinned_cpu) {
  std::printf("host: cores=%u loadavg=%s pinned_cpu=%d\n",
              std::thread::hardware_concurrency(), LoadAverage().c_str(),
              pinned_cpu);
  std::printf("build: type=%s optimised=%s compiler=%s git=%s\n",
              PERFBENCH_BUILD_TYPE, Optimised() ? "yes" : "NO",
              PERFBENCH_CXX_COMPILER, options.git.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d level=%zu%s "
              "threads=1\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, Levels(options),
              options.smoke ? " smoke" : "");
  if (!Optimised()) {
    std::fprintf(stderr,
                 "WARNING: delprop_perfbench is NOT an optimised build "
                 "(type %s); its timings do not represent the library\n",
                 PERFBENCH_BUILD_TYPE);
    std::printf("WARNING: NOT AN OPTIMISED BUILD — timings are not "
                "representative\n");
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve|live|offline --seed N "
               "--seconds S --trace 0|1 [--smoke] [--git REV] "
               "[--trace-dir DIR]\n",
               argv0);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (flag == "--git") {
      options.git = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage(argv[0]);
  Status (*run)(const Options&, RunReport&) = nullptr;
  if (options.workload == "serve") run = RunServe;
  if (options.workload == "live") run = RunLive;
  if (options.workload == "offline") run = RunOffline;
  if (run == nullptr) return Usage(argv[0]);

  PrintHost(options, PinToCurrentCpu());
  RunReport report;
  Status status = run(options, report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  report.end_to_end.PrintTable("end-to-end metrics (untraced pass)");
  if (options.trace) report.per_layer.PrintTable("per-layer metrics (traced pass)");
  for (const std::string& failure : report.gate_failures) {
    std::fprintf(stderr, "CORRECTNESS GATE FAILED: %s\n", failure.c_str());
  }
  bool correct = report.gate_failures.empty() && report.failed == 0;
  const Metrics& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

Status WriteTrace(const Options& options, const Tracer& tracer) {
  if (options.trace_dir.empty()) return Status::Ok();
  return tracer.Write(options.trace_dir + "/" + options.workload + "-seed" +
                      std::to_string(options.seed) + ".tsv");
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

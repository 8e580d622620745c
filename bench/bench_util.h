#ifndef DELPROP_BENCH_BENCH_UTIL_H_
#define DELPROP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

namespace delprop::bench {

/// Runs `fn` once and returns (result, elapsed milliseconds).
template <typename Fn>
auto Timed(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  auto result = std::forward<Fn>(fn)();
  auto end = std::chrono::steady_clock::now();
  double ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  return std::make_pair(std::move(result), ms);
}

inline void Header(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

inline std::string RunCommand(const char* command) {
  FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
  ::pclose(pipe);
  return out;
}

/// True when a tracked file OTHER than a BENCH_*.json snapshot has
/// uncommitted changes. The snapshots themselves are exempt so regenerating
/// snapshot A does not poison the git stamp of snapshot B regenerated right
/// after it — the stamp answers "which code produced these numbers", and
/// the snapshots are outputs, not code.
inline bool GitTreeDirty() {
  std::string status =
      RunCommand("git status --porcelain --untracked-files=no 2>/dev/null");
  size_t start = 0;
  while (start < status.size()) {
    size_t end = status.find('\n', start);
    if (end == std::string::npos) end = status.size();
    std::string line = status.substr(start, end - start);
    start = end + 1;
    if (line.size() <= 3) continue;
    std::string path = line.substr(3);
    size_t slash = path.rfind('/');
    std::string base = slash == std::string::npos ? path
                                                  : path.substr(slash + 1);
    bool is_snapshot = base.rfind("BENCH_", 0) == 0 && base.size() > 5 &&
                       base.compare(base.size() - 5, 5, ".json") == 0;
    if (!is_snapshot) return true;
  }
  return false;
}

/// The commit hash of HEAD ("git describe --always"), suffixed with "-dirty"
/// when GitTreeDirty() — i.e. when a non-snapshot tracked file is modified.
/// Stamped into BENCH_*.json so a perf number can be traced back to the
/// commit it was measured on; "unknown" when git is unavailable.
inline std::string GitDescribe() {
  std::string out = RunCommand("git describe --always 2>/dev/null");
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (out.empty()) return "unknown";
  return GitTreeDirty() ? out + "-dirty" : out;
}

/// True when `git` (a GitDescribe() result) carries the "-dirty" suffix.
inline bool GitIsDirty(const std::string& git) {
  static constexpr char kSuffix[] = "-dirty";
  constexpr size_t kLen = sizeof(kSuffix) - 1;
  return git.size() >= kLen &&
         git.compare(git.size() - kLen, kLen, kSuffix) == 0;
}

/// True when git tracks `path` (i.e. the bench is about to overwrite a
/// committed snapshot). False when git is unavailable or the file is
/// untracked — scratch output paths are always allowed.
inline bool GitTracksFile(const std::string& path) {
  std::string command =
      "git ls-files --error-unmatch -- \"" + path + "\" >/dev/null 2>&1";
  return std::system(command.c_str()) == 0;
}

/// Guard for committed snapshots: a BENCH_*.json regenerated from a dirty
/// tree records a "<hash>-dirty" stamp no commit can reproduce. When `git`
/// is dirty AND `path` is git-tracked, prints a loud banner and returns
/// false (the bench should fail) unless DELPROP_BENCH_ALLOW_DIRTY=1 is set,
/// which downgrades the refusal to a warning.
inline bool SnapshotGuard(const std::string& git, const std::string& path) {
  if (!GitIsDirty(git) || !GitTracksFile(path)) return true;
  const char* allow = std::getenv("DELPROP_BENCH_ALLOW_DIRTY");
  bool allowed = allow != nullptr && std::string(allow) == "1";
  std::fprintf(stderr,
               "********************************************************\n"
               "* %s: refusing to overwrite the committed snapshot\n"
               "* %s\n"
               "* from a dirty tree (git: %s) — the stamped hash would\n"
               "* not be reproducible from any commit. Commit (or stash)\n"
               "* first, or set DELPROP_BENCH_ALLOW_DIRTY=1 to override.\n"
               "********************************************************\n",
               allowed ? "WARNING" : "ERROR", path.c_str(), git.c_str());
  return allowed;
}

/// True when `opt` carries a PROVEN optimum. The exact solvers' anytime
/// semantics return ok() with the best unproven incumbent after budget or
/// deadline exhaustion (gap.optimal false) — such a cost is an upper bound,
/// not OPT, and must not anchor an "OPT" column or a ratio denominator.
/// Template so this header needs no solver includes; `opt` is any
/// Result<VseSolution>.
template <typename ResultT>
inline bool ProvenOptimal(const ResultT& opt) {
  return opt.ok() && opt->gap.optimal;
}

/// Median over `samples` (by copy: benches keep their raw runs). Averages
/// the two middle elements for even sizes; 0.0 when empty.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

#ifndef DELPROP_BUILD_TYPE
#define DELPROP_BUILD_TYPE ""
#endif

/// The machine a snapshot was measured on, as a JSON object: online cores,
/// the CMake build type the bench was compiled in, whether it is optimised,
/// and the 1/5/15-minute load average at the time of writing.
inline std::string HostJson() {
  long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  double load[3] = {-1.0, -1.0, -1.0};
  if (::getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const char* optimised = "true";
#else
  const char* optimised = "false";
#endif
  const char* build_type =
      DELPROP_BUILD_TYPE[0] != '\0' ? DELPROP_BUILD_TYPE : "unknown";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cores\": %ld, \"build_type\": \"%s\", "
                "\"optimised\": %s, \"loadavg\": [%.2f, %.2f, %.2f]}",
                cores, build_type, optimised, load[0], load[1], load[2]);
  return buffer;
}

/// Escapes `text` for embedding inside a JSON string literal. Non-ASCII
/// bytes (the benches use UTF-8 ‖·‖ in family names) pass through verbatim —
/// JSON strings are UTF-8.
inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One solver row of a bench family: what ran, how it ended, how long it
/// took. `status` is "ok", "INFEASIBLE", or the refusing status-code name.
struct SolverRecord {
  std::string solver;
  std::string status;
  double cost = 0.0;
  size_t deletion_size = 0;
  double wall_ms = 0.0;
  /// Optimality-gap certificate (VseSolution::gap), reported by the exact
  /// and ilp solvers: `gap_optimal` means the cost is a proven optimum,
  /// otherwise [gap_lower, gap_upper] brackets it and `gap_relative` is
  /// (upper - lower) / upper.
  bool has_gap = false;
  bool gap_optimal = false;
  double gap_lower = 0.0;
  double gap_upper = 0.0;
  double gap_relative = 0.0;
  uint64_t gap_nodes = 0;
};

/// One workload family: instance sizes (the paper's ‖V‖ / ‖ΔV‖ / l) plus the
/// per-solver rows and the family's end-to-end solver wall-clock.
struct FamilyRecord {
  std::string family;
  size_t view_tuples = 0;      // ‖V‖
  size_t deletion_tuples = 0;  // ‖ΔV‖
  size_t max_arity = 0;        // l
  double total_ms = 0.0;
  std::vector<SolverRecord> solvers;
};

/// The whole machine-readable report for one bench binary run.
struct BenchReport {
  std::string bench;
  size_t threads = 1;
  std::string git;
  /// Timing repetitions behind each wall-clock number (wall_ms/total_ms are
  /// medians over `repeat` runs after `warmup` discarded runs).
  size_t repeat = 1;
  size_t warmup = 0;
  std::vector<FamilyRecord> families;
};

/// Writes `report` as pretty-printed JSON (see docs/perf.md for the schema).
/// Returns false (with a message on stderr) when the file cannot be written,
/// or when the SnapshotGuard refuses a dirty-tree write to a committed path.
inline bool WriteBenchJson(const BenchReport& report,
                           const std::string& path) {
  if (!SnapshotGuard(report.git, path)) return false;
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"%s\",\n",
               JsonEscape(report.bench).c_str());
  std::fprintf(out, "  \"threads\": %zu,\n", report.threads);
  std::fprintf(out, "  \"git\": \"%s\",\n", JsonEscape(report.git).c_str());
  std::fprintf(out, "  \"git_dirty\": %s,\n",
               GitIsDirty(report.git) ? "true" : "false");
  std::fprintf(out, "  \"repeat\": %zu,\n", report.repeat);
  std::fprintf(out, "  \"warmup\": %zu,\n", report.warmup);
  std::fprintf(out, "  \"families\": [\n");
  for (size_t f = 0; f < report.families.size(); ++f) {
    const FamilyRecord& family = report.families[f];
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"family\": \"%s\",\n",
                 JsonEscape(family.family).c_str());
    std::fprintf(out, "      \"view_tuples\": %zu,\n", family.view_tuples);
    std::fprintf(out, "      \"deletion_tuples\": %zu,\n",
                 family.deletion_tuples);
    std::fprintf(out, "      \"max_arity\": %zu,\n", family.max_arity);
    std::fprintf(out, "      \"total_ms\": %.3f,\n", family.total_ms);
    std::fprintf(out, "      \"solvers\": [\n");
    for (size_t s = 0; s < family.solvers.size(); ++s) {
      const SolverRecord& solver = family.solvers[s];
      std::fprintf(out,
                   "        {\"solver\": \"%s\", \"status\": \"%s\", "
                   "\"cost\": %.6f, \"deletion_size\": %zu, "
                   "\"wall_ms\": %.3f",
                   JsonEscape(solver.solver).c_str(),
                   JsonEscape(solver.status).c_str(), solver.cost,
                   solver.deletion_size, solver.wall_ms);
      if (solver.has_gap) {
        std::fprintf(out,
                     ", \"gap\": {\"optimal\": %s, \"lower\": %.6f, "
                     "\"upper\": %.6f, \"relative\": %.6f, \"nodes\": %llu}",
                     solver.gap_optimal ? "true" : "false", solver.gap_lower,
                     solver.gap_upper, solver.gap_relative,
                     static_cast<unsigned long long>(solver.gap_nodes));
      }
      std::fprintf(out, "}%s\n", s + 1 < family.solvers.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n");
    std::fprintf(out, "    }%s\n",
                 f + 1 < report.families.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  return true;
}

}  // namespace delprop::bench

#endif  // DELPROP_BENCH_BENCH_UTIL_H_

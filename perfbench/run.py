#!/usr/bin/env python3
"""Builds and runs the delprop benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve|live|offline --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first call configures and builds the
library and the benchmark binary (optimised, from source) into the directory
named by $CARGO_TARGET_DIR, default `.bench_build`; later calls only check
that build is current. Build output goes to stderr. The binary's report goes
to stdout and its last line is the one-line JSON result. Span files of
traced runs land in `<build dir>/traces/`. Exits non-zero, without a result
line, if the build fails or the run does not finish, and with the binary's
code (1) if a correctness gate failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory too.
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "delprop_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return out / "delprop_perfbench"


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = done.stdout.strip()
    if done.returncode != 0 or not revision:
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--untracked-files=no"], capture_output=True,
                           text=True, timeout=10).stdout.strip()
    return revision + ("-dirty" if dirty else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "live", "offline"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instance and jobs, for the self-test")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"benchmark build failed: {error}", file=sys.stderr)
        return 1

    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git", git_revision(),
               "--trace-dir", str(traces)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if not valid:
        sys.stderr.write(done.stdout)
        print("benchmark printed no result line", file=sys.stderr)
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the rbio checkpoint/restore benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `rbio-perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload in a
fresh process. Scratch files go to `.bench_work/`, traced-run spans to
`.bench_out/`. The last line of standard output is the JSON result; the
exit code is nonzero if the build fails, the run fails, or any restore
differs from what was written.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run must end well within the benchmark's per-run limit.
RUN_TIMEOUT_S = 170


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "rbio-perfbench")
    cmd = [binary, *sys.argv[1:], "--work-dir", ".bench_work", "--out-dir", ".bench_out"]
    # Fixed glibc malloc settings. Per-thread arenas made peak RSS depend
    # on which rank thread allocated first (±20 % between identical
    # runs); the dynamic mmap threshold made page faults per step vary
    # 15-fold with thread timing, and step times with them. One arena and
    # fixed thresholds (the dynamic threshold's 32 MiB ceiling, no heap
    # trimming) make both repeat.
    env = dict(
        os.environ,
        RBIO_BENCH_REV=git_rev(),
        MALLOC_ARENA_MAX="1",
        MALLOC_MMAP_THRESHOLD_=str(32 << 20),
        MALLOC_TRIM_THRESHOLD_=str(1 << 30),
    )
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

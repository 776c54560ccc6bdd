#!/usr/bin/env python3
"""Builds the coca benchmark harness from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The harness (perfbench/CMakeLists.txt) is built in Release from the
library sources in src/, under $CARGO_TARGET_DIR (default .bench_build,
relative to the repository root). Build output goes to stderr, so the last
line of stdout is the harness's JSON result. The exit code is the
harness's: 0 when every op passed its checks, 1 when one failed, 2 on bad
usage; a failed build exits 1 without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def git_sha():
    """HEAD of the repository rooted here, or "unknown" (git does not look
    above the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "coca_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--selftest" not in args:
        args += ["--git-sha", git_sha()]
    binary = os.path.join(build_dir, "coca_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

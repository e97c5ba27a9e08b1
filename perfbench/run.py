#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload fig5|mega|service --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. The first run configures and
builds the harness and racd (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only bring the build up to
date. Build output goes to stderr. The harness prints its result as the
last line of stdout; see perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What the measured program is built from, for the result stamp when the
# checkout is not a git repository.
DIGEST_PATHS = ["CMakeLists.txt", "src", "tools", "perfbench"]


def source_digest():
    h = hashlib.sha256()
    for rel in DIGEST_PATHS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_harness",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig5", "mega", "service"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
        stamp = ["--git-commit", git_commit(),
                 "--source-digest", source_digest()]
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(build_dir, "perfbench_harness"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", ".bench_out"] + stamp,
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

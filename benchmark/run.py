#!/usr/bin/env python3
"""Builds the MSFU benchmark and the `msfu` binary from source, then runs one
workload and passes its JSON result line through.

Run from the root of a checkout:

    python3 benchmark/run.py [--threads N] --workload W --seed S --seconds T --trace 0|1

Workloads: random-mappings, serve-mixed. `--threads` caps the compute
threads of the system under test (the sweep pool in process, the serve
worker pool for serve-mixed); it is clamped to the CPU count. Builds go
to $CARGO_TARGET_DIR (default `.bench_build`); scratch files to `work/` there.
"""

import os
import subprocess
import sys


def fail(message):
    print(f"benchmark/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for needed in ("Cargo.toml", "crates", "src", "benches"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    args = sys.argv[1:]
    threads = 2
    if "--threads" in args:
        i = args.index("--threads")
        if i + 1 >= len(args):
            fail("--threads needs a value")
        threads = int(args[i + 1])
        del args[i : i + 2]
    threads = max(1, min(threads, os.cpu_count() or 1))

    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "msfu"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
    ]
    for build in builds:
        # Cargo's output goes to stderr so the result stays the last stdout line.
        if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(build))

    work = os.path.join(target, "work")
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(target, "release", "msfu-benchmark"),
        "--threads", str(threads),
        "--root", root,
        "--msfu", os.path.join(target, "release", "msfu"),
        "--work", work,
    ] + args
    env["RAYON_NUM_THREADS"] = str(threads)
    sys.exit(subprocess.run(command, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()

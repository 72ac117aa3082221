#!/usr/bin/env python3
"""Builds the DIM benchmark from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <kernel_loop|control_churn|table2_sweep> \\
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build) with build output on
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, if the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: benchmark build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the workspace's server and the benchmark, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Builds land in $CARGO_TARGET_DIR
(default: .bench_build at the repository root).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (
        ["-p", "maly-cli"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: the workspace sources are missing", file=sys.stderr)
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    try:
        build(target_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench")] + argv
    cmd += ["--server-bin", os.path.join(release, "maly-cli")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

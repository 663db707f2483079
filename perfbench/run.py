#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (this directory). It is built
in release mode into $CARGO_TARGET_DIR, or into the repository's `target/`
when that is unset, and then replaces this process, so the benchmark's
last output line is its JSON result and its exit code is this command's.

`--workload all` runs every workload in turn, each in its own process,
and ends with one JSON object whose metric names are `<workload>/<metric>`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stream_io_smp", "fleet_faults"]


def build():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "..", "target"))
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_all(exe, args):
    """Run every workload; merge their results into one JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        out = subprocess.run([exe, "--workload", name] + args, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or out.returncode
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                      "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and out.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][name + "/" + metric] = v
    print(json.dumps(merged))
    return code


def main():
    args = sys.argv[1:]
    exe = build()
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        i = args.index("--workload")
        sys.exit(run_all(exe, args[:i] + args[i + 2:]))
    os.execv(exe, [exe] + args)


if __name__ == "__main__":
    main()

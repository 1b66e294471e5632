#!/usr/bin/env python3
"""Time-to-decide benchmark: build, run one workload, print the result.

Builds perfbench/ (which compiles the simulator from ../src) into
.bench_build/ at the checkout root, runs the requested workload in its own
process and prints the workload's report followed by one JSON result line:

    python3 perfbench/run.py --workload scale-64k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seconds 50    # BENCHMARK.json's workloads
    python3 perfbench/run.py --workload ref-1k    # any workload perfbench knows

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json, --trace 1
the per-layer ones (and writes the span log to .bench_build/spans/). The
exit code is non-zero, with no result line, when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    """Configures once and builds incrementally; build output goes to stderr."""
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)


def run_workload(workload, args, env, spec):
    """Runs one workload in a fresh process; returns its contract result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    raw = None
    for line in lines:
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or raw is None:
        raise RuntimeError(f"{workload}: perfbench exited with "
                           f"{proc.returncode}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"{workload}: metric {m['name']} [{m['unit']}] "
                               f"missing from the run's output")
        metrics[m["name"]] = got
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a perfbench workload, or all of BENCHMARK.json's")
    parser.add_argument("--seed", type=int, default=20220711)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # compiler scratch stays here
    # The run manifest reads the commit from this variable instead of
    # walking up the directory tree for a .git.
    env.setdefault("SDN_GIT_SHA", "unrecorded")
    try:
        build(env)
        if args.workload != "all":
            result = run_workload(args.workload, args, env, spec)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for name in names:
                one = run_workload(name, args, env, spec)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for key, value in one["metrics"].items():
                    result["metrics"][f"{name}:{key}"] = value
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

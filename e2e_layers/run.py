#!/usr/bin/env python3
"""Builds and runs the e2e_layers benchmark.

Run from the root of a checkout:

  python3 e2e_layers/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds the benchmark (first run only), runs one workload in a fresh
      process and relays its report; the last line of stdout is the result
      JSON {"correct", "attempted", "failed", "metrics"}.

  python3 e2e_layers/run.py --seed N [--trace 0|1] [--json PATH]
      Runs every workload, each in its own process, and ends with one
      summary JSON line. --json appends one JSONL record per workload.

  python3 e2e_layers/run.py --smoke [--binary PATH]
      Runs every workload at 2^16 rows, untraced and traced, and checks
      each result line against the metric names and units in
      BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR/e2e_layers (default
.bench_build/e2e_layers); spill files, temporary files and Chrome traces
stay under it.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["hash_lowk", "partition_highk", "zipf_stream", "spill_mid",
             "session_pair"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2e_layers")


def build(out_dir, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "e2e_layers"), "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "--parallel", "4",
                    "--target", "e2e_layers"],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "e2e_layers")


def run_workload(binary, scratch, env, workload, seed, seconds, trace,
                 smoke=False, json_path=None, capture=False):
    """Runs one workload in its own process.

    Returns (exit code, stdout text or None when not captured)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scratch={scratch}"]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if json_path:
        cmd.append(f"--json={os.path.abspath(json_path)}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, proc.stdout


def last_json_line(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(result, defs, what):
    """Returns a list of problems of one result line against BENCHMARK.json."""
    if result is None:
        return [f"{what}: no result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: unexpected keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{what}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{what}: attempted={result['attempted']}")
    metrics = result["metrics"]
    want = {d["name"]: d["unit"] for d in defs}
    if set(metrics) != set(want):
        problems.append(f"{what}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: {name} = {value!r} is not finite")
        if m.get("unit") != unit:
            problems.append(f"{what}: {name} unit {m.get('unit')!r}, "
                            f"BENCHMARK.json says {unit!r}")
    return problems


def smoke(binary, scratch, env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if names != WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(binary, scratch, env, workload, 1, 0.2,
                                     trace, smoke=True, capture=True)
            defs = bench["per_layer"] if trace else bench["end_to_end"]
            what = f"{workload} trace={trace}"
            found = check_result(last_json_line(out), defs, what)
            if code != 0:
                found.append(f"{what}: exit code {code}")
            problems += found
            log(f"{what}: {'ok' if not found else 'FAILED'}")
    for p in problems:
        log(p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="append one JSONL record per workload")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this prebuilt e2e_layers binary")
    args = ap.parse_args()

    out_dir = build_dir()
    scratch = os.path.join(out_dir, "scratch")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    binary = args.binary
    if binary is None:
        try:
            binary = build(out_dir, env)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            log(f"build failed: {e}")
            return 1

    if args.smoke:
        return smoke(binary, scratch, env)

    if args.workload:
        code, _ = run_workload(binary, scratch, env, args.workload, args.seed,
                               args.seconds, args.trace, json_path=args.json)
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    code = 0
    for workload in WORKLOADS:
        rc, out = run_workload(binary, scratch, env, workload, args.seed,
                               args.seconds, args.trace, json_path=args.json,
                               capture=True)
        sys.stdout.write(out or "")
        result = last_json_line(out)
        if rc != 0 or result is None:
            code = 1
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][workload] = result["metrics"]
    print(json.dumps(summary), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

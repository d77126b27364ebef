#!/usr/bin/env python3
"""Host-throughput benchmark of the ConTutto simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the simulator and the
perfbench binary from source (Release, into .bench_build/), runs one
workload for S seconds on inputs made from the seed, checks the
outputs, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones, from a run that also makes
traced passes. Every run leaves trace.json (Perfetto), stats.json and,
with --trace 1, layers.txt under .bench_build/out/<workload>-seed<N>/.

A run is correct when every op it issued completed unfailed and
unpoisoned, every pass reproduced the first pass's digest of the
modelled-hardware stats, the replay recapture matched its input, and,
for a seed pinned in perfbench/record.json, the digest equals the pin.
An incorrect run counts every op as failed.

    python3 perfbench/run.py --write-pins 0-20

re-runs the named seeds on every workload and rewrites the pins in
perfbench/record.json; only a change that is meant to alter the
modelled hardware's results should need it.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "cmake" / "perfbench"
RECORD = BENCH_DIR / "record.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the perfbench binary up to date."""
    cmake_dir = BUILD_DIR / "cmake"
    # The generator's file exists only after a configure succeeded.
    if not any((cmake_dir / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def out_dir(workload, seed):
    return BUILD_DIR / "out" / f"{workload}-seed{seed}"


def run_binary(workload, seed, seconds, trace, reference_ns=None):
    """Run the perfbench binary once; returns its result object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out_dir(workload, seed))]
    if reference_ns:
        cmd += ["--reference-ns", repr(reference_ns)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if trace:
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def result(bench, record, workload, seed, seconds, trace):
    """Run one workload and turn the binary's output into the result."""
    pin = record["pins"].get(workload, {}).get(str(seed), {})
    raw = run_binary(workload, seed, seconds, trace,
                     pin.get("reference_ns"))
    problems = list(raw["problems"])
    if pin and pin["digest"] != raw["digest"]:
        problems.append(f"digest {raw['digest']} differs from the pin "
                        f"{pin['digest']} for seed {seed}")
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if trace else "end_to_end"]}
    values = dict(raw["metrics"])
    printed = set(values) | (set() if trace else {"op_ok_ratio"})
    if printed != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(printed ^ set(units))}")
    for p in problems:
        log(f"{workload} seed {seed}: {p}")
    attempted = int(raw["attempted"])
    failed = attempted if problems else int(raw["failed"])
    if not trace:
        values["op_ok_ratio"] = 1 - failed / attempted
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def write_pins(bench, record, seeds):
    pins = {}
    for w in (x["name"] for x in bench["workloads"]):
        pins[w] = {}
        for seed in seeds:
            raw = run_binary(w, seed, 0.01, False)
            if raw["problems"]:
                raise RuntimeError(f"{w} seed {seed}: {raw['problems']}")
            pin = {"digest": raw["digest"]}
            if raw["reference_ns"] > 0:
                pin["reference_ns"] = raw["reference_ns"]
            pins[w][str(seed)] = pin
            log(f"pinned {w} seed {seed}: {pin}")
    record["pins"] = pins
    RECORD.write_text(dump(record) + "\n")


def dump(value, depth=0):
    """JSON with the top three levels spread over lines, the rest
    (a pin, a list of metric names) kept on one line."""
    if depth == 3 or not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)
    pad = "  " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * depth + "}"
    items = [pad + dump(v, depth + 1) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + "  " * depth + "]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=str(RECORD),
                    help="pins and notes file (tests pass a tampered copy)")
    ap.add_argument("--write-pins", metavar="LO-HI")
    args = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    record = load_json(args.record)
    names = [w["name"] for w in bench["workloads"]]
    if not args.write_pins and args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    started = time.monotonic()
    build()
    log(f"build ready after {time.monotonic() - started:.1f}s")
    if args.write_pins:
        write_pins(bench, record, parse_seeds(args.write_pins))
        return 0
    out = result(bench, record, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"failed: {e}")
        sys.exit(1)

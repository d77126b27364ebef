#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_run.py

They build the perfbench binary (as run.py does) and make short runs,
so they take a minute or two.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = run.load_json(run.ROOT / "BENCHMARK.json")
RECORD = run.load_json(run.RECORD)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PINNED_SEED = 1
SHORT_S = "0.5"


def bench_run(workload, trace, record=None, seed=PINNED_SEED):
    """run.py as the benchmark is run; returns (exit code, result)."""
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SHORT_S,
           "--trace", str(trace)]
    if record:
        cmd += ["--record", str(record)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=run.ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def binary_digest(workload, seed):
    """The binary's digest for @p seed, from a fresh output directory,
    so nothing but what the benchmark generates can reach the run."""
    shutil.rmtree(run.out_dir(workload, seed), ignore_errors=True)
    pin = RECORD["pins"][workload].get(str(seed), {})
    raw = run.run_binary(workload, seed, 0.01, False,
                         pin.get("reference_ns"))
    return raw["digest"]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_printed_metric_is_named_with_a_unit(self):
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            named = {m["name"]: m["unit"] for m in BENCH[kind]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, res = bench_run(w, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(set(res["metrics"]), set(named))
                    for name, m in res["metrics"].items():
                        self.assertEqual(m["unit"], named[name])
                        self.assertIsInstance(m["value"], (int, float))
                    if trace:
                        out = run.out_dir(w, PINNED_SEED)
                        events = json.loads((out / "trace.json").read_text())
                        pids = {e["pid"] for e in events if e["ph"] == "X"}
                        self.assertEqual(pids, {0, 1})
                        self.assertTrue((out / "layers.txt").exists())
                        json.loads((out / "stats.json").read_text())

    def test_tampered_pinned_digest_fails_every_op(self):
        tampered = copy.deepcopy(RECORD)
        w = WORKLOADS[0]
        pin = tampered["pins"][w][str(PINNED_SEED)]
        pin["digest"] = "%016x" % (int(pin["digest"], 16) ^ 1)
        path = run.BUILD_DIR / "tmp" / "record-tampered.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tampered))
        code, res = bench_run(w, 0, record=path)
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(res["metrics"]["op_ok_ratio"]["value"], 0)

    def test_seed_alone_makes_the_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = binary_digest(w, PINNED_SEED)
                self.assertEqual(first, binary_digest(w, PINNED_SEED))
                self.assertEqual(
                    first, RECORD["pins"][w][str(PINNED_SEED)]["digest"])
                self.assertNotEqual(first, binary_digest(w, PINNED_SEED + 1))
        # The replayed trace is generated from the seed, byte for byte.
        w = "replay-detailed"
        traces = []
        for seed in (PINNED_SEED, PINNED_SEED, PINNED_SEED + 1):
            binary_digest(w, seed)
            traces.append(
                (run.out_dir(w, seed) / "replay-input.bin").read_bytes())
        self.assertEqual(traces[0], traces[1])
        self.assertNotEqual(traces[0], traces[2])


if __name__ == "__main__":
    unittest.main()

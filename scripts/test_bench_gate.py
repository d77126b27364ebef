#!/usr/bin/env python3
"""Unit tests for bench_gate.py.

Every fixture is a --stats-json document rebuilt from a checked-in
baseline's distilled values, then edited to sit just past one bound.

Usage: python3 scripts/test_bench_gate.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES = os.path.join(HERE, "..", "bench", "baselines")
sys.path.insert(0, HERE)

import bench_gate  # noqa: E402

BENCHES = ("event_core", "latency", "parallel", "sampling", "trace")


def baseline_path(bench):
    return os.path.join(BASELINES, "BENCH_%s.json" % bench)


def load_baseline(bench):
    with open(baseline_path(bench)) as f:
        return json.load(f)


def stats_doc(bench, **edits):
    """The stats document whose distillation is @p bench's baseline,
    with each edit (leaf stat name -> value, None to drop) applied."""
    captures = []
    for cap in load_baseline(bench)["captures"]:
        root = None
        for path, value in cap["stats"].items():
            *groups, leaf = path.split(".")
            if leaf in edits:
                value = edits[leaf]
                if value is None:
                    continue
            if root is None:
                root = {"name": groups[0], "stats": {}, "groups": []}
            group = root
            for name in groups[1:]:
                subs = [g for g in group["groups"] if g["name"] == name]
                if not subs:
                    subs = [{"name": name, "stats": {}, "groups": []}]
                    group["groups"].append(subs[0])
                group = subs[0]
            if isinstance(value, dict):
                group["stats"][leaf] = dict(value, kind="histogram")
            else:
                group["stats"][leaf] = {"kind": "scalar", "value": value}
        captures.append({"label": cap["label"], "stats": root})
    return {"meta": {"binary": "fixture"}, "captures": captures}


def baseline_value(bench, leaf):
    for cap in load_baseline(bench)["captures"]:
        for path, value in cap["stats"].items():
            if path.split(".")[-1] == leaf:
                return value
    raise KeyError(leaf)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def gate(self, bench, doc, *extra, baseline=None):
        path = os.path.join(self.tmp.name, "stats.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = bench_gate.main([path, baseline or baseline_path(bench)]
                                   + list(extra))
        self.log = err.getvalue()
        return code, json.loads(out.getvalue())

    def assertPasses(self, bench, **edits):
        code, _ = self.gate(bench, stats_doc(bench, **edits))
        self.assertEqual(code, 0, self.log)

    def assertFails(self, bench, **edits):
        code, _ = self.gate(bench, stats_doc(bench, **edits))
        self.assertEqual(code, 1, self.log)

    def test_each_baseline_passes_and_distills_to_itself(self):
        for bench in BENCHES:
            with self.subTest(bench=bench):
                code, trajectory = self.gate(bench, stats_doc(bench))
                self.assertEqual(code, 0, self.log)
                base = load_baseline(bench)
                self.assertEqual(trajectory["schema"], bench_gate.SCHEMA)
                self.assertEqual(trajectory["captures"], base["captures"])
                self.assertEqual(trajectory["gate"], base["gate"])

    def test_unsampled_distributions_are_not_distilled(self):
        doc = stats_doc("latency")
        doc["captures"][0]["stats"]["stats"]["idleLatency"] = {
            "kind": "distribution", "count": 0, "mean": 0}
        code, trajectory = self.gate("latency", doc)
        self.assertEqual(code, 0, self.log)
        self.assertEqual(trajectory["captures"],
                         load_baseline("latency")["captures"])

    def test_event_core_ratio_floor(self):
        want = baseline_value("event_core", "clock-mixSpeedupRatio")
        self.assertFails("event_core", **{
            "clock-mixSpeedupRatio": want * 0.84})
        self.assertPasses("event_core", **{
            "clock-mixSpeedupRatio": want * 0.86})
        self.assertFails("event_core", **{"far-timersSpeedupRatio": None})

    def test_trace_bounds(self):
        self.assertFails("trace", replayOpsPerSec=999999)
        self.assertPasses("trace", replayOpsPerSec=1000000)
        self.assertFails("trace", records=0)
        self.assertFails("trace", records=None)
        self.assertFails("trace", recaptureMatch=0)
        self.assertPasses("trace", recaptureMatch=-1)
        self.assertPasses("trace", recaptureMatch=None)

    def test_sampling_bounds(self):
        self.assertFails("sampling", minSpeedup=4.99)
        self.assertPasses("sampling", minSpeedup=5.0)
        self.assertFails("sampling", maxRelError=0.051)
        self.assertPasses("sampling", maxRelError=0.05)
        self.assertFails("sampling", allCovered=0)
        self.assertFails("sampling", allCovered=None)

    def test_parallel_determinism_on_any_host(self):
        self.assertFails("parallel", determinismOk=0)
        self.assertFails("parallel", hostCores=4, determinismOk=0)

    def test_parallel_speedup_floor_skipped_below_shard_count(self):
        self.assertPasses("parallel", hostCores=2,
                          shards4SpeedupVsSerial=0.5)
        self.assertIn("SKIP", self.log)
        self.assertFails("parallel", hostCores=4,
                         shards4SpeedupVsSerial=0.5)
        self.assertFails("parallel", hostCores=2,
                         shards2SpeedupVsSerial=0.99)

    def test_parallel_shards1_speedup_is_not_gated(self):
        # One shard starts no workers: both timed runs are the same
        # single-thread code, so their ratio is wall-clock noise.
        want = baseline_value("parallel", "shards1SpeedupVsSerial")
        self.assertEqual(baseline_value("parallel", "hostCores"), 1)
        self.assertPasses("parallel", hostCores=1,
                          shards1SpeedupVsSerial=want * 0.5)

    def test_parallel_vs_baseline_waits_for_baseline_cores(self):
        out = os.path.join(self.tmp.name, "BENCH_parallel.json")
        fresh = stats_doc("parallel", hostCores=4,
                          shards4SpeedupVsSerial=2.0)
        for cores, verdict in ((2, 0), (4, 1)):
            self.gate("parallel", stats_doc(
                "parallel", hostCores=cores, shards4SpeedupVsSerial=3.0),
                "--write-baseline", out)
            code, _ = self.gate("parallel", fresh, baseline=out)
            self.assertEqual(code, verdict, self.log)

    def test_write_baseline_needs_two_cores(self):
        out = os.path.join(self.tmp.name, "BENCH_parallel.json")
        code, _ = self.gate("parallel", stats_doc("parallel", hostCores=1),
                            "--write-baseline", out)
        self.assertEqual(code, 1, self.log)
        self.assertIn("REFUSING", self.log)
        self.assertFalse(os.path.exists(out))

        code, trajectory = self.gate(
            "parallel", stats_doc("parallel", hostCores=2),
            "--write-baseline", out)
        self.assertEqual(code, 0, self.log)
        with open(out) as f:
            written = json.load(f)
        self.assertEqual(written, trajectory)
        self.assertEqual(bench_gate.host_cores(
            bench_gate.flat(written), written["gate"]), 2)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Distill a bench --stats-json capture and gate it against a baseline.

Usage: bench_gate.py STATS_JSON BASELINE [--write-baseline PATH]
           > BENCH_<bench>.json

BASELINE is a checked-in trajectory (bench/baselines/BENCH_*.json).
Its "gate" object holds everything this script knows about a bench:

  select     Regex over dotted StatGroup paths: the stats to distill.
             A stat with a "value" keeps that number; a distribution
             or histogram with samples keeps its count, mean, min,
             max, stddev, p50 and p99.
  hostCores  Optional {"stat": REGEX, "writeMin": N}: the stat that
             records the capture host's core count, and the fewest
             cores a capture needs before --write-baseline takes it.
  bounds     List of {"stat": REGEX, RULE: X} with RULE one of
               min X          value >= X
               max X          value <= X
               equals X       value == X
               not X          value != X (a missing value passes)
               vsBaseline T   value >= (1 - T) * baseline value
             and an optional "hostCores": N, which applies the bound
             only when the fresh capture (for vsBaseline, both
             captures) came from a host with at least N cores.

A bound covers each stat its regex matches in the baseline, per
capture label, and checks the fresh capture's value for the same
label.  A value missing from the fresh capture fails, except under
"not".  A bound that matches nothing in the baseline fails too.

The distilled trajectory goes to stdout and one verdict per checked
value to stderr.  --write-baseline PATH also writes the trajectory to
PATH, with the baseline's gate, as the new baseline.

Exit status: 0 if every bound holds, 1 if one fails or the baseline
write is refused, 2 on bad usage.
"""

import argparse
import json
import operator
import re
import sys

SCHEMA = "contutto-trajectory-v2"
SUMMARY = ("count", "mean", "min", "max", "stddev", "p50", "p99")
RULES = {"min": operator.ge, "max": operator.le, "equals": operator.eq,
         "not": operator.ne, "vsBaseline": operator.ge}


def walk(group, prefix, select, out):
    for name, stat in group.get("stats", {}).items():
        path = prefix + "." + name
        if not isinstance(stat, dict) or not select.search(path):
            continue
        if stat.get("value") is not None:
            out[path] = stat["value"]
        elif stat.get("count", 0) > 0:
            out[path] = {k: stat[k] for k in SUMMARY
                         if stat.get(k) is not None}
    for sub in group.get("groups", []):
        walk(sub, prefix + "." + sub["name"], select, out)


def distill(doc, baseline):
    select = re.compile(baseline["gate"]["select"])
    captures = []
    for cap in doc.get("captures", []):
        root = cap["stats"]
        stats = {}
        walk(root, root.get("name", "root"), select, stats)
        captures.append({"label": cap["label"], "stats": stats})
    out = {"schema": SCHEMA, "source": baseline.get("source"),
           "gate": baseline["gate"], "captures": captures}
    if "meta" in doc:
        out["meta"] = doc["meta"]
    return out


def flat(trajectory):
    return {(cap["label"], path): value
            for cap in trajectory.get("captures", [])
            for path, value in cap["stats"].items()}


def host_cores(values, gate):
    pattern = gate.get("hostCores", {}).get("stat")
    if pattern:
        for (_, path), value in values.items():
            if re.search(pattern, path):
                return int(value)
    return 0


def check(fresh, baseline):
    gate = baseline["gate"]
    now, was = flat(fresh), flat(baseline)
    cores_now, cores_was = host_cores(now, gate), host_cores(was, gate)
    failed = False
    for bound in gate.get("bounds", []):
        rule, = (r for r in RULES if r in bound)
        pattern = re.compile(bound["stat"])
        keys = sorted(k for k in was if pattern.search(k[1]))
        if not keys:
            sys.stderr.write("FAIL %s: matches no baseline stat\n"
                             % bound["stat"])
            failed = True
        need = bound.get("hostCores", 0)
        for key in keys:
            got = now.get(key)
            where = "%s %s" % key
            if got is None and rule != "not":
                sys.stderr.write("FAIL %s: missing\n" % where)
                failed = True
                continue
            if cores_now < need or (rule == "vsBaseline"
                                    and cores_was < need):
                sys.stderr.write("SKIP %s: %r, %s needs %d cores, host "
                                 "has %d (baseline %d)\n"
                                 % (where, got, rule, need, cores_now,
                                    cores_was))
                continue
            limit = bound[rule]
            if rule == "vsBaseline":
                limit = was[key] * (1.0 - bound[rule])
            ok = RULES[rule](got, limit)
            sys.stderr.write("%-4s %s: %r, %s %r\n"
                             % ("ok" if ok else "FAIL", where, got,
                                rule, limit))
            failed = failed or not ok
    return failed


def write_baseline(trajectory, path):
    gate = trajectory["gate"]
    need = gate.get("hostCores", {}).get("writeMin", 0)
    cores = host_cores(flat(trajectory), gate)
    if cores < need:
        sys.stderr.write("REFUSING --write-baseline %s: the capture "
                         "comes from a %d-core host and this gate "
                         "needs %d. Re-capture on a bigger host.\n"
                         % (path, cores, need))
        return True
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.stderr.write("wrote baseline %s\n" % path)
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Distill a --stats-json capture and gate it "
                    "against a baseline trajectory.")
    parser.add_argument("stats_json")
    parser.add_argument("baseline")
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args(argv)

    with open(args.stats_json) as f:
        doc = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)
    trajectory = distill(doc, baseline)
    json.dump(trajectory, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

    failed = check(trajectory, baseline)
    if args.write_baseline is not None:
        failed = write_baseline(trajectory, args.write_baseline) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

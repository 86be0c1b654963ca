#!/usr/bin/env python3
"""Summarize or compare sets of benchmark runs.

    python3 perfbench/diff.py RUNS            # spread of one set
    python3 perfbench/diff.py BASE CHANGE     # compare two sets

RUNS, BASE and CHANGE are files, or directories of files, holding the
stdout of perfbench/run.py calls (any number of runs per file, any
workloads). Runs are grouped by workload and by end-to-end (--trace 0) or
per-layer (--trace 1) kind.

One set: for each workload and metric, the run count, median, quartiles
and spread (quartile distance over median). An end-to-end metric other
than setup_s is "steady" when its spread is below a third of its bound in
BENCHMARK.json.

Two sets: for each workload and metric, each side's median and quartiles
and a verdict:
  better      the change wins at least 9 of 10 run pairs (runs paired by
              seed, else by order) and the medians differ by more than the
              base's quartile distance;
  worse       the change's median is worse than the base's by more than the
              metric's bound (per-layer metrics have none: the mirror of
              the rule for better);
  unresolved  neither, with the reason: within the bound, or the base's
              spread exceeds the bound so no difference below it can be
              told apart from noise.
Exit code 1 when any end-to-end metric of any workload is worse.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[("e2e", m["name"])] = m
    for m in spec["per_layer"]:
        metrics[("layer", m["name"])] = m
    return metrics


def files_of(path):
    if os.path.isdir(path):
        return [os.path.join(path, n) for n in sorted(os.listdir(path))
                if os.path.isfile(os.path.join(path, n))]
    return [path]


def load_runs(path):
    """{(workload, kind): [(seed, {metric: value})]} from run.py output."""
    runs = {}
    for fname in files_of(path):
        record = None
        with open(fname) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "perfbench" in obj:
                    record = obj["perfbench"]
                elif set(obj) == {"correct", "attempted", "failed", "metrics"}:
                    if record is None:
                        continue
                    kind = "layer" if record.get("trace") else "e2e"
                    values = {k: v["value"] for k, v in obj["metrics"].items()}
                    runs.setdefault((record["workload"], kind), []).append(
                        (record.get("seed"), values, obj["correct"]))
                    record = None
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fmt(x):
    return "%.4g" % x


def summarize(runs, spec):
    for (workload, kind), rs in sorted(runs.items()):
        bad = sum(1 for _, _, ok in rs if not ok)
        print("\n== %s (%s, %d runs%s)" % (workload, kind, len(rs),
                                           ", %d not correct" % bad if bad else ""))
        names = sorted({n for _, vals, _ in rs for n in vals})
        for name in names:
            vals = [v[name] for _, v, _ in rs if name in v]
            q1, med, q3 = quartiles(vals)
            m = spec.get((kind, name), {})
            bound = m.get("bound")
            sp = spread(vals)
            note = ""
            if bound is not None and name != "setup_s":
                note = "steady" if sp < bound / 3 else "NOT steady (bound/3 = %s)" % fmt(bound / 3)
            print("  %-28s n=%-3d median=%-11s q1=%-11s q3=%-11s spread=%-8s %s %s" % (
                name, len(vals), fmt(med), fmt(q1), fmt(q3), fmt(sp),
                m.get("unit", ""), note))


def pair_up(base, change):
    """Run pairs by seed where both sides have it, else by order."""
    bs = {s: v for s, v, _ in base}
    cs = {s: v for s, v, _ in change}
    common = sorted(set(bs) & set(cs), key=str)
    if common:
        return [(bs[s], cs[s]) for s in common]
    return [(b, c) for (_, b, _), (_, c, _) in zip(base, change)]


def verdict(bvals, cvals, pairs, better, bound):
    """(verdict, reason) for one metric; `better` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1  # positive = worse
    bq1, bmed, bq3 = quartiles(bvals)
    _, cmed, _ = quartiles(cvals)
    iqr = bq3 - bq1
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    apart = abs(cmed - bmed) > iqr
    if pairs and wins >= 0.9 * len(pairs) and apart and worse_by < 0:
        return "better", "wins %d/%d pairs" % (wins, len(pairs))
    if bound is not None:
        base_spread = iqr / bmed if bmed else float("inf")
        if worse_by > bound:
            every_run_worse = all(sign * (c - b) > 0 for c in cvals for b in bvals)
            if base_spread > bound and not every_run_worse:
                return "unresolved", "worse by %.1f%% but base spread %.1f%% > bound" % (
                    100 * worse_by, 100 * base_spread)
            return "worse", "by %.1f%% > bound %.0f%%" % (100 * worse_by, 100 * bound)
        if base_spread > bound:
            return "unresolved", "base spread %.1f%% > bound" % (100 * base_spread)
        return "unresolved", "within bound (%+.1f%%)" % (100 * worse_by)
    if pairs and losses >= 0.9 * len(pairs) and apart and worse_by > 0:
        return "worse", "loses %d/%d pairs" % (losses, len(pairs))
    return "unresolved", "%+.1f%%" % (100 * worse_by)


def compare(base, change, spec):
    any_worse = False
    for key in sorted(set(base) | set(change)):
        workload, kind = key
        if key not in base or key not in change:
            print("\n== %s (%s): only in %s" % (workload, kind,
                                                "base" if key in base else "change"))
            continue
        print("\n== %s (%s): %d base runs, %d change runs" % (
            workload, kind, len(base[key]), len(change[key])))
        names = sorted({n for _, v, _ in base[key] for n in v} &
                       {n for _, v, _ in change[key] for n in v})
        pairs_all = pair_up(base[key], change[key])
        for name in names:
            m = spec.get((kind, name))
            if m is None:
                continue
            bvals = [v[name] for _, v, _ in base[key] if name in v]
            cvals = [v[name] for _, v, _ in change[key] if name in v]
            pairs = [(b[name], c[name]) for b, c in pairs_all if name in b and name in c]
            v, why = verdict(bvals, cvals, pairs, m["better"], m.get("bound"))
            if v == "worse" and kind == "e2e":
                any_worse = True
            bq = quartiles(bvals)
            cq = quartiles(cvals)
            print("  %-28s %-10s base %s [%s, %s]  change %s [%s, %s] %s  (%s)" % (
                name, v, fmt(bq[1]), fmt(bq[0]), fmt(bq[2]), fmt(cq[1]), fmt(cq[0]),
                fmt(cq[2]), m["unit"], why))
    return any_worse


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = load_spec()
    base = load_runs(sys.argv[1])
    if not base:
        print("no runs found in %s" % sys.argv[1], file=sys.stderr)
        sys.exit(2)
    if len(sys.argv) == 2:
        summarize(base, spec)
        return
    change = load_runs(sys.argv[2])
    if not change:
        print("no runs found in %s" % sys.argv[2], file=sys.stderr)
        sys.exit(2)
    sys.exit(1 if compare(base, change, spec) else 0)


if __name__ == "__main__":
    main()

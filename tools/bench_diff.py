#!/usr/bin/env python3
"""Compare the parent and change runs recorded in a perf ledger.

    python3 tools/bench_diff.py BENCH_<n>.json [BENCH_<m>.json ...]

A ledger (BENCH_<n>.json at the repository root) records alternating
parent/change pairs of `perfbench/run.py` runs:

    {"command": "...", "machine": "...",
     "claim": {"workload": "cold_grid", "metric": "jobs_per_s"},
     "workloads": [
       {"name": "cold_grid", "seed": 42, "seconds": 10,
        "pairs": [{"first": "parent",
                   "parent": {"metrics": {...}, "fingerprint": {...}},
                   "change": {"metrics": {...}, "fingerprint": {...}}},
                  ...]},
       ...]}

`metrics` is the object of that name from run.py's last stdout line and
`fingerprint` the object from its first. `claim` may be null.

For each workload entry and each end-to-end metric of BENCHMARK.json, the
tool prints both sides' medians with quartiles, their ratio and the
number of pairs the change won (ties count for neither side). A metric
whose change median is worse than the parent's by more than its bound,
relative to the parent's median, is marked REGRESSION. The claim, when
present, is checked by the benchmark's rule: the change wins at least
nine tenths of the pairs and the medians differ by more than the
parent's interquartile range.

Exit status: 0 when every ledger is well formed, 1 when two runs of one
workload entry have different fingerprints, 2 when a ledger or
BENCHMARK.json is malformed. Regressions and an unmet claim are reported
but do not change the status: the ledger is a record, and noise on the
machine that made it is not a defect of the tree.
"""
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class Malformed(Exception):
    pass


def percentile(values, q):
    """q-quantile with linear interpolation between order statistics."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def require(cond, where, what):
    if not cond:
        raise Malformed(f"{where}: {what}")


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}") from e


def end_to_end_metrics(path):
    bench = load_json(path)
    require(isinstance(bench, dict), path, "not a JSON object")
    metrics = bench.get("end_to_end")
    require(isinstance(metrics, list) and metrics, path,
            "'end_to_end' must be a non-empty list")
    out = []
    for i, m in enumerate(metrics):
        where = f"{path}: end_to_end[{i}]"
        require(isinstance(m, dict), where, "not an object")
        require(isinstance(m.get("name"), str), where, "'name' missing")
        require(m.get("better") in ("higher", "lower"), where,
                "'better' must be 'higher' or 'lower'")
        bound = m.get("bound")
        require(isinstance(bound, (int, float)) and bound >= 0, where,
                "'bound' must be a number >= 0")
        out.append(m)
    return out


def metric_value(run, name, where):
    entry = run["metrics"].get(name)
    require(isinstance(entry, dict), where, f"metric '{name}' missing")
    value = entry.get("value")
    require(isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value), where,
            f"metric '{name}' has no finite 'value'")
    return float(value)


def check_run(run, where):
    require(isinstance(run, dict), where, "not an object")
    require(isinstance(run.get("metrics"), dict), where,
            "'metrics' must be an object")
    require(isinstance(run.get("fingerprint"), dict), where,
            "'fingerprint' must be an object")


def fingerprint_diff(a, b):
    keys = sorted(set(a) | set(b))
    return [f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in keys
            if a.get(k) != b.get(k)]


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent` (<= 0 when
    it is not worse)."""
    delta = parent - change if better == "higher" else change - parent
    if parent == 0:
        return math.inf if delta > 0 else 0.0
    return delta / abs(parent)


def wins(pairs, better):
    if better == "higher":
        return sum(1 for p, c in pairs if c > p)
    return sum(1 for p, c in pairs if c < p)


def fmt(x):
    return f"{x:.4g}"


def diff_ledger(path, metrics):
    """Prints the comparison of one ledger; returns its fingerprint
    mismatches. Raises Malformed."""
    ledger = load_json(path)
    require(isinstance(ledger, dict), path, "not a JSON object")
    entries = ledger.get("workloads")
    require(isinstance(entries, list) and entries, path,
            "'workloads' must be a non-empty list")
    claim = ledger.get("claim")
    require(claim is None or (isinstance(claim, dict)
                              and isinstance(claim.get("workload"), str)
                              and isinstance(claim.get("metric"), str)),
            path, "'claim' must be null or {workload, metric}")
    by_name = {m["name"]: m for m in metrics}
    if claim is not None:
        require(claim["metric"] in by_name, path,
                f"claim metric '{claim['metric']}' is not an end-to-end "
                "metric of BENCHMARK.json")
        require(any(isinstance(e, dict) and e.get("name") == claim["workload"]
                    for e in entries), path,
                f"claim workload '{claim['workload']}' has no entry")

    mismatches = []
    print(f"== {path}")
    for i, entry in enumerate(entries):
        where = f"{path}: workloads[{i}]"
        require(isinstance(entry, dict), where, "not an object")
        name = entry.get("name")
        require(isinstance(name, str), where, "'name' missing")
        pairs = entry.get("pairs")
        require(isinstance(pairs, list) and pairs, where,
                "'pairs' must be a non-empty list")
        runs = []
        for j, pair in enumerate(pairs):
            pwhere = f"{where}.pairs[{j}]"
            require(isinstance(pair, dict), pwhere, "not an object")
            require(pair.get("first") in SIDES, pwhere,
                    "'first' must be 'parent' or 'change'")
            for side in SIDES:
                check_run(pair.get(side), f"{pwhere}.{side}")
                runs.append((f"workloads[{i}].pairs[{j}].{side}", pair[side]))
        reference_where, reference = runs[0]
        for rwhere, run in runs[1:]:
            diff = fingerprint_diff(reference["fingerprint"],
                                    run["fingerprint"])
            if diff:
                mismatches.append(f"{path}: {rwhere} vs {reference_where}: "
                                  + "; ".join(diff))

        seed = entry.get("seed", "?")
        print(f"\n{name} (seed {seed}, {entry.get('seconds', '?')} s per run, "
              f"trace {entry.get('trace', 0)}, {len(pairs)} pairs)")
        print(f"  {'metric':<22} {'parent median [q1, q3]':<30} "
              f"{'change median [q1, q3]':<30} {'ratio':>7} {'won':>7}")
        for m in metrics:
            values = []
            for j, pair in enumerate(pairs):
                pwhere = f"{where}.pairs[{j}]"
                values.append(tuple(
                    metric_value(pair[side], m["name"], f"{pwhere}.{side}")
                    for side in SIDES))
            side_stats = []
            for k in range(2):
                v = [pv[k] for pv in values]
                side_stats.append((percentile(v, 0.5), percentile(v, 0.25),
                                   percentile(v, 0.75)))
            (pm, pq1, pq3), (cm, cq1, cq3) = side_stats
            ratio = fmt(cm / pm) if pm != 0 else "n/a"
            mark = ""
            if worse_by(pm, cm, m["better"]) > m["bound"]:
                mark = f"  REGRESSION (bound {m['bound']:.0%})"
            print(f"  {m['name']:<22} "
                  f"{fmt(pm) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':<30} "
                  f"{fmt(cm) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':<30} "
                  f"{ratio:>7} {str(wins(values, m['better'])) + '/' + str(len(values)):>7}"
                  f"{mark}")
            if (claim is not None and claim["workload"] == name
                    and claim["metric"] == m["name"]):
                won = wins(values, m["better"])
                gap = abs(cm - pm)
                iqr = pq3 - pq1
                better = (cm > pm) if m["better"] == "higher" else (cm < pm)
                met = better and won * 10 >= 9 * len(values) and gap > iqr
                print(f"  claim {name}/{m['name']} (seed {seed}): change won "
                      f"{won} of {len(values)} pairs, median gap {fmt(gap)} "
                      f"vs parent IQR {fmt(iqr)}: "
                      f"{'met' if met else 'NOT met'}")
    return mismatches


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    status = 0
    try:
        metrics = end_to_end_metrics(os.path.join(ROOT, "BENCHMARK.json"))
    except Malformed as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            mismatches = diff_ledger(path, metrics)
        except Malformed as e:
            print(f"bench_diff: {e}", file=sys.stderr)
            return 2
        for m in mismatches:
            print(f"bench_diff: fingerprints differ: {m}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

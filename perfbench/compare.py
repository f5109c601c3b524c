#!/usr/bin/env python3
"""Summarises or compares result sets of perfbench/run.py.

    python3 perfbench/compare.py BASE [NEW]

A result set is a file, or a directory of files, holding the saved stdout
of any number of runs (each run's {"context": ...} line followed by its
result line). For every workload and metric it prints the median and the
quartiles (statistics.quantiles, n=4).

With one set it also prints the spread, (q3 - q1) / median, against the
metric's BENCHMARK.json bound, and checks that the deterministic counts of
each (workload, seed) repeat exactly across runs.

With two sets it prints the change of the median in the metric's "worse"
direction and a verdict: "unresolved" when either set's spread is wider
than the bound, "REGRESSION" / "improved" when the change exceeds the
bound, "same" otherwise. The exit code is 1 when any metric regressed or
any deterministic count differs between runs of one seed.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
# Counts that depend on the order in which concurrent completions hit the
# store (every completion rewrites the whole file) repeat only approximately.
ORDER_DEPENDENT_COUNTS = {"bytes_per_completion"}


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return metrics


def read_set(path):
    """Returns [(context or {}, result)] for every result line under path."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    records = []
    for name in files:
        context = {}
        with open(name) as f:
            for line in f:
                line = line.strip()
                if line.startswith('{"context"'):
                    context = json.loads(line)["context"]
                elif line.startswith('{"correct"'):
                    records.append((context, json.loads(line)))
                    context = {}
    return records


def group(records):
    """(workload, trace) -> metric -> [values]."""
    out = defaultdict(lambda: defaultdict(list))
    for context, result in records:
        key = (context.get("workload", "?"), bool(context.get("trace", False)))
        for name, metric in result["metrics"].items():
            out[key][name].append(metric["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def check_counts(records):
    """Deterministic counts must repeat across runs of one (workload, seed)."""
    seen = {}
    bad = 0
    for context, _ in records:
        counts = context.get("counts")
        if not counts:
            continue
        key = (context.get("workload"), context.get("seed"))
        exact = {k: v for k, v in counts.items() if k not in ORDER_DEPENDENT_COUNTS}
        if key in seen and seen[key] != exact:
            print("COUNTS DIFFER for %s seed %s: %s vs %s" % (key[0], key[1], seen[key], exact))
            bad += 1
        seen.setdefault(key, exact)
    return bad


def describe(path, spec):
    records = read_set(path)
    print("%s: %d runs, %d incorrect" % (path, len(records),
                                        sum(not r["correct"] for _, r in records)))
    for (workload, trace), metrics in sorted(group(records).items()):
        print("\n%s%s" % (workload, " (traced)" if trace else ""))
        for name, values in sorted(metrics.items()):
            med, q1, q3, spread = summary(values)
            bound = spec.get(name, {}).get("bound")
            note = ""
            if bound:
                note = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "TOO WIDE")
                note = "bound %.2f  %s" % (bound, note)
            print("  %-28s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%  %s"
                  % (name, len(values), med, q1, q3, 100 * spread, note))
    return check_counts(records)


def compare(base_path, new_path, spec):
    base, new = read_set(base_path), read_set(new_path)
    bad = check_counts(base + new)
    gb, gn = group(base), group(new)
    for key in sorted(set(gb) & set(gn)):
        workload, trace = key
        print("\n%s%s" % (workload, " (traced)" if trace else ""))
        for name in sorted(set(gb[key]) & set(gn[key])):
            mb, q1b, q3b, sb = summary(gb[key][name])
            mn, q1n, q3n, sn = summary(gn[key][name])
            m = spec.get(name, {})
            sign = 1.0 if m.get("better", "lower") == "lower" else -1.0
            change = sign * (mn - mb) / abs(mb) if mb else 0.0
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif max(sb, sn) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                bad += 1
            elif change < -bound:
                verdict = "improved"
            else:
                verdict = "same"
            print("  %-28s base %-12.6g [%-10.4g %-10.4g] new %-12.6g [%-10.4g %-10.4g] "
                  "worse by %+7.2f%%  %s" % (name, mb, q1b, q3b, mn, q1n, q3n,
                                            100 * change, verdict))
    return bad


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    spec = load_spec()
    bad = describe(argv[1], spec) if len(argv) == 2 else compare(argv[1], argv[2], spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

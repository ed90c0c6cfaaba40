"""Summarise paired benchmark runs of two checkouts, parent and change.

    python tools/bench_pairs.py PARENT_OUT CHANGE_OUT [--extra FILE] [--out FILE]

PARENT_OUT and CHANGE_OUT are the `perfbench/out` directories of two
checkouts that ran `perfbench/run.py --trace 0` with the same workloads and
seeds.  Runs pair up by (workload, seed).  For each workload and each
end-to-end metric of BENCHMARK.json the summary gives both sides' medians
and quartiles (linear interpolation, as numpy.percentile), the pairs the
change wins and ties, the ratio of the medians, the parent's interquartile
range and every run.  It also lists, per pair, the seed and the side that
ran first, read from the result files' modification times (the earlier
file belongs to the side that finished first).  A gain is claimed only
where the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range.  Keys of the JSON
object in --extra (what changed, traced figures, ...) are copied into the
output first.  The summary goes to --out, or to standard output.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

_RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
_BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "BENCHMARK.json")


def _runs(out_dir: str) -> dict:
    """{(workload, seed): (mtime, result)} for the untraced result files."""
    runs = {}
    for path in glob.glob(os.path.join(out_dir, "result-*-trace0.json")):
        m = _RESULT.search(os.path.basename(path))
        if m is None:
            continue
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        runs[(m["workload"], int(m["seed"]))] = (os.path.getmtime(path), result)
    return runs


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def summarise(parent_dir: str, change_dir: str, metrics: list[dict]) -> dict:
    """The pair summary of every workload both directories ran."""
    parent, change = _runs(parent_dir), _runs(change_dir)
    keys = sorted(set(parent) & set(change))
    workloads = {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        entry = {
            "pairs": len(pairs),
            "seeds": seeds,
            "first_side": ["parent" if p[0] <= c[0] else "change" for p, c in pairs],
            "correct_runs": {"parent": sum(p[1]["correct"] for p, _ in pairs),
                             "change": sum(c[1]["correct"] for _, c in pairs)},
            "failed": {"parent": sum(p[1]["failed"] for p, _ in pairs),
                       "change": sum(c[1]["failed"] for _, c in pairs)},
            "attempted": {"parent": sum(p[1]["attempted"] for p, _ in pairs),
                          "change": sum(c[1]["attempted"] for _, c in pairs)},
            "metrics": {},
        }
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [p[1]["metrics"][name]["value"] for p, _ in pairs]
            b = [c[1]["metrics"][name]["value"] for _, c in pairs]
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            ties = sum(x == y for x, y in zip(a, b))
            qa, qb = _quartiles(a), _quartiles(b)
            iqr = qa["q3"] - qa["q1"]
            gap = (qa["median"] - qb["median"]) * (1.0 if lower else -1.0)
            entry["metrics"][name] = {
                "parent": qa, "change": qb, "change_wins": wins, "ties": ties,
                "median_ratio": round(qb["median"] / qa["median"], 4) if qa["median"] else None,
                "parent_iqr": round(iqr, 4),
                "gain_holds": wins >= 0.9 * len(pairs) and gap > iqr,
                "runs": {"parent": [round(x, 4) for x in a], "change": [round(y, 4) for y in b]},
            }
        workloads[workload] = entry
    return workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_out")
    ap.add_argument("change_out")
    ap.add_argument("--benchmark", default=_BENCHMARK,
                    help="BENCHMARK.json naming the end-to-end metrics")
    ap.add_argument("--extra", help="JSON object whose keys go into the output first")
    ap.add_argument("--out", help="write the summary here instead of standard output")
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    doc = {}
    if args.extra:
        with open(args.extra, encoding="utf-8") as fh:
            doc.update(json.load(fh))
    doc["workloads"] = summarise(args.parent_out, args.change_out, metrics)
    text = json.dumps(doc, indent=1, ensure_ascii=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spread and comparison of benchmark results files.

Usage:
    python3 perfbench/summarize.py RESULTS [CHANGE_RESULTS]
    python3 perfbench/summarize.py --baseline RESULTS > perfbench/baseline.json

RESULTS is a directory of files written by run.py, or a baseline file
(the runs' headline results, traced runs included). For each workload and
end-to-end metric of its --trace 0 runs, prints the median over runs, the
distance between the first and third quartiles as a share of the median,
and the metric's bound from BENCHMARK.json; a spread of a third of the
bound or more is flagged (setup_s is exempt). With a second source, also
prints its median and flags a change worse than the bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


BASELINE_KEYS = ("workload", "seed", "seconds", "correct", "attempted", "failed",
                 "metrics", "machine")


def read_runs(source):
    """Results of every run in a results directory or a baseline file."""
    if os.path.isdir(source):
        runs = []
        for path in sorted(glob.glob(os.path.join(source, "*.json"))):
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
        return runs
    with open(source, encoding="utf-8") as fh:
        return json.load(fh)


def load(source):
    """workload -> metric -> list of values over untraced runs."""
    out = {}
    for doc in read_runs(source):
        if "setup_s" not in doc["metrics"]:
            continue  # a traced run
        if not doc["correct"]:
            print(f"{doc['workload']} seed {doc['seed']}: correct=false", file=sys.stderr)
        for name, metric in doc["metrics"].items():
            out.setdefault(doc["workload"], {}).setdefault(name, []).append(metric["value"])
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if argv[:1] == ["--baseline"]:
        runs = [{k: doc[k] for k in BASELINE_KEYS} for doc in read_runs(argv[1])]
        json.dump(runs, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base = load(argv[0])
    change = load(argv[1]) if len(argv) > 1 else {}
    flagged = 0
    for workload, metrics in sorted(base.items()):
        for name, values in metrics.items():
            bound, med = spec[name]["bound"], statistics.median(values)
            share = spread(values) if len(values) > 1 else 0.0
            note = ""
            if name != "setup_s" and share >= bound / 3:
                note, flagged = " SPREAD", flagged + 1
            line = (f"{workload:14s} {name:14s} n={len(values):2d} median={med:<12.6g} "
                    f"iqr/median={share:.4f} bound={bound}")
            if workload in change and name in change[workload]:
                other = statistics.median(change[workload][name])
                worse = (other - med) / med * (1 if spec[name]["better"] == "lower" else -1)
                line += f" change_median={other:<12.6g} worse_by={worse:+.4f}"
                if worse > bound:
                    note, flagged = note + " WORSE", flagged + 1
            print(line + note)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare benchmark records of a parent commit (A) and a change (B).

Both files hold the records ``run.py --out FILE`` appends, one per
workload and run.  Record at least ten pairs with identical settings,
alternating which side runs first, for example::

    for i in 0 1 2 3 4 5 6 7 8 9; do
      first=parent; second=change
      if [ $((i % 2)) = 1 ]; then first=change; second=parent; fi
      for side in $first $second; do
        (cd $side && python3 benchmarks/perf/run.py --workload suite-cins \\
            --seed 1 --seconds 30 --out ../$side.jsonl)
      done
    done
    python3 benchmarks/perf/compare.py parent.jsonl change.jsonl

The i-th record of a workload in A pairs with the i-th in B.  Each
workload x metric row is marked:

* ``improved``: B wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
* ``regressed``: otherwise, B's median is worse than A's by more than
  the metric's bound in ``BENCHMARK.json`` (for a metric without a
  bound: the improvement rule with the sides swapped);
* ``unresolved``: fewer than ten pairs were run, or, short of the above,
  A's own spread is wider than the bound and not every run of B beats
  every run of A;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` in file order."""
    series: Dict[Tuple[str, str], List[float]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                for metric, entry in record["metrics"].items():
                    series.setdefault((record["workload"], metric),
                                      []).append(entry["value"])
    return series


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> str:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    q1, base, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (statistics.median(change) - base)
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    if wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * len(pairs) and -gain > iqr:
            return "regressed"
        return "unchanged"
    if -gain > bound * abs(base):
        return "regressed"
    every_run_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if base and iqr / abs(base) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="records of the parent commit (A)")
    parser.add_argument("change", help="records of the change (B)")
    args = parser.parse_args(argv)

    with open(BENCHMARK_PATH) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':<11} {'metric':<32} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B/A (base: A median)':>32} "
          f"{'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        info = metrics.get(name, {"unit": "", "better": "lower"})
        a, b = parent[key], change[key]
        qa, qb = quartiles(a), quartiles(b)
        sign = 1 if info["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ratio = (f"{qb[1] / qa[1]:.4f} (base {qa[1]:.6g} {info['unit']})"
                 if qa[1] else "n/a (base 0)")
        print(f"{workload:<11} {name:<32} {cell(qa):>30} {cell(qb):>30} "
              f"{ratio:>32} {wins:>3}/{min(len(a), len(b)):<2}  "
              f"{verdict(a, b, info['better'], info.get('bound'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark invocations, metric by metric.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is the ``--out`` of one ``run.py`` invocation; side A is the
baseline (the parent commit), side B the change.  Both sides must use
the same seeds; invocations are paired by seed.  For every workload and
end-to-end metric in ``BENCHMARK.json`` this prints each side's median
and quartiles over its invocations, the share of pairs B wins (ties
count for neither), and a verdict:

* ``unresolved`` — either side's spread (quartile distance over the
  median) exceeds the metric's bound, unless every B run beats every A
  run, which reads ``improved``;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least 9/10 of the pairs and the medians
  differ by more than A's own quartile distance;  either ``improved``
  needs at least ten invocations a side;
* ``unchanged`` — otherwise.

The virtual-time metrics are exact for a seed, so their spread across
seeds is not noise: for them the spread is taken as zero.  A workload
whose sample digest differs between the runs of one seed is flagged
"model changed": its virtual-time metrics moved because the simulated
system did.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence

from run import HOST_METRICS, load_spec, spread

WIN_SHARE = 0.9
#: Fewer pairs than this never read ``improved``.
MIN_PAIRS = 10


def pairs_won(a: Sequence[float], b: Sequence[float], better: str) -> float:
    """Share of index-aligned pairs where B is better than A."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y > x if better == "higher" else y < x))
    return wins / len(pairs) if pairs else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, exact: bool = False) -> str:
    """``exact``: each value repeats bit for bit for its seed, so the
    sides have no run-to-run spread."""
    sa, sb = spread(a), spread(b)
    base = abs(sa["median"]) or 1.0
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (sb["median"] - sa["median"]) / base
    spread_a = 0.0 if exact else sa["q3"] - sa["q1"]
    spread_b = 0.0 if exact else sb["q3"] - sb["q1"]
    noise = max(spread_a / base, spread_b / (abs(sb["median"]) or 1.0))
    enough = min(len(a), len(b)) >= MIN_PAIRS
    all_better = (min(b) > max(a) if better == "higher"
                  else max(b) < min(a))
    if noise > bound:
        return "improved" if enough and all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if (enough and pairs_won(a, b, better) >= WIN_SHARE
            and gain * base > spread_a):
        return "improved"
    return "unchanged"


def load(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def compare(side_a: List[dict], side_b: List[dict],
            spec: dict) -> List[Dict[str, object]]:
    """One row per (workload, metric) present on both sides, whose
    invocations are paired by seed."""
    side_a = sorted(side_a, key=lambda run: run["seed"])
    side_b = sorted(side_b, key=lambda run: run["seed"])
    if [run["seed"] for run in side_a] != [run["seed"] for run in side_b]:
        raise ValueError("both sides must run the same seeds")
    rows = []
    for workload in side_a[0]["workloads"]:
        if not all(workload in run["workloads"] for run in side_a + side_b):
            continue
        a_runs = [run["workloads"][workload] for run in side_a]
        b_runs = [run["workloads"][workload] for run in side_b]
        model_changed = any(x["digest"] != y["digest"]
                            for x, y in zip(a_runs, b_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["e2e"][name]["median"] for run in a_runs]
            b = [run["e2e"][name]["median"] for run in b_runs]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": spread(a), "b": spread(b),
                "won": pairs_won(a, b, metric["better"]),
                "verdict": verdict(a, b, metric["better"], metric["bound"],
                                   exact=name not in HOST_METRICS),
                "model_changed": model_changed,
            })
    return rows


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = list(argv).index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or not paths_b:
        print("compare.py: each side needs at least one file", file=sys.stderr)
        return 2
    try:
        rows = compare(load(paths_a), load(paths_b), load_spec())
    except ValueError as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2
    for row in rows:
        a, b = row["a"], row["b"]
        flag = "  [model changed]" if row["model_changed"] else ""
        print(f"{row['workload']:16s} {row['metric']:15s} "
              f"A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] n={a['n']}  "
              f"B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}  "
              f"{row['unit']}  won {row['won']:.0%}  {row['verdict']}{flag}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

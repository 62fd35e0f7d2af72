"""Compare two sets of end-to-end benchmark results.

    python benchmarks/e2e/compare.py --base A1.json A2.json ... \\
        --change B1.json B2.json ...

The files come from ``run.py --out``.  For every workload and
end-to-end metric of ``BENCHMARK.json`` the script prints each side's
median and quartiles and one verdict, judged against the metric's
bound (the share of the base median by which it may get worse):

* ``regression``: the change's median is worse by more than the bound;
* ``better``: there are at least 10 base/change pairs (files paired in
  the order given), the change wins at least 9 in 10 of them and the
  medians differ by more than the base's interquartile range;
* ``no-worse``: neither of the above;
* ``unresolved``: the run-to-run spread of either side (interquartile
  range over median) exceeds the bound, so the bound cannot be judged,
  unless every run of one side beats every run of the other.

Values that depend only on the simulation (model error, work counts,
the ``sim_digest``) must be identical between all files of the same
seed; a difference is reported as ``changed``.  The exit status is 1
on any regression or change, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from run import load_spec

#: Pairs needed before the change can count as better, and the share
#: of them it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the contract reads
    them from ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], change: Sequence[float], bound: float,
            better: str = "lower") -> str:
    """Judge one metric of one workload; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    # From here on, lower is better.
    b = [sign * value for value in base]
    c = [sign * value for value in change]
    separated = max(c) < min(b) or min(c) > max(b)
    if max(spread(base), spread(change)) > bound and not separated:
        return "unresolved"
    b1, b_median, b3 = quartiles(b)
    c_median = quartiles(c)[1]
    if b_median:
        worse_by = (c_median - b_median) / abs(b_median)
    else:
        worse_by = 0.0 if c_median == b_median else float("inf")
    if worse_by > bound:
        return "regression"
    pairs = list(zip(b, c))
    wins = sum(1 for b_value, c_value in pairs if c_value < b_value)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and b_median - c_median > b3 - b1):
        return "better"
    return "no-worse"


def load(paths: Sequence[str]) -> List[dict]:
    return [json.loads(Path(path).read_text("utf-8")) for path in paths]


def changed_values(results: Sequence[Mapping], workload: str
                   ) -> Dict[int, List[str]]:
    """seed -> names of deterministic values that differ among the
    results of that seed."""
    by_seed: Dict[int, List[Mapping]] = {}
    for result in results:
        entry = result["workloads"].get(workload)
        if entry is not None:
            by_seed.setdefault(result["seed"], []).append(
                entry["deterministic"])
    changed: Dict[int, List[str]] = {}
    for seed, values in sorted(by_seed.items()):
        names = sorted({name for value in values for name in value})
        differing = [name for name in names
                     if len({json.dumps(value.get(name)) for value in values})
                     > 1]
        if differing:
            changed[seed] = differing
    return changed


def compare(base: Sequence[Mapping], change: Sequence[Mapping],
            spec: Mapping) -> Tuple[List[str], bool]:
    """Report lines and whether the change passes."""
    lines = [f"{'workload':<16} {'metric':<19} "
             f"{'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
             f"{'delta':>8} {'bound':>6}  verdict"]
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["workloads"][workload]["metrics"][name]["value"]
                 for r in base if _has(r, workload, name)]
            c = [r["workloads"][workload]["metrics"][name]["value"]
                 for r in change if _has(r, workload, name)]
            if not b or not c:
                continue
            result = verdict(b, c, metric["bound"], metric["better"])
            ok = ok and result != "regression"
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            delta = (cm - bm) / abs(bm) if bm else 0.0
            lines.append(
                f"{workload:<16} {name:<19} "
                f"{_fmt(bm, b1, b3):>32} {_fmt(cm, c1, c3):>32} "
                f"{delta:>+8.2%} {metric['bound']:>6.0%}  {result}")
        for seed, names in changed_values([*base, *change],
                                          workload).items():
            ok = False
            lines.append(f"{workload:<16} changed at seed {seed}: "
                         f"{', '.join(names)}")
    return lines, ok


def _has(result: Mapping, workload: str, name: str) -> bool:
    return name in result["workloads"].get(workload, {}).get("metrics", {})


def _fmt(median: float, q1: float, q3: float) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare base and change benchmark results.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    lines, ok = compare(load(args.base), load(args.change), load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

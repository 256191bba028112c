"""Statistics of the benchmark, and a summary of many runs.

A timing is reported as its median, the highest of p50/p90/p99/p99.9
that has at least ten samples beyond it, and the sample count.  Run-to-
run spread is the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``).

Summarize saved runs (one result JSON per line, e.g. the last stdout
line of each run)::

    python3 perfbench/summary.py runs-tab1-cold.jsonl [more.jsonl ...]
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

#: Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ``TAIL_SAMPLES``
    of ``n`` samples beyond it, or None when even p50 has too few."""
    best = None
    for p in PERCENTILES:
        # The tolerance absorbs float error in 100 - 99.9.
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the value at or below which ``p``% of
    the samples lie)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def describe_timing(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, tail percentile (None if not reportable) and count."""
    p = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(results: List[Dict]) -> List[str]:
    lines = []
    names: Dict[str, str] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            names.setdefault(name, metric["unit"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines.append(f"runs {len(results)}  all correct "
                 f"{all(r['correct'] for r in results)}  fail_rate "
                 f"{failed}/{attempted} cells")
    for name, unit in names.items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        desc = describe_timing(values)
        tail = (f"p{desc['tail_p']:g} {desc['tail']:.4g}"
                if desc["tail_p"] is not None else "no tail (n<20)")
        iqr = f"{spread(values):.3f}" if len(values) >= 2 else "n/a"
        lines.append(f"  {name:28s} median {desc['median']:.4g} {unit:6s} "
                     f"{tail:18s} n={desc['n']:<3d} spread {iqr}")
    return lines


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 64
    for path in argv:
        with open(path) as handle:
            results = [json.loads(line) for line in handle if line.strip()]
        print(path)
        for line in summarize(results):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

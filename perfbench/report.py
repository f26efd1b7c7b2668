"""Summarise benchmark records across seeds.

    python3 perfbench/report.py [RESULTS_DIR]

Reads the records run.py writes (default perfbench/results/) and prints,
per workload and metric, the number of runs, the median, and the spread:
the distance between the first and third quartiles as a share of the
median, next to the metric's bound in BENCHMARK.json.  It also prints the
tracing overhead: untraced `frames_per_s` against traced
`trace.frames_per_s`.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    results = Path(argv[1]) if len(argv) > 1 else ROOT / "perfbench" / "results"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = defaultdict(list)
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["trace"])].append(record)

    for (workload, trace), records in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in records)
        wall = statistics.median(r["measured_s"] for r in records)
        print(f"\n{workload} trace={trace}: {len(records)} runs, {failed} failed "
              f"operations, median measured {wall:.1f} s")
        if trace:
            continue
        values = defaultdict(list)
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values[name].append(m["value"])
        for name, vals in values.items():
            print(f"  {name:22s} median {statistics.median(vals):12.6g}  "
                  f"spread {spread(vals):6.3f}  bound {bounds.get(name, float('nan')):.3f}")

    print("\ntracing overhead on frames_per_s (medians)")
    for workload in sorted({w for w, _ in runs}):
        plain = [r["result"]["metrics"]["frames_per_s"]["value"] for r in runs[(workload, 0)]]
        traced = [r["result"]["metrics"]["trace.frames_per_s"]["value"]
                  for r in runs[(workload, 1)]]
        if plain and traced:
            a, b = statistics.median(plain), statistics.median(traced)
            print(f"  {workload:12s} untraced {a:8.3f}  traced {b:8.3f}  "
                  f"overhead {a / b - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""mpdec benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) with `--seed` as the campaign's master
seed, checks every decoded output, prints each metric with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
The full record, with the machine and library versions, is also written to
perfbench/results/.
"""

import argparse
import json
import sys

import env

env.pin_threads()
env.use_checkout_source()

import harness  # noqa: E402  (after the thread pins and the path set-up)
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = env.ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("# environment " + json.dumps(record["environment"]))
    print(f"# {args.workload}: decoders {record['decoders']}, "
          f"{record['frames_per_pass']} frames x {record['passes']} passes, "
          f"seeds {record['seeds']}")
    for message in record["oracle_failures"]:
        print(f"# FAILED {message}")
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

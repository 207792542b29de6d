#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs `perfbench/run.py --workload <w> --seed <n> --seconds <s> --trace 0`
once per seed and prints, for each end-to-end metric, the median of the
runs and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound from BENCHMARK.json. A spread under a third of the
bound is steady enough to gate on.

  python3 perfbench/spread.py --workload fleet_replay --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    lo, _, hi = args.seeds.partition("-")
    values = {}
    for seed in range(int(lo), int(hi or lo) + 1):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            check=True).stdout.splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            print(f"seed {seed}: output checks failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / statistics.median(v)
        print(f"{metric['name']:14s} median {statistics.median(v):.6g} "
              f"{metric['unit']:3s} spread {share:.4f} "
              f"(bound {metric['bound']}, a third {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

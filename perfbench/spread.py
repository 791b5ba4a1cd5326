"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload stream-desk --seeds 1-10 [--seconds 10]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric of BENCHMARK.json its median, its interquartile range as a
share of the median (quartiles from ``statistics.quantiles(values, n=4)``),
and that spread as a share of the metric's bound. A spread at or below a third
of the bound is marked ``steady``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None):
    p = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list 1,4,9")
    p.add_argument("--seconds", type=float, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in seed_list(args.seeds):
        res = run_once(args.workload, seed, seconds)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, iqr = spread(values)
        share = iqr / m["bound"]
        mark = "steady" if share <= 1 / 3 else ("within bound" if share <= 1 else "TOO WIDE")
        print(f"{args.workload:<12} {m['name']:<24} median {med:<12.6g} "
              f"spread {iqr:6.3f} = {share:5.2f} of bound {m['bound']}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --workload sessions-long --seeds 0-9 --seconds 30 [--trace 1]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric its median, its quartiles and the interquartile range as a share of
the median (quartiles as ``statistics.quantiles(values, n=4)`` gives them),
plus the share of failed operations in every run.  ``--json FILE`` also
keeps every run's result and description line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", default=None)
    args = p.parse_args()
    runs = []
    for seed in seeds_of(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "wall_s": wall, "result": result, "info": info})
        print(f"seed {seed}: {wall:.1f} s, rounds {info['rounds']}, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']} {info['problems'] or ''}", flush=True)
    names = list(runs[0]["result"]["metrics"])
    print(f"{'metric':42} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:42} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f}")
    shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
    print(f"failed share per run: {shares}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

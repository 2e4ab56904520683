"""Run every workload, untraced and then traced, and print the metrics.

    python3 bench/all.py [--seed N] [--seconds S]

Each workload runs through bench/run.py, which gates every result; this
prints each metric by name with its unit, one table per workload, and
exits nonzero if any run failed or reported a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args()
    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{workload}: run failed with exit status {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"== {workload} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())

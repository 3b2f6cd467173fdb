"""Print all seven end-to-end metrics, with units, for every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 28]

Runs perfbench/run.py once per workload, each in a fresh process (peak
RSS only grows within a process), and prints one table from the records
the runs leave in perfbench/out/. Exits 1 if any operation failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gamma-scan", "three-voter", "exact", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    failed = 0
    print(f"{'workload':12s} {'metric':16s} {'value':>12s} unit")
    for name in WORKLOADS:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                       check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
        record = json.loads((HERE / "out" / f"{name}-seed{args.seed}-trace0.json").read_text())
        for metric, (value, unit) in record["metrics"].items():
            print(f"{name:12s} {metric:16s} {value:12.4f} {unit}")
        print(f"{name:12s} {'operations':16s} {record['attempted']:12d} (failed {record['failed']})")
        failed += record["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

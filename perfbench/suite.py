"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/suite.py --seed 1 --seconds 45

Each run is a fresh `run.py` process. The table lists each workload's
end-to-end metrics (untraced run) and per-layer metrics (traced run) by
name, with their units, followed by each failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workloads:
        for trace in (0, 1):
            result, detail = run(name, args.seed, args.seconds, trace)
            table = detail["per_layer"] if trace else detail["end_to_end"]
            print(f"== {name} seed={args.seed} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in table.items():
                value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {metric:36s} {value:>14s} {m['unit']}")
            for op in detail["operations"]:
                if op["failure"]:
                    f = op["failure"]
                    print(f"  FAILED {f['stage']}: {f['type']} at {f['where']}: {f['message']}")
            sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload scan --seeds 1-10 --seconds 10

Runs are sequential, one fresh process each, with --trace 0.  The spread of a metric is the
distance between its first and third quartile (statistics.quantiles,
n=4) as a share of its median, the figure BENCHMARK.json's bounds are
compared with.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    summary = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(f"{workload} seed {seed}: incorrect\n{done.stderr}")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} wall={wall:.1f}s " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            print(f"{workload:7s} {name:28s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of the einlab batch CLI, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Each job is a config file handed to ``einlab.cli.main`` in this process
(config in, CSV on disk out), one job after another, with BLAS pinned to
one thread.  ``--trace 0`` measures the end-to-end metrics, with timings
scaled to a reference host speed (see END_TO_END); ``--trace 1`` runs the
same jobs in passes that alternate untraced and traced, and reports
per-layer self times and counts (see metrics.py), scaled the same way.
Every CSV is checked against the independent reference in reference.py.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The exit status is 1 when ``correct`` is false.

``attempted`` and ``failed`` count checked outputs per job, not per run:
each distinct CSV a job wrote is checked once, and one more output per job
requires all its runs to have written the same bytes, so the counts do not
depend on how many passes fit in ``--seconds``.  A non-zero exit fails every
output of its job.  ``correct`` is false when any failure is not one of
the known defects listed in jobs.py; a known defect still counts in
``failed``.  ``--workload all`` runs every workload in a fresh process and
prints each one's metrics.
"""

import os

# Pinned before numpy loads: one BLAS thread, so a run uses one core.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from jobs import KNOWN_DEFECTS, WORKLOADS, make_jobs  # noqa: E402
from metrics import PER_LAYER, Tracer, layer_metrics, percentile  # noqa: E402
from reference import check  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

# Timings are in reference-host seconds: each measured wall time is scaled by
# REFERENCE_S / (duration of the host-speed probe run next to it).  On a
# shared 2-vCPU virtual machine (see baseline.json) wall times swing by up to
# 2x within minutes, for interpreter and numpy work alike; the probe takes
# that swing out, and on a host where it takes REFERENCE_S the figures are
# wall times.
# Raw wall times are printed alongside.
#   job_s_p50    median time of one job, from main() called to CSV written
#   work_per_s   work of the successful jobs over their summed time
#   peak_rss_mb  this process's peak resident memory, read before the checks
#   setup_s      a fresh process spawned to einlab imported, configs written
#                and one warm-up job run, timed by this process; median of
#                SETUP_RUNS fresh processes
END_TO_END = {"job_s_p50": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_RUNS = 3
REFERENCE_S = 0.03  # about the probe's duration on the baseline host
PROBE_TIMEOUT_S = 120


_PROBE_DATA = np.random.default_rng(0).random(1 << 15)


def host_probe() -> float:
    """Seconds taken by a fixed mix of the three kinds of work the jobs do:
    interpreted Python, numpy calls on one element, numpy calls on long arrays."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    y = np.ones(1)
    for _ in range(1_500):
        y = y * np.cos(y + 0.5)
    for k in range(20):
        np.cos(_PROBE_DATA * k)
    return time.perf_counter() - start


def to_reference(before: float, after: float) -> float:
    """Factor from wall seconds to reference-host seconds, for work timed
    between two host probes that took ``before`` and ``after`` seconds."""
    return 2.0 * REFERENCE_S / (before + after)


def load_cli():
    """einlab.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "einlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no einlab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import einlab.cli

    if Path(einlab.cli.__file__).resolve().parent != SRC / "einlab":
        raise SystemExit(f"perfbench: imported einlab from {einlab.cli.__file__}, not {SRC}")
    return einlab.cli


class Runner:
    """Runs a workload's jobs through the CLI and tallies their outputs."""

    def __init__(self, cli, workload: str, seed: int, work_dir: Path):
        self.cli = cli
        self.jobs = make_jobs(workload, seed)
        self.dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for job in self.jobs:
            path = work_dir / f"{job.name}.cfg"
            path.write_text(job.config_text(str(work_dir / f"{job.name}.csv")), encoding="utf-8")
            self.configs.append(path)
        self.outputs: Counter = Counter()  # (job index, CSV bytes) -> runs that wrote them
        self.failed_runs: Counter = Counter()  # job index -> runs that did not exit 0

    def run(self, i: int) -> tuple[bool, float]:
        """One CLI job: (exited 0, seconds from main() called to CSV written)."""
        start = time.perf_counter()
        try:
            code = self.cli.main([str(self.configs[i]), "--quiet"])
        except Exception:  # a crash is a failed job; the run goes on and reports it
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        if code == 0:
            csv = self.dir / f"{self.jobs[i].name}.csv"
            self.outputs[(i, csv.read_bytes())] += 1
        else:
            self.failed_runs[i] += 1
        return code == 0, seconds

    def run_pass(self) -> tuple[list[float], int]:
        """Every job once: (seconds per job, work done by the jobs that succeeded)."""
        times, work = [], 0
        for i, job in enumerate(self.jobs):
            ok, seconds = self.run(i)
            times.append(seconds)
            work += job.work if ok else 0
        return times, work

    def verdict(self) -> tuple[bool, int, int]:
        """(correct, attempted, failed) over the distinct outputs written.

        Each distinct CSV of a job is checked once.  Every job that exited 0
        at least twice adds one determinism output: all its CSVs must be
        byte-identical.  A job that ever exited non-zero fails all its outputs.
        """
        correct, attempted, failed = True, 0, 0
        successes, variants = Counter(), Counter()
        for (i, data), runs in self.outputs.items():
            successes[i] += runs
            variants[i] += 1
            job = self.jobs[i]
            for o in check(job, self.configs[i].read_text(encoding="utf-8"), data.decode("utf-8")):
                attempted += 1
                if not o.ok:
                    failed += 1
                    if (job.mode, o.label, o.note) not in KNOWN_DEFECTS:
                        correct = False
                        print(f"perfbench: {job.name} {o.label}: {o.note}", file=sys.stderr)
        for i, runs in self.failed_runs.items():
            attempted += self.jobs[i].outputs
            failed += self.jobs[i].outputs
            correct = False
            print(f"perfbench: {self.jobs[i].name} exited non-zero {runs} time(s)", file=sys.stderr)
        for i in (i for i in successes if successes[i] >= 2):
            attempted += 1
            if variants[i] > 1:
                failed += 1
                correct = False
                print(f"perfbench: {self.jobs[i].name} wrote {variants[i]} different CSVs", file=sys.stderr)
        return correct, attempted, failed


def set_up(workload: str, seed: int, work_dir: Path) -> Runner:
    """Import einlab, write the configs, run one untimed warm-up job.

    The warm-up output is checked with the rest, and gives the first job
    its second run for the determinism check.
    """
    runner = Runner(load_cli(), workload, seed, work_dir)
    runner.run(0)
    return runner


def monotonic() -> float:
    """Linux's CLOCK_MONOTONIC, one clock for every process on the host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_sample(workload: str, seed: int) -> float:
    """Wall seconds from spawning a fresh process to the end of its set-up.

    The process prints the clock when its set-up is done, then exits.
    """
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    spawned = monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - spawned


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of SETUP_RUNS fresh processes: (reference-host seconds, wall seconds)."""
    wall, scaled = [], []
    before = host_probe()
    for _ in range(SETUP_RUNS):
        wall.append(setup_sample(workload, seed))
        after = host_probe()
        scaled.append(wall[-1] * to_reference(before, after))
        before = after
    return percentile(scaled, 50), percentile(wall, 50)


def measure(runner: Runner, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics over whole passes through the job list, until ``seconds``
    elapse and at least two passes are done, so every job gets its determinism check.

    Returns the metrics and the same timings as raw wall times.
    """
    wall, scaled, work, passes = [], [], 0, 0
    before = host_probe()
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        passes += 1
        for i, job in enumerate(runner.jobs):
            ok, seconds_taken = runner.run(i)
            after = host_probe()
            wall.append(seconds_taken)
            scaled.append(seconds_taken * to_reference(before, after))
            work += job.work if ok else 0
            before = after
    metrics = {
        "job_s_p50": percentile(scaled, 50),
        "work_per_s": work / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"job_s_p50": percentile(wall, 50), "work_per_s": work / sum(wall)}


def measure_layers(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    """Per-layer metrics per pass, from pairs of passes until ``seconds`` elapse.

    Each pair is an untraced pass and then a traced one, with a host probe
    before, between and after them; each pass is scaled to reference-host
    seconds by the probes on either side of it, as in measure().
    tracing_overhead_s is the mean of traced minus untraced over the pairs.
    """
    tracer = Tracer()
    scale, overhead, passes = [], 0.0, 0
    before = host_probe()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced = sum(runner.run_pass()[0])
        middle = host_probe()
        first, traced = len(tracer.spans), 0.0
        tracer.install()
        try:
            for i, job in enumerate(runner.jobs):
                tracer.job = f"{passes}/{job.name}"
                traced += runner.run(i)[1]
        finally:
            tracer.uninstall()
        after = host_probe()
        factor = to_reference(middle, after)
        scale += [factor] * (len(tracer.spans) - first)
        overhead += traced * factor - untraced * to_reference(before, middle)
        passes += 1
        before = after
    tracer.write(spans_path)
    out = layer_metrics(tracer.spans, passes, scale)
    out["tracing_overhead_s"] = overhead / passes
    return out


def environment() -> str:
    return (
        f"python={platform.python_version()} numpy={np.__version__} "
        f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS}"
    )


def run_one(args) -> int:
    work_dir = WORK / (f"{args.workload}-probe" if args.setup_only else args.workload)
    runner = set_up(args.workload, args.seed, work_dir)
    if args.setup_only:
        print(monotonic())
        return 0
    wall = {}
    if args.trace:
        metrics = measure_layers(runner, args.seconds, WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        units = PER_LAYER
    else:
        metrics, wall = measure(runner, args.seconds)
        units = END_TO_END
    correct, attempted, failed = runner.verdict()
    if not args.trace:
        metrics["setup_s"], wall["setup_s"] = measure_setup(args.workload, args.seed)
    print(f"# workload={args.workload} seed={args.seed} trace={int(args.trace)} {environment()}")
    for name, unit in units.items():
        raw = f" (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{name} {metrics[name]:.6g} {unit}{raw}")
    print(f"failed_fraction {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each one's lines."""
    summary, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = 1
            continue
        summary[workload] = json.loads(lines[-1])
        status = status or int(not summary[workload]["correct"])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the einlab CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed: picks the inputs")
    parser.add_argument("--seconds", type=int, default=10, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the monotonic clock and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())

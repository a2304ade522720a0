"""Workload definitions: the einlab configs each workload runs, generated from a seed.

A workload is a fixed list of CLI jobs.  The workload seed picks the
environment seeds, system populations and similar inputs; the sizes (spin
counts, grids, case counts) are fixed, so every seed costs the same work
and runs can be compared across seeds.  Each job states its work over its
stated domain and the number of outputs its CSV must carry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Underflow of |z|^2 at n = 2000 (ROADMAP aim 3): the seed prints 0 where the
# log-domain reference gives about 1e-248.  The row stays in the workload and
# counts as failed; it does not make the run incorrect.
KNOWN_DEFECTS = frozenset({("sweep", "n=2000", "underflow")})

SWEEP_NS = (100, 300, 1000, 2000)
VERIFY_CASES = 100


@dataclass(frozen=True)
class Job:
    name: str
    params: tuple[tuple[str, str], ...]  # config keys in file order, without 'output'
    work: int  # spin-grid-point evaluations, or oracle amplitudes for verify
    rows: int  # data rows of the CSV
    outputs: int  # checked outputs: one per row, plus verify's max_deviation summary

    @property
    def mode(self) -> str:
        return self.param("mode")

    def param(self, key: str, default: str | None = None) -> str | None:
        return dict(self.params).get(key, default)

    def config_text(self, output: str) -> str:
        lines = [f"{k} = {v}" for k, v in self.params] + [f"output = {output}"]
        return "\n".join(lines) + "\n"


def grid_steps(t_start: float, t_end: float, dt: float) -> int:
    """Index of the last point of the grid t_start + k*dt on [t_start, t_end].

    Follows the documented TimeGrid rule, floor((t_end - t_start)/dt), with
    the same 1e-9 allowance for a grid end that falls on a point.
    """
    return int(math.floor((t_end - t_start) / dt + 1e-9))


def default_dt(g_fast: float) -> float:
    """The CLI's default spacing pi / (20 * g_max), resolving the fastest oscillation."""
    return math.pi / (20.0 * g_fast)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _trace_jobs(rng: random.Random) -> list[Job]:
    # t_max = 314.2 at dt = pi/20 gives 2001 rows
    t_max, n = 314.2, 20
    rows = grid_steps(0.0, t_max, default_dt(1.0)) + 1
    common = (("n", str(n)), ("t_max", str(t_max)))
    jobs = [
        Job(
            f"random-{i}",
            (("mode", "trace"), ("scenario", "random"), ("seed", _seed(rng)), ("g_max", "1.0"),
             ("a_sq", f"{rng.uniform(0.1, 0.9):.6f}")) + common,
            n * rows,
            rows,
            rows,
        )
        for i in range(4)
    ]
    jobs.append(
        Job(
            "balanced",
            (("mode", "trace"), ("scenario", "balanced"), ("g", "1.0"),
             ("a_sq", f"{rng.uniform(0.1, 0.9):.6f}")) + common,
            n * rows,
            rows,
            rows,
        )
    )
    return jobs


def _scan_jobs(rng: random.Random) -> list[Job]:
    n = 20
    window = (("t_start", "1"), ("t_max", "10000"), ("dt", "0.01"), ("threshold", "0.9"))
    # points in (1, 1e4] at dt = 0.01; the stated domain of every recurrence job
    scan_points = grid_steps(1.0, 10000.0, 0.01)
    seeds = sorted({rng.randrange(2**32) for _ in range(20)})
    ens_points = grid_steps(0.0, 2000.0, default_dt(1.0)) + 1
    jobs = [
        Job(
            "ensemble",
            (("mode", "ensemble"), ("n", str(n)), ("seeds", ", ".join(map(str, seeds))),
             ("g_max", "1.0"), ("t_max", "2000")),
            n * ens_points * len(seeds),
            len(seeds),
            len(seeds),
        )
    ]
    jobs += [
        Job(
            f"recurrence-random-{i}",
            (("mode", "recurrence"), ("n", str(n)), ("scenario", "random"), ("seed", _seed(rng)),
             ("g_max", "1.0")) + window,
            n * scan_points,
            1,
            1,
        )
        for i in range(4)
    ]
    # equal couplings g in [0.6, 1.2] return to |z| = 1 at t = pi/(2g), early in the scan
    jobs.append(
        Job(
            "recurrence-balanced",
            (("mode", "recurrence"), ("n", str(n)), ("scenario", "balanced"),
             ("g", f"{rng.uniform(0.6, 1.2):.6f}")) + window,
            n * scan_points,
            1,
            1,
        )
    )
    return jobs


def _sweep_jobs(rng: random.Random) -> list[Job]:
    # the seeds of a sweep are always 1..20, so the workload seed varies g_min
    points = grid_steps(50.0, 100.0, default_dt(1.0)) + 1
    return [
        Job(
            f"sweep-{i}",
            (("mode", "sweep"), ("n", ", ".join(map(str, SWEEP_NS))), ("seeds", "20"),
             ("g_max", "1.0"), ("g_min", f"{rng.uniform(0.02, 0.08):.6f}"),
             ("t_start", "50"), ("t_max", "100")),
            sum(SWEEP_NS) * 20 * points,
            len(SWEEP_NS),
            len(SWEEP_NS),
        )
        for i in range(2)
    ]


def _verify_jobs(rng: random.Random) -> list[Job]:
    n = 16
    return [
        Job(
            f"verify-{i}",
            (("mode", "verify"), ("n", str(n)), ("seed", _seed(rng)), ("g_max", "1.0")),
            VERIFY_CASES * 2 ** (n + 1),
            VERIFY_CASES,
            VERIFY_CASES + 1,
        )
        for i in range(2)
    ]


_JOB_LISTS = {"trace": _trace_jobs, "scan": _scan_jobs, "sweep": _sweep_jobs, "verify": _verify_jobs}
WORKLOADS = tuple(_JOB_LISTS)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same (workload, seed) always gives the same jobs.

    The first job is the warm-up and determinism job.
    """
    return _JOB_LISTS[workload](random.Random(f"einlab-bench/{workload}/{seed}"))

"""Grid scans and seeded Monte Carlo statistics over environments.

The qualitative story — random environments kill coherence fast and keep it
dead for a very long time, structured ones do not — is made quantitative
here: decay times, recurrence searches, per-seed time averages against the
ergodic prediction, and the scaling of the surviving coherence with the
number of spins.

Everything is a pure function of its arguments.  Seed sets are explicit and
aggregation runs in sorted-seed order, so every report is reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import (
    _above_plan,
    _hand_out,
    _tail_above,
    _window_index,
    decoherence_abs_sq,
    ergodic_prediction,
)
from .errors import InvalidRangeError, NoDecayError
from .model import EnvironmentSpec, build_environment_random

# Grid points per chunk of decay_time, and the unit of recurrence_search's
# index ranges; both scans stop at the first chunk or range with a hit.
# recurrence_search compacts its survivors after every spin, so each range
# allocates fresh arrays of shrinking size.  With 1 << 18 points per chunk
# these took the benchmark's scan peak RSS from 49.8 MB (unpruned) to
# 54.0 MB; with 1 << 15 it falls to 44.2 MB.  A range starts at _SCAN_CHUNK
# points and doubles, up to _SCAN_RANGE_MAX, after each range without a hit
# whose phase windows kept at most half a chunk's points; a range without
# windows is one chunk.
_SCAN_CHUNK = 1 << 15
_SCAN_RANGE_MAX = 1 << 20

QUANTILE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

# median sup-|z| is taken over the trailing quarter of the grid
LATE_WINDOW_FRACTION = 0.25


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start + k*dt, k = 0..floor((t_end - t_start)/dt)."""

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not (self.t_start <= self.t_end) or not math.isfinite(self.t_start):
            raise InvalidRangeError(
                f"need t_start <= t_end, got [{self.t_start}, {self.t_end}]"
            )
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise InvalidRangeError(f"dt must be positive, got {self.dt}")
        if not math.isfinite((self.t_end - self.t_start) / self.dt):
            raise InvalidRangeError(
                f"grid [{self.t_start}, {self.t_end}] with dt = {self.dt} has no finite step count"
            )

    def steps(self) -> int:
        return int(math.floor((self.t_end - self.t_start) / self.dt + 1e-9))

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.steps() + 1)

    def chunks(self, size: int):
        """Yield the grid's times in arrays of at most ``size`` points; each
        point equals its :meth:`times` value.

        Raises :class:`InvalidRangeError`, before yielding anything, if
        ``size < 1``.
        """
        if size < 1:
            raise InvalidRangeError(f"chunk size must be at least 1, got {size}")
        last = self.steps()
        k = 0
        while k <= last:
            stop = min(k + size, last + 1)
            yield self.t_start + self.dt * np.arange(k, stop)
            k = stop


@dataclass(frozen=True)
class RecurrenceReport:
    threshold: float
    found: float | None
    scanned_points: int
    # per-spin factors actually evaluated (the phase-window arithmetic that
    # drops points before any factor is not counted); at most
    # n * (points of the index ranges scanned)
    spin_points: int = 0
    # grid points the phase windows passed on to the spin-by-spin rule (every
    # point of a range without windows); at most spin_points when n >= 1.
    # A range's points past a hit count too, so this can exceed scanned_points.
    window_points: int = 0


@dataclass(frozen=True)
class SeedStatistics:
    """Per-seed summary used by :func:`ensemble_statistics`."""

    seed: int
    mean_abs_z_sq: float
    predicted_mean_abs_z_sq: float
    sup_abs_z_late: float


@dataclass(frozen=True)
class EnsembleReport:
    n: int
    seeds: tuple[int, ...]
    per_seed: tuple[SeedStatistics, ...]
    abs_z_quantiles: tuple[tuple[float, float], ...]
    median_sup_abs_z_late: float


def decay_time(env: EnvironmentSpec, threshold: float, grid: TimeGrid) -> float:
    """First grid time with |z| < threshold; resolution is the grid spacing.

    Raises :class:`NoDecayError` if |z| never drops that far on the grid —
    which is the expected outcome for eigenstate environments, where
    |z| = 1 identically.
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidRangeError(f"threshold must lie in (0, 1), got {threshold}")
    thr_sq = threshold * threshold
    for times in grid.chunks(_SCAN_CHUNK):
        vals = decoherence_abs_sq(env, times)
        hits = np.nonzero(vals < thr_sq)[0]
        if hits.size:
            return float(times[hits[0]])
    raise NoDecayError(
        f"|z| never fell below {threshold} on [{grid.t_start}, {grid.t_end}]"
    )


def recurrence_search(env: EnvironmentSpec, threshold: float, grid: TimeGrid) -> RecurrenceReport:
    """First grid time in (t_start, t_end] with |z| >= threshold, if any.

    ``t_start`` must be positive so the trivial z(0) = 1 is skipped.  Grid
    points whose |z| cannot reach the threshold are dropped, first by the
    spins' phase windows, worked out in grid-index space so that only the
    points inside them are touched, and then spin by spin by the tail rule
    of :func:`~einlab.analytic.decoherence_abs_sq_above`; the bounds and
    windows are worked out once per scan.  ``scanned_points`` still counts
    the grid points covered, ``window_points`` the points the windows passed
    on and ``spin_points`` the per-spin factors actually evaluated.
    """
    if not (0.0 < threshold <= 1.0):
        raise InvalidRangeError(f"threshold must lie in (0, 1], got {threshold}")
    if not (grid.t_start > 0.0):
        raise InvalidRangeError(f"recurrence scan needs t_start > 0, got {grid.t_start}")
    thr_sq = threshold * threshold
    spin_points = window_points = 0
    for index, vals, times, evaluated, passed in _scan_ranges(_above_plan(env, thr_sq), grid):
        spin_points += evaluated
        window_points += passed
        hits = np.nonzero(vals >= thr_sq)[0]
        if hits.size:
            # grid index k is the k-th point of (t_start, t_end]
            return RecurrenceReport(
                threshold, float(times[hits[0]]), int(index[hits[0]]), spin_points, window_points
            )
    return RecurrenceReport(threshold, None, grid.steps(), spin_points, window_points)


def _scan_ranges(plan, grid: TimeGrid):
    """Yield ``(index, values, times, spin_points, window_points)`` for each
    index range of ``grid`` from step 1 on: the grid indices of the points
    left after the phase windows and the tail rule of ``plan``, their |z|^2
    and times, the factors evaluated and the points the windows passed on.

    Only the indices inside the windows are materialised, and each time is
    ``t_start + dt * k``, the bits of ``grid.times()[k]``.  Ranges grow as
    the comment on ``_SCAN_CHUNK`` says, as long as the caller asks for more.
    """
    last = grid.steps()
    first, size = 1, _SCAN_CHUNK
    while first <= last:
        stop = min(first + size, last + 1)
        index = _window_index(plan, grid.t_start, grid.dt, first, stop)
        if index is None:
            stop = min(first + _SCAN_CHUNK, last + 1)
            index = np.arange(first, stop)
        passed = index.size
        yield *_tail_above(plan, index, grid.t_start + grid.dt * index), passed
        if 2 * passed <= _SCAN_CHUNK:
            size = min(2 * size, _SCAN_RANGE_MAX)
        first = stop


def ensemble_statistics(
    n: int,
    seeds,
    grid: TimeGrid,
    g_min: float | None = None,
    g_max: float = 1.0,
) -> EnsembleReport:
    """Seeded Monte Carlo over random environments on a common time grid.

    Per seed: the empirical grid average of |z|^2 next to its ergodic
    prediction prod_j (1 + d_j^2)/2, and the largest |z| on the trailing
    quarter of the grid.  Aggregates (pooled |z| quantiles, median late
    sup-|z|) run in sorted-seed order.

    Seeds are handed out to the CPUs in the process's affinity mask, one
    whole seed per thread at a time (build, then |z|^2 on one thread); with
    fewer seeds than CPUs they run in turn on the calling thread, and each
    kernel call splits its grid instead.  Either way the report has the same
    bits.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise InvalidRangeError("need at least one seed")
    seeds = tuple(sorted(seeds))
    times = grid.times()
    late_from = grid.t_end - LATE_WINDOW_FRACTION * (grid.t_end - grid.t_start)
    # the last grid point can lie before late_from; the window always holds it
    late = times >= min(late_from, times[-1])

    pooled = np.empty((len(seeds), times.size))

    def one_seed(_worker: int, i: int) -> SeedStatistics:
        env = build_environment_random(n, seeds[i], g_min, g_max)
        abs_sq = decoherence_abs_sq(env, times)
        abs_z = np.sqrt(abs_sq, out=pooled[i])
        return SeedStatistics(
            seed=seeds[i],
            mean_abs_z_sq=float(np.mean(abs_sq)),
            predicted_mean_abs_z_sq=ergodic_prediction(env),
            sup_abs_z_late=float(np.max(abs_z[late])),
        )

    per_seed = _hand_out(one_seed, len(seeds), analytic._WORKERS)
    quantiles = tuple(
        (q, float(v)) for q, v in zip(QUANTILE_LEVELS, np.quantile(pooled, QUANTILE_LEVELS))
    )
    median_late = float(np.median([s.sup_abs_z_late for s in per_seed]))
    return EnsembleReport(
        n=n,
        seeds=seeds,
        per_seed=tuple(per_seed),
        abs_z_quantiles=quantiles,
        median_sup_abs_z_late=median_late,
    )


def scaling_sweep(
    ns,
    seeds_per_n: int,
    late_window: TimeGrid,
    g_min: float | None = None,
    g_max: float = 1.0,
) -> list[tuple[int, float]]:
    """Median over seeds of the largest |z| on a late-time window, per n.

    Seeds are 1..seeds_per_n for every n, so rerunning the sweep with the
    same arguments reproduces the same table.  The ``(n, seed)`` pairs are
    handed out to the CPUs in the process's affinity mask, one whole pair per
    thread at a time (build, then |z|^2 on one thread); the table's bits do
    not depend on how many CPUs there are.
    """
    ns = tuple(int(n) for n in ns)
    if not ns:
        raise InvalidRangeError("need at least one spin count")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidRangeError(f"spin counts must be strictly ascending, got {ns}")
    if ns[0] < 0:
        raise InvalidRangeError(f"spin counts must be non-negative, got {ns}")
    if seeds_per_n < 1:
        raise InvalidRangeError(f"need at least one seed per n, got {seeds_per_n}")
    times = late_window.times()
    pairs = [(n, seed) for n in ns for seed in range(1, seeds_per_n + 1)]

    def late_sup(_worker: int, i: int) -> float:
        env = build_environment_random(*pairs[i], g_min, g_max)
        return float(np.max(decoherence_abs_sq(env, times)))

    sups = _hand_out(late_sup, len(pairs), analytic._WORKERS)
    return [
        (n, float(np.median(np.sqrt(sups[k * seeds_per_n : (k + 1) * seeds_per_n]))))
        for k, n in enumerate(ns)
    ]

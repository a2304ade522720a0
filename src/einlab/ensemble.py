"""Grid scans and seeded Monte Carlo statistics over environments.

The qualitative story — random environments kill coherence fast and keep it
dead for a very long time, structured ones do not — is made quantitative
here: decay times, recurrence searches, per-seed time averages against the
ergodic prediction, and the scaling of the surviving coherence with the
number of spins.

Recurrence searches skip the grid points whose |z| cannot reach the
threshold, by phase windows and per-spin tail bounds; which points a scan
may skip is decided in this module alone.

Everything is a pure function of its arguments.  Seed sets are explicit and
aggregation runs in sorted-seed order, so every report is reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytic
from .analytic import _abs_sq_factors, _hand_out, decoherence_abs_sq, ergodic_prediction
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
# windows is one chunk.  The first range is evaluated in two pieces, the
# first _SCAN_FIRST points its windows pass and then the rest, so a hit
# among those (as in balanced baths, whose wide windows pass most points)
# is found without evaluating the whole range; a scan whose windows pass
# fewer points pays nothing for it.
_SCAN_FIRST = 1 << 10
_SCAN_CHUNK = 1 << 15
_SCAN_RANGE_MAX = 1 << 20

QUANTILE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

# median sup-|z| is taken over the trailing quarter of the grid
LATE_WINDOW_FRACTION = 0.25

# Most seeds one sweep or config may name: a count K stands for seeds 1..K,
# and past this a count would only fail for want of memory or time.
MAX_SEEDS = 10**6


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
        # Points must not repeat; 4 ulps of M = max(|t_start|, |t_end|) suffice.
        # Let u = ulp(M), B = 2^53 u > M, D = t_end - t_start <= 2B - 2u and
        # K = steps() >= 1.  Point k is fl(t_start + fl(k dt)); rounding a real
        # below 2^j B errs by at most 2^(j-1) u, and two neighbours whose errors
        # against t_start + k dt sum to less than dt stay in order.  If dt > 8u,
        # K dt <= 1.01 fl(D) < 4B, so every product and sum is below 4B and a
        # point errs by at most 4u < dt / 2.  If dt <= 8u, steps() rounds
        # fl(D) / dt <= (D + u) / dt up by at most a relative 2^-53 (its + 1e-9
        # adds under 5e-9 dt), so K dt <= D + 3u and only t_K passes t_end:
        # every product is below 2B + u (error <= u), every sum but the last
        # below B (error <= u / 2) and the last below 2B (error <= u).  Two
        # neighbours err by at most 3.5u < dt together.
        limit = 4.0 * math.ulp(max(abs(self.t_start), abs(self.t_end)))
        if self.dt < limit:
            raise InvalidRangeError(
                f"grid [{self.t_start}, {self.t_end}] with dt = {self.dt} repeats points; "
                f"dt must be at least {limit}"
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
    spins' phase windows (:func:`_window_index`), worked out in grid-index
    space so that only the points inside them are touched, and then spin by
    spin by the tail rule (:func:`_tail_above`); the bounds and windows are
    worked out once per scan (:func:`_above_plan`).  Every value kept has
    the bits of :func:`~einlab.analytic.decoherence_abs_sq`, so the report
    is that of a plain scan.  ``scanned_points`` still counts
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
    index range of ``grid`` from step 1 on, the first in two pieces (see
    ``_SCAN_FIRST``): the grid indices of the points left after the phase
    windows and the tail rule of ``plan``, their |z|^2 and times, the factors
    evaluated and the points the windows passed on.

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
        pieces = (index,)
        if first == 1 and passed > _SCAN_FIRST:
            pieces = (index[:_SCAN_FIRST], index[_SCAN_FIRST:])
        for piece in pieces:
            yield *_tail_above(plan, piece, grid.t_start + grid.dt * piece), piece.size
        if 2 * passed <= _SCAN_CHUNK:
            size = min(2 * size, _SCAN_RANGE_MAX)
        first = stop


# Per-spin slack on the tail bounds of _above_plan, which _tail_above and the
# phase windows use; it rounds to 1 + 2 ulp(1) = 1 + 4u with u = 2^-53.
_TAIL_SLACK = 1.0 + 4e-16

# Phase windows of grid scans (see _above_plan and _window_index): the margin,
# both in cos units and in radians; the largest |4 g t| and the smallest
# swing (1 - d^2)/2 for which a spin's window is used; how many of the
# narrowest windows one index range intersects; and the largest grid index
# for which window edges are worked out.
_WINDOW_MARGIN = 1e-7
_WINDOW_PHASE_MAX = 2.0**20
_WINDOW_SWING_MIN = 0.01
_WINDOW_SPINS = 3
_WINDOW_INDEX_MAX = 2**51


class _AbovePlan(NamedTuple):
    """What a pruned |z|^2 evaluation derives from the bath and the floor alone."""

    spins: list[tuple[float, float, float]]  # (g4, mean, swing) as Python floats
    tail: list[float]  # tail[j] bounds the product of the factors of spins j..n-1
    floor_sq: float  # 0.0 for a floor that is not a normal number
    window_g4: np.ndarray  # |4 g| of the spins with a phase window, narrowest first
    window_width: np.ndarray  # their half-widths in radians


def _above_plan(env: EnvironmentSpec, floor_sq: float) -> _AbovePlan:
    """The tail bounds and phase windows of ``env`` for ``floor_sq``."""
    g4, mean, swing = _abs_sq_factors(env)
    # Python floats with the bits of decoherence_abs_sq's factor arrays
    spins = list(zip(g4.tolist(), mean.tolist(), swing.tolist()))
    # Why pruning is safe.  A computed factor mean + swing*cos lies in
    # [0, top_j], top_j = mean_j + |swing_j| as computed here: |cos| <= 1,
    # mean_j >= |swing_j| and rounding is monotone.  top_j <= 1 when
    # |d_j| <= 1, since fl(1 + d^2) + fl(1 - d^2) is within 1.5u of 2 and
    # rounds to at most 2.  validate() accepts a spin whose norm is up to
    # NORM_TOL above 1; then d_j^2 > 1, swing_j < 0 and top_j is about d_j^2.
    # While products stay normal, each rounds up by at most a factor
    # 1/(1 - u), and each bound step below grows by at least
    # (1 + 4u)(1 - u)^2 >= 1/(1 - u), so a point with partial product P after
    # spin j ends at most at P * tail[j + 1].  A product that turns subnormal
    # is below tiny.  A later factor of at most 1 never raises it (monotone
    # rounding), and a factor above 1, at most top_j, raises a bound b >= 1
    # on product / tiny to at most b * top_j * (1 + u): a normal product
    # rounds up by at most 1 + u, a subnormal one to at most tiny.  climb
    # multiplies the top_j > 1 with a slack of at least 1 + u each, so such
    # a product ends below tiny * climb, and a floor_sq below that prunes
    # nothing; climb is 1 unless some |d_j| > 1.  Every tail is >= 1
    # (top_j >= 1 - u), so a point whose partial products stay exactly 1, as
    # under eigenstate spins, survives floor_sq = 1.
    tops = [mean + abs(swing) for _, mean, swing in spins]
    tail = [1.0]
    for top in reversed(tops):
        tail.append(tail[-1] * top * _TAIL_SLACK)
    tail.reverse()
    climb = 1.0
    for top in tops:
        if top > 1.0:
            climb *= top * _TAIL_SLACK
    none = np.empty(0)
    # tiny * climb is exact: tiny is a power of two
    if not floor_sq >= np.finfo(float).tiny * climb:
        return _AbovePlan(spins, tail, 0.0, none, none)
    # Why the phase windows are safe.  The same argument bounds the final
    # product by f_k * B_k for every spin k, with B_k = head[k] * tail[k + 1]
    # * _TAIL_SLACK >= (1 + u)^n prod_{j != k} top_j (the last slack pays for
    # joining the two partial bounds).  So a point can reach floor_sq only if
    # f_k >= F = floor_sq / B_k, and as f_k = fl(mean + fl(swing * c)) with
    # c the computed cos, only if c >= (F / (1 + u) - mean) / swing - u.  For
    # swing >= 0.01 the computed q below is within 1e-13 of that, and numpy's
    # cos within 1e-15 of the true cos of the computed angle fl(4 g t); the
    # cos margin covers both.  So the angle lies within acos(q - margin) of
    # a multiple of 2 pi.  The radian margin covers the rest.  A grid scan
    # (_window_index) evaluates t = T_k = fl(t0 + fl(dt * k)) with t0 >= 0
    # and dt > 0: fl(4 g t) is within 2^-33 of 4 g t for |4 g t| <= 2^20,
    # T_k within 2u T_k of t0 + dt k (2^-32 rad more), acos within an ulp,
    # and the edge time e = fl(fl(fl(2 pi m) -+ w) / |4 g|) within about
    # 1e-9 rad of (2 pi m -+ w) / |4 g|.  So every index k that can reach
    # floor_sq lies between the exact x = (e - t0) / dt of window m's two
    # edges.  The +-1 index padding covers computing x: fl(e - t0) and the
    # division each err by at most u |x|, at most 1/4 for |x| <= 2^51, so
    # ceil(x) - 1 and floor(x) + 1 still bound k.  An edge further out
    # rounds no nearer (rounding is monotone), and indices past 2^51 get no
    # window.  (Those index errors are also below 2^-31 rad of phase, so the
    # radian margin alone would cover them too.)  Spins
    # whose window spans the whole turn, or whose swing or coupling is too
    # small for these bounds, get no window; a spin with |d_j| > 1 has a
    # negative swing and so never gets one.
    head = [1.0]
    for top in tops:
        head.append(head[-1] * top * _TAIL_SLACK)
    fit = (swing >= _WINDOW_SWING_MIN) & (np.abs(g4) >= np.finfo(float).tiny)
    bound = np.array([head[k] * tail[k + 1] for k in range(env.n)])[fit] * _TAIL_SLACK
    q = (floor_sq / bound - mean[fit]) / swing[fit]
    width = np.arccos(np.clip(q - _WINDOW_MARGIN, -1.0, 1.0)) + _WINDOW_MARGIN
    usable = width < np.pi
    order = np.argsort(width[usable], kind="stable")
    return _AbovePlan(
        spins, tail, floor_sq, np.abs(g4[fit][usable])[order], width[usable][order]
    )


def _window_index(
    plan: _AbovePlan, t0: float, dt: float, first: int, stop: int
) -> np.ndarray | None:
    """Ascending indices k in [first, stop) of the grid t0 + k dt (t0 >= 0,
    dt > 0) that lie in the phase windows of up to ``_WINDOW_SPINS`` spins
    of ``plan``, or None where no window applies to the range.

    Window m of a spin with |4 g| = a and half-width w holds the indices from
    ceil(((2 pi m - w)/a - t0)/dt) - 1 to floor(((2 pi m + w)/a - t0)/dt) + 1
    (see _above_plan for why this padding is enough).  Each spin's runs are
    made disjoint, and one sorted sweep over all their edges keeps the
    indices that every spin's runs cover, so the cost is O(runs + indices
    kept), not O(stop - first).
    """
    if not (plan.window_g4.size and stop <= _WINDOW_INDEX_MAX):
        return None
    t_lo, t_hi = t0 + dt * first, t0 + dt * (stop - 1)
    in_range = plan.window_g4 * t_hi <= _WINDOW_PHASE_MAX
    turn = 2.0 * math.pi
    opens, closes = [], []
    for a, w in zip(
        plan.window_g4[in_range][:_WINDOW_SPINS].tolist(),
        plan.window_width[in_range][:_WINDOW_SPINS].tolist(),
    ):
        centres = turn * np.arange(
            math.floor((a * t_lo - w) / turn), math.ceil((a * t_hi + w) / turn) + 1
        )
        if centres.size > stop - first:
            continue  # more windows than points: the spin would drop little
        lo = np.clip(np.ceil(((centres - w) / a - t0) / dt) - 1.0, first, stop).astype(np.int64)
        hi = np.clip(np.floor(((centres + w) / a - t0) / dt) + 2.0, first, stop).astype(np.int64)
        # run m is lo[m]..hi[m] - 1; start each run after the one before so
        # that no index is in two runs of one spin
        lo[1:] = np.maximum(lo[1:], hi[:-1])
        run = lo < hi
        opens.append(lo[run])
        closes.append(hi[run])
    if not opens:
        return None
    # a run opening at k is the edge 2 k + 1 and one closing at k is 2 k, so
    # the sort puts a close before an open at the same index; the depth after
    # an edge is the number of spins whose runs cover the indices up to the
    # next edge
    edges = np.concatenate([2 * np.concatenate(opens) + 1, 2 * np.concatenate(closes)])
    edges.sort()
    depth = np.cumsum(2 * (edges & 1) - 1)
    covered = np.nonzero(depth == len(opens))[0]  # never the last edge, a close
    lo, hi = edges[covered] >> 1, edges[covered + 1] >> 1
    lengths = hi - lo
    index = np.arange(lengths.sum())  # added to in place: one temporary fewer
    index += np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    return index


def _tail_above(
    plan: _AbovePlan, index: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """|z|^2 on the 1-D ``times``, labelled by ``index``, dropping points that
    cannot reach ``plan.floor_sq``: ``(index, values, times, spin_points)`` of
    the points kept, in the order given, and the number of per-spin factors
    evaluated.

    Every point with ``decoherence_abs_sq >= floor_sq`` is kept, and every
    kept value equals :func:`~einlab.analytic.decoherence_abs_sq` to the bit:
    spins are multiplied in the same order with the same expressions, each
    factor only onto the points still kept.  A point is dropped once its
    partial product times the bound on the spins still to come, each at most
    ``(1 + d_j^2)/2 + |1 - d_j^2|/2``, is below ``floor_sq``.  No finite point
    is dropped when ``floor_sq`` is below the smallest normal number, scaled
    up by the factors above 1 that spins with ``|d_j| > 1`` allow.  Times may
    come in any order and need not be finite; :func:`_window_index`, which
    needs a uniform grid, drops points before this in grid scans.
    """
    values = np.ones(times.shape)
    spin_points = 0
    for j, (g4, mean, swing) in enumerate(plan.spins):
        if not index.size:
            break
        spin_points += index.size
        values = values * (mean + swing * np.cos(g4 * times))
        keep = np.nonzero(values * plan.tail[j + 1] >= plan.floor_sq)[0]
        index, values, times = index[keep], values[keep], times[keep]
    return index, values, times, spin_points


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
    sup-|z|) run in sorted-seed order.  The seeds must be distinct: a
    repeat would weight one environment twice, and raises
    :class:`InvalidRangeError`.

    Seeds are handed out to the CPUs in the process's affinity mask, one
    whole seed per thread at a time (build, then |z|^2 on one thread), so a
    one-seed ensemble runs on one CPU.  A seed's worker then sorts its row of
    |z|, which leaves the pooled quantiles as they are and makes them cheaper
    on the calling thread.  The report has the same bits however many CPUs
    there are.
    """
    seeds = tuple(sorted(int(s) for s in seeds))
    if not seeds:
        raise InvalidRangeError("need at least one seed")
    repeats = [s for s, after in zip(seeds, seeds[1:]) if s == after]
    if repeats:
        raise InvalidRangeError(f"seeds must be distinct, got seed {repeats[0]} more than once")
    times = grid.times()
    late_from = grid.t_end - LATE_WINDOW_FRACTION * (grid.t_end - grid.t_start)
    # the last grid point can lie before late_from; the window always holds it
    late = times >= min(late_from, times[-1])

    pooled = np.empty((len(seeds), times.size))

    def one_seed(i: int) -> SeedStatistics:
        env = build_environment_random(n, seeds[i], g_min, g_max)
        abs_sq = decoherence_abs_sq(env, times)
        abs_z = np.sqrt(abs_sq, out=pooled[i])
        statistics = SeedStatistics(
            seed=seeds[i],
            mean_abs_z_sq=float(np.mean(abs_sq)),
            predicted_mean_abs_z_sq=ergodic_prediction(env),
            sup_abs_z_late=float(np.max(abs_z[late])),
        )
        abs_z.sort()  # in pooled[i]: the quantiles depend only on the values
        return statistics

    per_seed = _hand_out(one_seed, len(seeds))
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
    same arguments reproduces the same table.  The seeds are handed out to
    the CPUs in the process's affinity mask, one whole seed per thread at a
    time: its ``len(ns)`` baths are built, and one |z|^2 kernel call
    evaluates all of them, computing each ``cos(4 g_j t)`` row once for
    every n that holds spin j.  That is sound because the couplings of
    ``(n, seed)`` are the first n couplings of ``(N, seed)`` for N > n
    (:func:`~einlab.model.build_environment_random`); the item checks it
    and raises ``RuntimeError`` if they are not.  The table's bits do not
    depend on how many CPUs there are, and equal those of the per-pair
    ``max(decoherence_abs_sq(env, times))``.
    """
    ns = tuple(int(n) for n in ns)
    if not ns:
        raise InvalidRangeError("need at least one spin count")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidRangeError(f"spin counts must be strictly ascending, got {ns}")
    if ns[0] < 0:
        raise InvalidRangeError(f"spin counts must be non-negative, got {ns}")
    if not 1 <= seeds_per_n <= MAX_SEEDS:
        raise InvalidRangeError(f"need 1 to {MAX_SEEDS} seeds per n, got {seeds_per_n}")
    times = late_window.times()

    def late_sups(i: int) -> list[float]:
        envs = [build_environment_random(n, i + 1, g_min, g_max) for n in ns]
        couplings = envs[-1].couplings()
        for env in envs[:-1]:
            if not np.array_equal(env.couplings(), couplings[: env.n]):
                raise RuntimeError(f"seed {i + 1}: the couplings of n={env.n} are not a prefix")
        shorter = [_abs_sq_factors(env)[1:] for env in envs[:-1]]
        products = analytic._abs_sq_blocks(times, *_abs_sq_factors(envs[-1]), shorter)
        return [float(np.max(product)) for product in products]

    per_seed = _hand_out(late_sups, seeds_per_n)
    return [(n, float(np.median(np.sqrt([sups[k] for sups in per_seed])))) for k, n in enumerate(ns)]

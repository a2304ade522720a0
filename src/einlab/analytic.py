"""Closed-form engine for the dephasing dynamics.

Because the interaction is diagonal in the coupled bases, every environment
spin contributes an independent factor and all quantities of interest cost
O(n):

* each spin's pair of amplitudes only rotates in phase, in opposite senses
  for the two system branches;
* the system's reduced 2x2 density matrix keeps its populations fixed and
  multiplies its off-diagonal entry by the decoherence factor

      z(t) = prod_j [cos(2 g_j t) + i d_j sin(2 g_j t)],
      d_j  = |alpha_j|^2 - |beta_j|^2,

  which is exactly the overlap of the two environment branch states.

|z| = 1 means full coherence, |z| ~ 0 means the interference terms are
(currently) invisible in the system alone.  Everything here is a pure
function returning plain values: z(t) is a ``complex``, a branch state an
(n, 2) complex array, a reduced state a 2x2 complex array.  The
brute-force check lives in :mod:`einlab.oracle`.

Work is split across the CPUs in the process's affinity mask in two ways,
and ``taskset -c 0`` keeps both on one thread:

* by item (:func:`_hand_out`): sweeps hand out their ``(n, seed)`` pairs,
  ensembles their seeds and the CLI's verify mode its cases, one whole item
  per thread at a time;
* by slice (:func:`_fan_out`): one call of the |z|^2 kernel
  :func:`decoherence_abs_sq` on a large grid cuts the grid into one slice
  per CPU, as in decay-time scans and one-seed ensembles.

Nothing run by :func:`_fan_out` splits again: inside a hand-out every
kernel call stays on its own thread.  No result's bits depend on the number
of CPUs.  The thread pool is built at import and starts its threads on the
first split call; a forked child builds its own.  Work handed to the pool
runs under the caller's ``np.errstate``.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import NamedTuple

import numpy as np

from .errors import InvalidRangeError
from .model import EnvironmentSpec, SystemAmplitudes


def decoherence_series(env: EnvironmentSpec, times: np.ndarray) -> np.ndarray:
    """z evaluated on an array of times; complex array of the same shape."""
    times = np.asarray(times, dtype=float)
    z = np.ones(times.shape, dtype=complex)
    for g, d in zip(env.couplings(), env.imbalances()):
        angle = (2.0 * g) * times
        # np.multiply keeps z the left operand: ``z * (...)`` lets numpy elide
        # the temporary as ``factor *= z`` from 256 KiB on, which rounds
        # differently with FMA, and the bits of z would depend on len(times)
        z = np.multiply(z, np.cos(angle) + (1j * d) * np.sin(angle))
    return z


# Element budget of one decoherence_abs_sq block: (k + 1) rows of m points
# with k = max(1, _ABS_SQ_BLOCK // m), about 256 KiB of float64.  A call is
# split across threads only when every slice gets at least this many
# spin-points, so short calls never pay for the hand-off.
_ABS_SQ_BLOCK = 1 << 15

# Threads a split call may use: the CPUs this process may run on (``taskset``
# limits it).  decoherence_abs_sq cuts large grids into this many slices,
# sweeps and ensembles hand their items to this many workers, and verify to
# min(2, _WORKERS).
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1

# Runs the calls a split hands off (see _fan_out).  Built at import, it starts
# no thread until the first submit.  A call run by _fan_out must not split
# again: with every pool thread busy, it would wait on its own pool.
# _IN_FAN_OUT marks those calls, and decoherence_abs_sq and _hand_out run
# serially under the mark.
_pool: ThreadPoolExecutor
_IN_FAN_OUT = contextvars.ContextVar("einlab_in_fan_out", default=False)


def _new_pool() -> None:
    # A forked child inherits the executor object but none of its threads, so
    # work submitted to it would never run; the child builds a pool of its own.
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="einlab-pool")


_new_pool()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_new_pool)


def _fan_out(fn, calls) -> list:
    """``[fn(*args) for args in calls]``, the last call on the calling thread
    and the others on the pool.

    Each call runs in a copy of the caller's context, so the caller's
    ``np.errstate`` (a context variable since numpy 2) holds there too, with
    ``_IN_FAN_OUT`` set.  Returns once every call has finished; an exception
    is raised only then, the caller's own first, else the first pool call's
    in order.
    """
    *handed, own = calls
    futures = [_pool.submit(contextvars.copy_context().run, _marked, fn, *args) for args in handed]
    try:
        last = contextvars.copy_context().run(_marked, fn, *own)
    finally:
        wait(futures)
    return [future.result() for future in futures] + [last]


def _marked(fn, *args):
    # runs in a context copy of its own, so the mark never reaches the caller
    _IN_FAN_OUT.set(True)
    return fn(*args)


def _hand_out(fn, count: int, workers: int) -> list:
    """``[fn(worker, i) for i in range(count)]``, the items handed out one at a
    time to ``workers`` workers: the calling thread and ``workers - 1`` pool
    calls of :func:`_fan_out`, numbered 0 to ``workers - 1``.

    A worker takes the next item when it has finished its last one, so a
    worker on a busy CPU just takes fewer.  Once an item raises, no further
    item is handed out; the error is raised after every worker has finished
    its current item, as :func:`_fan_out` raises it.  With fewer than two
    workers, fewer items than workers, or inside a call run by
    :func:`_fan_out`, worker 0 runs the items in order on the calling thread,
    where a kernel call may still split its grid.
    """
    if workers < 2 or count < workers or _IN_FAN_OUT.get():
        return [fn(0, i) for i in range(count)]
    results = [None] * count
    items = iter(range(count))
    lock = threading.Lock()
    failed = threading.Event()

    def take(worker: int) -> None:
        try:
            while not failed.is_set():
                with lock:
                    i = next(items, None)
                if i is None:
                    return
                results[i] = fn(worker, i)
        except BaseException:
            failed.set()  # the other workers stop after their current item
            raise

    _fan_out(take, [(worker,) for worker in range(workers)])
    return results


def _abs_sq_factors(env: EnvironmentSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-spin terms of |z|^2 = prod_j (mean_j + swing_j * cos(g4_j * t)):
    ``(g4, mean, swing)`` = (4 g, (1 + d^2)/2, (1 - d^2)/2) as float arrays."""
    d = env.imbalances()
    d_sq = d * d
    return 4.0 * env.couplings(), 0.5 * (1.0 + d_sq), 0.5 * (1.0 - d_sq)


def decoherence_abs_sq(env: EnvironmentSpec, times: np.ndarray) -> np.ndarray:
    """|z|^2 on a time grid, via the all-real product

        |z|^2 = prod_j [(1 + d_j^2)/2 + (1 - d_j^2)/2 * cos(4 g_j t)].

    Half the trigonometric work of :func:`decoherence_series`; used by the
    grid scans, ensembles and sweeps.

    Large calls use every CPU in the process's affinity mask (``taskset -c 0``
    keeps them on one): the flattened grid is cut into one contiguous slice
    per CPU, one slice runs on the calling thread and the others on the
    module's thread pool (:func:`_fan_out`, under the caller's
    ``np.errstate``), each through the spin-blocked loop of
    :func:`_abs_sq_blocks`, and the slices' results are joined in order.
    A call is split only when each slice gets at least ``_ABS_SQ_BLOCK``
    spin-points, and never inside a call run by :func:`_fan_out`, such as a
    sweep's or an ensemble's item (:func:`_hand_out`).  A point's value
    depends only on its own time and the fixed spin order, so the result has
    the same bits however many CPUs there are and wherever the cuts fall.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    g4, mean, swing = _abs_sq_factors(env)
    slices = _WORKERS
    # every slice holds at least flat.size // slices points
    if slices < 2 or env.n * (flat.size // slices) < _ABS_SQ_BLOCK or _IN_FAN_OUT.get():
        return _abs_sq_blocks(flat, g4, mean, swing).reshape(times.shape)
    bounds = [flat.size * i // slices for i in range(slices + 1)]
    calls = [(flat[a:b], g4, mean, swing) for a, b in zip(bounds[:-1], bounds[1:])]
    return np.concatenate(_fan_out(_abs_sq_blocks, calls)).reshape(times.shape)


def _abs_sq_blocks(flat, g4, mean, swing) -> np.ndarray:
    """prod_j (mean_j + swing_j * cos(g4_j * t)) at each point of the 1-D ``flat``.

    Spins are taken in blocks of k = max(1, _ABS_SQ_BLOCK // m) for m grid points.
    A block is a (k + 1, m) buffer: row 0 holds the product over the spins
    before the block, rows 1..k the block's factors, and one
    ``np.multiply.reduce`` along axis 0 folds them in.  That reduction
    multiplies the rows one after another in index order, and each factor
    is formed by the same IEEE operations as ``mean + swing * cos(4 g t)``
    for one spin, so every value equals the spin-by-spin product
    ``((1 * f_0) * f_1) * ...`` to the bit, whatever the block size.
    """
    n = g4.size
    k = max(1, min(n, _ABS_SQ_BLOCK // max(flat.size, 1)))
    buf = np.empty((k + 1, flat.size))
    out = np.ones(flat.size)
    for start in range(0, n, k):
        stop = min(start + k, n)
        block = buf[: stop - start + 1]
        block[0] = out
        rows = block[1:]
        np.multiply(g4[start:stop, None], flat, out=rows)
        np.cos(rows, out=rows)
        rows *= swing[start:stop, None]
        rows += mean[start:stop, None]
        out = np.multiply.reduce(block, axis=0)
    return out


# Per-spin slack on the bounds of decoherence_abs_sq_above; it rounds to
# 1 + 2 ulp(1) = 1 + 4u with u = 2^-53.
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
    """The tail rule of decoherence_abs_sq_above on the 1-D ``times``, labelled
    by ``index``: ``(index, values, times, spin_points)`` of the points kept."""
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


def decoherence_abs_sq_above(
    env: EnvironmentSpec, times: np.ndarray, floor_sq: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """|z|^2 on a 1-D array of times, dropping points that cannot reach ``floor_sq``.

    Returns ``(index, values, spin_points)``: the ascending positions in
    ``times`` of the points kept, their |z|^2, and the number of per-spin
    factors evaluated.  Every point with ``decoherence_abs_sq >= floor_sq``
    is kept, and every kept value equals :func:`decoherence_abs_sq` to the
    bit: spins are multiplied in the same order with the same expressions,
    each factor only onto the points still kept.

    The tail rule drops points: the spins are evaluated in order, and a
    point is dropped once its partial product times a bound on the spins
    still to come, each at most ``(1 + d_j^2)/2 + |1 - d_j^2|/2``, is below
    ``floor_sq``.  It drops no finite point when ``floor_sq`` is below the
    smallest normal number, scaled up by the factors above 1 that spins with
    ``|d_j| > 1`` allow.  Any array of times is taken, in any order and with
    non-finite entries.  Grid scans (:func:`~einlab.ensemble.recurrence_search`)
    first drop points by phase windows as well, which need a uniform grid.

    Raises ValueError if ``times`` is not 1-D.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    index, values, _, spin_points = _tail_above(
        _above_plan(env, floor_sq), np.arange(times.size), times
    )
    return index, values, spin_points


def decoherence_factor(env: EnvironmentSpec, t: float) -> complex:
    """The decoherence factor z(t).  z(0) = 1 exactly; |z| never exceeds 1."""
    return complex(decoherence_series(env, np.array([float(t)]))[0])


def branch_environment_state(env: EnvironmentSpec, t: float, branch: int) -> np.ndarray:
    """Environment spin amplitudes riding the given system branch at time ``t``.

    ``branch`` is +1 for the ``|+>`` system branch, -1 for ``|->``.  Returns
    an (n, 2) array whose row j is the evolved pair: on the ``+`` branch spin j
    evolves to (alpha_j e^{+i g_j t}, beta_j e^{-i g_j t}); the ``-`` branch
    swaps the phase signs.  Evolution is phase-only, so each row keeps unit norm.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    amps = env.amplitudes()
    phase = np.exp((1j * branch * float(t)) * env.couplings())
    out = np.empty_like(amps)
    out[:, 0] = amps[:, 0] * phase
    out[:, 1] = amps[:, 1] * np.conj(phase)
    return out


def branch_overlap(bra: np.ndarray, ket: np.ndarray) -> complex:
    """Product over spins of the per-spin inner products <bra_j|ket_j> of two
    (n, 2) branch states.

    With bra = the '-' branch and ket = the '+' branch this reproduces the
    decoherence factor, by an independent route.
    """
    per_spin = np.sum(np.conj(bra) * ket, axis=1)
    return complex(np.prod(per_spin))


def reduced_density_matrix(sys: SystemAmplitudes, env: EnvironmentSpec, t: float) -> np.ndarray:
    """System density matrix after tracing out the environment: a 2x2
    complex array in the {|+>, |->} basis.

    Populations stay (|a|^2, |b|^2) for all t; the upper off-diagonal entry
    is z(t) * a * conj(b) and the lower one its conjugate.
    """
    z = decoherence_factor(env, t)
    a, b = complex(sys.a), complex(sys.b)
    upper = z * a * np.conj(b)
    return np.array(
        [[abs(a) ** 2, upper], [np.conj(upper), abs(b) ** 2]],
        dtype=complex,
    )


def trace_columns(
    sys: SystemAmplitudes, env: EnvironmentSpec, times: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Trace-mode columns on an array of times, as float arrays:
    t, Re z, Im z, |z|, rho[+,+], rho[-,-], |rho[+,-]|, purity, entropy.

    Row by row these are the numbers :func:`decoherence_factor`,
    :func:`reduced_density_matrix` and :func:`state_metrics` give, to the
    bit when the system amplitudes are real (with complex ones the complex
    product may round differently in the last place).  Purity comes from a
    batched ``rho @ rho`` and entropy from one batched ``eigvalsh``, which
    make the same BLAS and LAPACK calls per matrix; magnitudes use ``hypot``,
    as Python's ``abs`` on a complex does (``np.abs`` on a complex array can
    differ from it in the last place).
    """
    times = np.asarray(times, dtype=float)
    z = decoherence_series(env, times)
    a, b = complex(sys.a), complex(sys.b)
    upper = z * a * np.conj(b)
    rho = np.empty(times.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = abs(a) ** 2
    rho[..., 0, 1] = upper
    rho[..., 1, 0] = np.conj(upper)
    rho[..., 1, 1] = abs(b) ** 2
    square = rho @ rho
    purity = (square[..., 0, 0] + square[..., 1, 1]).real
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 0.0, lam * np.log(lam), 0.0)
    entropy = -(terms[..., 0] + terms[..., 1])
    # max(0.0, x) as in state_metrics: np.maximum(0.0, -0.0) would keep the -0
    entropy = np.where(entropy > 0.0, entropy, 0.0)
    return (
        times,
        z.real,
        z.imag,
        np.hypot(z.real, z.imag),
        rho[..., 0, 0].real,
        rho[..., 1, 1].real,
        np.hypot(upper.real, upper.imag),
        purity,
        entropy,
    )


def coherence_in_basis(rho: np.ndarray, theta: float, phi: float) -> float:
    """|<0'|rho|1'>| for the 2x2 density matrix ``rho`` in the rotated basis (theta, phi).

    |0'> = cos(theta/2)|+> + e^{i phi} sin(theta/2)|->, |1'> its orthogonal
    complement.  theta = phi = 0 recovers |rho[+,-]|.  How much coherence a
    state "has" depends on the basis asked about: a matrix diagonal in one
    basis generally is not in another.
    """
    if not (0.0 <= theta <= math.pi):
        raise InvalidRangeError(f"theta must lie in [0, pi], got {theta}")
    if not (0.0 <= phi < 2.0 * math.pi):
        raise InvalidRangeError(f"phi must lie in [0, 2*pi), got {phi}")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = np.exp(1j * phi)
    ket0 = np.array([c, e * s], dtype=complex)
    ket1 = np.array([-np.conj(e) * s, c], dtype=complex)
    return float(abs(np.conj(ket0) @ rho @ ket1))


def state_metrics(rho: np.ndarray) -> tuple[float, float]:
    """(purity, entropy) of the 2x2 density matrix ``rho``.

    purity = tr(rho^2); entropy = -sum lambda ln lambda in nats, with
    0 ln 0 = 0.  Pure states give (1, 0); the maximally mixed qubit gives
    (1/2, ln 2).
    """
    purity = float(np.real(np.trace(rho @ rho)))
    lam = np.clip(np.linalg.eigvalsh(rho).real, 0.0, 1.0)
    nonzero = lam[lam > 0.0]
    entropy = max(0.0, float(-np.sum(nonzero * np.log(nonzero))))
    return purity, entropy


def time_averaged_coherence_sq(
    env: EnvironmentSpec, t_max: float, samples: int
) -> tuple[float, float]:
    """Empirical mean of |z|^2 on a uniform grid over [0, t_max], plus the
    ergodic prediction prod_j (1 + d_j^2)/2.

    The prediction is the infinite-time average when the couplings are
    pairwise incommensurate; equal-coupling environments legitimately
    violate it, so the caller does the comparing.
    """
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise InvalidRangeError(f"t_max must be positive and finite, got {t_max}")
    if samples < 2:
        raise InvalidRangeError(f"need at least 2 samples, got {samples}")
    times = np.linspace(0.0, float(t_max), int(samples))
    empirical = float(np.mean(decoherence_abs_sq(env, times)))
    return empirical, ergodic_prediction(env)


def ergodic_prediction(env: EnvironmentSpec) -> float:
    """prod_j (1 + d_j^2)/2: the infinite-time average of |z|^2 when the
    couplings are pairwise incommensurate."""
    return float(np.prod(_abs_sq_factors(env)[1]))

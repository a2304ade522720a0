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
function returning plain values: z(t) is a ``complex``, a reduced state a
2x2 complex array.  The brute-force check lives in :mod:`einlab.oracle`.

There is one level of parallelism.  A call of the |z|^2 kernel
:func:`decoherence_abs_sq` runs on the calling thread, one CPU; whole items
(a sweep's seeds, an ensemble's seeds) are handed out to the CPUs in the
process's affinity mask by one hand-out (:func:`_hand_out`), so more seeds
use more CPUs, and ``taskset -c 0`` keeps every mode on one thread.  The
CLI's verify cases run on the calling thread.  Nothing run in a hand-out
hands out again.  No result's bits depend on the number of CPUs.  The thread
pool is built at import and starts its threads on the first hand-out; a
forked child builds its own.  Work handed to the pool runs under the
caller's ``np.errstate``.

A sweep item is one seed with all its spin counts: its baths share their
first couplings, so one kernel call (:func:`_abs_sq_blocks` with several
tables) computes each ``cos(4 g_j t)`` row once for every n holding spin j,
with the same bits as one call per n.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .model import EnvironmentSpec, SystemAmplitudes


# Element budget of one decoherence_series block: k spins of m points with
# k = max(1, _SERIES_BLOCK // m).  Grids of more than 1 024 points, so every
# trace chunk of 2001 points or more, take one spin per block; a budget of
# _ABS_SQ_BLOCK made a 2001-point call slower and its peak memory ten times
# larger.
_SERIES_BLOCK = 1 << 11


def decoherence_series(env: EnvironmentSpec, times: np.ndarray) -> np.ndarray:
    """z evaluated on an array of times; complex array of the same shape.

    Spins are taken in blocks of k = max(1, _SERIES_BLOCK // m) for m grid
    points: one call each forms the block's angles ``2 g t``, sines, cosines
    and factors ``cos + i d sin`` as (k, m) rows, and the rows are folded
    into z one spin at a time, in spin order.  Each factor is formed by the
    same IEEE operations as for one spin alone, so z has the same bits, signed
    zeros included, whatever the block size; a one-point call (verify's
    :func:`decoherence_factor`) takes up to 2 048 spins in one block.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    m = flat.size
    z = np.ones(m, dtype=complex)
    g2 = (2.0 * env.couplings())[:, None]
    jd = (1j * env.imbalances())[:, None]
    n = g2.shape[0]
    k = max(1, min(n, _SERIES_BLOCK // max(m, 1)))
    angle, sin = np.empty((2, k, m))
    rows = np.empty((k, m), dtype=complex)
    for start in range(0, n, k):
        stop = min(start + k, n)
        if stop - start < k:
            angle, sin, rows = angle[: stop - start], sin[: stop - start], rows[: stop - start]
        np.multiply(g2[start:stop], flat, out=angle)
        np.sin(angle, out=sin)
        np.multiply(jd[start:stop], sin, out=rows)
        np.cos(angle, out=angle)
        np.add(angle, rows, out=rows)
        for row in rows:
            # z stays the left operand (with FMA, complex multiply is not
            # commutative in the last place) and the product goes to a fresh
            # array: numpy's in-place multiply of one element rounds
            # differently, and the bits of z would depend on len(times)
            z = np.multiply(z, row)
    return z.reshape(times.shape)


# Element budget of one decoherence_abs_sq block: (k + 1) rows of m points
# with k = max(1, _ABS_SQ_BLOCK // m), about 256 KiB of float64.
_ABS_SQ_BLOCK = 1 << 15

# Threads a hand-out may use: the CPUs this process may run on (``taskset``
# limits it).  Sweeps and ensembles hand their items to this many workers;
# verify runs its cases on the calling thread.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1

# Runs the workers of _hand_out past the first.  Built at import, it starts no
# thread until the first submit.  Work run by a hand-out must not hand out
# again: with every pool thread busy, it would wait on its own pool.
# _IN_HAND_OUT marks that work, and _hand_out runs serially under the mark.
_pool: ThreadPoolExecutor
_IN_HAND_OUT = contextvars.ContextVar("einlab_in_hand_out", default=False)


def _new_pool() -> None:
    # A forked child inherits the executor object but none of its threads, so
    # work submitted to it would never run; the child builds a pool of its own.
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="einlab-pool")


_new_pool()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_new_pool)


def _hand_out(fn, count: int) -> list:
    """``[fn(i) for i in range(count)]``, the items handed out to
    ``min(_WORKERS, count)`` workers: the calling thread and pool threads.

    The calling thread starts with item 0 and pool worker ``w`` with item
    ``w``; then each takes the next item left when it has finished its last
    one, so a worker on a busy CPU just takes fewer.  Each worker runs in a
    copy of the caller's context, so the caller's ``np.errstate`` (a context
    variable since numpy 2) holds there too, with ``_IN_HAND_OUT`` set.  Once
    an item raises, no further item is handed out; the error is raised after
    every worker has finished its current item, the calling thread's first,
    else the first pool worker's.  Below two workers, or inside a hand-out,
    the items run in order on the calling thread.
    """
    workers = min(_WORKERS, count)
    if workers < 2 or _IN_HAND_OUT.get():
        return [fn(i) for i in range(count)]
    results = [None] * count
    rest = iter(range(workers, count))
    lock = threading.Lock()
    failed = threading.Event()

    def work(i: int) -> None:
        _IN_HAND_OUT.set(True)  # in this worker's context copy only
        try:
            while i is not None and not failed.is_set():
                results[i] = fn(i)
                with lock:
                    i = next(rest, None)
        except BaseException:
            failed.set()  # the other workers stop after their current item
            raise

    futures = [_pool.submit(contextvars.copy_context().run, work, w) for w in range(1, workers)]
    try:
        contextvars.copy_context().run(work, 0)
    finally:
        wait(futures)
    for future in futures:
        future.result()
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

    Half the trigonometric work of :func:`decoherence_series`; used by
    decay-time scans, ensembles and sweeps.  Recurrence scans apply the same
    per-spin factors through their own pruned loop
    (:func:`~einlab.ensemble.recurrence_search`).

    One call runs on the calling thread, through the spin-blocked loop of
    :func:`_abs_sq_blocks`; sweeps and ensembles use more CPUs by handing out
    whole seeds (:func:`_hand_out`).  A point's value depends only on its own
    time and the fixed spin order, so the result has the same bits whatever
    the grid's shape or length.
    """
    times = np.asarray(times, dtype=float)
    return _abs_sq_blocks(times.reshape(-1), *_abs_sq_factors(env)).reshape(times.shape)


def _abs_sq_blocks(flat, g4, mean, swing, shorter=()) -> np.ndarray:
    """prod_j (mean_j + swing_j * cos(g4_j * t)) at each point of the 1-D
    ``flat``, for the table ``(mean, swing)`` and for each shorter table of
    ``shorter``: a ``(len(shorter) + 1, flat.size)`` array whose last row is
    the full table's product and whose row i is that of ``shorter[i]``.

    A shorter table is a ``(mean, swing)`` pair for the first spins of
    ``g4`` only, so a sweep evaluates each seed's ``cos(g4_j * t)`` rows
    once for all its spin counts.

    Spins are taken in blocks of k = max(1, _ABS_SQ_BLOCK // m) for m grid points.
    A block is a (k + 1, m) buffer: row 0 holds the product over the spins
    before the block, rows 1..k the block's cosines, and one
    ``np.multiply.reduce`` along axis 0 folds them in.  Each shorter table
    still holding spins in the block forms its factors from those cosines in
    a side buffer, of at most that shape, and folds them there; the full table
    then forms its factors in place and folds last.  The reduction
    multiplies the rows one after another in index order, and each factor
    is formed by the same IEEE operations as ``mean + swing * cos(4 g t)``
    for one spin, so every value equals the spin-by-spin product
    ``((1 * f_0) * f_1) * ...`` to the bit, whatever the block size and
    whichever tables share the call.
    """
    n = g4.size
    k = max(1, min(n, _ABS_SQ_BLOCK // max(flat.size, 1)))
    buf = np.empty((k + 1, flat.size))
    if shorter:
        side = np.empty((min(k, max(m.size for m, _ in shorter)) + 1, flat.size))
    out = np.ones((len(shorter) + 1, flat.size))
    for start in range(0, n, k):
        stop = min(start + k, n)
        block = buf[: stop - start + 1]
        rows = block[1:]
        np.multiply(g4[start:stop, None], flat, out=rows)
        np.cos(rows, out=rows)
        for product, (part_mean, part_swing) in zip(out, shorter):
            count = min(stop, part_mean.size) - start
            if count > 0:
                part = side[: count + 1]
                part[0] = product
                np.multiply(rows[:count], part_swing[start : start + count, None], out=part[1:])
                part[1:] += part_mean[start : start + count, None]
                np.multiply.reduce(part, axis=0, out=product)
        block[0] = out[-1]
        rows *= swing[start:stop, None]
        rows += mean[start:stop, None]
        np.multiply.reduce(block, axis=0, out=out[-1])
    return out


def decoherence_factor(env: EnvironmentSpec, t: float) -> complex:
    """The decoherence factor z(t).  z(0) = 1 exactly; |z| never exceeds 1."""
    return complex(decoherence_series(env, np.array([float(t)]))[0])


def reduced_density_matrix(sys: SystemAmplitudes, env: EnvironmentSpec, t: float) -> np.ndarray:
    """System density matrix after tracing out the environment: a 2x2
    complex array in the {|+>, |->} basis.

    Populations stay (|a|^2, |b|^2) for all t; the upper off-diagonal entry
    is z(t) * a * conj(b) and the lower one its conjugate.
    """
    p, q, upper = _state_entries(sys, decoherence_factor(env, t))
    return np.array([[p, upper], [np.conj(upper), q]], dtype=complex)


def _state_entries(sys: SystemAmplitudes, z):
    """The populations ``p = |a|^2`` and ``q = |b|^2`` (floats) and the upper
    off-diagonal entry ``z * a * conj(b)`` of the reduced state for ``z``."""
    a, b = complex(sys.a), complex(sys.b)
    return abs(a) ** 2, abs(b) ** 2, z * a * np.conj(b)


def trace_columns(
    sys: SystemAmplitudes, env: EnvironmentSpec, times: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Trace-mode columns on an array of times, as float arrays:
    t, Re z, Im z, |z|, rho[+,+], rho[-,-], |rho[+,-]|, purity, entropy.

    Row by row the first seven are the numbers :func:`decoherence_factor`
    and :func:`reduced_density_matrix` give, through the same
    :func:`_state_entries`: to the bit when the system amplitudes are real
    (with complex ones, numpy's complex product may round differently from
    Python's in the last place).  Magnitudes use ``hypot``, as Python's
    ``abs`` on a complex does (``np.abs`` on a complex array can differ from
    it in the last place).

    Purity and entropy come in closed form from the deficit ``D = 1 - |z|^2``
    (see :func:`_trace_purity_entropy`), not from a 2x2 matrix product and
    eigensolver as in :func:`state_metrics`.  ``D`` is ``1 - |z|^2`` where
    ``|z|^2 < 1/2``, and :func:`_deficit`'s sum of logarithms, which does not
    cancel near ``|z| = 1``, elsewhere.  Against a 45-digit ``decimal``
    evaluation at the same inputs (the float angles ``(2 g) * t`` included)
    the entropy's relative error stays within 1e-14 and the purity's absolute
    error within 4.5e-16, also near ``|z| = 1``, where the matrix route loses
    every digit of the entropy.
    """
    times = np.asarray(times, dtype=float)
    z = decoherence_series(env, times)
    p, q, upper = _state_entries(sys, z)
    abs_z = np.hypot(z.real, z.imag)
    purity, entropy = _trace_purity_entropy(p, q, abs_z, env, times)
    return (
        times,
        z.real,
        z.imag,
        abs_z,
        np.full(times.shape, p),
        np.full(times.shape, q),
        np.hypot(upper.real, upper.imag),
        purity,
        entropy,
    )


def _trace_purity_entropy(p: float, q: float, abs_z, env: EnvironmentSpec, times):
    """Purity and entropy of the reduced states with populations ``p``, ``q``
    and coherence ``|z| = abs_z``; entropy <= 0 reads 0, and nan stays nan.

    With ``s = p + q`` (not taken to be 1) and the deficit ``D = 1 - |z|^2``:
    purity ``s^2 - 2 p q D``, eigenvalues ``lambda_- = 2 p q D / (s + r)``
    and ``lambda_+ = s - lambda_-``, entropy ``-(lambda_+ log1p((s - 1) -
    lambda_-) + lambda_- log lambda_-)`` with ``0 log 0 = 0``.  The root
    ``r = sqrt((p - q)^2 + 4 p q |z|^2)`` equals ``sqrt(s^2 - 4 p q D)`` but
    cannot go negative.  ``s - 1`` is formed as ``(max(p, q) - 1) + min(p, q)``,
    exactly (Sterbenz's lemma) when ``p + q`` is near 1, and the purity as
    ``(1 - 2 p q D) + (s - 1)(s + 1)``.  Each value depends only on its own
    point.
    """
    abs_sq = abs_z * abs_z
    deficit = np.asarray(1.0 - abs_sq)  # writable, also for 0-d times
    near = abs_sq >= 0.5  # nan stays out, and D stays nan
    if near.any():
        deficit[near] = _deficit(env, times[near])
    low, high = sorted((p, q))
    excess = (high - 1.0) + low  # s - 1
    s = 1.0 + excess
    pq2 = 2.0 * p * q
    mixed = pq2 * deficit  # 1 - purity when s = 1
    purity = (1.0 - mixed) + excess * (2.0 + excess)
    small = mixed / (s + np.sqrt((p - q) ** 2 + (2.0 * pq2) * abs_sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        small_term = np.where(small > 0.0, small * np.log(small), 0.0)
    entropy = -((s - small) * np.log1p(excess - small) + small_term)
    return purity, np.where(entropy <= 0.0, 0.0, entropy)


def _deficit(env: EnvironmentSpec, times: np.ndarray) -> np.ndarray:
    """``1 - |z|^2`` at the 1-D ``times`` without cancellation near ``|z| = 1``:
    ``-expm1(sum_j log1p(-(1 - d_j^2) sin^2(2 g_j t)))``, each factor of
    ``|z|^2`` being ``|cos x + i d sin x|^2 = 1 - (1 - d^2) sin^2 x``.

    Spins with ``d_j = +-1`` (factor 1) are skipped.  The others are taken in
    blocks of at most _SERIES_BLOCK elements, and each point's sum runs in
    spin order, so a value does not depend on the other points.
    """
    d = env.imbalances()
    weight = (1.0 - d) * (1.0 + d)  # 1 - d^2
    spins = np.flatnonzero(weight)
    g2 = (2.0 * env.couplings()[spins])[:, None]
    minus_weight = (-weight[spins])[:, None]
    total = np.zeros(times.size)
    k = max(1, _SERIES_BLOCK // max(times.size, 1))
    for start in range(0, spins.size, k):
        terms = np.multiply(g2[start : start + k], times)
        np.sin(terms, out=terms)
        np.multiply(terms, terms, out=terms)
        np.multiply(minus_weight[start : start + k], terms, out=terms)
        np.log1p(terms, out=terms)
        for row in terms:
            total += row
    return -np.expm1(total)


def state_metrics(rho: np.ndarray) -> tuple[float, float]:
    """(purity, entropy) of the 2x2 density matrix ``rho``.

    purity = tr(rho^2); entropy = -sum lambda ln lambda in nats, with
    0 ln 0 = 0, from the eigenvalues ``np.linalg.eigvalsh`` gives; entropy
    <= 0 reads 0, and a nan eigenvalue gives entropy nan.  Pure states give
    (1, 0); the maximally mixed qubit gives (1/2, ln 2).
    """
    square = rho @ rho
    purity = (square[0, 0] + square[1, 1]).real
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam == 0.0, 0.0, lam * np.log(lam))
    entropy = -(terms[0] + terms[1])
    return float(purity), (0.0 if entropy <= 0.0 else float(entropy))


def ergodic_prediction(env: EnvironmentSpec) -> float:
    """prod_j (1 + d_j^2)/2: the infinite-time average of |z|^2 when the
    couplings are pairwise incommensurate."""
    return float(np.prod(_abs_sq_factors(env)[1]))

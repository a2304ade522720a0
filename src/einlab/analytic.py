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

The |z|^2 kernel of decay-time scans, ensembles and sweeps,
:func:`decoherence_abs_sq`, splits large grids across the CPUs in the
process's affinity mask; its bits do not depend on how many there are, and
``taskset -c 0`` keeps it on one thread.  Its thread pool is built at import
and starts its threads on the first split call; a forked child builds its
own.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

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

# Slices per split call: the CPUs this process may run on (``taskset`` limits it).
try:
    _ABS_SQ_WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _ABS_SQ_WORKERS = os.cpu_count() or 1

# Runs all slices but the caller's own.  Built at import, it starts no thread
# until the first split call submits a slice.
_pool: ThreadPoolExecutor


def _new_pool() -> None:
    # A forked child inherits the executor object but none of its threads, so
    # work submitted to it would never run; the child builds a pool of its own.
    global _pool
    _pool = ThreadPoolExecutor(
        max_workers=max(1, _ABS_SQ_WORKERS - 1), thread_name_prefix="einlab-abs-sq"
    )


_new_pool()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_new_pool)


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
    per CPU, one slice runs on the calling thread and the others on a private
    thread pool, each through the spin-blocked loop of :func:`_abs_sq_blocks`,
    and the slices' results are joined in order.  The pool is built at import
    and starts its threads on the first split call; a forked child builds its
    own.
    A call is split only when each slice gets at least ``_ABS_SQ_BLOCK``
    spin-points.  A point's value depends only on its own time and the fixed
    spin order, so the result has the same bits however many CPUs there are
    and wherever the cuts fall.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    g4, mean, swing = _abs_sq_factors(env)
    slices = _ABS_SQ_WORKERS
    # every slice holds at least flat.size // slices points
    if slices < 2 or env.n * (flat.size // slices) < _ABS_SQ_BLOCK:
        return _abs_sq_blocks(flat, g4, mean, swing).reshape(times.shape)
    bounds = [flat.size * i // slices for i in range(slices + 1)]
    futures = [
        _pool.submit(_abs_sq_blocks, flat[a:b], g4, mean, swing)
        for a, b in zip(bounds[:-2], bounds[1:-1])
    ]
    try:
        last = _abs_sq_blocks(flat[bounds[-2] :], g4, mean, swing)
    finally:
        # no slice outlives this call, even when the caller's own one raises
        wait(futures)
    pieces = [future.result() for future in futures] + [last]
    return np.concatenate(pieces).reshape(times.shape)


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


# Per-spin slack on the tail bounds of decoherence_abs_sq_above; it rounds to
# 1 + 2 ulp(1) = 1 + 4u with u = 2^-53.
_TAIL_SLACK = 1.0 + 4e-16


def decoherence_abs_sq_above(
    env: EnvironmentSpec, times: np.ndarray, floor_sq: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """|z|^2 on a 1-D time grid, dropping points that cannot reach ``floor_sq``.

    Returns ``(index, values, spin_points)``: the ascending positions in
    ``times`` of the points kept, their |z|^2, and the number of per-spin
    factors evaluated.  Every point with ``decoherence_abs_sq >= floor_sq``
    is kept, and every kept value equals :func:`decoherence_abs_sq` to the
    bit: spins are multiplied in the same order with the same expressions,
    each factor only onto the points still kept.
    """
    times = np.asarray(times, dtype=float)
    # Python floats with the bits of decoherence_abs_sq's factor arrays
    spins = list(zip(*(column.tolist() for column in _abs_sq_factors(env))))
    # Why pruning is safe.  A computed factor mean + swing*cos lies in
    # [0, top_j], top_j = mean_j + swing_j as computed here: cos <= 1,
    # swing >= 0 and rounding is monotone.  top_j <= 1 too, since
    # fl(1 + d^2) + fl(1 - d^2) is within 1.5u of 2 and rounds to at most 2.
    # While products stay normal, each rounds up by at most a factor 1 + u,
    # and each tail step below grows by at least (1 + 4u)(1 - u)^2 >= 1 + u,
    # so a point with partial product P after spin j ends at most at
    # P * tail[j + 1].  A product that turns subnormal is below any normal
    # floor_sq and, no factor exceeding 1, stays below it; a subnormal
    # floor_sq prunes nothing.  Every tail is >= 1 (top_j >= 1 - u), so a
    # point whose partial products stay exactly 1, as under eigenstate spins,
    # survives floor_sq = 1.
    tail = [1.0]
    for _, mean, swing in reversed(spins):
        tail.append(tail[-1] * (mean + swing) * _TAIL_SLACK)
    tail.reverse()
    if not floor_sq >= np.finfo(float).tiny:
        floor_sq = 0.0
    index = np.arange(times.size)
    values = np.ones(times.shape)
    spin_points = 0
    for j, (g4, mean, swing) in enumerate(spins):
        spin_points += index.size
        values = values * (mean + swing * np.cos(g4 * times))
        keep = np.nonzero(values * tail[j + 1] >= floor_sq)[0]
        index, values, times = index[keep], values[keep], times[keep]
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

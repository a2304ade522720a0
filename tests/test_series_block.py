"""The spin-blocked ``decoherence_series`` against the per-spin loop it replaced.

``decoherence_series`` forms the factors ``cos(2 g t) + i d sin(2 g t)`` of a
block of spins at a time and folds them into ``z`` one spin at a time.
Trace CSVs and verify's deviations must not change by a byte, so the
reference here is the per-spin loop the function ran before, and every
comparison is bit for bit (the arrays' bytes, so signed zeros count).
"""

import math

import numpy as np
import pytest

import einlab.analytic as analytic
from einlab import EnvironmentSpec, decoherence_factor, decoherence_series

from conftest import assert_same_bits

BUDGET = analytic._SERIES_BLOCK


def per_spin_series(env, times):
    times = np.asarray(times, dtype=float)
    z = np.ones(times.shape, dtype=complex)
    for g, d in zip(env.couplings(), env.imbalances()):
        angle = (2.0 * g) * times
        z = np.multiply(z, np.cos(angle) + (1j * d) * np.sin(angle))
    return z


def bath(kind, n, seed):
    """A random bath (generic d), a balanced one (d = 0) or an eigenstate one
    (each spin |+> or |->, d = +-1), with couplings of both signs."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2.0, 2.0, n)
    if kind == "random":
        half = 0.5 * np.arccos(rng.uniform(-1.0, 1.0, n))
        alpha = np.cos(half).astype(complex)
        beta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)) * np.sin(half)
    elif kind == "balanced":
        alpha = np.full(n, math.sqrt(0.5), dtype=complex)
        beta = math.sqrt(0.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    else:
        alpha = (rng.random(n) < 0.5).astype(complex)
        beta = 1.0 - alpha
    return EnvironmentSpec(g, alpha, beta)


def grid(m, seed):
    """m times in [-40, 40], with 0.0 and -0.0 among them from m = 2 on."""
    times = np.random.default_rng(seed).uniform(-40.0, 40.0, m)
    if m >= 2:
        times[0], times[1] = 0.0, -0.0
    if m >= 6:
        times[m // 2], times[-1] = -0.0, 0.0
    return times


KINDS = ("random", "balanced", "eigenstate")
LENGTHS = (1, 2, BUDGET - 1, BUDGET, BUDGET + 1, 8192)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", LENGTHS)
@pytest.mark.parametrize("n", (0, 20))
def test_blocked_series_matches_per_spin_loop(kind, m, n):
    env = bath(kind, n, seed=1000 * n + m)
    times = grid(m, seed=m)
    assert_same_bits(decoherence_series(env, times), per_spin_series(env, times))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", (0.0, -0.0, 0.7, -13.25, 39.5))
def test_one_point_with_more_spins_than_one_block_holds(kind, t):
    n = BUDGET + 457  # a full block and a partial one
    env = bath(kind, n, seed=n)
    times = np.array([t])
    assert_same_bits(decoherence_series(env, times), per_spin_series(env, times))
    z = decoherence_factor(env, t)
    assert_same_bits(np.array([z]), per_spin_series(env, times))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", ((1, 1), (3, 7), (2, BUDGET), (BUDGET + 1, 2), (4, 0)))
def test_two_dimensional_times_keep_their_shape_and_bits(kind, shape):
    env = bath(kind, 20, seed=sum(shape))
    times = grid(math.prod(shape), seed=7).reshape(shape)
    z = decoherence_series(env, times)
    assert z.shape == shape
    assert_same_bits(z, per_spin_series(env, times))
    # a transposed, non-contiguous grid gives the same bits point by point
    assert_same_bits(decoherence_series(env, times.T), per_spin_series(env, times.T))


@pytest.mark.parametrize("seed", range(12))
def test_random_baths_and_grid_lengths(seed):
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % 3]
    n = int(rng.integers(0, 60))
    m = int(rng.choice((1, 3, 5, 100, 683, 1025, 2001, 5000)))
    env = bath(kind, n, seed=seed)
    times = grid(m, seed=seed)
    assert_same_bits(decoherence_series(env, times), per_spin_series(env, times))


def test_a_trace_chunk_takes_one_spin_per_block():
    # the budget keeps trace chunks (2001 points and more) at the per-spin
    # loop's memory and call pattern
    assert BUDGET // 2001 == 1

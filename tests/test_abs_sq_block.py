"""The spin-blocked |z|^2 kernel against the spin-by-spin product it replaced.

``decoherence_abs_sq`` folds spins into its running product a block at a
time with one ``np.multiply.reduce``.  Sweep and ensemble CSVs must not
change by a byte, so the reference here is the per-spin loop the kernel ran
before, and every comparison is bit for bit.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlab.analytic as analytic
import einlab.cli as cli
from einlab import (
    ScenarioKind,
    build_environment_random,
    build_environment_scenario,
    decoherence_abs_sq,
)

from conftest import assert_same_bits

BLOCK = analytic._ABS_SQ_BLOCK


def per_spin_abs_sq(env, times):
    times = np.asarray(times, dtype=float)
    out = np.ones(times.shape)
    for g, d in zip(env.couplings(), env.imbalances()):
        mean = 0.5 * (1.0 + d * d)
        swing = 0.5 * (1.0 - d * d)
        out = out * (mean + swing * np.cos((4.0 * g) * times))
    return out


def bath(kind, n, seed):
    if kind == "random":
        return build_environment_random(n, seed, None, 1.0)
    scenario = ScenarioKind.EIGENSTATE if kind == "eigenstate" else ScenarioKind.BALANCED_EQUAL_COUPLING
    return build_environment_scenario(scenario, n, 0.05 + (seed % 97) / 50.0)


kinds = st.sampled_from(("random", "eigenstate", "balanced"))
# grid lengths around the block rule's steps: k = BLOCK // m spins per block
lengths = st.one_of(
    st.integers(1, 400),
    st.sampled_from((BLOCK // 3, BLOCK // 2 - 1, BLOCK // 2 + 1, BLOCK - 1, BLOCK, BLOCK + 1)),
)


@given(kinds, lengths, st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example("random", 319, None, 7)
@example("random", BLOCK + 1, None, 3)
@example("balanced", 1, None, 5)
def test_blocked_matches_per_spin_loop(kind, m, data, seed):
    k = max(1, BLOCK // m)
    edges = [q * k + r for q in (1, 2, 3) for r in (-1, 0, 1) if 0 <= q * k + r <= 300]
    if data is None:
        n = edges[-1] if edges else 300
    else:
        # n on either side of a block boundary, or anywhere in 0..300
        n = data.draw(st.one_of(st.integers(0, 300), st.sampled_from(edges or [300])))
    # at most 2M spin-points per example keeps the test quick; long grids
    # have k <= 2, so their block boundaries stay in range
    n = min(n, 2_000_000 // m)
    env = bath(kind, n, seed)
    times = 0.37 * (seed % 11) + np.arange(m) * 0.157
    assert_same_bits(decoherence_abs_sq(env, times), per_spin_abs_sq(env, times))


@given(kinds, st.integers(0, 300), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_zero_d_and_two_d_times(kind, n, t, seed):
    env = bath(kind, n, seed)
    scalar = decoherence_abs_sq(env, t)
    assert scalar.shape == ()
    assert_same_bits(scalar, per_spin_abs_sq(env, t))
    grid = t + 0.01 * np.arange(12).reshape(3, 4)
    assert_same_bits(decoherence_abs_sq(env, grid), per_spin_abs_sq(env, grid))


def test_empty_grid_and_empty_bath():
    env = build_environment_random(40, 1, None, 1.0)
    assert_same_bits(decoherence_abs_sq(env, np.empty(0)), np.ones(0))
    empty = build_environment_random(0, 1, None, 1.0)
    assert_same_bits(decoherence_abs_sq(empty, np.arange(5.0)), np.ones(5))


@given(
    st.integers(0, 200),
    st.integers(1, 3000),
    st.lists(st.integers(0, 3000), max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_whole_grid_equals_any_split(n, m, cuts, seed):
    # each piece gets its own block size, yet every point keeps its bits
    env = build_environment_random(n, seed, None, 1.0)
    times = 40.0 + np.arange(m) * 0.0731
    bounds = sorted({0, m, *(c for c in cuts if c < m)})
    pieces = [decoherence_abs_sq(env, times[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert_same_bits(np.concatenate(pieces), decoherence_abs_sq(env, times))


@given(st.integers(0, 2000), st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
@example(2000, 1)
def test_imbalances_equal_per_spin_property(n, seed):
    env = build_environment_random(n, seed, None, 1.0)
    # per spin on Python complex values: abs and float ** 2 (libm pow)
    per_spin = [abs(alpha) ** 2 - abs(beta) ** 2 for alpha, beta in env.amplitudes().tolist()]
    assert_same_bits(env.imbalances(), np.array(per_spin, dtype=float))
    assert env.couplings().shape == env.imbalances().shape == (n,)


# SHA-256 of sweep and ensemble CSVs written before the kernel was blocked.
# The first sweep's n = 2000 row prints 0: |z|^2 underflows there, a known
# defect that this change leaves as it was.  The one-point sweep changes if
# the imbalances are squared as x * x instead of Python's x ** 2.
GOLDEN = {
    "mode = sweep\nn = 1000, 2000\nseeds = 5\ng_max = 1.0\nt_start = 50\nt_max = 100\n":
        "f32d5dd2ef2d58130acf92a3241a40cde2ffebcbc3a29425bab12931d3f30e5a",
    "mode = sweep\nn = 0, 1, 2, 8, 50\nseeds = 7\ng_max = 1.0\nt_start = 20\nt_max = 40\n":
        "d4874ade6f23ea70ca1f386b35ae3ec2c16a8334c601cbb7dfba1e37eab7d793",
    "mode = sweep\nn = 5, 400\nseeds = 3\ng_max = 1.0\nt_start = 7\nt_max = 7.1\ndt = 0.2\n":
        "119f242b507124d39c6245bf1990f304498c3fab83e724748e1ad6b6f1336b16",
    "mode = ensemble\nn = 6\nseeds = 5\ng_max = 1.0\nt_max = 300\n":
        "e91e0c024369f3db79060db91146c208c26894d78cbe6d9345ca5b37563b8f5d",
    "mode = ensemble\nn = 300\nseeds = 4, 9\ng_max = 0.7\nt_max = 50\ndt = 0.05\n":
        "ed23910b286029e4497487fa6a4127ef50db5b3c7df202a3350d3b18ccbd168d",
    "mode = ensemble\nn = 12\nseeds = 2\ng_max = 1.0\nt_max = 2000\ndt = 0.05\n":
        "feb6fa58a859d30e0c5fbc7fc27e090e54fcd3c1fc5afabc2793b43b7b9dedd9",
}


def test_golden_sweep_and_ensemble_digests(tmp_path):
    for i, (text, digest) in enumerate(GOLDEN.items()):
        config = tmp_path / f"golden{i}.cfg"
        config.write_text(text)
        out = tmp_path / f"golden{i}.csv"
        assert cli.main([str(config), "--output", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, text
        if i == 0:
            assert out.read_text().splitlines()[-1] == "2000,0"

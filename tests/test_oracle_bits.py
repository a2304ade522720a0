"""The oracle gives the same bytes as its plain reference expressions.

``evolve_full`` multiplies each amplitude by a product of per-spin phases,
a table over a block's low spins times one scalar per block for its high
spins; ``assemble_full_state`` folds the spins into one fresh array.  Both
are compared here, bit for bit, with plain whole-array expressions of the
same products.  ``evolve_full`` evolves the state's own amplitudes in place
and returns None, as each crosscheck evolves the state it assembled, so a
test that still needs its input evolves a copy of it.
"""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einlab import (
    DimensionMismatchError,
    EnvironmentSpec,
    FullState,
    ScenarioKind,
    assemble_full_state,
    build_environment_random,
    build_environment_scenario,
    cli,
    evolve_full,
)
import einlab.oracle as oracle

from conftest import assert_golden_digests, coupling_sums, random_system


def kron_assemble(sys_amp, env):
    """Reference: the product state as a fold of np.kron."""
    sys_vec = np.array([sys_amp.a, sys_amp.b], dtype=complex)
    env_vec = reduce(np.kron, env.amplitudes()[::-1], np.ones(1, dtype=complex))
    return np.kron(sys_vec, env_vec)


def product_evolve(amplitudes, env, t):
    """Reference: each amplitude times the product of its spins' phases
    ``e_j = cos(t g_j) + i sin(t g_j)`` (bit 0 -> e_j, bit 1 -> conj(e_j)),
    conjugated on the ``|->`` row.  As in ``evolve_full``, the spins below
    its block size are multiplied first, in spin order, then the product of
    the spins above it, and the amplitude is the first operand of its
    in-place multiply (numpy rounds a complex product differently with the
    operands swapped, and an in-place product of one element differently
    again)."""
    n, m = env.n, 2**env.n
    angles = float(t) * env.couplings()
    e = np.array([complex(c, s) for c, s in zip(np.cos(angles), np.sin(angles))], dtype=complex)
    low_bits = min(m, max(2, m // 8), oracle._EVOLVE_BLOCK).bit_length() - 1
    patterns = np.arange(m)
    low, high = np.ones(m, dtype=complex), np.ones(m, dtype=complex)
    for j in range(n):
        factor = np.where((patterns >> j) & 1, np.conj(e[j]), e[j])
        if j < low_bits:
            low = low * factor
        else:
            high = high * factor
    phase = low * high
    conjugate = np.conj(phase)
    rows = amplitudes.copy().reshape(2, -1)
    rows[0] *= phase
    rows[1] *= conjugate
    return rows.reshape(-1)


def make_environment(kind, n, seed):
    """Random baths, and equal-coupling ones whose coupling sums hit exact zeros."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return build_environment_random(n, seed, 0.05, 1.0)
    if kind == "balanced":
        return build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, n, 0.7)
    if kind == "eigenstate":
        return build_environment_scenario(ScenarioKind.EIGENSTATE, n, 1.3)
    # a few repeated couplings, negative and complex amplitudes
    g = rng.choice([0.25, 0.5, 1.0], n)
    cos_sq = rng.uniform(0.0, 1.0, n)
    alpha = -np.sqrt(cos_sq) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    return EnvironmentSpec(g, alpha, np.sqrt(1.0 - cos_sq) + 0j)


def entangled_amplitudes(n, seed):
    """Unnormalised amplitudes with signed zeros in both parts."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    amps.imag[::3] = -0.0
    amps.real[1::5] = -0.0
    amps[2::7] = 0.0
    return amps


kinds = st.sampled_from(["random", "balanced", "eigenstate", "repeated"])
spin_counts = st.integers(min_value=0, max_value=16)
seeds = st.integers(min_value=0, max_value=2**32)
evolve_times = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, math.pi / 2]),
)


@given(kinds, spin_counts, seeds, evolve_times)
@settings(max_examples=80, deadline=None)
def test_assemble_and_evolve_match_references(kind, n, seed, t):
    env = make_environment(kind, n, seed)
    sys_amp = random_system(np.random.default_rng(seed))
    full = assemble_full_state(sys_amp, env)
    amplitudes = full.amplitudes
    expected = kron_assemble(sys_amp, env)
    assert amplitudes.tobytes() == expected.tobytes()
    expected = product_evolve(amplitudes, env, t)
    assert evolve_full(full, env, t) is None
    assert full.amplitudes is amplitudes
    assert amplitudes.tobytes() == expected.tobytes()


@given(kinds, spin_counts, seeds, evolve_times)
@settings(max_examples=60, deadline=None)
def test_evolve_entangled_input_matches_reference(kind, n, seed, t):
    env = make_environment(kind, n, seed)
    amps = entangled_amplitudes(n, seed)
    expected = product_evolve(amps, env, t)
    evolve_full(FullState(n, amps), env, t)
    assert amps.tobytes() == expected.tobytes()


def test_non_finite_times_match_reference():
    env = make_environment("repeated", 5, 9)
    amps = entangled_amplitudes(5, 9)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in (math.inf, -math.inf, math.nan, 1e308):
            expected = product_evolve(amps, env, t)
            got = amps.copy()
            evolve_full(FullState(5, got), env, t)
            assert got.tobytes() == expected.tobytes(), t


SPECIAL_TIMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.75]


@pytest.mark.parametrize(
    "n",
    [
        0,  # one entry a row: one block of one entry
        1,  # one block of two entries
        2,  # two blocks of two entries
        3,  # four blocks of two entries (a block has at least two)
        9,  # eight blocks (a block is at most an eighth of a row)
        17,  # sixteen blocks of _EVOLVE_BLOCK entries
    ],
)
def test_in_place_evolve_matches_reference(n):
    amps = entangled_amplitudes(n, n)
    envs = [make_environment(kind, n, 3) for kind in ("random", "balanced", "repeated")]
    with np.errstate(invalid="ignore", over="ignore"):
        for env in envs:
            for t in SPECIAL_TIMES:
                expected = product_evolve(amps, env, t).tobytes()
                in_place = amps.copy()
                evolve_full(FullState(n, in_place), env, t)
                assert in_place.tobytes() == expected, (env, t)


def test_non_finite_couplings_match_reference():
    # infinite and NaN couplings give NaN phases, as 0 * inf does at t = 0;
    # 1e308 * 2.75 overflows
    g = [np.inf, 1.0, -np.inf, 1e308, 1e308, np.nan, 0.0, -0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        for n in (2, 3, 5, 8):
            env = EnvironmentSpec(g[:n], np.full(n, 0.6 + 0.8j), np.zeros(n))
            amps = entangled_amplitudes(n, 5)
            for t in SPECIAL_TIMES:
                expected = product_evolve(amps, env, t)
                got = amps.copy()
                evolve_full(FullState(n, got), env, t)
                assert got.tobytes() == expected.tobytes(), (n, t)


# SHA-256 of the bodies (the bytes after the provenance line) of verify CSVs.
# Version 0.2.1 moved the bodies with n >= 1, whose max_deviation cells the
# vdot partial trace rounds differently from the matrix product before it;
# version 0.2.2 moved those with n >= 8, whose phases became products of
# per-spin phases (n = 0 has no phase, and at n = 1 every max_deviation
# cell kept its bits).
GOLDEN = {
    "mode = verify\nn = 0\nseed = 5\ng_max = 1.0\n":
        "9fdfb5b59758376c4c849af3a93baeb017e19ad9fd1898ca997888418c5ef72c",
    "mode = verify\nn = 1\nseed = 11\ng_max = 1.0\n":
        "eaedf6dc93ca2eb310890fd93043cf96e86ac0907c010eeffd6d420451c042f4",
    "mode = verify\nn = 8\nseed = 2024\ng_max = 1.0\n":
        "48faa997aff9799dc0d027350fc29bba0bdae3b4b8c342c8d02ccd3ab6a73475",
    "mode = verify\nn = 13\nseed = 7\ng_max = 1.0\n":
        "407c77adebef7211ca5440a07b1ac82f02727168a128044b2d535497502cb699",
    "mode = verify\nn = 14\nseed = 8\ng_max = 1.0\n":
        "80de361c458073ab86add650944435ec6c2a2004e454d54335dc7c3becc01a06",
    "mode = verify\nn = 16\nseed = 201\ng_max = 1.0\n":
        "3b7131b559fb44cd1b92e4f776c510673e33106925ce4c54eaaac68a9d5b3731",
}


@pytest.mark.parametrize("text", list(GOLDEN))
def test_golden_verify_digests(tmp_path, text):
    assert_golden_digests(tmp_path, {text: GOLDEN[text]})


def wrong_amplitudes(kind):
    """Amplitudes an n = 3 state cannot be evolved in: 16 contiguous,
    writeable complex128 entries are needed."""
    rng = np.random.default_rng(2)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    if kind == "short":
        return amps[:15]
    if kind == "long":
        return amps[:17]
    if kind == "2d":
        return amps[:16].reshape(2, 8)
    if kind == "complex64":
        return amps[:16].astype(np.complex64)
    if kind == "float":
        return amps[:16].real.copy()
    if kind == "strided":
        return amps[::2]
    amps = amps[:16]
    amps.flags.writeable = False
    return amps


class TestBuffers:
    @pytest.mark.parametrize(
        "kind", ["short", "long", "2d", "complex64", "float", "strided", "read-only"]
    )
    def test_wrong_state_is_rejected(self, kind):
        env = build_environment_random(3, 2, 0.05, 1.0)
        amps = wrong_amplitudes(kind)
        before = amps.tobytes()
        # numpy's own ValueError refuses the read-only array at its first write
        with pytest.raises(ValueError if kind == "read-only" else DimensionMismatchError):
            evolve_full(FullState(3, amps), env, 1.0)
        assert amps.tobytes() == before

    def test_fresh_results_never_alias(self):
        env = build_environment_random(5, 8, 0.05, 1.0)
        sys_amp = random_system(np.random.default_rng(8))
        first, second = assemble_full_state(sys_amp, env), assemble_full_state(sys_amp, env)
        assert not np.shares_memory(first.amplitudes, second.amplitudes)


def test_cli_verify_allocates_no_state_before_the_cap(tmp_path, capsys):
    config = tmp_path / "big.cfg"
    config.write_text(f"mode = verify\nn = 25\nseed = 1\ng_max = 1.0\noutput = {tmp_path / 'o.csv'}\n")
    tracemalloc.start()
    try:
        code = cli.main([str(config), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "cap is 24" in capsys.readouterr().err
    # 2^26 amplitudes would be 1 GiB; nothing of that order was requested
    assert peak < 2**24
    assert not (tmp_path / "o.csv").exists()


def test_cli_verify_reports_a_bad_coupling_range_before_the_cap(tmp_path, capsys):
    # each case builds its bath before its crosscheck assembles a state, so
    # this config names its coupling range, not the 24-spin cap
    config = tmp_path / "bad.cfg"
    config.write_text(
        f"mode = verify\nn = 25\nseed = 1\ng_min = 2.0\ng_max = 1.0\noutput = {tmp_path / 'o.csv'}\n"
    )
    assert cli.main([str(config), "--quiet"]) == 2
    assert "need 0 < g_min <= g_max" in capsys.readouterr().err


def sparse_zero_environment(seed):
    """n = 16 bath whose coupling sums are zero for just two patterns: the
    powers 2^0..2^-13 never cancel among themselves, and the two couplings
    1 - 2^-14 cancel them only when every power has the sign opposite to theirs."""
    g = np.array([2.0**-k for k in range(14)] + [1.0 - 2.0**-14] * 2)
    rng = np.random.default_rng(seed)
    g = g[rng.permutation(16)]
    cos_sq = rng.uniform(0.0, 1.0, 16)
    beta = np.sqrt(1.0 - cos_sq) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 16))
    return EnvironmentSpec(g, np.sqrt(cos_sq) + 0j, beta)


@pytest.mark.parametrize(
    "env",
    [
        make_environment("balanced", 16, 0),
        make_environment("repeated", 16, 0),
        sparse_zero_environment(1),
        sparse_zero_environment(2),
    ],
    ids=["balanced", "repeated", "sparse-1", "sparse-2"],
)
def test_n16_default_blocks_match_reference(env):
    # verify's size, eight blocks of _EVOLVE_BLOCK entries, on baths whose
    # coupling sums vanish for some patterns, where a phase exp(i t sum) is
    # exactly 1 and a product of per-spin phases is not
    assert (coupling_sums(env) == 0.0).any()
    amps = entangled_amplitudes(16, 16)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in SPECIAL_TIMES:
            expected = product_evolve(amps, env, t).tobytes()
            in_place = amps.copy()
            evolve_full(FullState(16, in_place), env, t)
            assert in_place.tobytes() == expected, t


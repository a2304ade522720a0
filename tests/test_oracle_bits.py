"""The oracle gives the same bytes as its plain reference expressions.

``evolve_full`` multiplies each amplitude by a product of per-spin phases,
a table over a block's low spins times one scalar per block for its high
spins; ``assemble_full_state`` writes each block of one fresh array as a
table of its low spins' amplitudes times one scalar for its high spins and
the system.  Both are compared here, bit for bit, with plain whole-array
expressions of the same products.  ``evolve_full`` evolves the state's own
amplitudes in place and returns None, as each crosscheck evolves the state
it assembled, so a test that still needs its input evolves a copy of it.
``crosscheck`` walks the state a block at a time without holding it whole;
its reduced matrix is compared, bit for bit, with the whole-state route.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einlab import (
    DimensionMismatchError,
    EnvironmentSpec,
    FullState,
    ScenarioKind,
    SystemAmplitudes,
    assemble_full_state,
    build_environment_random,
    build_environment_scenario,
    cli,
    crosscheck,
    evolve_full,
    partial_trace_to_system,
    reduced_density_matrix,
)
import einlab.oracle as oracle

from conftest import assert_golden_digests, coupling_sums, random_system


def block_assemble(sys_amp, env):
    """Reference: each amplitude as the product of its low spins' amplitudes
    times the product of its other spins' and then the system's, the system
    bit on top.  Each product multiplies its factors in order, the running
    product first, by masked array-by-scalar multiplies, as
    ``assemble_full_state``'s tables do; the spins below the oracle's block
    size are the low ones."""
    factors = [*env.amplitudes(), (sys_amp.a, sys_amp.b)]
    m = 2**env.n
    low_bits = oracle._low_bits(env.n)
    patterns = np.arange(2 * m)
    low, high = np.ones(2 * m, dtype=complex), np.ones(2 * m, dtype=complex)
    for j, pair in enumerate(factors):
        product = low if j < low_bits else high
        for bit, x in enumerate(pair):
            chosen = (patterns >> j) & 1 == bit
            product[chosen] = product[chosen] * x
    return low * high


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
    low_bits = oracle._low_bits(n)
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
    expected = block_assemble(sys_amp, env)
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
# cell kept its bits); version 0.2.3 moved those with n >= 1, whose states
# are assembled block by block and whose short rows (n <= 2) are traced
# without BLAS.  At n = 15 a trace block holds two evolve blocks, and at
# n = 17 a row holds 16 trace blocks.
GOLDEN = {
    "mode = verify\nn = 0\nseed = 5\ng_max = 1.0\n":
        "9fdfb5b59758376c4c849af3a93baeb017e19ad9fd1898ca997888418c5ef72c",
    "mode = verify\nn = 1\nseed = 11\ng_max = 1.0\n":
        "d658db090fbda0c17f51f0c3a685b635af232b8ab88c1138a93ddc64e3e532fd",
    "mode = verify\nn = 8\nseed = 2024\ng_max = 1.0\n":
        "337099aa39959b9354035e508dea62d5c59bb2175cc4d96e8cdc61df9727b245",
    "mode = verify\nn = 13\nseed = 7\ng_max = 1.0\n":
        "abd7a18a2de2e99ae1f6c43a788dc2e6decd3ec6f8e1f51eccd778c634459cd2",
    "mode = verify\nn = 14\nseed = 8\ng_max = 1.0\n":
        "d98c17adbaf7b589117992f15fee0a2432db69cb399c5b89b6055571bd3fe40e",
    "mode = verify\nn = 15\nseed = 15\ng_max = 1.0\n":
        "a248c858825973571d1c2a5c753bce79b02cf09d7ec6cdf3edf10e5c0168bb5c",
    "mode = verify\nn = 16\nseed = 201\ng_max = 1.0\n":
        "0ce514ef522ba482b960e8895c7d7bafc810cc7145903bc5fdd851251e7ea790",
    "mode = verify\nn = 17\nseed = 17\ng_max = 1.0\n":
        "c3a71cc50498e11c2cf9276310b9d398524a3cc616d5bd25a0dbe7206cd1555c",
}


@pytest.mark.parametrize("text", list(GOLDEN))
def test_golden_verify_digests(tmp_path, text):
    assert_golden_digests(tmp_path, {text: GOLDEN[text]})


WALK_SYSTEMS = [SystemAmplitudes(0.6 + 0j, 0.8 + 0j), SystemAmplitudes(0.6 + 0j, 0.48 - 0.64j)]


@pytest.mark.parametrize("n", [*range(19), 20])
def test_crosscheck_walk_matches_the_whole_state_route(n):
    # real and complex system amplitudes; t = 0, an ordinary t, a negative
    # t, and couplings of 1e307, whose angles overflow at t = 19.5 and
    # whose phases are nan
    ordinary = build_environment_random(n, n + 1, 0.05, 1.0)
    huge = build_environment_random(n, n + 1, 1e307, 1e307)
    cases = [(ordinary, 0.0), (ordinary, 2.5), (ordinary, -7.75), (huge, 19.5)]
    with np.errstate(invalid="ignore", over="ignore"):
        for sys_amp in WALK_SYSTEMS:
            for env, t in cases:
                walked = oracle._trace(2**n, oracle._walk(sys_amp, env, t))
                assert np.isnan(walked).all() == (env is huge and n > 0)
                full = assemble_full_state(sys_amp, env)
                evolve_full(full, env, t)
                whole = partial_trace_to_system(full)
                assert walked.tobytes() == whole.tobytes(), (sys_amp, t)
                # and crosscheck reports the deviation of those bits
                dev = np.max(np.abs(whole - reduced_density_matrix(sys_amp, env, t)))
                report = crosscheck(sys_amp, env, t, 1e-10)
                assert np.float64(report.max_deviation).tobytes() == dev.tobytes(), (sys_amp, t)


def test_crosscheck_never_holds_the_state():
    # verify's size: the 2 MiB state is walked in trace blocks of 8192
    # entries.  The scratch is five arrays of 8192 amplitudes (128 KiB
    # each): the low amplitude and low phase tables, the two rows of a
    # trace block and one phase block, 0.31 of the state, plus the high
    # tables and a few KiB of Python objects.
    n = 16
    state = 2 ** (n + 1) * 16
    env = build_environment_random(n, 5, 0.05, 1.0)
    sys_amp = WALK_SYSTEMS[1]
    crosscheck(sys_amp, env, 3.5, 1e-10)
    tracemalloc.start()
    try:
        crosscheck(sys_amp, env, 4.5, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state / 3


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


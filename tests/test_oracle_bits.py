"""The oracle gives the same bytes as its plain reference expressions.

``evolve_full`` computes one complex ``exp`` over half the phase table and
conjugates the rest; ``assemble_full_state`` folds the spins into one fresh
array.  Both are compared here, bit for bit, with the expressions they
replace; ``evolve_full`` also into an ``out=`` array and in place, as each
crosscheck evolves the state it assembled.
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
from einlab.oracle import _coupling_sums

from conftest import assert_golden_digests, random_system


def kron_assemble(sys_amp, env):
    """Reference: the product state as a fold of np.kron."""
    sys_vec = np.array([sys_amp.a, sys_amp.b], dtype=complex)
    env_vec = reduce(np.kron, env.amplitudes()[::-1], np.ones(1, dtype=complex))
    return np.kron(sys_vec, env_vec)


def two_exp_evolve(amplitudes, env, t):
    """Reference: one exp per branch over the whole table.  The products are
    written as plain expressions, so numpy's temporary elision orders their
    operands as it did in the original code."""
    sums = _coupling_sums(env)
    amps = amplitudes.reshape(2, -1)
    out = np.empty_like(amps)
    out[0] = amps[0] * np.exp((1j * float(t)) * sums)
    out[1] = amps[1] * np.exp((-1j * float(t)) * sums)
    return out.reshape(-1)


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
    evolved_out = np.empty(2 ** (n + 1), dtype=complex)
    full = assemble_full_state(sys_amp, env)
    expected = kron_assemble(sys_amp, env)
    assert full.amplitudes.tobytes() == expected.tobytes()
    expected = two_exp_evolve(full.amplitudes, env, t)
    assert evolve_full(full, env, t).amplitudes.tobytes() == expected.tobytes()
    evolved = evolve_full(full, env, t, out=evolved_out)
    assert evolved.amplitudes is evolved_out
    assert evolved.amplitudes.tobytes() == expected.tobytes()


@given(kinds, spin_counts, seeds, evolve_times)
@settings(max_examples=60, deadline=None)
def test_evolve_entangled_input_matches_reference(kind, n, seed, t):
    env = make_environment(kind, n, seed)
    amps = entangled_amplitudes(n, seed)
    expected = two_exp_evolve(amps, env, t)
    assert evolve_full(FullState(n, amps), env, t).amplitudes.tobytes() == expected.tobytes()
    out = np.empty_like(amps)
    assert evolve_full(FullState(n, amps), env, t, out=out).amplitudes.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [13, 14])
def test_elision_boundary(n):
    # numpy's temporary elision swaps the reference's operands from n = 14 on
    env = build_environment_random(n, 77, 0.05, 1.0)
    amps = entangled_amplitudes(n, 3)
    for t in (-17.25, 3.5, 41.0):
        expected = two_exp_evolve(amps, env, t)
        assert evolve_full(FullState(n, amps), env, t).amplitudes.tobytes() == expected.tobytes()


def test_non_finite_times_match_reference():
    env = make_environment("repeated", 5, 9)
    amps = entangled_amplitudes(5, 9)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in (math.inf, -math.inf, math.nan, 1e308):
            expected = two_exp_evolve(amps, env, t)
            got = evolve_full(FullState(5, amps), env, t).amplitudes
            assert got.tobytes() == expected.tobytes(), t


SPECIAL_TIMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.75]


@pytest.mark.parametrize(
    "n, block",
    [
        (0, None),
        (1, None),  # rows of two entries: a block would be one entry long
        (2, None),  # the lower half is one block of two entries
        (3, None),  # two blocks
        (9, None),  # four blocks (a block is at most an eighth of a row)
        (14, 1 << 3),  # 1024 blocks, past the elision boundary
    ],
)
def test_in_place_and_out_of_place_evolve_match_reference(monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(oracle, "_EVOLVE_BLOCK", block)
    amps = entangled_amplitudes(n, n)
    envs = [make_environment(kind, n, 3) for kind in ("random", "balanced", "repeated")]
    with np.errstate(invalid="ignore", over="ignore"):
        for env in envs:
            for t in SPECIAL_TIMES:
                expected = two_exp_evolve(amps, env, t).tobytes()
                fresh = evolve_full(FullState(n, amps), env, t).amplitudes
                in_place = amps.copy()
                evolve_full(FullState(n, in_place), env, t, out=in_place)
                assert fresh.tobytes() == expected and in_place.tobytes() == expected, (env, t)


def test_non_finite_couplings_match_reference():
    # coupling sums of inf - inf are NaN, whose sign the mirrored phases
    # must not change
    g = [np.inf, 1.0, -np.inf, 1e308, 1e308, np.nan, 0.0, -0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        for n in (2, 3, 5, 8):
            env = EnvironmentSpec(g[:n], np.full(n, 0.6 + 0.8j), np.zeros(n))
            amps = entangled_amplitudes(n, 5)
            for t in SPECIAL_TIMES:
                expected = two_exp_evolve(amps, env, t)
                got = evolve_full(FullState(n, amps), env, t).amplitudes
                assert got.tobytes() == expected.tobytes(), (n, t)


# SHA-256 of the bodies (the bytes after the provenance line) of verify CSVs
# written by the commit before the half-table exp and the reused buffers;
# n = 13 and n = 14 sit on either side of the elision boundary.  Version
# 0.2.1 moved the bodies with n >= 1, whose max_deviation cells the vdot
# partial trace rounds differently from the matrix product before it.
GOLDEN = {
    "mode = verify\nn = 0\nseed = 5\ng_max = 1.0\n":
        "9fdfb5b59758376c4c849af3a93baeb017e19ad9fd1898ca997888418c5ef72c",
    "mode = verify\nn = 1\nseed = 11\ng_max = 1.0\n":
        "eaedf6dc93ca2eb310890fd93043cf96e86ac0907c010eeffd6d420451c042f4",
    "mode = verify\nn = 8\nseed = 2024\ng_max = 1.0\n":
        "d5fbdaf1eca2da7c086a90c33fdcacb62586e2914cc2c08f0c027db0532b3721",
    "mode = verify\nn = 13\nseed = 7\ng_max = 1.0\n":
        "12b983174a377e9bde060b8300580c5378cd4a6d0c3c76eb2126b3ccb4be7286",
    "mode = verify\nn = 14\nseed = 8\ng_max = 1.0\n":
        "89054d36a0220adfdd280829c59a2d03400cb5ecbcbd895fa4f986fcb5ce7413",
    "mode = verify\nn = 16\nseed = 201\ng_max = 1.0\n":
        "509c140dcea76a481d0ef391574536f380f35660101ceb4f0a2169f95de2b88c",
}


@pytest.mark.parametrize("text", list(GOLDEN))
def test_golden_verify_digests(tmp_path, text):
    assert_golden_digests(tmp_path, {text: GOLDEN[text]})


class TestBuffers:
    @pytest.mark.parametrize(
        "out",
        [
            np.empty(15, dtype=complex),
            np.empty(17, dtype=complex),
            np.empty((2, 8), dtype=complex),
            np.empty(16, dtype=np.complex64),
            np.empty(16, dtype=float),
            np.empty(32, dtype=complex)[::2],
        ],
        ids=["short", "long", "2d", "complex64", "float", "strided"],
    )
    def test_wrong_out_is_rejected(self, out):
        env = build_environment_random(3, 2, 0.05, 1.0)
        sys_amp = random_system(np.random.default_rng(2))
        with pytest.raises(DimensionMismatchError):
            evolve_full(assemble_full_state(sys_amp, env), env, 1.0, out=out)

    def test_evolve_never_writes_its_input(self):
        env = make_environment("repeated", 6, 4)
        amps = entangled_amplitudes(6, 4)
        state = FullState(6, amps)
        before = amps.tobytes()
        evolve_full(state, env, 2.5)
        evolve_full(state, env, -1.0, out=np.empty_like(amps))
        assert amps.tobytes() == before
        # an out that overlaps the input without being it is refused untouched
        shifted = np.empty(amps.size + 1, dtype=complex)
        shifted[1:] = amps
        with pytest.raises(ValueError):
            evolve_full(FullState(6, shifted[1:]), env, 2.5, out=shifted[:-1])
        assert shifted[1:].tobytes() == before
        # the input's own array, or a view of all of it, is evolved in place
        expected = two_exp_evolve(amps, env, 2.5)
        for view in (lambda a: a, lambda a: a[:]):
            state = FullState(6, amps.copy())
            out = view(state.amplitudes)
            assert evolve_full(state, env, 2.5, out=out).amplitudes is out
            assert state.amplitudes.tobytes() == expected.tobytes()

    def test_fresh_results_never_alias(self):
        env = build_environment_random(5, 8, 0.05, 1.0)
        sys_amp = random_system(np.random.default_rng(8))
        first, second = assemble_full_state(sys_amp, env), assemble_full_state(sys_amp, env)
        assert not np.shares_memory(first.amplitudes, second.amplitudes)
        a, b = evolve_full(first, env, 1.5), evolve_full(first, env, 1.5)
        assert not np.shares_memory(a.amplitudes, b.amplitudes)
        assert not np.shares_memory(a.amplitudes, first.amplitudes)


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
    # verify's size at the default block size: the direct entries of each
    # mirror block are patched into reversed views of the phase block, and
    # every bath here has some at t = 2.75, its zero coupling sums
    assert (_coupling_sums(env) == 0.0).any()
    amps = entangled_amplitudes(16, 16)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in SPECIAL_TIMES:
            expected = two_exp_evolve(amps, env, t).tobytes()
            assert evolve_full(FullState(16, amps), env, t).amplitudes.tobytes() == expected, t
            in_place = amps.copy()
            evolve_full(FullState(16, in_place), env, t, out=in_place)
            assert in_place.tobytes() == expected, t


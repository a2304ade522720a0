import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einlab import (
    EnvironmentSpec,
    InvalidRangeError,
    ScenarioKind,
    SystemAmplitudes,
    assemble_full_state,
    branch_environment_state,
    build_environment_random,
    build_environment_scenario,
    evolve_full,
    validate,
)

from conftest import assert_same_bits, spin_environment

INV_SQRT2 = 1.0 / math.sqrt(2.0)

positive = st.floats(min_value=1e-300, max_value=1e300)
# (g_min, g_max) with 0 < g_min <= g_max, or the default g_min
coupling_bounds = st.one_of(
    positive.map(lambda g_max: (None, g_max)),
    st.tuples(positive, positive).map(lambda pair: tuple(sorted(pair))),
)


class TestRandomBuilder:
    def test_zero_spins(self):
        env = build_environment_random(0, seed=1, g_min=0.1, g_max=1.0)
        assert env.n == 0
        assert env.couplings().shape == (0,)
        assert env.amplitudes().shape == (0, 2)

    def test_determinism(self):
        a = build_environment_random(5, seed=7, g_min=0.1, g_max=1.0)
        b = build_environment_random(5, seed=7, g_min=0.1, g_max=1.0)
        assert a == b  # bit-identical, dataclass equality on every field

    def test_different_seeds_differ(self):
        a = build_environment_random(5, seed=7, g_min=0.1, g_max=1.0)
        b = build_environment_random(5, seed=8, g_min=0.1, g_max=1.0)
        assert a != b

    def test_law_of_large_numbers_means(self):
        # uniform couplings on [0.1, 1.0] have mean 0.55; Bloch-uniform
        # imbalances have mean 0
        env = build_environment_random(1000, seed=3, g_min=0.1, g_max=1.0)
        assert np.mean(env.couplings()) == pytest.approx(0.55, abs=0.03)
        assert np.mean(env.imbalances()) == pytest.approx(0.0, abs=0.05)

    def test_couplings_within_bounds_and_states_normalized(self):
        env = build_environment_random(200, seed=11, g_min=0.2, g_max=0.9)
        g = env.couplings()
        assert np.all((g >= 0.2) & (g <= 0.9))
        norms = np.sum(np.abs(env.amplitudes()) ** 2, axis=1)
        assert norms == pytest.approx(np.ones(200), abs=1e-12)

    def test_default_g_min_is_five_percent_of_g_max(self):
        env = build_environment_random(500, seed=2, g_max=2.0)
        g = env.couplings()
        assert np.all(g >= 0.1)
        assert np.all(g <= 2.0)
        assert np.min(g) < 0.2  # the low end of [0.1, 2.0] is actually populated

    @pytest.mark.parametrize("seed", [12345, 777])
    def test_imbalance_uniform_on_interval(self, seed):
        # Kolmogorov-Smirnov distance to the uniform CDF on [-1, 1]
        env = build_environment_random(10_000, seed=seed, g_min=0.1, g_max=1.0)
        d = np.sort(env.imbalances())
        cdf = (d + 1.0) / 2.0
        n = d.size
        ks = max(
            np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(n) / n),
        )
        assert ks < 0.02

    @given(st.integers(0, 3000), st.integers(0, 3000), st.integers(0, 2**64 - 1), coupling_bounds)
    @settings(max_examples=60, deadline=None)
    def test_couplings_of_fewer_spins_are_a_prefix(self, a, b, seed, bounds):
        # the contract scaling sweeps rely on to share one seed's cos rows
        n, more = sorted((a, b))
        g_min, g_max = bounds
        fewer = build_environment_random(n, seed, g_min, g_max).couplings()
        full = build_environment_random(more, seed, g_min, g_max).couplings()
        assert_same_bits(fewer, full[:n])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, seed=1, g_min=0.1, g_max=1.0),
            dict(n=3, seed=1, g_min=0.0, g_max=1.0),
            dict(n=3, seed=1, g_min=-0.5, g_max=1.0),
            dict(n=3, seed=1, g_min=2.0, g_max=1.0),
            dict(n=3, seed=-1, g_min=0.1, g_max=1.0),
            dict(n=3, seed=2**64, g_min=0.1, g_max=1.0),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(InvalidRangeError):
            build_environment_random(**kwargs)


class TestScenarioBuilder:
    def test_eigenstate(self):
        env = build_environment_scenario(ScenarioKind.EIGENSTATE, 3, 1.0)
        assert env.n == 3
        assert env.couplings().tolist() == [1.0] * 3
        assert env.amplitudes().tolist() == [[1.0 + 0.0j, 0.0j]] * 3

    def test_balanced(self):
        env = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 2, 0.5)
        assert env.n == 2
        assert env.couplings().tolist() == [0.5] * 2
        for alpha, beta in env.amplitudes().tolist():
            assert alpha == pytest.approx(0.70710678, abs=1e-8)
            assert beta == alpha
        assert env.imbalances().tolist() == [0.0] * 2

    def test_zero_length(self):
        env = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 0, 0.5)
        assert env.n == 0
        assert env.amplitudes().shape == (0, 2)

    @pytest.mark.parametrize("g", [0.0, -1.0, math.inf, math.nan])
    def test_bad_coupling(self, g):
        with pytest.raises(InvalidRangeError):
            build_environment_scenario(ScenarioKind.EIGENSTATE, 2, g)

    def test_negative_count(self):
        with pytest.raises(InvalidRangeError):
            build_environment_scenario(ScenarioKind.EIGENSTATE, -2, 1.0)

    @pytest.mark.parametrize("kind", [ScenarioKind.RANDOM])
    def test_non_fixed_kinds_rejected(self, kind):
        with pytest.raises(ValueError):
            build_environment_scenario(kind, 2, 1.0)

    @pytest.mark.parametrize(
        "env",
        [
            build_environment_scenario(ScenarioKind.EIGENSTATE, 4, 0.7),
            build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 4, 0.7),
            build_environment_random(4, seed=5, g_min=0.1, g_max=1.0),
        ],
    )
    def test_every_builder_output_validates(self, env):
        sys_amp = SystemAmplitudes(complex(INV_SQRT2), complex(INV_SQRT2))
        assert validate(sys_amp, env).ok


class TestValidate:
    def test_success(self):
        report = validate(SystemAmplitudes(1.0 + 0j, 0j), EnvironmentSpec([], [], []))
        assert report.ok
        assert report.failures == ()

    def test_system_normalization_failure(self):
        report = validate(SystemAmplitudes(0.8 + 0j, 0.2 + 0j), EnvironmentSpec([], [], []))
        assert not report.ok
        assert "0.68" in report.failures[0]

    def test_negative_coupling_failure(self):
        env = spin_environment((-1.0, complex(INV_SQRT2), complex(INV_SQRT2)))
        report = validate(SystemAmplitudes(complex(INV_SQRT2), complex(INV_SQRT2)), env)
        assert not report.ok
        assert any("non-negative" in f for f in report.failures)

    def test_spin_normalization_failure(self):
        env = spin_environment((1.0, 1.0 + 0j, 1.0 + 0j))
        report = validate(SystemAmplitudes(1.0 + 0j, 0j), env)
        assert any("spin 0" in f and "not normalized" in f for f in report.failures)

    def test_non_finite_values_reported(self):
        env = spin_environment((math.nan, 1.0 + 0j, 0j))
        report = validate(SystemAmplitudes(complex(math.inf), 0j), env)
        assert len(report.failures) == 2

    def test_multiple_failures_all_reported(self):
        env = spin_environment((-1.0, 1.0 + 0j, 0j), (1.0, 0.5 + 0j, 0.5 + 0j))
        report = validate(SystemAmplitudes(0.9 + 0j, 0j), env)
        assert len(report.failures) == 3


class TestTypes:
    def test_imbalance(self):
        env = spin_environment((1.0, complex(math.sqrt(0.8)), complex(math.sqrt(0.2))))
        assert env.imbalances()[0] == pytest.approx(0.6, abs=1e-12)

    def test_populations(self):
        sys_amp = SystemAmplitudes(complex(math.sqrt(0.3)), complex(math.sqrt(0.7)))
        assert sys_amp.populations() == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_environment_accepts_any_sequence(self):
        env = EnvironmentSpec((1.0,), [1.0 + 0j], np.zeros(1))
        assert env == EnvironmentSpec(np.ones(1), (1.0,), [0j])
        assert env.amplitudes().tolist() == [[1.0 + 0j, 0j]]

    def test_environment_arrays(self):
        env = EnvironmentSpec([0.3, 0.7], [1.0, INV_SQRT2], [0.0, INV_SQRT2])
        assert env.couplings().tolist() == [0.3, 0.7]
        assert env.imbalances() == pytest.approx([1.0, 0.0], abs=1e-12)
        assert env.amplitudes().shape == (2, 2)

    def test_empty_environment_arrays(self):
        env = EnvironmentSpec([], [], [])
        assert env.n == 0
        assert env.couplings().shape == (0,)
        assert env.imbalances().shape == (0,)
        assert env.amplitudes().shape == (0, 2)

    def test_arrays_are_read_only(self):
        env = build_environment_random(3, seed=4)
        for array in (env.couplings(), env.imbalances(), env.amplitudes()):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_constructor_copies_the_callers_arrays(self):
        g = np.array([0.3, 0.7])
        alpha = np.array([1.0 + 0j, INV_SQRT2])
        beta = np.array([0j, 1j * INV_SQRT2])
        env = EnvironmentSpec(g, alpha, beta)
        g[0], alpha[0], beta[1] = 5.0, 0j, 1.0  # the caller's arrays are neither shared nor frozen
        assert env.couplings().tolist() == [0.3, 0.7]
        assert env.amplitudes().tolist() == [[1.0 + 0j, 0j], [INV_SQRT2 + 0j, 1j * INV_SQRT2]]
        assert env != EnvironmentSpec([0.3], [1.0], [0.0])

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (complex(1e-320, 0.0), complex(-0.0, -0.0)),
            (complex(math.inf, 0.0), 0j),
            (complex(math.nan, 1.0), complex(0.6, 0.8)),
            (complex(math.inf, math.nan), 1j),
            (complex(1e153, 1e153), 0j),
        ],
    )
    def test_imbalance_of_extreme_amplitudes_matches_python_abs(self, alpha, beta):
        # the moduli come from one np.hypot call; Python's complex abs is the reference
        env = EnvironmentSpec([1.0], [alpha], [beta])
        expected = abs(alpha) ** 2 - abs(beta) ** 2
        assert repr(env.imbalances()[0]) == repr(np.float64(expected))

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (complex(1.5e308, 1.5e308), 0j),  # |alpha| overflows, as in Python's abs
            (0j, complex(1e308, 1e308)),  # |beta| is finite, |beta| ** 2 overflows
            (complex(1e200, 0.0), 0j),
        ],
    )
    def test_imbalance_overflow_raises_like_python_abs(self, alpha, beta):
        with pytest.raises(OverflowError):
            abs(alpha) ** 2 - abs(beta) ** 2
        with np.errstate(all="raise"), pytest.raises(OverflowError):
            EnvironmentSpec([1.0, 0.5], [1.0, alpha], [0.0, beta])

    def test_constructor_rejects_mismatched_lengths(self):
        for g, alpha, beta in (
            ([0.3, 0.7], [1.0], [0.0]),
            ([0.3], [1.0, 0.0], [0.0, 1.0]),
            ([0.3], [1.0], []),
        ):
            with pytest.raises(ValueError):
                EnvironmentSpec(g, alpha, beta)

    @pytest.mark.parametrize(
        "plus,minus",
        [
            (([0.0, 0.7], [1.0, 0.6], [0.0, 0.8]), ([-0.0, 0.7], [1.0, 0.6], [0.0, 0.8])),
            (([0.3, 0.7], [1.0, 0.6], [0.0, 0.8]), ([0.3, 0.7], [1.0, 0.6], [-0.0, 0.8])),
            (
                ([0.3], [complex(1.0, 0.0)], [0j]),
                ([0.3], [complex(1.0, -0.0)], [complex(-0.0, -0.0)]),
            ),
        ],
    )
    def test_signed_zeros_compare_and_hash_equal(self, plus, minus):
        a, b = EnvironmentSpec(*plus), EnvironmentSpec(*minus)
        assert a == b
        assert hash(a) == hash(b)
        assert {a, b} == {a}

    def test_equal_environments_hash_equal(self):
        a = build_environment_random(6, seed=12)
        b = EnvironmentSpec(a.couplings(), a.amplitudes()[:, 0], a.amplitudes()[:, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != build_environment_random(6, seed=13)
        assert a.__eq__(object()) is NotImplemented

    def test_repr_names_couplings_and_amplitudes(self):
        env = EnvironmentSpec([0.3, 0.7], [1.0, 0.6], [0.0, 0.8j])
        assert repr(env) == (
            "EnvironmentSpec(g=[0.3, 0.7], alpha=[(1+0j), (0.6+0j)], beta=[0j, 0.8j])"
        )
        assert repr(EnvironmentSpec([], [], [])) == "EnvironmentSpec(g=[], alpha=[], beta=[])"


def python_imbalances(alpha, beta):
    """Reference: Python's complex abs and float ** 2, one spin at a time."""
    return np.array([abs(a) ** 2 - abs(b) ** 2 for a, b in zip(alpha.tolist(), beta.tolist())])


@pytest.fixture(scope="module")
def sampled_amplitudes():
    """10^6 (alpha, beta) pairs with moduli log-uniform on [1e-320, 1e150],
    uniform phases, and one pair in 50 holding a zero, an infinity or a NaN."""
    rng = np.random.default_rng(2026)
    size = 10**6
    moduli = np.exp(rng.uniform(math.log(1e-320), math.log(1e150), (2, size)))
    amps = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (2, size)))
    specials = np.array(
        [0j, complex(-0.0, -0.0), complex(math.inf, 0.0), complex(-math.inf, 1.0),
         complex(0.5, -math.inf), complex(math.nan, 0.0), complex(1.0, math.nan),
         complex(math.inf, math.nan)]
    )
    picked = rng.random((2, size)) < 0.01
    amps[picked] = rng.choice(specials, np.count_nonzero(picked))
    return amps, python_imbalances(*amps)


class TestImbalanceBits:
    @pytest.mark.parametrize("errors", [{}, {"all": "raise"}], ids=["default", "raise"])
    def test_sampled_moduli_match_python(self, sampled_amplitudes, errors):
        amps, expected = sampled_amplitudes
        with np.errstate(**errors):
            env = EnvironmentSpec(np.zeros(amps.shape[1]), *amps)
        assert_same_bits(env.imbalances(), expected)

    @pytest.mark.parametrize("errors", [{}, {"all": "raise"}], ids=["default", "raise"])
    @pytest.mark.parametrize("n", [1, 2, 100, 2000, 10**4])
    def test_random_baths_match_python(self, n, errors):
        for seed in (1, 2, 3):
            with np.errstate(**errors):
                env = build_environment_random(n, seed)
            amps = env.amplitudes()
            assert_same_bits(env.imbalances(), python_imbalances(amps[:, 0], amps[:, 1]))


class TestInteractionConvention:
    @given(
        st.floats(min_value=0.01, max_value=3.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_phase_convention_reproduces_single_spin_branches(self, g, t):
        # the closed-form branch states must be the environment half of the
        # brute-force evolution: with the system in |+> (|->) the evolved full
        # state is |+> (|->) times the product of the + (-) branch spin states
        env = spin_environment(
            (g, complex(math.sqrt(0.7)), complex(math.sqrt(0.3))),
            (0.5 * g + 0.1, complex(math.sqrt(0.2)), 1j * math.sqrt(0.8)),
        )
        for row, branch in ((0, +1), (1, -1)):
            sys_amp = SystemAmplitudes(complex(row == 0), complex(row == 1))
            state = assemble_full_state(sys_amp, env)
            evolve_full(state, env, t)
            full = state.amplitudes
            spins = branch_environment_state(env, t, branch)
            expected = reduce(np.kron, spins[::-1], np.ones(1, dtype=complex))
            np.testing.assert_allclose(full.reshape(2, -1)[row], expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(full.reshape(2, -1)[1 - row], 0.0)

    def test_aligned_sign_is_positive(self):
        # the aligned branch (system +, spin +) advances by e^{+igt}: i at g t = pi/2
        env = spin_environment((1.0, 1.0 + 0j, 0j))
        amps = branch_environment_state(env, math.pi / 2, +1)
        assert amps[0, 0] == pytest.approx(1j, abs=1e-12)
        full = assemble_full_state(SystemAmplitudes(1.0 + 0j, 0j), env)
        evolve_full(full, env, math.pi / 2)
        assert full.amplitudes[0] == pytest.approx(1j, abs=1e-12)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einlab import (
    EnvironmentSpec,
    ScenarioKind,
    SystemAmplitudes,
    build_environment_random,
    build_environment_scenario,
    decoherence_abs_sq,
    decoherence_factor,
    decoherence_series,
    ergodic_prediction,
    reduced_density_matrix,
    state_metrics,
)

from branch_reference import branch_environment_state, branch_overlap
from conftest import assert_same_bits, environments, small_environments, spin_environment, times

INV_SQRT2 = 1.0 / math.sqrt(2.0)

SPIN_08 = (1.0, complex(math.sqrt(0.8)), complex(math.sqrt(0.2)))
BALANCED_SYS = SystemAmplitudes(complex(INV_SQRT2), complex(INV_SQRT2))


def spin_with_imbalance(g: float, d: float) -> tuple[float, complex, complex]:
    return (g, complex(math.sqrt((1 + d) / 2)), complex(math.sqrt((1 - d) / 2)))


class TestDecoherenceFactor:
    @given(environments)
    @settings(max_examples=60)
    def test_value_at_zero_is_exactly_one(self, env):
        assert decoherence_factor(env, 0.0) == 1.0 + 0.0j

    @given(environments, times)
    @settings(max_examples=150)
    def test_magnitude_never_exceeds_one(self, env, t):
        assert abs(decoherence_factor(env, t)) <= 1.0 + 1e-12

    def test_eigenstate_environment_never_decoheres(self):
        env = build_environment_scenario(ScenarioKind.EIGENSTATE, 12, 0.8)
        for t in (0.1, 1.7, 42.0):
            assert abs(decoherence_factor(env, t)) == pytest.approx(1.0, abs=1e-12)

    def test_single_spin_frozen_value(self):
        # d = 0.6, g = 1, t = 0.3: cos(0.6) + 0.6i sin(0.6); brute-force
        # verified (2-qubit evolution + partial trace, off-diagonal ratio)
        z = decoherence_factor(spin_environment(SPIN_08), 0.3)
        assert z == pytest.approx(0.8253356149096783 + 0.3387854840370212j, abs=1e-12)
        assert abs(z) == pytest.approx(0.8921628110566678, abs=1e-12)

    def test_two_identical_spins_square_the_factor(self):
        z1 = decoherence_factor(spin_environment(SPIN_08), 0.3)
        z2 = decoherence_factor(spin_environment(SPIN_08, SPIN_08), 0.3)
        assert z2 == pytest.approx(0.5664032730441381 + 0.5592234515803358j, abs=1e-12)
        assert z2 == pytest.approx(z1**2, abs=1e-12)

    @given(small_environments, small_environments, times)
    @settings(max_examples=100)
    def test_factorization_over_concatenation(self, env1, env2, t):
        amps = np.concatenate((env1.amplitudes(), env2.amplitudes()))
        joint = EnvironmentSpec(
            np.concatenate((env1.couplings(), env2.couplings())), amps[:, 0], amps[:, 1]
        )
        z1 = decoherence_factor(env1, t)
        z2 = decoherence_factor(env2, t)
        assert decoherence_factor(joint, t) == pytest.approx(z1 * z2, abs=1e-12)

    @given(environments, times)
    @settings(max_examples=100)
    def test_time_reversal_conjugates(self, env, t):
        forward = decoherence_factor(env, t)
        backward = decoherence_factor(env, -t)
        assert backward == pytest.approx(np.conj(forward), abs=1e-14)
        assert abs(backward) == abs(forward)

    @given(environments)
    @settings(max_examples=60)
    def test_series_matches_scalar(self, env):
        ts = np.linspace(0.0, 7.0, 23)
        series = decoherence_series(env, ts)
        for t, z in zip(ts, series):
            assert decoherence_factor(env, float(t)) == z

    @given(environments)
    @settings(max_examples=60)
    def test_abs_sq_fast_path_agrees(self, env):
        ts = np.linspace(0.0, 9.0, 50)
        assert decoherence_abs_sq(env, ts) == pytest.approx(
            np.abs(decoherence_series(env, ts)) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_balanced_equal_coupling_closed_form(self, n):
        g = 0.7
        env = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, n, g)
        ts = np.linspace(0.0, 15.0, 600)
        expected = np.cos(2 * g * ts) ** n
        assert decoherence_series(env, ts) == pytest.approx(expected, abs=1e-12)
        # full recoherence at t = pi/(2g) regardless of n
        assert abs(decoherence_factor(env, math.pi / (2 * g))) == pytest.approx(
            1.0, abs=1e-9
        )


class TestBranchStates:
    @given(environments, st.sampled_from([1, -1]))
    @settings(max_examples=60)
    def test_time_zero_returns_initial_amplitudes(self, env, branch):
        amps = branch_environment_state(env, 0.0, branch)
        assert amps == pytest.approx(env.amplitudes(), abs=0)

    def test_single_spin_frozen_value(self):
        env = spin_environment((1.0, 1.0 + 0j, 0j))
        amps = branch_environment_state(env, 0.5, +1)
        assert amps[0, 0] == pytest.approx(
            0.8775825618903728 + 0.479425538604203j, abs=1e-12
        )
        assert amps[0, 1] == 0.0j

    def test_minus_branch_swaps_phase_signs(self):
        env = spin_environment(SPIN_08)
        plus = branch_environment_state(env, 1.3, +1)
        minus = branch_environment_state(env, 1.3, -1)
        assert minus == pytest.approx(np.conj(plus), abs=1e-15)

    @given(environments, times, st.sampled_from([1, -1]))
    @settings(max_examples=100)
    def test_rows_stay_normalized(self, env, t, branch):
        amps = branch_environment_state(env, t, branch)
        norms = np.sum(np.abs(amps) ** 2, axis=1)
        assert norms == pytest.approx(np.ones(env.n), abs=1e-12)

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            branch_environment_state(EnvironmentSpec([], [], []), 0.0, 0)

    def test_overlap_equals_decoherence_factor_frozen_case(self):
        env = build_environment_random(6, seed=99, g_min=0.05, g_max=1.0)
        plus = branch_environment_state(env, 1.7, +1)
        minus = branch_environment_state(env, 1.7, -1)
        z = decoherence_factor(env, 1.7)
        assert branch_overlap(minus, plus) == pytest.approx(z, abs=1e-12)

    @given(environments, times)
    @settings(max_examples=150)
    def test_overlap_identity_property(self, env, t):
        plus = branch_environment_state(env, t, +1)
        minus = branch_environment_state(env, t, -1)
        z = decoherence_factor(env, t)
        assert branch_overlap(minus, plus) == pytest.approx(z, abs=1e-12)


class TestReducedDensityMatrix:
    @given(environments, times)
    @settings(max_examples=60)
    def test_no_coherence_to_destroy(self, env, t):
        rho = reduced_density_matrix(SystemAmplitudes(1.0 + 0j, 0j), env, t)
        assert rho == pytest.approx(np.diag([1.0, 0.0]).astype(complex), abs=1e-15)

    def test_balanced_projector_at_time_zero(self):
        env = build_environment_random(4, seed=1, g_min=0.1, g_max=1.0)
        rho = reduced_density_matrix(BALANCED_SYS, env, 0.0)
        assert rho == pytest.approx(np.full((2, 2), 0.5, dtype=complex), abs=1e-12)

    def test_frozen_off_diagonal(self):
        rho = reduced_density_matrix(BALANCED_SYS, spin_environment(SPIN_08), 0.3)
        assert rho[0, 1] == pytest.approx(0.41266780745483905 + 0.16939274201851057j, abs=1e-12)

    @given(environments, times)
    @settings(max_examples=100)
    def test_structure_invariants(self, env, t):
        sys_amp = SystemAmplitudes(complex(math.sqrt(0.3)), complex(math.sqrt(0.7)))
        rho = reduced_density_matrix(sys_amp, env, t)
        # populations never move; matrix stays Hermitian with unit trace
        assert rho[0, 0] == pytest.approx(0.3, abs=1e-12)
        assert rho[1, 1] == pytest.approx(0.7, abs=1e-12)
        assert rho[1, 0] == pytest.approx(np.conj(rho[0, 1]), abs=0)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12

    @given(environments, times)
    @settings(max_examples=100)
    def test_off_diagonal_is_z_times_ab(self, env, t):
        a, b = complex(math.sqrt(0.4)), complex(math.sqrt(0.6)) * np.exp(0.9j)
        sys_amp = SystemAmplitudes(a, b)
        rho = reduced_density_matrix(sys_amp, env, t)
        z = decoherence_factor(env, t)
        assert rho[0, 1] / (a * np.conj(b)) == pytest.approx(z, abs=1e-12)


class TestStateMetrics:
    def test_pure_projector(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        purity, entropy = state_metrics(rho)
        assert purity == pytest.approx(1.0, abs=1e-12)
        assert entropy == pytest.approx(0.0, abs=1e-12)
        assert entropy >= 0.0

    def test_maximally_mixed(self):
        purity, entropy = state_metrics(np.diag([0.5, 0.5]).astype(complex))
        assert purity == pytest.approx(0.5, abs=1e-12)
        assert entropy == pytest.approx(math.log(2.0), abs=1e-12)

    def test_diag_08_02(self):
        purity, entropy = state_metrics(np.diag([0.8, 0.2]).astype(complex))
        assert purity == pytest.approx(0.68, abs=1e-12)
        # closed form: -0.8 ln 0.8 - 0.2 ln 0.2
        assert entropy == pytest.approx(0.5004024235381879, abs=1e-12)

    @pytest.mark.parametrize("coherence", [np.nan, complex(np.nan, np.nan)])
    def test_nan_state_has_nan_entropy(self, coherence):
        # entropy <= 0 reads 0, but nan is not a pure state's 0
        rho = np.array([[0.5, coherence], [np.conj(coherence), 0.5]], dtype=complex)
        purity, entropy = state_metrics(rho)
        assert math.isnan(purity) and math.isnan(entropy)


def time_averaged_coherence_sq(env, t_max, samples):
    """Mean of |z|^2 over ``samples`` evenly spaced times in [0, t_max], and
    the ergodic prediction it should approach."""
    times = np.linspace(0.0, t_max, samples)
    return float(np.mean(decoherence_abs_sq(env, times))), ergodic_prediction(env)


class TestTimeAveragedCoherence:
    def test_eigenstate_environment(self):
        env = build_environment_scenario(ScenarioKind.EIGENSTATE, 5, 1.0)
        empirical, prediction = time_averaged_coherence_sq(env, 100.0, 5000)
        assert empirical == 1.0
        assert prediction == 1.0

    def test_single_balanced_spin_averages_to_half(self):
        # |z|^2 = cos^2(t) for d = 0, g = 0.5; average over many periods is 1/2
        env = spin_environment(spin_with_imbalance(0.5, 0.0))
        empirical, prediction = time_averaged_coherence_sq(env, 400.0 * math.pi, 100_000)
        assert prediction == pytest.approx(0.5, abs=1e-12)
        assert empirical == pytest.approx(0.5, abs=0.005)

    def test_three_incommensurate_spins(self):
        env = spin_environment(
            spin_with_imbalance(1.0, 0.6),
            spin_with_imbalance(math.sqrt(2.0), 0.6),
            spin_with_imbalance(math.sqrt(3.0), 0.6),
        )
        empirical, prediction = time_averaged_coherence_sq(env, 2000.0, 200_000)
        assert prediction == ergodic_prediction(env)
        assert prediction == pytest.approx(0.68**3, abs=1e-12)
        assert empirical == pytest.approx(0.68**3, rel=0.02)


random_baths = st.builds(
    build_environment_random, st.integers(0, 2000), st.integers(0, 2**64 - 1), st.none(), st.just(1.0)
)


@given(st.one_of(environments, random_baths))
@settings(max_examples=60, deadline=None)
@example(EnvironmentSpec([], [], []))
def test_ergodic_prediction_bits(env):
    d = env.imbalances()
    expected = np.prod(0.5 * (1.0 + d * d))
    assert_same_bits(np.array(ergodic_prediction(env)), np.array(expected))

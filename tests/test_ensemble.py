import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlab.analytic as analytic
import einlab.ensemble as ensemble
from einlab import (
    EnvironmentSpec,
    InvalidRangeError,
    NoDecayError,
    ScenarioKind,
    TimeGrid,
    build_environment_random,
    build_environment_scenario,
    decay_time,
    decoherence_abs_sq,
    ensemble_statistics,
    ergodic_prediction,
    recurrence_search,
    scaling_sweep,
)

GRID_DT = math.pi / 20.0


def balanced(n: int, g: float) -> EnvironmentSpec:
    return build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, n, g)


class TestTimeGrid:
    def test_point_count(self):
        grid = TimeGrid(0.0, 50.0, 0.01)
        times = grid.times()
        assert times.size == 5001
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(50.0, abs=1e-9)

    def test_partial_last_step(self):
        times = TimeGrid(0.0, 1.0, 0.3).times()
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9], abs=1e-12)

    def test_single_point(self):
        assert TimeGrid(2.0, 2.0, 0.5).times().tolist() == [2.0]

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.0, 0.1),
            (0.0, 1.0, 0.0),
            (0.0, 1.0, -0.1),
            # spans whose step count overflows to inf
            (0.0, math.inf, 1.0),
            (0.0, 1e300, math.pi / (20.0 * 1e300)),
            # 21 points but 11 distinct times: dt is below 4 ulps of 1e16
            (1e16, 1e16 + 20, 1.0),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(InvalidRangeError):
            TimeGrid(*args)

    @given(st.floats(-1e17, 1e17), st.integers(1, 2000), st.floats(4.0, 12.0))
    @settings(max_examples=200, deadline=None)
    @example(1e16, 20, 4.0)
    @example(2.0**53 - 100.0, 2000, 4.0)
    @example(-(2.0**52), 2000, 4.0)
    @example(-1e-300, 2000, 4.0)
    def test_grids_near_the_bound_never_repeat_a_point(self, t_start, steps, ulps):
        # dt a few ulps of the grid's largest time, about ``steps`` steps long
        t_end = t_start + steps * ulps * math.ulp(t_start)
        dt = ulps * math.ulp(max(abs(t_start), abs(t_end)))
        assert (np.diff(TimeGrid(t_start, t_end, dt).times()) > 0.0).all()

    @pytest.mark.parametrize("size", [0, -3])
    def test_chunks_reject_bad_arguments_before_yielding(self, size):
        # next() rather than a loop, so a generator that never ends fails
        # here instead of hanging the suite
        chunks = TimeGrid(0.0, 1.0, 0.1).chunks(size)
        with pytest.raises(InvalidRangeError):
            next(chunks)


class TestDecayTime:
    def test_eigenstate_never_decays(self):
        env = build_environment_scenario(ScenarioKind.EIGENSTATE, 10, 1.0)
        with pytest.raises(NoDecayError):
            decay_time(env, 0.5, TimeGrid(0.0, 100.0, 0.01))

    def test_single_balanced_spin_crosses_at_pi_thirds(self):
        # |z| = |cos t| for d = 0, g = 0.5; first drop below 0.5 at pi/3
        env = balanced(1, 0.5)
        t = decay_time(env, 0.5, TimeGrid(0.0, 2.0, 1e-4))
        assert t == pytest.approx(math.pi / 3.0, abs=1e-4 + 1e-12)

    def test_balanced_100_spins(self):
        # |cos t|^100 < 0.01 first at arccos(0.01**(1/100)) ~ 0.30116
        env = balanced(100, 0.5)
        t = decay_time(env, 0.01, TimeGrid(0.0, 1.0, 1e-4))
        assert t == pytest.approx(0.3012, abs=1e-4 + 1e-12)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_range(self, threshold):
        with pytest.raises(InvalidRangeError):
            decay_time(balanced(1, 0.5), threshold, TimeGrid(0.0, 1.0, 0.1))


# (env, threshold, grid); the first case's hit lies past one real scan chunk
DECAY_CASES = [
    (balanced(1, 1e-3), 0.5, TimeGrid(0.0, 540.0, 0.015)),
    (balanced(12, 0.5), 0.3, TimeGrid(0.0, 5.0, 0.001)),
    (build_environment_random(20, 3, None, 1.0), 0.2, TimeGrid(0.0, 20.0, 0.01)),
]


def first_decay(env, threshold, grid):
    """Index of the first point where one whole-grid |z|^2 call is below threshold^2."""
    hits = np.nonzero(decoherence_abs_sq(env, grid.times()) < threshold * threshold)[0]
    assert hits.size
    return int(hits[0])


def test_slow_decay_lies_past_the_first_chunk():
    assert first_decay(*DECAY_CASES[0]) > ensemble._SCAN_CHUNK


@pytest.mark.parametrize("case", range(len(DECAY_CASES)))
@pytest.mark.parametrize("chunk", [1, 7, 1000, ensemble._SCAN_CHUNK])
def test_decay_time_across_chunks(monkeypatch, case, chunk):
    env, threshold, grid = DECAY_CASES[case]
    hit = first_decay(env, threshold, grid)
    monkeypatch.setattr(ensemble, "_SCAN_CHUNK", chunk)
    assert decay_time(env, threshold, grid) == grid.times()[hit]


@pytest.mark.parametrize("case", range(len(DECAY_CASES)))
@pytest.mark.parametrize("where", ["first", "last"])
def test_decay_hit_on_chunk_edge(monkeypatch, case, where):
    env, threshold, grid = DECAY_CASES[case]
    hit = first_decay(env, threshold, grid)
    # the hit opens the second chunk, or closes the first
    monkeypatch.setattr(ensemble, "_SCAN_CHUNK", hit if where == "first" else hit + 1)
    assert decay_time(env, threshold, grid) == grid.times()[hit]


class TestRecurrenceSearch:
    def test_single_spin_recoheres_near_half_period(self):
        # |z| = 1 whenever 2gt is a multiple of pi, whatever the imbalance
        env = EnvironmentSpec([1.0], [math.sqrt(0.75)], [math.sqrt(0.25)])
        report = recurrence_search(env, 0.999, TimeGrid(0.05, 2.0, 0.001))
        assert report.found == pytest.approx(math.pi / 2.0, abs=0.03)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_balanced_recurrence_independent_of_n(self, n):
        # cos^n returns to +/-1 at 2gt = pi: structured environments recohere
        # fast no matter how big they are
        g = 0.5
        report = recurrence_search(balanced(n, g), 0.999, TimeGrid(0.1, 4.0, 0.001))
        assert report.found == pytest.approx(math.pi / (2.0 * g), abs=0.05)

    def test_found_point_satisfies_threshold(self):
        env = build_environment_random(3, seed=5, g_min=0.05, g_max=1.0)
        report = recurrence_search(env, 0.7, TimeGrid(0.5, 200.0, 0.01))
        assert report.found is not None
        value = math.sqrt(float(decoherence_abs_sq(env, np.array([report.found]))[0]))
        assert value >= 0.7 - 1e-12

    def test_eigenstate_trivially_recoherent_everywhere(self):
        env = build_environment_scenario(ScenarioKind.EIGENSTATE, 5, 1.0)
        report = recurrence_search(env, 1.0, TimeGrid(0.5, 2.0, 0.01))
        assert report.found == pytest.approx(0.51, abs=1e-12)
        assert report.scanned_points == 1

    def test_random_20_spins_never_recohere_on_long_scan(self):
        env = build_environment_random(20, seed=42, g_min=0.05, g_max=1.0)
        report = recurrence_search(env, 0.9, TimeGrid(1.0, 1e4, 0.01))
        assert report.found is None
        assert report.scanned_points == 999_900

    def test_scanned_points_counts_up_to_hit(self):
        env = build_environment_scenario(ScenarioKind.EIGENSTATE, 2, 1.0)
        report = recurrence_search(env, 0.5, TimeGrid(1.0, 2.0, 0.25))
        assert report.scanned_points == 1

    def test_t_start_must_be_positive(self):
        with pytest.raises(InvalidRangeError):
            recurrence_search(balanced(1, 0.5), 0.9, TimeGrid(0.0, 1.0, 0.1))

    @pytest.mark.parametrize("threshold", [0.0, 1.2, -0.1])
    def test_threshold_range(self, threshold):
        with pytest.raises(InvalidRangeError):
            recurrence_search(balanced(1, 0.5), threshold, TimeGrid(0.5, 1.0, 0.1))

    def test_decay_precedes_post_decay_recurrence(self):
        env = build_environment_random(8, seed=3, g_min=0.05, g_max=1.0)
        grid = TimeGrid(0.0, 50.0, 0.001)
        t_decay = decay_time(env, 0.5, grid)
        report = recurrence_search(env, 0.9, TimeGrid(t_decay, 50.0, 0.001))
        if report.found is not None:
            assert report.found > t_decay


class TestEnsembleStatistics:
    def test_empty_environment_everything_is_one(self):
        report = ensemble_statistics(0, [1, 2, 3], TimeGrid(0.0, 10.0, 0.1))
        for s in report.per_seed:
            assert s.mean_abs_z_sq == 1.0
            assert s.predicted_mean_abs_z_sq == 1.0
            assert s.sup_abs_z_late == 1.0
        assert all(v == 1.0 for _, v in report.abs_z_quantiles)
        assert report.median_sup_abs_z_late == 1.0

    @pytest.mark.parametrize("t_end,dt", [(5.0, 3.0), (1e-320, GRID_DT), (0.0, 1.0)])
    def test_late_window_holds_the_last_point(self, t_end, dt):
        # (0, 5) with dt = 3 has no point in the trailing quarter [3.75, 5]
        grid = TimeGrid(0.0, t_end, dt)
        report = ensemble_statistics(2, (1,), grid, None, 1.0)
        last = decoherence_abs_sq(build_environment_random(2, 1, None, 1.0), grid.times()[-1:])
        assert report.per_seed[0].sup_abs_z_late == float(np.sqrt(last[0]))

    def test_deterministic_and_sorted_by_seed(self):
        grid = TimeGrid(0.0, 100.0, GRID_DT)
        a = ensemble_statistics(4, [9, 2, 5], grid, 0.05, 1.0)
        b = ensemble_statistics(4, [5, 9, 2], grid, 0.05, 1.0)
        assert a == b
        assert a.seeds == (2, 5, 9)

    def test_all_magnitudes_bounded(self):
        report = ensemble_statistics(6, range(1, 8), TimeGrid(0.0, 200.0, GRID_DT), 0.05, 1.0)
        for s in report.per_seed:
            assert 0.0 <= s.mean_abs_z_sq <= 1.0 + 1e-12
            assert 0.0 <= s.predicted_mean_abs_z_sq <= 1.0 + 1e-12
            assert 0.0 <= s.sup_abs_z_late <= 1.0 + 1e-12
        for _, v in report.abs_z_quantiles:
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_three_spin_averages_match_prediction(self):
        # the ergodic closed form holds at the few-spin scale, where the
        # prediction is O(0.1): at least 27 of 30 seeds within 5% relative
        report = ensemble_statistics(3, range(1, 31), TimeGrid(0.0, 2000.0, GRID_DT), 0.05, 1.0)
        within = sum(
            abs(s.mean_abs_z_sq - s.predicted_mean_abs_z_sq) <= 0.05 * s.predicted_mean_abs_z_sq
            for s in report.per_seed
        )
        assert within >= 27

    def test_twenty_spin_averages_are_tiny(self):
        report = ensemble_statistics(20, range(1, 21), TimeGrid(0.0, 2000.0, GRID_DT), 0.05, 1.0)
        median = float(np.median([s.mean_abs_z_sq for s in report.per_seed]))
        assert median < 1e-2
        # absolute agreement with the closed form stays far below the
        # percent scale even though both sides are ~1e-4
        worst_abs = max(
            abs(s.mean_abs_z_sq - s.predicted_mean_abs_z_sq) for s in report.per_seed
        )
        assert worst_abs < 0.01

    def test_twenty_spin_relative_error_is_finite_time_limited(self):
        # skipping the initial collapse, the per-seed relative mismatch is
        # dominated by slow coupling-difference beats; its median over seeds
        # stays modest but individual seeds legitimately exceed 5%
        report = ensemble_statistics(20, range(1, 21), TimeGrid(1.0, 2000.0, GRID_DT), 0.05, 1.0)
        rels = [
            abs(s.mean_abs_z_sq - s.predicted_mean_abs_z_sq) / s.predicted_mean_abs_z_sq
            for s in report.per_seed
        ]
        assert float(np.median(rels)) < 0.10
        assert max(rels) < 0.5

    def test_empty_seeds_rejected(self):
        with pytest.raises(InvalidRangeError):
            ensemble_statistics(3, [], TimeGrid(0.0, 10.0, 0.1))

    def test_repeated_seeds_rejected(self):
        # a repeat would weight one environment twice in the pooled quantiles
        with pytest.raises(InvalidRangeError, match="seed 1 more than once"):
            ensemble_statistics(3, [2, 1, 1], TimeGrid(0.0, 10.0, 0.1))

    @pytest.mark.parametrize("t_start", [0.0, 7.5])
    @pytest.mark.parametrize("n", [5, 300, 2000])
    @pytest.mark.parametrize("seeds", [(1, 2, 3), (4,)], ids=["handed-out", "one-seed"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_time_average_is_the_grid_mean_of_the_kernel(
        self, monkeypatch, workers, seeds, n, t_start
    ):
        # the package's one time average of |z|^2, to the bit: three seeds are
        # handed out one per thread at two workers, one seed runs on the
        # calling thread, and at n = 2000 |z|^2 underflows to 0 past the
        # first few points and the prediction is a denormal
        monkeypatch.setattr(analytic, "_WORKERS", workers)
        grid = TimeGrid(t_start, 50.0, 0.05)
        report = ensemble_statistics(n, seeds, grid)
        for s in report.per_seed:
            env = build_environment_random(n, s.seed, None, 1.0)
            mean = float(np.mean(decoherence_abs_sq(env, grid.times())))
            assert repr(s.mean_abs_z_sq) == repr(mean)
            assert repr(s.predicted_mean_abs_z_sq) == repr(ergodic_prediction(env))


class TestScalingSweep:
    def test_empty_environment_row(self):
        table = scaling_sweep((0,), 5, TimeGrid(10.0, 20.0, 0.1))
        assert table == [(0, 1.0)]

    def test_deterministic(self):
        window = TimeGrid(20.0, 40.0, GRID_DT)
        assert scaling_sweep((5,), 10, window, 0.05, 1.0) == scaling_sweep(
            (5,), 10, window, 0.05, 1.0
        )

    def test_more_spins_less_surviving_coherence(self):
        window = TimeGrid(20.0, 40.0, GRID_DT)
        table = scaling_sweep((2, 8), 10, window, 0.05, 1.0)
        assert table[0][1] > table[1][1]

    @pytest.mark.parametrize("ns", [(), (5, 5), (10, 5), (-1, 3)])
    def test_invalid_spin_counts(self, ns):
        with pytest.raises(InvalidRangeError):
            scaling_sweep(ns, 5, TimeGrid(10.0, 20.0, 0.1))

    def test_invalid_seed_count(self):
        with pytest.raises(InvalidRangeError):
            scaling_sweep((5,), 0, TimeGrid(10.0, 20.0, 0.1))

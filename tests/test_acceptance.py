"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import math
import re
import time

import numpy as np

from einlab import (
    ScenarioKind,
    TimeGrid,
    assemble_full_state,
    build_environment_random,
    build_environment_scenario,
    crosscheck,
    decay_time,
    decoherence_factor,
    decoherence_series,
    ensemble_statistics,
    evolve_full,
    recurrence_search,
    scaling_sweep,
)
from einlab.cli import main

from branch_reference import branch_environment_state, branch_overlap
from conftest import random_environment, random_system

FIXED_SEEDS = tuple(range(1, 21))


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.2f}s]")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_1_oracle_equivalence():
    with criterion(1, "analytic reduced state matches brute force at 1e-10, 100 cases", 10.0):
        rng = np.random.default_rng(1)
        for case in range(100):
            n = int(rng.integers(1, 11))
            env = random_environment(rng, n)
            sys_amp = random_system(rng)
            t = float(rng.uniform(0.0, 20.0))
            report = crosscheck(sys_amp, env, t, 1e-10)
            assert report.passed, (case, n, t, report.max_deviation)


def test_criterion_2_branch_overlap_identity():
    with criterion(2, "z equals the product of per-spin branch overlaps at 1e-12, 1000 pairs", 1.0):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            env = random_environment(rng, int(rng.integers(0, 9)))
            t = float(rng.uniform(0.0, 20.0))
            plus = branch_environment_state(env, t, +1)
            minus = branch_environment_state(env, t, -1)
            z = decoherence_factor(env, t)
            assert abs(branch_overlap(minus, plus) - z) <= 1e-12


def test_criterion_3_reversibility():
    with criterion(3, "evolve(t) then evolve(-t) restores the state at 1e-12; z(-t) = conj z(t)", 5.0):
        rng = np.random.default_rng(3)
        for n in (1, 4, 8, 12):
            env = random_environment(rng, n)
            state = assemble_full_state(random_system(rng), env)
            before = state.amplitudes.copy()
            t = float(rng.uniform(0.0, 20.0))
            evolve_full(state, env, t)
            evolve_full(state, env, -t)
            assert np.max(np.abs(state.amplitudes - before)) <= 1e-12
        for _ in range(100):
            env = random_environment(rng, int(rng.integers(0, 9)))
            t = float(rng.uniform(0.0, 20.0))
            forward = decoherence_factor(env, t)
            backward = decoherence_factor(env, -t)
            assert abs(backward - np.conj(forward)) <= 1e-12


def test_criterion_4_structured_counterexamples():
    with criterion(4, "eigenstate keeps |z| = 1; balanced follows cos^n and fully recoheres", 5.0):
        eigen = build_environment_scenario(ScenarioKind.EIGENSTATE, 50, 1.0)
        grid = np.linspace(0.0, 100.0, 10_000)
        assert np.max(np.abs(np.abs(decoherence_series(eigen, grid)) - 1.0)) <= 1e-12

        g = 0.7
        for n in (2, 10, 50):
            env = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, n, g)
            ts = np.linspace(0.0, 12.0, 3000)
            assert np.max(
                np.abs(decoherence_series(env, ts) - np.cos(2 * g * ts) ** n)
            ) <= 1e-12
            revival = abs(decoherence_factor(env, math.pi / (2 * g)))
            assert abs(revival - 1.0) <= 1e-9


def test_criterion_5_randomness_decay_and_long_recurrence():
    with criterion(
        5,
        "n=20 random: time-averaged |z|^2 agrees with the closed form within 5 "
        "points of the unit scale; no |z| >= 0.9 recurrence on (1, 1e4]",
        60.0,
    ):
        report = ensemble_statistics(
            20, FIXED_SEEDS, TimeGrid(0.0, 2000.0, math.pi / 20.0), 0.05, 1.0
        )
        for s in report.per_seed:
            assert abs(s.mean_abs_z_sq - s.predicted_mean_abs_z_sq) <= 0.05, s
        for seed in FIXED_SEEDS:
            env = build_environment_random(20, seed, 0.05, 1.0)
            rec = recurrence_search(env, 0.9, TimeGrid(1.0, 1e4, 0.01))
            assert rec.found is None, (seed, rec.found)


def test_criterion_6_scaling_with_n():
    with criterion(6, "median late-window sup |z| strictly decreases over n = 5, 10, 15, 20", 60.0):
        table = scaling_sweep(
            (5, 10, 15, 20), 50, TimeGrid(50.0, 100.0, math.pi / 20.0), 0.05, 1.0
        )
        medians = [median for _, median in table]
        assert all(b < a for a, b in zip(medians, medians[1:])), table


def test_criterion_7_decay_time_spot_values():
    with criterion(7, "decay times: balanced n=100 hits 0.3012, single spin hits pi/3", 1.0):
        dt = 1e-4
        env100 = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 100, 0.5)
        t = decay_time(env100, 0.01, TimeGrid(0.0, 1.0, dt))
        assert abs(t - 0.3012) <= dt + 1e-12

        env1 = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 1, 0.5)
        t = decay_time(env1, 0.5, TimeGrid(0.0, 2.0, dt))
        assert abs(t - math.pi / 3.0) <= dt + 1e-12


def test_criterion_8_determinism_and_format_stability(tmp_path):
    with criterion(8, "identical config gives byte-identical CSV; verify mode exits 0 below 1e-10", 30.0):
        trace_cfg = tmp_path / "trace.cfg"
        trace_cfg.write_text(
            "mode = trace\nn = 6\nseed = 11\nscenario = random\ng_max = 1.0\n"
            "t_max = 20\ndt = 0.01\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([str(trace_cfg), "--output", str(out1), "--quiet"]) == 0
        assert main([str(trace_cfg), "--output", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        verify_cfg = tmp_path / "verify.cfg"
        verify_cfg.write_text("mode = verify\nn = 8\nseed = 21\ng_max = 1.0\n")
        verify_out = tmp_path / "verify.csv"
        assert main([str(verify_cfg), "--output", str(verify_out), "--quiet"]) == 0
        worst = float(
            re.search(r"# max_deviation=([0-9.e+-]+)", verify_out.read_text()).group(1)
        )
        assert worst < 1e-10

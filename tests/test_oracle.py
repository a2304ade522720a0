import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from einlab import (
    DimensionMismatchError,
    EnvironmentSpec,
    FullState,
    SystemAmplitudes,
    TooLargeError,
    assemble_full_state,
    build_environment_random,
    crosscheck,
    evolve_full,
    partial_trace_to_system,
    reduced_density_matrix,
)
import einlab.oracle as oracle

from decimal_reference import cos_sin

from conftest import (
    random_environment,
    random_system,
    small_environments,
    spin_environment,
    system_amplitudes,
    times,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BALANCED_SYS = SystemAmplitudes(complex(INV_SQRT2), complex(INV_SQRT2))

# Prints the bytes of partial traces whose rows are longer than the 10 000
# entries past which OpenBLAS's x86_64 zdot kernel splits a call over its
# threads.
TRACE_BYTES = """
import sys
from einlab import SystemAmplitudes, assemble_full_state, build_environment_random, evolve_full
from einlab.oracle import partial_trace_to_system
for n in (14, 16):
    env = build_environment_random(n, n, 0.05, 1.0)
    state = assemble_full_state(SystemAmplitudes(0.6 + 0j, 0.8j), env)
    evolve_full(state, env, 3.3)
    sys.stdout.write(partial_trace_to_system(state).tobytes().hex() + " ")
"""

# OpenBLAS runs no more threads than the CPUs the process may use, and
# OPENBLAS_NUM_THREADS means nothing to another BLAS.
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_NAME = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def fsum_trace(psi):
    """psi @ psi.conj().T with each entry a math.fsum of the entrywise products."""

    def dot(a, b):
        return complex(
            math.fsum(np.concatenate([a.real * b.real, a.imag * b.imag])),
            math.fsum(np.concatenate([a.real * b.imag, -a.imag * b.real])),
        )

    return np.array([[dot(a, b) for a in psi] for b in psi])


class TestAssemble:
    def test_no_environment(self):
        sys_amp = SystemAmplitudes(0.6 + 0j, 0.8j)
        state = assemble_full_state(sys_amp, EnvironmentSpec([], [], []))
        assert state.n == 0
        assert state.amplitudes == pytest.approx(np.array([0.6, 0.8j]), abs=0)

    def test_aligned_basis_state(self):
        env = spin_environment((1.0, 1.0 + 0j, 0j))
        state = assemble_full_state(SystemAmplitudes(1.0 + 0j, 0j), env)
        assert state.amplitudes == pytest.approx(np.array([1, 0, 0, 0], dtype=complex), abs=0)

    def test_product_amplitudes(self):
        env = spin_environment((1.0, complex(math.sqrt(0.8)), complex(math.sqrt(0.2))))
        state = assemble_full_state(BALANCED_SYS, env)
        expected = np.array([0.6324555320336759, 0.31622776601683794] * 2, dtype=complex)
        assert state.amplitudes == pytest.approx(expected, abs=1e-12)

    def test_index_convention_system_is_most_significant(self):
        # two distinguishable spins: spin 0 in bit 0, spin 1 in bit 1
        env = spin_environment((1.0, 1.0 + 0j, 0j), (1.0, 0j, 1.0 + 0j))
        state = assemble_full_state(SystemAmplitudes(0j, 1.0 + 0j), env)
        # system |-> (bit 2), spin 1 |-> (bit 1), spin 0 |+> (bit 0): index 6
        expected = np.zeros(8, dtype=complex)
        expected[6] = 1.0
        assert state.amplitudes == pytest.approx(expected, abs=0)

    @given(system_amplitudes, small_environments)
    @settings(max_examples=60)
    def test_norm_is_one(self, sys_amp, env):
        amps = assemble_full_state(sys_amp, env).amplitudes
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-9)

    def test_memory_guard(self):
        env = EnvironmentSpec(np.ones(25), np.ones(25), np.zeros(25))
        with pytest.raises(TooLargeError):
            assemble_full_state(BALANCED_SYS, env)


class TestEvolve:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(5)
        env = random_environment(rng, 4)
        state = assemble_full_state(random_system(rng), env)
        evolved = FullState(state.n, state.amplitudes.copy())
        evolve_full(evolved, env, 0.0)
        assert evolved.amplitudes == pytest.approx(state.amplitudes, abs=0)

    def test_quarter_period_phases(self):
        env = spin_environment((1.0, 1.0 + 0j, 0j))
        state = FullState(1, np.ones(4, dtype=complex))
        evolve_full(state, env, math.pi / 2)
        expected = np.array([1j, -1j, -1j, 1j])
        assert state.amplitudes == pytest.approx(expected, abs=1e-12)

    @given(system_amplitudes, small_environments, times)
    @settings(max_examples=80, deadline=None)
    def test_reversibility(self, sys_amp, env, t):
        state = assemble_full_state(sys_amp, env)
        back = FullState(state.n, state.amplitudes.copy())
        evolve_full(back, env, t)
        evolve_full(back, env, -t)
        assert back.amplitudes == pytest.approx(state.amplitudes, abs=1e-12)

    @given(system_amplitudes, small_environments, times)
    @settings(max_examples=80, deadline=None)
    def test_norm_preserved(self, sys_amp, env, t):
        state = assemble_full_state(sys_amp, env)
        evolved = FullState(state.n, state.amplitudes.copy())
        evolve_full(evolved, env, t)
        before, after = state.amplitudes, evolved.amplitudes
        assert np.vdot(after, after).real == pytest.approx(np.vdot(before, before).real, abs=1e-12)

    def test_accepts_entangled_input(self):
        env = spin_environment((0.7, complex(INV_SQRT2), complex(INV_SQRT2)))
        bell = FullState(1, np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex))
        state = FullState(1, bell.amplitudes.copy())
        evolve_full(state, env, 1.3)
        assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0, abs=1e-12)
        evolve_full(state, env, -1.3)
        assert state.amplitudes == pytest.approx(bell.amplitudes, abs=1e-12)

    def test_dimension_mismatch(self):
        env = spin_environment(*[(1.0, 1.0 + 0j, 0j)] * 2)
        state = FullState(1, np.ones(4, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            evolve_full(state, env, 1.0)

    def test_inconsistent_state_rejected(self):
        env = spin_environment((1.0, 1.0 + 0j, 0j))
        with pytest.raises(DimensionMismatchError):
            evolve_full(FullState(1, np.ones(8, dtype=complex)), env, 1.0)


U = 2.0**-53  # unit roundoff of float64
# Largest error of a float cos or sin of a float angle, in units of U.  Each
# angle the accuracy test uses is checked against a 45-digit evaluation.
TRIG_ERROR = 1.0


def fsum_phases(env, t, sign):
    """(angles, phases): for every bit pattern of the spins (bit 0 -> s_j =
    +1), the float angle ``t * fsum(sign * s_j * g_j)`` and its
    ``cmath.exp(1j * angle)``."""
    g = env.couplings().tolist()
    angles = [
        t * math.fsum(sign * (-gj if k >> j & 1 else gj) for j, gj in enumerate(g))
        for k in range(2 ** len(g))
    ]
    return angles, np.array([cmath.exp(1j * angle) for angle in angles])


def assert_trig_error_within(angles, computed):
    """Each of the ``computed`` (cos, sin) pairs lies within TRIG_ERROR * U of
    the cosine and sine of its float angle."""
    bound = Decimal(TRIG_ERROR * U)
    for angle, pair in zip(angles, computed):
        for got, exact in zip(pair, cos_sin(angle)):
            assert abs(Decimal(float(got)) - exact) <= bound, angle


@pytest.mark.parametrize("t_max", [20.0, 1e3])
@pytest.mark.parametrize("n", [0, 1, 4, 7, 10])
def test_phases_stay_within_a_rounding_bound_of_an_fsum_reference(n, t_max):
    # Computed: each angle fl(t g_j) is off by at most U |t g_j|, each cos and
    # sin by TRIG_ERROR * U, so each per-spin phase by sqrt(2) TRIG_ERROR U +
    # U |t g_j|; the phase takes at most n - 1 rounded complex products and
    # the amplitude one more, each within sqrt(5) U relatively (with or
    # without FMA).  Reference: fl(t * fsum) is off by at most (2 U + U^2)
    # |t| sum|g|, cmath.exp by sqrt(2) TRIG_ERROR U, and its product with the
    # amplitude by sqrt(5) U.  The factor 1.01 covers the second-order terms
    # of these n + 1 factors, each within 1e-10 of its value.
    rng = np.random.default_rng(9000 + n)
    env = random_environment(rng, n)
    t = float(rng.uniform(0.0, t_max))
    amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    state = FullState(n, amps.copy())
    evolve_full(state, env, t)
    angles = t * env.couplings()
    assert_trig_error_within(angles, zip(np.cos(angles), np.sin(angles)))
    phases = []
    for sign in (1.0, -1.0):
        reference_angles, row = fsum_phases(env, t, sign)
        assert_trig_error_within(reference_angles, zip(row.real, row.imag))
        phases.append(row)
    plus, minus = amps.reshape(2, -1)
    expected = np.concatenate([plus * phases[0], minus * phases[1]])
    total_g = float(np.sum(np.abs(env.couplings())))
    relative = U * (3.01 * t * total_g + math.sqrt(2) * TRIG_ERROR * (n + 1) + math.sqrt(5) * (n + 1))
    bound = 1.01 * relative * np.abs(amps)
    assert (np.abs(state.amplitudes - expected) <= bound).all()


@pytest.mark.parametrize(
    "t, g",
    [(math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5), (2.0, 1e308)],
    ids=["inf", "-inf", "nan", "overflow"],
)
def test_non_finite_angles_give_nan_amplitudes(t, g):
    # math.cos raises on an infinite angle; np.cos returns NaN, and one NaN
    # per-spin phase is a factor of every phase
    env = spin_environment((0.3, 0.6 + 0j, 0.8j), (g, 1.0 + 0j, 0j), (0.7, 0j, 1.0 + 0j))
    amps = np.random.default_rng(4).normal(size=16) + 0j
    with np.errstate(invalid="ignore", over="ignore"):
        evolve_full(FullState(3, amps), env, t)
    assert np.isnan(amps.real).all() and np.isnan(amps.imag).all()


@pytest.mark.parametrize("n", range(10, 17))
def test_evolve_scratch_is_an_eighth_of_the_state(n):
    # the low-bit table and one phase block, each at most an eighth of a row,
    # plus a few hundred bytes of Python objects; a broadcasting multiply
    # would add numpy's iterator buffer (about 128 KiB) on top
    env = build_environment_random(n, n, 0.05, 1.0)
    state = assemble_full_state(BALANCED_SYS, env)
    evolve_full(state, env, 1.5)
    tracemalloc.start()
    try:
        evolve_full(state, env, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= state.amplitudes.nbytes / 8 + 4096


def per_bit_phase_table(phases):
    """Reference: for each spin j in turn, multiply the entries whose bit j is
    0 by the scalar ``phases[j]`` and the others by its conjugate."""
    idx = np.arange(2 ** len(phases))
    table = np.ones(idx.size, dtype=complex)
    for j, e in enumerate(phases):
        down = ((idx >> j) & 1).astype(bool)
        table[~down] = table[~down] * e
        table[down] = table[down] * e.conjugate()
    return table


@pytest.mark.parametrize("n", range(17))
def test_phase_table_matches_per_bit_loop(n):
    # array-by-scalar multiplies on both sides: numpy rounds an array-by-array
    # complex multiply differently, and an np.where factor of e_j and its
    # conjugate gave other bits in 27 of 153 (n, seed, t) cases
    env = build_environment_random(n, 1000 + n, 0.05, 1.0)
    for t in (0.37, 3.3, 41.0):
        angles = t * env.couplings()
        phases = list(map(complex, np.cos(angles), np.sin(angles)))
        assert oracle._phase_table(phases).tobytes() == per_bit_phase_table(phases).tobytes()


class TestPartialTrace:
    def test_product_state_gives_pure_projector(self):
        rng = np.random.default_rng(17)
        sys_amp = random_system(rng)
        env = random_environment(rng, 5)
        rho = partial_trace_to_system(assemble_full_state(sys_amp, env))
        expected = np.outer(
            np.array([sys_amp.a, sys_amp.b]), np.conj([sys_amp.a, sys_amp.b])
        )
        assert rho == pytest.approx(expected, abs=1e-12)

    def test_maximally_entangled_pair(self):
        bell = FullState(1, np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex))
        rho = partial_trace_to_system(bell)
        assert rho == pytest.approx(np.diag([0.5, 0.5]).astype(complex), abs=1e-12)

    def test_matches_analytic_reduction_at_n8(self):
        rng = np.random.default_rng(23)
        sys_amp = random_system(rng)
        env = random_environment(rng, 8)
        t = 3.7
        full = assemble_full_state(sys_amp, env)
        evolve_full(full, env, t)
        rho_brute = partial_trace_to_system(full)
        rho_closed = reduced_density_matrix(sys_amp, env, t)
        assert rho_brute == pytest.approx(rho_closed, abs=1e-12)

    @pytest.mark.parametrize("n", range(21))
    def test_exactly_hermitian_and_near_matmul(self, n):
        # blocked vdots of the branch rows: a diagonal with imaginary parts of
        # exactly +0.0, rho[1, 0] the bits of conj(rho[0, 1]), and every entry
        # within 8 eps of ``psi @ psi.conj().T`` and of a math.fsum of the
        # products, n = 0 included (on these seeds at most 7.5 eps from the
        # matrix product and 2.5 eps from the fsum)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(1000 + n)
        for _ in range(3 if n <= 12 else 1):
            sys_amp = random_system(rng)
            env = random_environment(rng, n)
            t = float(rng.uniform(-40.0, 40.0))
            state = assemble_full_state(sys_amp, env)
            evolve_full(state, env, t)
            psi = state.amplitudes.reshape(2, -1)
            rho = partial_trace_to_system(state)
            assert rho.shape == (2, 2) and rho.dtype == np.complex128
            assert np.diagonal(rho).imag.view(np.int64).tolist() == [0, 0]
            assert np.array_equal(rho[1, 0:1].view(np.int64), np.conj(rho[0, 1:2]).view(np.int64))
            assert np.abs(rho - psi @ psi.conj().T).max() <= 8 * eps
            assert np.abs(rho - fsum_trace(psi)).max() <= 8 * eps

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="OpenBLAS runs one thread on one CPU")
    @pytest.mark.skipif("openblas" not in BLAS_NAME, reason=f"numpy uses {BLAS_NAME}, not OpenBLAS")
    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # the verify CSV's bytes must not depend on how many CPUs BLAS uses
        outputs = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=str(Path(oracle.__file__).parents[1]),
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
            )
            done = subprocess.run(
                [sys.executable, "-c", TRACE_BYTES], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1


class TestCrosscheck:
    def test_empty_environment_is_exact(self):
        report = crosscheck(BALANCED_SYS, EnvironmentSpec([], [], []), 2.0, 1e-12)
        assert report.max_deviation == 0.0
        assert report.passed

    def test_random_n8(self):
        env = build_environment_random(8, seed=42, g_min=0.05, g_max=1.0)
        report = crosscheck(BALANCED_SYS, env, 1.3, 1e-10)
        assert report.passed
        assert report.max_deviation < 1e-10

    def test_mutated_couplings_are_detected(self):
        env = build_environment_random(8, seed=42, g_min=0.05, g_max=1.0)
        amps = env.amplitudes()
        doubled = EnvironmentSpec(env.couplings() * 2.0, amps[:, 0], amps[:, 1])
        full = assemble_full_state(BALANCED_SYS, env)
        evolve_full(full, env, 1.3)
        rho_brute = partial_trace_to_system(full)
        rho_mutated = reduced_density_matrix(BALANCED_SYS, doubled, 1.3)
        assert np.max(np.abs(rho_brute - rho_mutated)) > 1e-10

    def test_bulk_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            env = random_environment(rng, n)
            sys_amp = random_system(rng)
            t = float(rng.uniform(0.0, 20.0))
            report = crosscheck(sys_amp, env, t, 1e-10)
            assert report.passed, (n, t, report.max_deviation)


class TestPhaseInsensitivity:
    def test_spin_phases_cancel_in_reduced_state(self):
        rng = np.random.default_rng(31)
        sys_amp = random_system(rng)
        env = random_environment(rng, 6)
        angles = [[rng.uniform(0, 2 * math.pi) for _ in range(2)] for _ in range(env.n)]
        amps = env.amplitudes() * np.exp(1j * np.array(angles).reshape(-1, 2))
        rephased = EnvironmentSpec(env.couplings(), amps[:, 0], amps[:, 1])
        t = 2.9
        for e1, e2 in ((env, rephased),):
            full1, full2 = assemble_full_state(sys_amp, e1), assemble_full_state(sys_amp, e2)
            evolve_full(full1, e1, t)
            evolve_full(full2, e2, t)
            rho1, rho2 = partial_trace_to_system(full1), partial_trace_to_system(full2)
            assert rho1 == pytest.approx(rho2, abs=1e-12)
        rho_closed1 = reduced_density_matrix(sys_amp, env, t)
        rho_closed2 = reduced_density_matrix(sys_amp, rephased, t)
        assert rho_closed1 == pytest.approx(rho_closed2, abs=1e-12)

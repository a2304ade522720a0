"""Brute-force ground truth: full state-vector evolution and partial trace.

The closed-form engine in :mod:`einlab.analytic` never materializes the
joint state.  This module does, at exponential cost, so the two code paths
can be checked against each other on small systems.

Index convention for the 2^(n+1) amplitudes: the system occupies the most
significant bit (bit value 0 is ``|+>``, 1 is ``|->``); environment spin j
occupies bit j, with bit 0 least significant.  So basis index
``s * 2**n + sum_j b_j * 2**j``.

Evolution is diagonal in this basis: amplitude k picks up the phase
``exp(i * t * s * sum_j g_j * s_j)`` with the signs read off the bits of k
(bit 0 -> +1, bit 1 -> -1).  No matrix exponential is ever needed, and the
dynamics is exactly unitary, hence exactly reversible: running with -t
undoes running with t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .analytic import ReducedState, reduced_density_matrix
from .errors import DimensionMismatchError, TooLargeError
from .model import EnvironmentSpec, SystemAmplitudes

MAX_SPINS = 24


@dataclass(frozen=True, eq=False)
class FullState:
    """Dense amplitudes of the system plus n environment spins."""

    n: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def assemble_full_state(sys: SystemAmplitudes, env: EnvironmentSpec) -> FullState:
    """Product state (a|+> + b|->) (x) prod_j (alpha_j|+>_j + beta_j|->_j)."""
    n = env.n
    if n > MAX_SPINS:
        raise TooLargeError(f"{n} spins would need 2**{n + 1} amplitudes; cap is {MAX_SPINS}")
    sys_vec = np.array([sys.a, sys.b], dtype=complex)
    # kron puts its first factor in the high bits, so fold from spin n-1 down to 0
    env_vec = reduce(np.kron, env.amplitudes()[::-1], np.ones(1, dtype=complex))
    return FullState(n, np.kron(sys_vec, env_vec))


def _coupling_sums(env: EnvironmentSpec) -> np.ndarray:
    """sum_j g_j * s_j for every environment bit pattern, indexed by pattern.

    Built by doubling: spin j is the top bit of the first 2^(j+1) patterns,
    so each entry adds the same +-g_j in the same order as a loop over bits.
    """
    total = np.zeros(1)
    for g in env.couplings():
        total = np.concatenate((total + g, total - g))
    return total


def evolve_full(state: FullState, env: EnvironmentSpec, t: float) -> FullState:
    """Apply the diagonal interaction phases for time ``t``.

    Accepts arbitrary (including entangled) input states.
    """
    if state.n != env.n or state.amplitudes.shape != (2 ** (state.n + 1),):
        raise DimensionMismatchError(
            f"state holds {state.amplitudes.shape[0]} amplitudes for n={state.n}, "
            f"environment has n={env.n}"
        )
    sums = _coupling_sums(env)
    amps = state.amplitudes.reshape(2, -1)
    out = np.empty_like(amps)
    out[0] = amps[0] * np.exp((1j * float(t)) * sums)
    out[1] = amps[1] * np.exp((-1j * float(t)) * sums)
    return FullState(state.n, out.reshape(-1))


def partial_trace_to_system(state: FullState) -> ReducedState:
    """Reduced system matrix rho[s, s'] = sum_e psi[s, e] conj(psi[s', e])."""
    psi = state.amplitudes.reshape(2, -1)
    return ReducedState(psi @ psi.conj().T)


@dataclass(frozen=True)
class CrosscheckReport:
    """Elementwise comparison of the brute-force and closed-form reduced states."""

    max_deviation: float
    tolerance: float
    passed: bool


def crosscheck(
    sys: SystemAmplitudes, env: EnvironmentSpec, t: float, tolerance: float
) -> CrosscheckReport:
    """Assemble, evolve and trace the full state, then compare against the
    closed-form reduced density matrix."""
    full = assemble_full_state(sys, env)
    evolved = evolve_full(full, env, t)
    rho_brute = partial_trace_to_system(evolved).rho
    rho_closed = reduced_density_matrix(sys, env, t).rho
    dev = float(np.max(np.abs(rho_brute - rho_closed)))
    return CrosscheckReport(max_deviation=dev, tolerance=float(tolerance), passed=dev <= tolerance)

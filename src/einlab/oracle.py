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

The unitary is a product of commuting two-spin gates
``exp(i t g_j sz^S sz^j)``, one per environment spin, so that phase is the
product of n per-spin phases ``exp(i t s g_j s_j)``.  :func:`evolve_full`
takes them from one ``cos`` and one ``sin`` over the n angles ``t * g_j``
and multiplies them into the amplitudes a block at a time, so the table of
2^n phases is never stored whole and the state is evolved in place.

Memory rule: a crosscheck holds one 2^(n+1) array, the state, which it
allocates itself: :func:`assemble_full_state` returns a fresh array,
:func:`evolve_full` evolves that array in place and returns None, as
numpy's in-place operations do, with two blocks of scratch that take at
most an eighth of the state, and the partial trace reads it where it lies.
Verify runs its crosschecks one after another on one thread, so it holds
one state at a time.  :func:`partial_trace_to_system` returns a 2x2
complex array, as :func:`einlab.analytic.reduced_density_matrix` does.

The partial trace is three inner products of the two branch rows, each a
sum of ``np.vdot`` calls over blocks of the rows; ``np.vdot`` conjugates
inside the BLAS kernel, so there is no conjugate copy, and the same code
runs at every n, n = 0 included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import reduced_density_matrix
from .errors import DimensionMismatchError, TooLargeError
from .model import EnvironmentSpec, SystemAmplitudes

MAX_SPINS = 24

@dataclass(frozen=True, eq=False)
class FullState:
    """Dense amplitudes of the system plus n environment spins.

    The dataclass is frozen, but its array is not: :func:`evolve_full`
    evolves ``amplitudes`` in place.
    """

    n: int
    amplitudes: np.ndarray


def _check_size(n: int) -> None:
    if n > MAX_SPINS:
        raise TooLargeError(f"{n} spins would need 2**{n + 1} amplitudes; cap is {MAX_SPINS}")


def assemble_full_state(sys: SystemAmplitudes, env: EnvironmentSpec) -> FullState:
    """Product state (a|+> + b|->) (x) prod_j (alpha_j|+>_j + beta_j|->_j)."""
    n = env.n
    _check_size(n)
    full = np.empty(2 ** (n + 1), dtype=complex)
    rows = full.reshape(2, -1)
    amps = env.amplitudes()
    # The same multiplies as reduce(np.kron, amps[::-1], ones(1)): kron puts
    # its first factor in the high bits, so fold from spin n-1 down to 0.
    # The partial products alternate between the two halves of ``full`` and
    # the last one, spin 0's, lands in rows[1].
    rows[(n + 1) % 2, 0] = 1.0
    for j in range(n - 1, -1, -1):
        size = 2 ** (n - 1 - j)
        acc = rows[j % 2, :size]
        nxt = rows[(j + 1) % 2, : 2 * size].reshape(size, 2)
        np.multiply(acc, amps[j, 0], out=nxt[:, 0])
        np.multiply(acc, amps[j, 1], out=nxt[:, 1])
    # np.kron(sys_vec, env_vec), rows[1] last because it holds env_vec
    sys_vec = np.array([sys.a, sys.b], dtype=complex)
    np.multiply(sys_vec[0], rows[1], out=rows[0])
    np.multiply(sys_vec[1], rows[1], out=rows[1])
    return FullState(n, full)


def _phase_table(phases: list[complex]) -> np.ndarray:
    """prod_j phases[j] ** (+-1) for every bit pattern of the given spins,
    indexed by pattern (bit 0 -> ``phases[j]``, bit 1 -> its conjugate).

    Built by doubling: spin j is the top bit of the first 2^(j+1) patterns,
    so each entry multiplies its factors in spin order, the running product
    first, as a loop over bits would.
    """
    table = np.empty(2 ** len(phases), dtype=complex)
    table[0] = 1.0
    size = 1
    for e in phases:
        np.multiply(table[:size], e.conjugate(), out=table[size : 2 * size])
        np.multiply(table[:size], e, out=table[:size])
        size *= 2
    return table


# Largest phase block of evolve_full, in entries.  A block is also at most an
# eighth of a row, so its scratch (the low-bit table and one phase block, 16
# bytes an entry each) takes at most 1/8 of the state's 2^(n+1) amplitudes.
# tracemalloc measured 0.126-0.134 of the state for n = 13..16: the scratch
# and about 2.4 KiB of Python objects.
_EVOLVE_BLOCK = 1 << 13


def evolve_full(state: FullState, env: EnvironmentSpec, t: float) -> None:
    """Apply the diagonal interaction phases for time ``t`` to
    ``state.amplitudes`` in place; returns None.

    Accepts arbitrary (including entangled) input states.  The amplitudes
    must be one contiguous complex128 array of 2^(n+1) entries; anything
    else raises :class:`DimensionMismatchError` before an amplitude is
    written.  Evolving by ``t`` and then by ``-t`` restores the state to
    within rounding.

    The unitary is a product of commuting two-spin gates, so each phase is a
    product of n per-spin phases ``e_j = exp(i t g_j)``, taken from one
    ``cos`` and one ``sin`` over the n angles ``t * g_j``.  Each row is
    walked in blocks: the spins below a block's size vary within it and
    give one low-bit table (:func:`_phase_table`), the spins above it are
    fixed and give the block one scalar from a high-bit table.  A block's
    ``|+>`` phases are ``low * high``, its ``|->`` phases their conjugates,
    and each is one contiguous multiply into the amplitudes.  Where
    ``t * g_j`` is not finite the phases, and so the amplitudes, are NaN.
    """
    size = 2 ** (state.n + 1)
    amps = state.amplitudes
    if (
        state.n != env.n
        or amps.shape != (size,)
        or amps.dtype != np.complex128
        or not amps.flags.c_contiguous
    ):
        raise DimensionMismatchError(
            f"state for n={state.n} (environment n={env.n}) must hold a contiguous "
            f"complex128 array of shape ({size},), got {amps.dtype} of shape {amps.shape}"
        )
    angles = float(t) * env.couplings()
    phases = list(map(complex, np.cos(angles), np.sin(angles)))
    plus, minus = amps.reshape(2, -1)
    # at least two entries a block, as numpy rounds an in-place complex
    # multiply of one element differently (n = 0 has one entry a row)
    block = min(plus.size, max(2, plus.size // 8), _EVOLVE_BLOCK)
    low_bits = block.bit_length() - 1
    low = _phase_table(phases[:low_bits])
    high = _phase_table(phases[low_bits:])
    phase = np.empty(block, dtype=complex)
    for p, m, h in zip(plus.reshape(-1, block), minus.reshape(-1, block), high):
        np.multiply(low, h, out=phase)
        np.multiply(p, phase, out=p)
        np.conjugate(phase, out=phase)
        np.multiply(m, phase, out=m)


# Longest stretch of a row that one np.vdot call sums.  OpenBLAS's x86_64
# zdot kernel splits a call of more than 10 000 entries over its threads,
# and the partial sums round differently, so longer calls would give bits
# that depend on the BLAS thread count (n >= 14 did, under taskset -c 0
# against two CPUs).  Other BLAS builds may split at other lengths.
_TRACE_BLOCK = 1 << 13


def partial_trace_to_system(state: FullState) -> np.ndarray:
    """Reduced system matrix rho[s, s'] = sum_e psi[s, e] conj(psi[s', e]), a 2x2 complex array.

    With the branch rows ``plus, minus = psi.reshape(2, -1)``: ``rho[0, 0]``
    and ``rho[1, 1]`` are the real parts of ``vdot(plus, plus)`` and
    ``vdot(minus, minus)``, ``rho[0, 1]`` is ``vdot(minus, plus)`` and
    ``rho[1, 0]`` its conjugate.  So the diagonal is real and the matrix
    Hermitian, exactly, at every n.  Each ``vdot`` runs over blocks of at
    most ``_TRACE_BLOCK`` entries, added in order, so the bits do not depend
    on the OpenBLAS thread count.  The entries are the sums of
    ``psi @ psi.conj().T`` rounded in another order: up to n = 20 they
    stayed within 3 eps of a ``math.fsum`` of the products, where the
    matrix product strayed up to 10 eps from it.
    """
    amps = state.amplitudes
    rows = amps.reshape(2, -1, min(_TRACE_BLOCK, amps.size // 2))
    pp = mm = 0.0
    pm = 0j
    for plus, minus in zip(*rows):
        pp += np.vdot(plus, plus).real
        mm += np.vdot(minus, minus).real
        pm += np.vdot(minus, plus)
    return np.array([[pp, pm], [np.conj(pm), mm]])


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
    closed-form reduced density matrix.

    The crosscheck allocates its state when it assembles it,
    :func:`evolve_full` overwrites that state's amplitudes with the evolved
    ones, and the partial trace reads them where they lie.  So it holds one
    2^(n+1) array, its own, and keeps nothing between calls.
    """
    full = assemble_full_state(sys, env)
    evolve_full(full, env, t)
    rho_brute = partial_trace_to_system(full)
    rho_closed = reduced_density_matrix(sys, env, t)
    dev = float(np.max(np.abs(rho_brute - rho_closed)))
    return CrosscheckReport(max_deviation=dev, tolerance=float(tolerance), passed=dev <= tolerance)

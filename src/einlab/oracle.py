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

The phase table costs one complex ``exp`` over half of its 2^n entries:
the other half and the ``|->`` branch follow by conjugation, with the same
bits as evaluating every entry.  :func:`assemble_full_state` and
:func:`evolve_full` write into an ``out=`` array when given one, and
:func:`crosscheck` takes its two full states from :func:`crosscheck_buffers`,
so a batch of crosschecks reuses one allocation; the results are the same
bytes as with fresh arrays.  :func:`partial_trace_to_system` returns a 2x2
complex array, as :func:`einlab.analytic.reduced_density_matrix` does.
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
    """Dense amplitudes of the system plus n environment spins."""

    n: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def _check_size(n: int) -> None:
    if n > MAX_SPINS:
        raise TooLargeError(f"{n} spins would need 2**{n + 1} amplitudes; cap is {MAX_SPINS}")


def _out_array(out: np.ndarray | None, size: int) -> np.ndarray:
    """``out`` checked to hold ``size`` contiguous complex128 amplitudes, or a fresh array."""
    if out is None:
        return np.empty(size, dtype=complex)
    if out.shape != (size,) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise DimensionMismatchError(
            f"out must be a contiguous complex128 array of shape ({size},), "
            f"got {out.dtype} of shape {out.shape}"
        )
    return out


def assemble_full_state(
    sys: SystemAmplitudes, env: EnvironmentSpec, out: np.ndarray | None = None
) -> FullState:
    """Product state (a|+> + b|->) (x) prod_j (alpha_j|+>_j + beta_j|->_j).

    ``out``, a contiguous complex128 array of 2^(n+1) amplitudes, receives
    the state instead of a fresh array.
    """
    n = env.n
    _check_size(n)
    full = _out_array(out, 2 ** (n + 1))
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


def _coupling_sums(env: EnvironmentSpec, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j g_j * s_j for every environment bit pattern, indexed by pattern.

    Built by doubling: spin j is the top bit of the first 2^(j+1) patterns,
    so each entry adds the same +-g_j in the same order as a loop over bits.
    ``out`` (2^n float64) receives the table instead of a fresh array.
    """
    total = np.empty(2**env.n) if out is None else out
    total[0] = 0.0
    size = 1
    for g in env.couplings():
        np.subtract(total[:size], g, out=total[size : 2 * size])
        np.add(total[:size], g, out=total[:size])
        size *= 2
    return total


# evolve_full's bytes are those of ``amps[s] * np.exp(...)``, which numpy
# evaluates as ``exp_result *= amps[s]`` once the temporary holds at least
# this many bytes (NPY_MIN_ELIDE_BYTES, temporary elision; n >= 14).  With
# FMA, complex multiply is not commutative in the last place, so both operand
# orders are written out.
_ELIDE_BYTES = 256 * 1024


def evolve_full(
    state: FullState, env: EnvironmentSpec, t: float, out: np.ndarray | None = None
) -> FullState:
    """Apply the diagonal interaction phases for time ``t``.

    Accepts arbitrary (including entangled) input states, which it never
    writes to.  ``out``, a contiguous complex128 array of 2^(n+1) amplitudes
    that shares no memory with the input, receives the evolved state instead
    of a fresh array.

    The values are those of ``amps[s] * np.exp((+-1j * t) * sums)`` to the
    bit, with one complex ``exp`` over half the table: ``sums`` is
    antisymmetric under reversal (complementing every bit flips every sign,
    and rounding is sign-symmetric), ``exp(-i x)`` equals ``conj(exp(i x))``,
    and the ``|->`` phases are the conjugates of the ``|+>`` ones.  Where
    ``t * sums`` is zero or not finite, a mirrored or conjugated phase can
    differ from the direct one in the sign of a zero or a NaN, so those
    entries (all of them at t = 0 or n = 0) are computed directly.
    """
    size = 2 ** (state.n + 1)
    if state.n != env.n or state.amplitudes.shape != (size,):
        raise DimensionMismatchError(
            f"state holds {state.amplitudes.shape[0]} amplitudes for n={state.n}, "
            f"environment has n={env.n}"
        )
    full = _out_array(out, size)
    if np.may_share_memory(full, state.amplitudes):
        raise ValueError("out must not share memory with the input state")
    t = float(t)
    # Both phase tables are built in ``full`` and then multiplied in place;
    # sums and |t * sums| borrow the bytes of the rows they are used before.
    plus, minus = full.reshape(2, -1)
    m = plus.size
    half = m // 2
    sums = _coupling_sums(env, out=minus.view(np.float64)[:m])
    ts = np.multiply(t, sums, out=plus.view(np.float64)[:m])
    np.abs(ts, out=ts)
    direct = np.flatnonzero(~((ts > 0.0) & (ts < np.inf)))
    direct_sums = sums[direct]
    np.multiply(1j * t, sums[:half], out=plus[:half])
    np.exp(plus[:half], out=plus[:half])
    np.conjugate(plus[:half][::-1], out=plus[m - half :])
    plus[direct] = np.exp((1j * t) * direct_sums)
    np.conjugate(plus, out=minus)
    minus[direct] = np.exp((-1j * t) * direct_sums)
    amps = state.amplitudes.reshape(2, -1)
    if plus.nbytes >= _ELIDE_BYTES:
        np.multiply(plus, amps[0], out=plus)
        np.multiply(minus, amps[1], out=minus)
    else:
        np.multiply(amps[0], plus, out=plus)
        np.multiply(amps[1], minus, out=minus)
    return FullState(state.n, full)


def partial_trace_to_system(state: FullState) -> np.ndarray:
    """Reduced system matrix rho[s, s'] = sum_e psi[s, e] conj(psi[s', e]), a 2x2 complex array."""
    psi = state.amplitudes.reshape(2, -1)
    return psi @ psi.conj().T


@dataclass(frozen=True)
class CrosscheckReport:
    """Elementwise comparison of the brute-force and closed-form reduced states."""

    max_deviation: float
    tolerance: float
    passed: bool


def crosscheck_buffers(n: int) -> np.ndarray:
    """Storage for the assembled and evolved states of crosschecks with up to ``n`` spins.

    Pass it to every :func:`crosscheck` of a batch so the cases reuse it
    instead of allocating 2^(n+1) amplitudes twice each.  Raises
    :class:`TooLargeError` past ``MAX_SPINS``, before allocating anything.
    """
    _check_size(n)
    return np.empty((2, 2 ** (n + 1)), dtype=complex)


def crosscheck(
    sys: SystemAmplitudes,
    env: EnvironmentSpec,
    t: float,
    tolerance: float,
    buffers: np.ndarray | None = None,
) -> CrosscheckReport:
    """Assemble, evolve and trace the full state, then compare against the
    closed-form reduced density matrix.

    ``buffers`` (from :func:`crosscheck_buffers`, for at least ``env.n``
    spins) holds the two full states; the report is the same either way.
    """
    state_out = evolved_out = None
    if buffers is not None:
        state_out, evolved_out = buffers[:, : 2 ** (env.n + 1)]
    full = assemble_full_state(sys, env, out=state_out)
    evolved = evolve_full(full, env, t, out=evolved_out)
    rho_brute = partial_trace_to_system(evolved)
    rho_closed = reduced_density_matrix(sys, env, t)
    dev = float(np.max(np.abs(rho_brute - rho_closed)))
    return CrosscheckReport(max_deviation=dev, tolerance=float(tolerance), passed=dev <= tolerance)

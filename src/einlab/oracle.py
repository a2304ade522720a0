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

The phase table costs one real ``cos`` and one ``sin`` over half of its
2^n entries, the bits of a complex ``exp`` there: the other half and the
``|->`` branch follow by conjugation and reversal, with the same bits as
evaluating every entry.  :func:`evolve_full` builds it block by block and
never stores it whole, so it can evolve a state in place.  Each block is a
few long array calls, which release the GIL, so two workers' evolutions
overlap.

Memory rule: a crosscheck holds two 2^(n+1) arrays, the state (assembled,
then evolved in place) and the conjugate that the partial trace multiplies
by.  :func:`assemble_full_state` and :func:`evolve_full` write into an
``out=`` array when given one, and :func:`crosscheck` takes its arrays
from :func:`crosscheck_buffers`: one state per worker thread plus one
conjugate scratch that the workers share under a lock, so two workers hold
three arrays.  A batch of crosschecks reuses that one allocation; the
results are the same bytes as with fresh arrays.
:func:`partial_trace_to_system` returns a 2x2 complex array, as
:func:`einlab.analytic.reduced_density_matrix` does.

The partial trace's product is ``np.dot``, not ``@``: for n >= 1 the two
give the same bits, but only ``np.dot`` releases the GIL while it runs, so
two workers overlap it with the other's assembly and evolution.
At n = 0 ``np.dot`` leaves imaginary parts of about 1e-17 on the diagonal
where ``@`` gives exact zeros, so n = 0 keeps ``@``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .analytic import reduced_density_matrix
from .errors import DimensionMismatchError, TooLargeError
from .model import EnvironmentSpec, SystemAmplitudes

MAX_SPINS = 24

# One lock for every conjugate array of partial_trace_to_system, whichever
# buffers it belongs to: partial traces run one at a time in a process.
_scratch_lock = threading.Lock()


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


def _coupling_sums(env: EnvironmentSpec, spins: int | None = None) -> np.ndarray:
    """sum_j g_j * s_j over the first ``spins`` spins (all by default) for
    every bit pattern of them, indexed by pattern.

    Built by doubling: spin j is the top bit of the first 2^(j+1) patterns,
    so each entry adds the same +-g_j in the same order as a loop over bits.
    """
    couplings = env.couplings()[:spins]
    total = np.empty(2**couplings.size)
    total[0] = 0.0
    size = 1
    for g in couplings:
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

# Largest phase block of evolve_full, in entries.  A block is also at most an
# eighth of a row, so its scratch (40 bytes an entry, the low-bit table
# included) takes at most 5/32 of the state's 2^(n+1) amplitudes.  Smaller
# blocks cost more in per-block calls: 2^10 took 2.9 ms per n = 16 evolve
# against 2.0 ms here.
_EVOLVE_BLOCK = 1 << 13


def evolve_full(
    state: FullState, env: EnvironmentSpec, t: float, out: np.ndarray | None = None
) -> FullState:
    """Apply the diagonal interaction phases for time ``t``.

    Accepts arbitrary (including entangled) input states.  ``out``, a
    contiguous complex128 array of 2^(n+1) amplitudes, receives the evolved
    state instead of a fresh array.  It may be the input's own array, which
    is then evolved in place; any other overlap with the input is refused.

    The values are those of ``amps[s] * np.exp((+-1j * t) * sums)`` to the
    bit, with one ``cos`` and one ``sin`` over half the table: for finite,
    nonzero ``y`` they are the bits of ``exp(1j * y)``, ``sums`` is
    antisymmetric under reversal (complementing every bit flips every sign,
    and rounding is sign-symmetric), ``exp(-i x)`` equals ``conj(exp(i x))``,
    and the ``|->`` phases are the conjugates of the ``|+>`` ones.  Where
    ``t * sums`` is zero or not finite, a mirrored or conjugated phase can
    differ from the direct one in the sign of a zero or a NaN, so those
    entries (all of them at t = 0) are computed directly.  See
    :func:`_evolve_blocks` for how the table is walked without storing it.
    """
    size = 2 ** (state.n + 1)
    amps = state.amplitudes
    if state.n != env.n or amps.shape != (size,):
        raise DimensionMismatchError(
            f"state holds {amps.shape[0]} amplitudes for n={state.n}, "
            f"environment has n={env.n}"
        )
    full = _out_array(out, size)
    in_place = (
        amps.dtype == full.dtype and amps.flags.c_contiguous and amps.ctypes.data == full.ctypes.data
    )
    if not in_place:
        if np.may_share_memory(full, amps):
            raise ValueError("out must be the input array itself or share no memory with it")
        full[...] = amps
    t = float(t)
    rows = full.reshape(2, -1)
    if state.n <= 1:
        # Blocks would be one entry long at n = 1, and numpy's in-place complex
        # multiply of one element rounds differently from the out-of-place
        # product; rows this short take the two-exp expression itself.
        sums = _coupling_sums(env)
        rows[0] = rows[0] * np.exp((1j * t) * sums)
        rows[1] = rows[1] * np.exp((-1j * t) * sums)
    else:
        _evolve_blocks(rows, env, t)
    return FullState(state.n, full)


def _evolve_blocks(rows: np.ndarray, env: EnvironmentSpec, t: float) -> None:
    """Multiply the (2, 2^n) amplitude rows, n >= 2, by their phases in place.

    The lower half of the table is walked in blocks of ``size`` entries, each
    together with its mirror block in the upper half.  A block's coupling
    sums are the low-bit table (spins below log2(size), built once) plus the
    block's high-bit couplings, added in spin order: the same additions as
    :func:`_coupling_sums`.  ``cos`` and ``sin`` of ``t * sums``, written
    into the real and imaginary parts of one phase block, are the bits of
    ``exp((1j * t) * sums)``, and give all four of its phase blocks: ``|+>``
    lower as is, ``|->`` upper reversed, and after one in-place conjugate
    ``|->`` lower as is and ``|+>`` upper reversed.  The reversed blocks are
    views, so nothing is copied; the direct entries are written into the
    phase block before each multiply.  Every multiply into the amplitudes
    spans a whole block of at least two entries.
    """
    plus, minus = rows
    m = plus.size
    size = max(2, min(_EVOLVE_BLOCK, m // 8))
    blocks = m // size
    low_bits = size.bit_length() - 1
    low = _coupling_sums(env, low_bits)
    high = env.couplings()[low_bits:].tolist()
    phase_first = plus.nbytes >= _ELIDE_BYTES
    phase = np.empty(size, dtype=complex)
    reversed_phase = phase[::-1]
    sums, ts = np.empty((2, size))
    no_entries = np.empty(0, dtype=np.intp)

    def block_sums(block: int) -> np.ndarray:
        src = low
        for j, g in enumerate(high):
            (np.subtract if block >> j & 1 else np.add)(src, g, out=sums)
            src = sums
        return sums

    def apply(
        amps: np.ndarray, phases: np.ndarray, direct: np.ndarray, i_t: complex, direct_sums: np.ndarray
    ) -> None:
        if direct.size:
            phases[direct] = np.exp(i_t * direct_sums)
        if phase_first:
            np.multiply(phases, amps, out=amps)
        else:
            np.multiply(amps, phases, out=amps)

    for block in range(blocks // 2):
        lower = slice(block * size, (block + 1) * size)
        upper = slice(m - (block + 1) * size, m - block * size)
        block_sums(block)
        np.multiply(t, sums, out=ts)
        np.cos(ts, out=phase.real)
        np.sin(ts, out=phase.imag)
        np.abs(ts, out=ts)
        # min and max are NaN if any entry is, which fails both tests
        direct = mirror = no_entries
        if not (ts.min() > 0.0 and ts.max() < np.inf):
            direct = np.flatnonzero(~((ts > 0.0) & (ts < np.inf)))
        direct_sums = mirror_sums = sums[direct]
        if direct.size:
            # |t * sums| is symmetric under reversal, so the mirror block's
            # direct entries sit at the mirrored positions
            mirror = size - 1 - direct[::-1]
            mirror_sums = block_sums(blocks - 1 - block)[mirror]
        apply(plus[lower], phase, direct, 1j * t, direct_sums)
        apply(minus[upper], reversed_phase, mirror, -1j * t, mirror_sums)
        np.conjugate(phase, out=phase)
        apply(minus[lower], phase, direct, -1j * t, direct_sums)
        apply(plus[upper], reversed_phase, mirror, 1j * t, mirror_sums)


def partial_trace_to_system(state: FullState, scratch: np.ndarray | None = None) -> np.ndarray:
    """Reduced system matrix rho[s, s'] = sum_e psi[s, e] conj(psi[s', e]), a 2x2 complex array.

    ``conj(psi)`` is written into ``scratch``, a contiguous complex128 array
    of the state's size, or into a fresh array without one; the matrix
    product is the same.  Threads may share one scratch array: every call
    takes one module-wide lock, so partial traces run one at a time in a
    process, even into different arrays.

    The product is ``np.dot(psi, conj.T)``, which releases the GIL while it
    runs; ``psi @ conj.T`` holds it throughout (two threads ran n = 16
    products no faster than one thread, against twice as fast with
    ``np.dot``).  So another thread can assemble or evolve its state
    meanwhile.  Both give the same bits for n >= 1.  At n = 0 (one environment entry per row) ``np.dot`` gives the
    diagonal entries ``|a|^2`` and ``|b|^2`` imaginary parts of up to about
    1e-17 where ``@`` gives exact zeros, so that one size keeps ``@``.
    """
    psi = state.amplitudes.reshape(2, -1)
    conj = _out_array(scratch, psi.size).reshape(2, -1)
    with _scratch_lock:
        np.conjugate(psi, out=conj)
        if psi.shape[1] == 1:
            return psi @ conj.T
        return np.dot(psi, conj.T)


@dataclass(frozen=True)
class CrosscheckReport:
    """Elementwise comparison of the brute-force and closed-form reduced states."""

    max_deviation: float
    tolerance: float
    passed: bool


def crosscheck_buffers(n: int, workers: int = 1) -> np.ndarray:
    """Storage for a batch of crosschecks with up to ``n`` spins, run by up to
    ``workers`` threads at once: a ``(workers + 1, 2^(n+1))`` complex array.

    Row ``w`` holds the full state of worker ``w``, assembled and then evolved
    in place; the last row is the conjugate scratch of the partial trace,
    which the workers share.  Worker ``w`` passes ``buffers[w:]`` to every
    :func:`crosscheck` it runs, so the cases reuse the array instead of
    allocating.  Raises :class:`TooLargeError` past ``MAX_SPINS``, before
    allocating anything.
    """
    _check_size(n)
    return np.empty((workers + 1, 2 ** (n + 1)), dtype=complex)


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
    spins) holds the state in its first row and the conjugate scratch in its
    last; without it the crosscheck allocates ``crosscheck_buffers(env.n)``,
    and the report is the same either way.  A thread of a batch passes the
    rows from its own onward, so every thread's first row is its own and the
    last row is the shared scratch.  The state is evolved in place, so a
    crosscheck holds at most two 2^(n+1) arrays of its own.
    """
    if buffers is None:
        buffers = crosscheck_buffers(env.n)
    size = 2 ** (env.n + 1)
    full = assemble_full_state(sys, env, out=buffers[0, :size])
    evolved = evolve_full(full, env, t, out=full.amplitudes)
    rho_brute = partial_trace_to_system(evolved, buffers[-1, :size])
    rho_closed = reduced_density_matrix(sys, env, t)
    dev = float(np.max(np.abs(rho_brute - rho_closed)))
    return CrosscheckReport(max_deviation=dev, tolerance=float(tolerance), passed=dev <= tolerance)

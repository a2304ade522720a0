"""Brute-force ground truth: full state-vector evolution and partial trace.

The closed-form engine in :mod:`einlab.analytic` never materializes the
joint state.  This module forms every one of its amplitudes, at exponential
cost, so the two code paths can be checked against each other on small
systems.

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
takes them from one ``cos`` and one ``sin`` over the n angles ``t * g_j``.

Block layout: assemble and evolve walk the state in the same blocks of
``E = 2^k`` entries, ``k = _low_bits(n)``, at most an eighth of a row and
at most ``_EVOLVE_BLOCK``.  The spins below bit k vary within a block and
give one low table of 2^k entries; the spins above it, and for assemble
the system as the top bit, are fixed within a block and give one entry of
a high table.  Both tables are built by the one doubling rule
(:func:`_doubling_table`), and each block is one contiguous multiply of
the low table by one scalar: for :func:`assemble_full_state` the block is
``low * high[b]``, the amplitudes of its spins; for :func:`evolve_full`
``low * high[b]`` is the block's ``|+>`` phases, and their conjugates its
``|->`` phases (:func:`_evolve_block`).  So neither the product state's
factors nor the table of 2^n phases is ever stored whole.  The partial
trace sums each branch row in blocks of ``T = min(_TRACE_BLOCK, 2^n)``
entries; both sizes are powers of two and ``E <= T``, so a trace block is
a whole number of evolve blocks.

Memory rule: :func:`crosscheck` never holds the 2^(n+1) state.  It walks
it one trace block at a time (:func:`_walk`): for each of a trace block's
evolve blocks b it writes assemble's ``low * high[b]`` into the ``|+>``
scratch row and ``low * high[b + 2^n / E]`` into the ``|->`` one, evolves
them with :func:`_evolve_block`, and then adds the trace block's three
inner products to the running sums, so each block is assembled, evolved
and traced while it is in cache.  Its scratch is the two T-entry rows, one
E-entry phase block and the four tables: five arrays of 2^13 amplitudes at
n >= 16 (640 KiB, 0.31 of the 2 MiB state at n = 16), fewer entries below.
Every amplitude and sum is formed by the same operations in the same order
as on the whole-state route, so the bits are the same.  That route stays
as the Python API and the tests' route for entangled states:
:func:`assemble_full_state` returns a fresh array, with scratch (the low
table) of at most 1/16 of the state; :func:`evolve_full` evolves any state
in place and returns None, as numpy's in-place operations do, with two
blocks of scratch that take at most an eighth of the state; and
:func:`partial_trace_to_system` reads it where it lies and returns a 2x2
complex array, as :func:`einlab.analytic.reduced_density_matrix` does.

The partial trace is three inner products of the two branch rows.  Rows of
8 entries or more (n >= 3) sum ``np.vdot`` calls over blocks of the rows;
``np.vdot`` conjugates inside the BLAS kernel, so there is no conjugate
copy.  Shorter rows, whose bits BLAS kernels round differently by host,
are summed from real products with ``np.add.reduce``.
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


# Largest block of a row, in entries.  A block is also at most an eighth of a
# row, so evolve's scratch (the low-bit table and one phase block, 16 bytes an
# entry each) takes at most 1/8 of the state's 2^(n+1) amplitudes, and
# assemble's (the low table) at most 1/16.  tracemalloc measured 0.126-0.134
# of the state for evolve at n = 13..16: the scratch and about 2.4 KiB of
# Python objects.
_EVOLVE_BLOCK = 1 << 13


def _low_bits(n: int) -> int:
    """Spins that vary within one block of a row of 2^n amplitudes: the one
    block split that assemble and evolve walk.  A block holds two entries or
    more where a row does, as numpy rounds an in-place complex multiply of
    one element differently (n = 0 has one entry a row)."""
    row = 2**n
    return min(row, max(2, row // 8), _EVOLVE_BLOCK).bit_length() - 1


def _doubling_table(pairs) -> np.ndarray:
    """prod_j pairs[j][bit j] for every bit pattern of the given factors,
    indexed by pattern (bit 0 -> ``pairs[j][0]``, bit 1 -> ``pairs[j][1]``).

    Built by doubling: factor j is the top bit of the first 2^(j+1)
    patterns, so each entry multiplies its factors in order, the running
    product first, as a loop over bits would.
    """
    table = np.empty(2 ** len(pairs), dtype=complex)
    table[0] = 1.0
    size = 1
    for x0, x1 in pairs:
        np.multiply(table[:size], x1, out=table[size : 2 * size])
        np.multiply(table[:size], x0, out=table[:size])
        size *= 2
    return table


def _phase_table(phases: list[complex]) -> np.ndarray:
    """prod_j phases[j] ** (+-1) for every bit pattern of the given spins,
    indexed by pattern (bit 0 -> ``phases[j]``, bit 1 -> its conjugate)."""
    return _doubling_table([(e, e.conjugate()) for e in phases])


def _amplitude_tables(sys: SystemAmplitudes, env: EnvironmentSpec, low_bits: int):
    """The product state's low table (the spins below bit ``low_bits``) and
    high table (the spins above it, then the system as the top bit); block b
    of the state is ``low * high[b]``."""
    pairs = env.amplitudes().tolist()
    return _doubling_table(pairs[:low_bits]), _doubling_table([*pairs[low_bits:], (sys.a, sys.b)])


def _phase_tables(env: EnvironmentSpec, t: float, low_bits: int):
    """Evolve's low and high phase tables for time ``t``: block b of a row
    has the ``|+>`` phases ``low * high[b]``.  The per-spin phases
    ``e_j = exp(i t g_j)`` come from one ``cos`` and one ``sin`` over the n
    angles ``t * g_j``; where an angle is not finite they are NaN."""
    angles = float(t) * env.couplings()
    phases = list(map(complex, np.cos(angles), np.sin(angles)))
    return _phase_table(phases[:low_bits]), _phase_table(phases[low_bits:])


def _evolve_block(plus, minus, low, h, phase) -> None:
    """Evolve block b of the two branch rows in place, ``h = high[b]``: the
    ``|+>`` phases ``low * h`` go into the scratch ``phase``, multiply
    ``plus``, and their conjugates multiply ``minus``.  The amplitude is the
    first operand of each product."""
    np.multiply(low, h, out=phase)
    np.multiply(plus, phase, out=plus)
    np.conjugate(phase, out=phase)
    np.multiply(minus, phase, out=minus)


def assemble_full_state(sys: SystemAmplitudes, env: EnvironmentSpec) -> FullState:
    """Product state (a|+> + b|->) (x) prod_j (alpha_j|+>_j + beta_j|->_j).

    Written a block at a time: the spins below the block size give one low
    table, the spins above it and then the system, as the top bit, one high
    table, and each block of the state is the low table times its entry of
    the high table.
    """
    n = env.n
    _check_size(n)
    full = np.empty(2 ** (n + 1), dtype=complex)
    low, high = _amplitude_tables(sys, env, _low_bits(n))
    for block, h in zip(full.reshape(-1, low.size), high):
        np.multiply(low, h, out=block)
    return FullState(n, full)


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
    walked in the blocks of :func:`assemble_full_state`: the spins below a
    block's size vary within it and give one low-bit table
    (:func:`_phase_table`), the spins above it are fixed and give the block
    one scalar from a high-bit table.  A block's ``|+>`` phases are
    ``low * high``, its ``|->`` phases their conjugates, and each is one
    contiguous multiply into the amplitudes.  Where ``t * g_j`` is not
    finite the phases, and so the amplitudes, are NaN.
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
    low, high = _phase_tables(env, t, _low_bits(state.n))
    phase = np.empty(low.size, dtype=complex)
    plus, minus = amps.reshape(2, -1)
    for p, m, h in zip(plus.reshape(-1, low.size), minus.reshape(-1, low.size), high):
        _evolve_block(p, m, low, h, phase)


# Longest stretch of a row that one np.vdot call sums.  OpenBLAS's x86_64
# zdot kernel splits a call of more than 10 000 entries over its threads,
# and the partial sums round differently, so longer calls would give bits
# that depend on the BLAS thread count (n >= 14 did, under taskset -c 0
# against two CPUs).  Other BLAS builds may split at other lengths.
_TRACE_BLOCK = 1 << 13

# Rows shorter than this are summed without BLAS: OpenBLAS's Haswell zdot
# kernel rounded lengths 2, 3, 4 and 7 differently from its SkylakeX one
# (and lengths 1, 8, 16, 64, 1024 and 8192 the same).
_SHORT_ROW = 8


def _trace(row: int, blocks) -> np.ndarray:
    """rho from the branch rows of ``row`` entries each, given as their
    blocks ``(plus, minus)`` in row order: the whole rows as one block if
    they are shorter than ``_SHORT_ROW``, else blocks of
    ``min(_TRACE_BLOCK, row)`` entries.  See :func:`partial_trace_to_system`."""
    if row < _SHORT_ROW:
        ((plus, minus),) = blocks
        pr, pi, mr, mi = plus.real, plus.imag, minus.real, minus.imag
        pp = np.add.reduce(pr * pr + pi * pi)
        mm = np.add.reduce(mr * mr + mi * mi)
        pm = complex(np.add.reduce(mr * pr + mi * pi), np.add.reduce(mr * pi - mi * pr))
        return np.array([[pp, pm], [np.conj(pm), mm]])
    pp = mm = 0.0
    pm = 0j
    for plus, minus in blocks:
        pp += np.vdot(plus, plus).real
        mm += np.vdot(minus, minus).real
        pm += np.vdot(minus, plus)
    return np.array([[pp, pm], [np.conj(pm), mm]])


def partial_trace_to_system(state: FullState) -> np.ndarray:
    """Reduced system matrix rho[s, s'] = sum_e psi[s, e] conj(psi[s', e]), a 2x2 complex array.

    With the branch rows ``plus, minus = psi.reshape(2, -1)``: ``rho[0, 0]``
    and ``rho[1, 1]`` are the real parts of ``vdot(plus, plus)`` and
    ``vdot(minus, minus)``, ``rho[0, 1]`` is ``vdot(minus, plus)`` and
    ``rho[1, 0]`` its conjugate.  So the diagonal is real and the matrix
    Hermitian, exactly, at every n.  Each ``vdot`` runs over blocks of at
    most ``_TRACE_BLOCK`` entries, added in order, so the bits do not depend
    on the OpenBLAS thread count.  Rows of fewer than ``_SHORT_ROW`` entries
    (n <= 2) skip BLAS, whose kernels round them differently by host: each
    sum is an ``np.add.reduce`` of real products, ``re(p)^2 + im(p)^2`` for
    the diagonal.  The entries are the sums of ``psi @ psi.conj().T``
    rounded in another order: up to n = 20 they stayed within 3 eps of a
    ``math.fsum`` of the products, where the matrix product strayed up to
    10 eps from it.
    """
    plus, minus = state.amplitudes.reshape(2, -1)
    block = min(_TRACE_BLOCK, plus.size)
    return _trace(plus.size, zip(plus.reshape(-1, block), minus.reshape(-1, block)))


def _walk(sys: SystemAmplitudes, env: EnvironmentSpec, t: float):
    """Yield the evolved product state's branch rows as :func:`_trace` takes
    them, one trace block ``(plus, minus)`` at a time, each written into the
    same two scratch rows.

    Each of a trace block's evolve blocks b is assembled as
    :func:`assemble_full_state` writes it, ``low * high[b]`` for the
    ``|+>`` row and ``low * high[b + 2^n / E]`` for the ``|->`` row, and then
    evolved by :func:`_evolve_block`, so every amplitude has the bits of the
    whole-state route.  A trace block is a whole number of evolve blocks:
    both are powers of two, and an evolve block is at most an eighth of a
    row and at most ``_EVOLVE_BLOCK = _TRACE_BLOCK`` entries.
    """
    n = env.n
    low_bits = _low_bits(n)
    amp_low, amp_high = _amplitude_tables(sys, env, low_bits)
    phase_low, phase_high = _phase_tables(env, t, low_bits)
    size, half = amp_low.size, phase_high.size
    rows = np.empty((2, min(_TRACE_BLOCK, 2**n)), dtype=complex)
    phase = np.empty(size, dtype=complex)
    blocks = list(zip(*rows.reshape(2, -1, size)))
    for start in range(0, half, len(blocks)):
        for b, (p, m) in enumerate(blocks, start):
            np.multiply(amp_low, amp_high[b], out=p)
            np.multiply(amp_low, amp_high[b + half], out=m)
            _evolve_block(p, m, phase_low, phase_high[b], phase)
        yield rows


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

    One walk over the state (:func:`_walk`): each trace block of the two
    branch rows is assembled, evolved and traced while it is in cache, into
    two scratch rows of at most ``_TRACE_BLOCK`` entries, so the 2^(n+1)
    state is never held whole.  Every amplitude and every sum is formed by
    the same operations in the same order as :func:`assemble_full_state`,
    :func:`evolve_full` and :func:`partial_trace_to_system` form them, so
    ``rho`` has their bits.  The size cap is checked before anything is
    allocated, and nothing is kept between calls.
    """
    _check_size(env.n)
    rho_brute = _trace(2**env.n, _walk(sys, env, t))
    rho_closed = reduced_density_matrix(sys, env, t)
    dev = float(np.max(np.abs(rho_brute - rho_closed)))
    return CrosscheckReport(max_deviation=dev, tolerance=float(tolerance), passed=dev <= tolerance)

"""Closed-form engine for the dephasing dynamics.

Because the interaction is diagonal in the coupled bases, every environment
spin contributes an independent factor and all quantities of interest cost
O(n):

* each spin's pair of amplitudes only rotates in phase, in opposite senses
  for the two system branches;
* the system's reduced 2x2 density matrix keeps its populations fixed and
  multiplies its off-diagonal entry by the decoherence factor

      z(t) = prod_j [cos(2 g_j t) + i d_j sin(2 g_j t)],
      d_j  = |alpha_j|^2 - |beta_j|^2,

  which is exactly the overlap of the two environment branch states.

|z| = 1 means full coherence, |z| ~ 0 means the interference terms are
(currently) invisible in the system alone.  Everything here is a pure
function; the brute-force check lives in :mod:`einlab.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAngleError, InvalidRangeError
from .model import EnvironmentSpec, SystemAmplitudes


@dataclass(frozen=True)
class DecoherenceFactor:
    """Complex factor multiplying the system's off-diagonal term at time ``t``."""

    value: complex
    t: float

    @property
    def magnitude(self) -> float:
        return abs(self.value)


@dataclass(frozen=True, eq=False)
class BranchState:
    """Environment state attached to one system branch.

    ``branch`` is +1 for the ``|+>`` system branch, -1 for ``|->``.
    ``spin_amplitudes`` has shape (n, 2); row j holds the evolved
    (alpha_j, beta_j) pair.  Evolution is phase-only, so each row keeps
    unit norm.
    """

    branch: int
    spin_amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedState:
    """2x2 system density matrix in the {|+>, |->} basis."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=complex).reshape(2, 2))

    @property
    def coherence(self) -> complex:
        """Upper off-diagonal entry rho[+,-]."""
        return complex(self.rho[0, 1])


def decoherence_series(env: EnvironmentSpec, times: np.ndarray) -> np.ndarray:
    """z evaluated on an array of times; complex array of the same shape."""
    times = np.asarray(times, dtype=float)
    z = np.ones(times.shape, dtype=complex)
    for g, d in zip(env.couplings(), env.imbalances()):
        angle = (2.0 * g) * times
        z = z * (np.cos(angle) + (1j * d) * np.sin(angle))
    return z


def decoherence_abs_sq(env: EnvironmentSpec, times: np.ndarray) -> np.ndarray:
    """|z|^2 on a time grid, via the all-real product

        |z|^2 = prod_j [(1 + d_j^2)/2 + (1 - d_j^2)/2 * cos(4 g_j t)].

    Half the trigonometric work of :func:`decoherence_series`; used by the
    long grid scans.
    """
    times = np.asarray(times, dtype=float)
    out = np.ones(times.shape)
    for g, d in zip(env.couplings(), env.imbalances()):
        mean = 0.5 * (1.0 + d * d)
        swing = 0.5 * (1.0 - d * d)
        out = out * (mean + swing * np.cos((4.0 * g) * times))
    return out


def decoherence_factor(env: EnvironmentSpec, t: float) -> DecoherenceFactor:
    """The decoherence factor z(t).  z(0) = 1 exactly; |z| never exceeds 1."""
    value = complex(decoherence_series(env, np.array([float(t)]))[0])
    return DecoherenceFactor(value=value, t=float(t))


def branch_environment_state(env: EnvironmentSpec, t: float, branch: int) -> BranchState:
    """Environment spin amplitudes riding the given system branch at time ``t``.

    On the ``+`` branch spin j evolves to (alpha_j e^{+i g_j t}, beta_j e^{-i g_j t});
    the ``-`` branch swaps the phase signs.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    amps = env.amplitudes()
    phase = np.exp((1j * branch * float(t)) * env.couplings())
    out = np.empty_like(amps)
    out[:, 0] = amps[:, 0] * phase
    out[:, 1] = amps[:, 1] * np.conj(phase)
    return BranchState(branch, out)


def branch_overlap(bra: BranchState, ket: BranchState) -> complex:
    """Product over spins of the per-spin inner products <bra_j|ket_j>.

    With bra = the '-' branch and ket = the '+' branch this reproduces the
    decoherence factor, by an independent route.
    """
    per_spin = np.sum(np.conj(bra.spin_amplitudes) * ket.spin_amplitudes, axis=1)
    return complex(np.prod(per_spin))


def reduced_density_matrix(sys: SystemAmplitudes, env: EnvironmentSpec, t: float) -> ReducedState:
    """System density matrix after tracing out the environment.

    Populations stay (|a|^2, |b|^2) for all t; the upper off-diagonal entry
    is z(t) * a * conj(b) and the lower one its conjugate.
    """
    z = decoherence_factor(env, t).value
    a, b = complex(sys.a), complex(sys.b)
    upper = z * a * np.conj(b)
    rho = np.array(
        [[abs(a) ** 2, upper], [np.conj(upper), abs(b) ** 2]],
        dtype=complex,
    )
    return ReducedState(rho)


def trace_columns(
    sys: SystemAmplitudes, env: EnvironmentSpec, times: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Trace-mode columns on an array of times, as float arrays:
    t, Re z, Im z, |z|, rho[+,+], rho[-,-], |rho[+,-]|, purity, entropy.

    Row by row these are the numbers :func:`decoherence_factor`,
    :func:`reduced_density_matrix` and :func:`state_metrics` give, to the
    bit when the system amplitudes are real (with complex ones the complex
    product may round differently in the last place).  Purity comes from a
    batched ``rho @ rho`` and entropy from one batched ``eigvalsh``, which
    make the same BLAS and LAPACK calls per matrix; magnitudes use ``hypot``,
    as Python's ``abs`` on a complex does (``np.abs`` on a complex array can
    differ from it in the last place).
    """
    times = np.asarray(times, dtype=float)
    z = decoherence_series(env, times)
    a, b = complex(sys.a), complex(sys.b)
    upper = z * a * np.conj(b)
    rho = np.empty(times.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = abs(a) ** 2
    rho[..., 0, 1] = upper
    rho[..., 1, 0] = np.conj(upper)
    rho[..., 1, 1] = abs(b) ** 2
    square = rho @ rho
    purity = (square[..., 0, 0] + square[..., 1, 1]).real
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 0.0, lam * np.log(lam), 0.0)
    entropy = -(terms[..., 0] + terms[..., 1])
    # max(0.0, x) as in state_metrics: np.maximum(0.0, -0.0) would keep the -0
    entropy = np.where(entropy > 0.0, entropy, 0.0)
    return (
        times,
        z.real,
        z.imag,
        np.hypot(z.real, z.imag),
        rho[..., 0, 0].real,
        rho[..., 1, 1].real,
        np.hypot(upper.real, upper.imag),
        purity,
        entropy,
    )


def coherence_in_basis(state: ReducedState, theta: float, phi: float) -> float:
    """|<0'|rho|1'>| in the rotated basis (theta, phi).

    |0'> = cos(theta/2)|+> + e^{i phi} sin(theta/2)|->, |1'> its orthogonal
    complement.  theta = phi = 0 recovers |rho[+,-]|.  How much coherence a
    state "has" depends on the basis asked about: a matrix diagonal in one
    basis generally is not in another.
    """
    if not (0.0 <= theta <= math.pi):
        raise InvalidAngleError(f"theta must lie in [0, pi], got {theta}")
    if not (0.0 <= phi < 2.0 * math.pi):
        raise InvalidAngleError(f"phi must lie in [0, 2*pi), got {phi}")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = np.exp(1j * phi)
    ket0 = np.array([c, e * s], dtype=complex)
    ket1 = np.array([-np.conj(e) * s, c], dtype=complex)
    return float(abs(np.conj(ket0) @ state.rho @ ket1))


def state_metrics(state: ReducedState) -> tuple[float, float]:
    """(purity, entropy) of the density matrix.

    purity = tr(rho^2); entropy = -sum lambda ln lambda in nats, with
    0 ln 0 = 0.  Pure states give (1, 0); the maximally mixed qubit gives
    (1/2, ln 2).
    """
    rho = state.rho
    purity = float(np.real(np.trace(rho @ rho)))
    lam = np.clip(np.linalg.eigvalsh(rho).real, 0.0, 1.0)
    nonzero = lam[lam > 0.0]
    entropy = max(0.0, float(-np.sum(nonzero * np.log(nonzero))))
    return purity, entropy


def time_averaged_coherence_sq(
    env: EnvironmentSpec, t_max: float, samples: int
) -> tuple[float, float]:
    """Empirical mean of |z|^2 on a uniform grid over [0, t_max], plus the
    ergodic prediction prod_j (1 + d_j^2)/2.

    The prediction is the infinite-time average when the couplings are
    pairwise incommensurate; equal-coupling environments legitimately
    violate it, so the caller does the comparing.
    """
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise InvalidRangeError(f"t_max must be positive and finite, got {t_max}")
    if samples < 2:
        raise InvalidRangeError(f"need at least 2 samples, got {samples}")
    times = np.linspace(0.0, float(t_max), int(samples))
    empirical = float(np.mean(decoherence_abs_sq(env, times)))
    return empirical, ergodic_prediction(env)


def ergodic_prediction(env: EnvironmentSpec) -> float:
    """prod_j (1 + d_j^2)/2: the infinite-time average of |z|^2 when the
    couplings are pairwise incommensurate."""
    d = env.imbalances()
    return float(np.prod(0.5 * (1.0 + d * d)))

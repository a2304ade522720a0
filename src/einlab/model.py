"""Domain types and environment builders for the dephasing lab.

A two-level system couples to ``n`` environment spins through a purely
diagonal interaction: the system observable and every spin observable are
the +/-1 operators in their local ``{|+>, |->}`` bases, spin ``j`` entering
with coupling constant ``g_j`` (units of inverse time, hbar = 1).  Neither
the system nor the environment has any self-Hamiltonian, so the dynamics
only rotates relative phases.

Environments come in two flavours that behave in opposite ways:

* random ones (couplings uniform on an interval, spin states uniform on the
  Bloch sphere), for which the system's off-diagonal terms collapse and stay
  small for a very long time, and
* structured ones (``EIGENSTATE``, ``BALANCED_EQUAL_COUPLING``), for which
  coherence survives or returns quickly.

An :class:`EnvironmentSpec` holds the couplings (an (n,) float array) and
the spin amplitudes (an (n, 2) complex array), both read-only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRangeError

NORM_TOL = 1e-9

DEFAULT_G_MIN_FRACTION = 0.05

_SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SystemAmplitudes:
    """Complex amplitudes (a, b) of the system state ``a|+> + b|->``."""

    a: complex
    b: complex


class EnvironmentSpec:
    """Environment spins held as read-only arrays.

    Spin j has coupling ``g[j]`` and initial state ``alpha[j]|+> + beta[j]|->``.
    The inputs are copied; the couplings, the (n, 2) amplitudes and the
    imbalances d_j = |alpha_j|^2 - |beta_j|^2 are computed once.  The
    imbalances take a few array calls, which release the GIL, and have the
    bits of Python's ``abs(alpha) ** 2 - abs(beta) ** 2``: ``np.float_power``
    squares with libm ``pow`` as ``float ** 2`` does, where ``x * x`` and
    ``np.power`` differ in the last place for some moduli.
    """

    __slots__ = ("_g", "_amps", "_d")

    def __init__(self, g, alpha, beta):
        g = np.array(g, dtype=float).reshape(-1)
        amps = np.stack((np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)), axis=-1)
        if amps.shape != (g.size, 2):
            raise ValueError(f"need one (alpha, beta) pair per coupling, got {amps.shape} for {g.size}")
        # the moduli by libm hypot, as complex abs computes them; the squares
        # by libm pow, as float ** 2 computes them (np.power uses SIMD code,
        # or x * x for a scalar 2); and Python's OverflowError for a finite
        # amplitude whose modulus or square overflows
        with np.errstate(all="ignore"):
            squares = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
            d = squares[:, 0] - squares[:, 1]
        if np.isinf(squares[np.isfinite(amps)]).any():
            raise OverflowError("absolute value too large")
        for array in (g, amps, d):
            array.flags.writeable = False
        self._g, self._amps, self._d = g, amps, d

    @property
    def n(self) -> int:
        return self._g.size

    def couplings(self) -> np.ndarray:
        return self._g

    def imbalances(self) -> np.ndarray:
        return self._d

    def amplitudes(self) -> np.ndarray:
        """(n, 2) array of the initial (alpha_j, beta_j) pairs."""
        return self._amps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._g, other._g) and np.array_equal(self._amps, other._amps)

    def __hash__(self):
        # Python floats and complexes hash -0.0 like 0.0, as == compares them
        return hash((tuple(self._g.tolist()), tuple(self._amps.reshape(-1).tolist())))

    def __repr__(self):
        alpha, beta = self._amps.T.tolist()
        return f"EnvironmentSpec(g={self._g.tolist()!r}, alpha={alpha!r}, beta={beta!r})"


class ScenarioKind(enum.Enum):
    """Environment families used to probe when dephasing does and does not occur."""

    RANDOM = "random"
    EIGENSTATE = "eigenstate"
    BALANCED_EQUAL_COUPLING = "balanced"


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise InvalidRangeError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def build_environment_random(
    n: int, seed: int, g_min: float | None = None, g_max: float = 1.0
) -> EnvironmentSpec:
    """Draw ``n`` spins with couplings uniform on [g_min, g_max] and Bloch-uniform states.

    Spin states are sampled uniformly on the Bloch sphere: cos(theta) uniform
    on [-1, 1], azimuth phi uniform on [0, 2*pi), then alpha = cos(theta/2)
    and beta = exp(i*phi)*sin(theta/2).  That makes the per-spin imbalance
    d = |alpha|^2 - |beta|^2 = cos(theta) exactly uniform on [-1, 1].

    The draw is fully deterministic in (n, seed, g_min, g_max): a PCG64
    stream seeded with ``seed`` supplies 3n uniform doubles, consumed as
    n couplings, then n cos-latitudes, then n azimuths, so identical inputs
    rebuild bit-identical environments.  ``g_min`` defaults to
    0.05 * g_max, which keeps every spin meaningfully coupled.

    Contract: because the couplings come first, the couplings of
    ``(n, seed)`` are bit for bit the first n couplings of ``(N, seed)``
    for every N > n (the same g_min and g_max).  Scaling sweeps rely on it
    to share one seed's ``cos(4 g t)`` rows across their spin counts, and
    check it per seed (:func:`~einlab.ensemble.scaling_sweep`); the states
    carry no such prefix property.
    """
    if n < 0:
        raise InvalidRangeError(f"spin count must be non-negative, got {n}")
    seed = _check_seed(seed)
    if g_min is None:
        g_min = DEFAULT_G_MIN_FRACTION * g_max
    if not (0 < g_min <= g_max) or not math.isfinite(g_min) or not math.isfinite(g_max):
        raise InvalidRangeError(f"need 0 < g_min <= g_max, got g_min={g_min}, g_max={g_max}")

    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(3 * n)
    g = g_min + (g_max - g_min) * u[:n]
    cos_theta = 2.0 * u[n : 2 * n] - 1.0
    phi = (2.0 * math.pi) * u[2 * n :]
    half_theta = 0.5 * np.arccos(cos_theta)
    alpha = np.cos(half_theta)
    beta = np.exp(1j * phi) * np.sin(half_theta)
    return EnvironmentSpec(g, alpha, beta)


def build_environment_scenario(kind: ScenarioKind, n: int, g: float) -> EnvironmentSpec:
    """Build one of the structured counterexample environments.

    ``EIGENSTATE``: every spin starts in the coupling eigenstate ``|+>`` —
    the environment picks up phases but never entangles with the system,
    so coherence is never lost.  ``BALANCED_EQUAL_COUPLING``: every spin is
    the balanced real superposition with the same coupling — coherence
    collapses but returns fully at t = pi/(2g) no matter how many spins.
    """
    if n < 0:
        raise InvalidRangeError(f"spin count must be non-negative, got {n}")
    if not math.isfinite(g) or g <= 0:
        raise InvalidRangeError(f"coupling must be positive and finite, got {g}")
    if kind is ScenarioKind.EIGENSTATE:
        alpha, beta = 1.0 + 0.0j, 0.0j
    elif kind is ScenarioKind.BALANCED_EQUAL_COUPLING:
        alpha = beta = complex(1.0 / math.sqrt(2.0))
    else:
        raise ValueError(
            f"{kind} is not a fixed-form scenario; use build_environment_random or "
            "construct an EnvironmentSpec directly"
        )
    return EnvironmentSpec(np.full(n, float(g)), np.full(n, alpha), np.full(n, beta))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(); empty ``failures`` means everything checked out."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def validate(sys: SystemAmplitudes, env: EnvironmentSpec) -> ValidationReport:
    """Check every type invariant and report each violation rather than raising."""
    failures: list[str] = []
    a, b = complex(sys.a), complex(sys.b)
    if not (_finite(a) and _finite(b)):
        failures.append("system amplitudes must be finite")
    else:
        norm = abs(a) ** 2 + abs(b) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            failures.append(f"system amplitudes not normalized: |a|^2 + |b|^2 = {norm:.6g}")
    for j, (g, (alpha, beta)) in enumerate(
        zip(env.couplings().tolist(), env.amplitudes().tolist())
    ):
        if not math.isfinite(g):
            failures.append(f"spin {j}: coupling must be finite, got {g}")
        elif g < 0:
            failures.append(f"spin {j}: coupling must be non-negative, got {g}")
        if not (_finite(alpha) and _finite(beta)):
            failures.append(f"spin {j}: amplitudes must be finite")
            continue
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            failures.append(
                f"spin {j}: amplitudes not normalized: |alpha|^2 + |beta|^2 = {norm:.6g}"
            )
    return ValidationReport(tuple(failures))

"""The decoherence factor by an independent route: the overlap of the two
environment branch states.

With the system in ``|+>`` every environment spin j evolves to
``(alpha_j e^{+i g_j t}, beta_j e^{-i g_j t})``; with it in ``|->`` the
phase signs swap.  The two branches stay product states, so their overlap
is the product over spins of the per-spin inner products, which must equal
the closed form ``z(t) = prod_j [cos(2 g_j t) + i d_j sin(2 g_j t)]``.
"""

from __future__ import annotations

import numpy as np

from einlab import EnvironmentSpec


def branch_environment_state(env: EnvironmentSpec, t: float, branch: int) -> np.ndarray:
    """Environment spin amplitudes riding the given system branch at time ``t``.

    ``branch`` is +1 for the ``|+>`` system branch, -1 for ``|->``.  Returns
    an (n, 2) array whose row j is the evolved pair: on the ``+`` branch spin j
    evolves to (alpha_j e^{+i g_j t}, beta_j e^{-i g_j t}); the ``-`` branch
    swaps the phase signs.  Evolution is phase-only, so each row keeps unit norm.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    amps = env.amplitudes()
    phase = np.exp((1j * branch * float(t)) * env.couplings())
    out = np.empty_like(amps)
    out[:, 0] = amps[:, 0] * phase
    out[:, 1] = amps[:, 1] * np.conj(phase)
    return out


def branch_overlap(bra: np.ndarray, ket: np.ndarray) -> complex:
    """Product over spins of the per-spin inner products <bra_j|ket_j> of two
    (n, 2) branch states.

    With bra = the '-' branch and ket = the '+' branch this reproduces the
    decoherence factor.
    """
    per_spin = np.sum(np.conj(bra) * ket, axis=1)
    return complex(np.prod(per_spin))

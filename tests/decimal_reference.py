"""Purity and entropy of trace mode's reduced states in 45-digit ``decimal``
arithmetic, for checking the float closed form without mpmath.

The float inputs are taken as exact: the populations, the imbalances and
each spin's angle ``2 g_j t`` as the float product ``(2 g_j) * t`` that
the closed form evaluates its sine and cosine at.  So the reference leaves
out the rounding of that product, which no evaluation at the float angle
can see (a forward-error question for the |z| kernel, not for purity and
entropy).  ``sin`` is a Taylor series after reduction by pi, which comes from
Machin's formula; ``ln`` and ``sqrt`` are ``decimal``'s own, correctly
rounded in the working precision.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext

DIGITS = 45
_GUARD = 10  # extra digits for pi


def _arctan_inverse(x: int) -> Decimal:
    """arctan(1/x) for an integer x > 1, to the context's precision."""
    x_sq = x * x
    term = Decimal(1) / x
    total, k = term, 1
    while True:
        term /= -x_sq
        k += 2
        new = total + term / k
        if new == total:
            return total
        total = new


@functools.cache
def _pi() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        return 4 * (4 * _arctan_inverse(5) - _arctan_inverse(239))


def _sin_sq(x: Decimal) -> Decimal:
    """sin(x)^2, reduced by pi to |x| <= pi/2 first."""
    pi = _pi()
    x -= pi * (x / pi).to_integral_value()
    x_sq = x * x
    term = total = x
    k = 1
    while True:
        term = -term * x_sq / ((k + 1) * (k + 2))
        k += 2
        new = total + term
        if new == total:
            return total * total
        total = new


def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x) for x > -1, by its series where |x| < 1e-5, so that no
    digit of a tiny x is lost to the sum 1 + x."""
    if abs(x) >= Decimal("1e-5"):
        return (1 + x).ln()
    term = total = x
    k = 1
    while True:
        k += 1
        term *= -x
        new = total + term / k
        if new == total:
            return total
        total = new


def purity_entropy(p: float, q: float, couplings, imbalances, t: float) -> tuple[Decimal, Decimal]:
    """(purity, entropy) of the 2x2 reduced state with populations ``p``,
    ``q`` and coherence factor ``|z(t)|^2 = prod_j (1 - (1 - d_j^2)
    sin^2(x_j))`` at the float angles ``x_j = (2 g_j) * t``.

    ``p + q - 1`` is formed exactly, and the large eigenvalue's logarithm as
    ``log1p`` of its distance from 1, so a population far below 1e-45 keeps
    its digits.  The entropy is the exact one of these inputs: it is
    negative when ``p + q > 1`` and the state is nearly pure."""
    with localcontext() as ctx:
        ctx.prec = 2000  # a float's exact decimal expansion has at most 767 digits
        excess = Decimal(p) + Decimal(q) - 1
        ctx.prec = DIGITS
        abs_sq = Decimal(1)
        for g, d in zip(couplings, imbalances):
            d = Decimal(d)
            abs_sq *= 1 - (1 - d * d) * _sin_sq(Decimal(2.0 * g * t))
        p, q = Decimal(p), Decimal(q)
        mixed = 2 * p * q * (1 - abs_sq)
        small = mixed / (1 + excess + ((p - q) ** 2 + 4 * p * q * abs_sq).sqrt())
        above_one = excess - small  # lambda_+ - 1
        entropy = -(1 + above_one) * _log1p(above_one)
        if small > 0:
            entropy -= small * small.ln()
        return +(1 + excess * (2 + excess) - mixed), +entropy

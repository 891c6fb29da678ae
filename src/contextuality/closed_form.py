"""Analytical values for the isotropic families: the golden reference oracle.

Everything is in bits (log base 2) unless a nats output is requested
explicitly.  These closed forms are what the numerical solvers are checked
against.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)


def binary_entropy(alpha: float) -> float:
    """h(a) = -a*log2(a) - (1-a)*log2(1-a), with h(0) = h(1) = 0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    if alpha in (0.0, 1.0):
        return 0.0
    return -alpha * math.log2(alpha) - (1.0 - alpha) * math.log2(1.0 - alpha)


def chi(x: float, y: float) -> float:
    """Binary relative entropy chi(x, y) = x*log2(x/y) + (1-x)*log2((1-x)/(1-y))."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x {x} outside [0, 1]")
    if not 0.0 < y < 1.0:
        raise ValueError(f"y {y} outside (0, 1)")
    total = 0.0
    if x > 0.0:
        total += x * math.log2(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log2((1.0 - x) / (1.0 - y))
    return total


def nc_interval(n: int) -> tuple[float, float]:
    """Non-contextual alpha interval for the qualifying isotropic families."""
    if n < 3:
        raise ValueError(f"need n >= 3 contexts, got {n}")
    lo = 1.0 / n if n % 2 == 0 else 0.0
    return lo, (n - 1.0) / n


def xu_isotropic(n: int, alpha: float) -> float:
    """Uniform relative entropy of contextuality of an isotropic xor-box.

    Zero inside the non-contextual interval; outside it,
    ``log2((n-1)^(-a) * n) - h(a)`` above and, for even n,
    ``log2((n-1)^(a-1) * n) - h(a)`` below.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    lo, hi = nc_interval(n)
    if alpha >= hi:
        return max(0.0, math.log2(n) - alpha * math.log2(n - 1.0) - binary_entropy(alpha))
    if alpha < lo:
        # Only reachable for even n; for odd n the interval starts at 0.
        return max(
            0.0, math.log2(n) + (alpha - 1.0) * math.log2(n - 1.0) - binary_entropy(alpha)
        )
    return 0.0


def xu_chain(n: int, alpha: float = 1.0) -> float:
    """X_u of the isotropic chain box; X_max coincides on isotropic boxes."""
    return xu_isotropic(n, alpha)


def quantum_chain_alpha(n: int) -> float:
    """Mixing weight of the maximally contextual quantum chain box.

    Odd n: ``2*cos(pi/n) / (1 + cos(pi/n))``; even n: ``(1 + cos(pi/n)) / 2``.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    c = math.cos(math.pi / n)
    if n % 2 == 1:
        return 2.0 * c / (1.0 + c)
    return (1.0 + c) / 2.0


_COST_SLOPES = {"PR": 4, "PM": 6, "M": 5}


def cost_closed_form(family: str, alpha: float, n: int | None = None) -> float:
    """Contextuality cost of the isotropic families: max(0, n*alpha - (n-1)).

    ``family`` is one of PR, PM, M, CH; CH requires ``n``.  For even n the
    family is bit-flip symmetric (``B_alpha`` maps to ``B_{1-alpha}``, and
    cost is invariant under output relabelings), so the formula mirrors below
    the non-contextual interval; for odd n the opposite box is itself
    non-contextual and the single branch covers all of [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    fam = family.strip().upper()
    if fam == "CH":
        if n is None or n < 3:
            raise ValueError("CH cost needs n >= 3")
        slope = n
    elif fam in _COST_SLOPES:
        slope = _COST_SLOPES[fam]
    else:
        raise ValueError(f"unknown family {family!r}")
    value = slope * alpha - (slope - 1.0)
    if slope % 2 == 0:
        value = max(value, slope * (1.0 - alpha) - (slope - 1.0))
    return max(0.0, value)


def total_chain_x(n: int, alpha: float = 1.0, nats: bool = False) -> float:
    """Total (non-averaged) chain contextuality ``n * X_u``.

    In nats this tends to 1 as n grows at alpha = 1; in bits to log2(e).
    """
    value = n * xu_chain(n, alpha)
    if nats:
        return value * _LN2
    return value

"""Builders for the named boxes: chain/PR, Peres-Mermin square, Mermin star, KCBS.

All parity-based builders use binary observables with context distributions
P_even / P_odd (uniform over the even/odd-parity bit strings).  Isotropic
variants mix a box with its opposite: ``B_alpha = alpha*B + (1-alpha)*B'``.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import Box, Hypergraph, mix, opposite, parity_distribution
from .errors import InvalidBoxError


def chain_hypergraph(n: int) -> Hypergraph:
    """n binary observables in a cycle; contexts are neighboring pairs."""
    if n < 3:
        raise InvalidBoxError(f"chain needs n >= 3 contexts, got {n}")
    observables = [(f"A{i + 1}", 2) for i in range(n)]
    contexts = [(i, (i + 1) % n) for i in range(n)]
    return Hypergraph(observables, contexts)


def chain_box(n: int, alpha: float = 1.0) -> Box:
    """Chain box: fully correlated on the first n-1 contexts, anti-correlated on the last."""
    g = chain_hypergraph(n)
    even, odd = parity_distribution(2, 0), parity_distribution(2, 1)
    box = Box(g, [even] * (n - 1) + [odd])
    if alpha == 1.0:
        return box
    return mix(box, opposite(box), alpha)


def pr_box(alpha: float = 1.0) -> Box:
    """The Popescu-Rohrlich box, i.e. the chain box with 4 contexts."""
    return chain_box(4, alpha)


def pm_hypergraph() -> Hypergraph:
    """3x3 grid of binary observables; contexts are the three rows then the three columns."""
    observables = [(f"A{i + 1}", 2) for i in range(9)]
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return Hypergraph(observables, rows + cols)


def pm_box(alpha: float = 1.0) -> Box:
    """Peres-Mermin square box: P_even on the first five contexts, P_odd on the last column."""
    g = pm_hypergraph()
    even, odd = parity_distribution(3, 0), parity_distribution(3, 1)
    box = Box(g, [even] * 5 + [odd])
    if alpha == 1.0:
        return box
    return mix(box, opposite(box), alpha)


# Mermin star observables in order A,B,C,D,E (outer), a,b,c,d,e (inner).
_M_NAMES = ("A", "B", "C", "D", "E", "a", "b", "c", "d", "e")
_M_CONTEXTS = (
    ("B", "e", "a", "D"),
    ("D", "b", "c", "A"),
    ("A", "d", "e", "C"),
    ("C", "a", "b", "E"),
    ("E", "c", "d", "B"),
)


def mermin_hypergraph() -> Hypergraph:
    observables = [(name, 2) for name in _M_NAMES]
    idx = {name: i for i, name in enumerate(_M_NAMES)}
    contexts = [tuple(idx[name] for name in ctx) for ctx in _M_CONTEXTS]
    return Hypergraph(observables, contexts)


def mermin_box(alpha: float = 1.0) -> Box:
    """Mermin star box: P_even on the first four lines, P_odd on the fifth."""
    g = mermin_hypergraph()
    even, odd = parity_distribution(4, 0), parity_distribution(4, 1)
    box = Box(g, [even] * 4 + [odd])
    if alpha == 1.0:
        return box
    return mix(box, opposite(box), alpha)


def kcbs_box() -> Box:
    """Pentagon box of rank-1 projector statistics.

    Five contexts of orthogonal projector pairs, each with distribution
    ``(1 - 2/sqrt(5), 1/sqrt(5), 1/sqrt(5), 0)``.
    """
    g = chain_hypergraph(5)
    s = 1.0 / math.sqrt(5.0)
    dist = np.array([1.0 - 2.0 * s, s, s, 0.0])
    return Box(g, [dist] * 5)


_PLAIN_BUILDERS = {
    "PR": pr_box,
    "PM": pm_box,
    "M": mermin_box,
}


def builtin(name: str, n: int | None = None, alpha: float | None = None) -> Box:
    """Build a named box.

    Supported names: ``PR``, ``PM``, ``M``, ``CH`` (requires ``n >= 3``),
    ``KCBS``, and primed opposites ``PR'``, ``PM'``, ``M'``, ``CH'``.
    ``alpha`` selects the isotropic mixture for the parity-based families.
    """
    base = name.strip()
    primed = base.endswith("'")
    if primed:
        base = base[:-1]
    if base == "KCBS":
        if primed or alpha is not None or n is not None:
            raise InvalidBoxError("KCBS takes no parameters and has no opposite variant")
        return kcbs_box()
    if base == "CH":
        if n is None:
            raise InvalidBoxError("CH requires the number of contexts, e.g. builtin('CH', n=5)")
        box = chain_box(n, 1.0)
    elif base in _PLAIN_BUILDERS:
        if n is not None:
            raise InvalidBoxError(f"{base} takes no context-count parameter")
        box = _PLAIN_BUILDERS[base](1.0)
    else:
        raise InvalidBoxError(f"unknown builtin box {name!r}")
    if primed:
        box = opposite(box)
    if alpha is not None:
        if not 0.0 <= alpha <= 1.0:
            raise InvalidBoxError(f"alpha {alpha} outside [0, 1]")
        box = mix(box, opposite(box), alpha)
    return box


def parse_builtin_uri(uri: str) -> Box:
    """Parse ``builtin:NAME[:n][:key=value...]`` URIs used by the CLI; each
    parameter may be given once, a positional being ``n``.

    Examples: ``builtin:PR``, ``builtin:CH:7``, ``builtin:CH:7:alpha=0.95``.
    """
    parts = uri.split(":")
    if parts[0] != "builtin" or len(parts) < 2:
        raise InvalidBoxError(f"not a builtin URI: {uri!r}")
    name = parts[1]
    params: dict[str, str] = {}
    for part in parts[2:]:
        key, eq, value = part.partition("=")
        if not eq:
            key, value = "n", part
        if key not in ("n", "alpha"):
            raise InvalidBoxError(f"unknown builtin parameter {key!r} in {uri!r}")
        if key in params:
            raise InvalidBoxError(f"repeated parameter {key!r} in {uri!r}")
        params[key] = value
    n = int(params["n"]) if "n" in params else None
    alpha = float(params["alpha"]) if "alpha" in params else None
    return builtin(name, n=n, alpha=alpha)

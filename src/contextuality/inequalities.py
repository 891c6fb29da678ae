"""The beta functional and Kochen-Specker-type bounds for xor-boxes.

``beta_B(T)`` sums, over contexts, the probability mass the test box T places
on the reference box B's supports.  Over the non-contextual polytope it obeys
``beta <= n-1`` (single odd-parity context, all observable degrees even) and
``beta >= 1`` for even n (`>= 0` for odd n), which pins the non-contextual
alpha interval of the isotropic families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import PARITY_TOL, Box, require_valid
from .closed_form import nc_interval
from .errors import HypergraphMismatchError, NotXorBoxError
from .polytope import optimize_linear

# Entries above this threshold count as support (guards file round-trips).
SUPPORT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class XorBoxProfile:
    """Shape data of an xor-box: context size, parities, observable degrees."""

    n_contexts: int
    context_size: int
    parities: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def all_degrees_even(self) -> bool:
        return all(d % 2 == 0 for d in self.degrees)

    @property
    def single_odd_context(self) -> bool:
        return sum(self.parities) == 1


def classify_xor(box: Box) -> XorBoxProfile | None:
    """Profile of ``box`` if every context is P_even or P_odd, else None.

    Parities are read as by :func:`~contextuality.boxes.context_parity`:
    every entry within ``PARITY_TOL`` of the target, even tried first, and a
    NaN entry matches neither.  One pass over the stacked vector takes each
    context's largest deviation from both targets.
    """
    require_valid(box)
    g = box.hypergraph
    if any(card != 2 for card in g.cardinalities):
        return None
    sizes = {len(c) for c in g.contexts}
    if len(sizes) != 1:
        return None
    m = sizes.pop()
    op = g.incidence
    # P_even is 2^(1-m) on a context's even outcomes and 0 on its odd ones.
    odd = op.parity_classes % 2 == 1
    stacked, starts, mass = box.stacked(), op.offsets[:-1], 2.0 ** (1 - m)
    far_even = np.maximum.reduceat(np.abs(stacked - np.where(odd, 0.0, mass)), starts)
    far_odd = np.maximum.reduceat(np.abs(stacked - np.where(odd, mass, 0.0)), starts)
    # A NaN makes a maximum NaN, which compares false.
    parities = tuple(
        0 if e <= PARITY_TOL else 1 if o <= PARITY_TOL else None
        for e, o in zip(far_even.tolist(), far_odd.tolist())
    )
    if None in parities:
        return None
    return XorBoxProfile(
        n_contexts=g.n_contexts,
        context_size=m,
        parities=parities,
        degrees=g.degrees,
    )


def support_weights(reference: Box) -> list[np.ndarray]:
    """Per-context 0/1 indicator vectors of the reference supports."""
    require_valid(reference)
    return [
        (d > SUPPORT_THRESHOLD).astype(float) for d in reference.distributions
    ]


def beta(reference: Box, box: Box) -> float:
    """Total mass ``box`` places on ``reference``'s supports, summed over contexts."""
    if reference.hypergraph != box.hypergraph:
        raise HypergraphMismatchError("beta requires both boxes on the same hypergraph")
    require_valid(box)
    total = 0.0
    for ind, d in zip(support_weights(reference), box.distributions):
        total += float(ind @ d)
    return total


def beta_scalar_identity_check(reference: Box, box: Box) -> float:
    """Residual of ``beta = 2^(m-1) * <box, reference>`` for uniform context size m."""
    profile = classify_xor(reference)
    if profile is None:
        raise NotXorBoxError("scalar-product identity needs an xor-box reference")
    inner = float(reference.stacked() @ box.stacked())
    return abs(beta(reference, box) - 2.0 ** (profile.context_size - 1) * inner)


def nc_alpha_interval(profile: XorBoxProfile) -> tuple[float, float]:
    """Non-contextual alpha interval [lo, hi] of the isotropic family.

    hi = (n-1)/n always; lo = 1/n for even n and 0 for odd n.  Requires the
    bound hypotheses: a single odd-parity context and all observable degrees
    even.  Refuses (rather than extrapolating) otherwise; the LP route stays
    available for any enumerable hypergraph.
    """
    if not profile.single_odd_context:
        raise NotXorBoxError(
            f"alpha interval needs exactly one odd context, got {sum(profile.parities)}"
        )
    if not profile.all_degrees_even:
        raise NotXorBoxError("alpha interval needs every observable in an even number of contexts")
    return nc_interval(profile.n_contexts)


@dataclass(frozen=True)
class BetaBoundsReport:
    max_beta: float
    min_beta: float
    expected_max: float
    expected_min: float
    argmax_outputs: tuple[int, ...]
    argmin_outputs: tuple[int, ...]
    ok: bool


def verify_bounds_by_lp(reference: Box) -> BetaBoundsReport:
    """Confirm the KS bounds by optimizing beta over the NC polytope vertices."""
    profile = classify_xor(reference)
    if profile is None:
        raise NotXorBoxError("bound verification needs an xor-box reference")
    weights = support_weights(reference)
    hi = optimize_linear(reference.hypergraph, weights, "max")
    lo = optimize_linear(reference.hypergraph, weights, "min")
    n = profile.n_contexts
    expected_max = float(n - 1)
    expected_min = 1.0 if n % 2 == 0 else 0.0
    ok = abs(hi.value - expected_max) == 0.0 and abs(lo.value - expected_min) == 0.0
    return BetaBoundsReport(
        max_beta=hi.value,
        min_beta=lo.value,
        expected_max=expected_max,
        expected_min=expected_min,
        argmax_outputs=hi.argopt.outputs,
        argmin_outputs=lo.argopt.outputs,
        ok=ok,
    )

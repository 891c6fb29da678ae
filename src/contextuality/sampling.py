"""Seeded random boxes, hypergraphs, and channels for property tests.

Random consistent boxes follow the recipe: draw a Dirichlet-uniform joint
distribution, take its box of marginals (interior of the NC polytope), and
optionally mix with a contextual anchor at a random weight so samples cover
both sides of the polytope boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import (
    Box,
    ChannelMixture,
    Hypergraph,
    JointDistribution,
    box_of_joint,
    mix,
)
from .errors import InvalidBoxError

# Independent channels mixed by ``random_channel_mixture``.
CHANNEL_TERMS = 2
# Smallest and largest context size drawn by ``random_hypergraph``.
CONTEXT_SIZES = (2, 3)
# Attempts ``random_hypergraph`` makes before it refuses a request.  A draw of
# the tests takes at most 440, of the benchmark's small-batch pool 40, and
# ``(64, 60)`` at ``default_rng(1)`` 969; ``(24, 13)`` at ``default_rng(0)``
# takes 5,239.
HYPERGRAPH_ATTEMPTS = 10_000


def random_joint(g: Hypergraph, rng: np.random.Generator) -> JointDistribution:
    return JointDistribution(g, rng.dirichlet(np.ones(g.joint_dim)))


def random_noncontextual_box(g: Hypergraph, rng: np.random.Generator) -> Box:
    return box_of_joint(random_joint(g, rng))


def random_consistent_box(
    g: Hypergraph,
    rng: np.random.Generator,
    anchor: Box | None = None,
    anchor_weight: float | None = None,
) -> Box:
    """Dirichlet-joint box, optionally mixed with a contextual anchor box."""
    box = random_noncontextual_box(g, rng)
    if anchor is not None:
        if anchor_weight is None:
            anchor_weight = float(rng.uniform())
        box = mix(anchor, box, anchor_weight)
    return box


def random_stochastic_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic d x d matrix with Dirichlet columns."""
    return rng.dirichlet(np.ones(d), size=d).T


def random_channel_mixture(g: Hypergraph, rng: np.random.Generator) -> ChannelMixture:
    """Random mixture of ``CHANNEL_TERMS`` independent per-observable channels."""
    weights = rng.dirichlet(np.ones(CHANNEL_TERMS))
    return [
        (
            float(w),
            [random_stochastic_matrix(d, rng) for d in g.cardinalities],
        )
        for w in weights
    ]


def random_hypergraph(rng: np.random.Generator, n_observables: int, n_contexts: int) -> Hypergraph:
    """Random binary hypergraph covering every observable, no duplicate contexts.

    Context sizes are drawn uniformly from ``CONTEXT_SIZES``, capped at
    ``n_observables``.  Requests no attempt can meet (more contexts than
    subsets of those sizes or than one attempt's draws, or too few contexts to
    cover every observable) are refused, and so are requests that
    ``HYPERGRAPH_ATTEMPTS`` attempts do not meet, such as ``(18, 7)``, whose
    few contexts rarely cover every observable.
    """
    lo, hi = CONTEXT_SIZES
    hi = min(hi, n_observables)
    draws = 200  # context draws per attempt, duplicates included
    subsets = sum(math.comb(n_observables, size) for size in range(lo, hi + 1))
    if n_observables < lo or n_contexts > min(subsets, draws) or n_contexts * hi < n_observables:
        raise InvalidBoxError(f"cannot draw {n_contexts} contexts for {n_observables} observables")
    for _ in range(HYPERGRAPH_ATTEMPTS):
        seen: set[frozenset[int]] = set()
        contexts: list[tuple[int, ...]] = []
        guard = 0
        while len(contexts) < n_contexts and guard < draws:
            guard += 1
            size = int(rng.integers(lo, hi + 1))
            ctx = tuple(sorted(rng.choice(n_observables, size=size, replace=False).tolist()))
            if frozenset(ctx) in seen:
                continue
            seen.add(frozenset(ctx))
            contexts.append(ctx)
        covered = {i for c in contexts for i in c}
        if len(contexts) == n_contexts and covered == set(range(n_observables)):
            return Hypergraph([(f"O{i}", 2) for i in range(n_observables)], contexts)
    raise InvalidBoxError(
        f"cannot draw {n_contexts} contexts covering {n_observables} observables in {HYPERGRAPH_ATTEMPTS} attempts"
    )

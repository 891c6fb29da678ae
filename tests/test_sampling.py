"""Seeded random hypergraphs: pinned draws and refusal of unmeetable requests."""

import numpy as np
import pytest

import contextuality as cx
from contextuality.sampling import HYPERGRAPH_ATTEMPTS, random_hypergraph


@pytest.mark.parametrize(
    "seed,n_observables,n_contexts,contexts,next_draw",
    [
        (7, 6, 4, ((2, 3, 5), (0, 1, 4), (0, 2, 4), (2, 4)), 733587778),
        (11, 5, 5, ((0, 3), (0, 1, 2), (2, 3), (0, 3, 4), (2, 4)), 2021383041),
        # Every subset of sizes 2-3 of three observables: needs retries.
        (5, 3, 4, ((0, 1, 2), (0, 1), (0, 2), (1, 2)), 1169196226),
    ],
)
def test_seeded_draw_is_pinned(seed, n_observables, n_contexts, contexts, next_draw):
    # The contexts and the generator's next draw fix how much randomness the call used.
    rng = np.random.default_rng(seed)
    assert random_hypergraph(rng, n_observables, n_contexts).contexts == contexts
    assert rng.integers(2**31) == next_draw


@pytest.mark.parametrize(
    "n_observables,n_contexts",
    [
        (2, 3),  # two observables allow one context of size 2
        (7, 2),  # two contexts of size <= 3 cannot cover seven observables
        (1, 1),  # fewer observables than the smallest context size
        (20, 201),  # more contexts than one attempt draws
    ],
)
def test_unmeetable_request_refused(n_observables, n_contexts):
    rng = np.random.default_rng(0)
    with pytest.raises(cx.InvalidBoxError, match="cannot draw"):
        random_hypergraph(rng, n_observables, n_contexts)


@pytest.mark.parametrize("n_observables,n_contexts", [(18, 7), (24, 9)])
def test_rarely_met_request_refused(n_observables, n_contexts):
    """Requests the guard accepts but few attempts meet are refused after
    ``HYPERGRAPH_ATTEMPTS`` attempts, instead of drawing forever."""
    rng = np.random.default_rng(0)
    with pytest.raises(cx.InvalidBoxError, match=f"in {HYPERGRAPH_ATTEMPTS} attempts"):
        random_hypergraph(rng, n_observables, n_contexts)

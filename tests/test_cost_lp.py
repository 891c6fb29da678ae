"""The cost LP, solved by HiGHS in its dual form, against the all-columns primal LP."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, shuffled, sparse_box
from test_polytope import dense_reference_cost, seeded_boxes

import contextuality as cx
from contextuality import boxes, polytope
from contextuality.boxes import ContextIncidence
from contextuality.sampling import random_consistent_box, random_hypergraph


@seed(20261102)
@settings(max_examples=60, deadline=None)
@given(
    anchor=st.sampled_from(ANCHORS),
    anchor_weight=st.floats(0.0, 1.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_dual_form_matches_primal_and_rebuilds_box(anchor, anchor_weight, draw_seed):
    rng = np.random.default_rng(draw_seed)
    box = shuffled(cx.mix(anchor, sparse_box(anchor.hypergraph, rng), anchor_weight), rng)
    check_report(box, cx.contextuality_cost(box))


def check_report(box, report):
    """Cost against the all-columns primal LP, an ordered bracket, and the box rebuilt."""
    g = box.hypergraph
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9
    lo, hi = report.interval
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert all(w > 0.0 for w in report.witness_weights.values())
    # sum_D w_D * vertexbox_D + cost * residual rebuilds the box.
    rebuilt = np.zeros(g.incidence.dim)
    for assignment, w in report.witness_weights.items():
        rebuilt += w * cx.deterministic_box(assignment, g).stacked()
    if report.residual_box is not None:
        rebuilt += report.cost * report.residual_box.stacked()
    assert np.max(np.abs(rebuilt - box.stacked())) <= 1e-9


def sum_mod_box(g, rng):
    """Each context's outputs sum to a random residue mod d; uniform where that would clash.

    A context whose observables all have d outputs gets the uniform
    distribution on the outcomes whose sum is a random residue mod d, unless
    it lies inside another context; every other context is uniform.  Each
    context then has uniform marginals on every proper subset, so the box is
    consistent, and the residues usually contradict each other, so it is
    contextual.
    """
    dists = []
    for ctx in g.contexts:
        shape = tuple(g.cardinalities[i] for i in ctx)
        hit = np.ones(shape, dtype=bool)
        if len(set(shape)) == 1 and not any(set(ctx) < set(other) for other in g.contexts):
            hit = np.indices(shape).sum(axis=0) % shape[0] == rng.integers(shape[0])
        dists.append(hit.ravel() / hit.sum())
    return cx.Box(g, dists)


@st.composite
def wide_hypergraphs(draw):
    """Hypergraphs with more joint outcomes than the cost LP's 512 starting columns.

    10 or 11 binary observables, or 6 or 7 observables of which 5 to 7 are
    ternary; contexts have 2 or 3 observables.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n_ternary = draw(st.sampled_from([(10, 0), (11, 0), (6, 6), (7, 5), (7, 6), (7, 7)]))
    g = random_hypergraph(rng, k, draw(st.integers(k, 2 * k)))
    ternary = set(rng.choice(k, size=n_ternary, replace=False).tolist())
    cards = [3 if i in ternary else 2 for i in range(k)]
    return cx.Hypergraph([(f"O{i}", d) for i, d in enumerate(cards)], g.contexts)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(
    g=wide_hypergraphs(),
    anchor_weight=st.floats(0.5, 1.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_warm_started_rounds_match_primal(g, anchor_weight, draw_seed):
    rng = np.random.default_rng(draw_seed)
    anchor = sum_mod_box(g, rng)
    box = shuffled(random_consistent_box(g, rng, anchor=anchor, anchor_weight=anchor_weight), rng)
    assert box.hypergraph.joint_dim > 512
    check_report(box, cx.contextuality_cost(box))


def test_multi_round_cost_is_silent(capfd):
    capfd.readouterr()
    with mock.patch.object(
        ContextIncidence, "extremum", autospec=True, side_effect=ContextIncidence.extremum
    ) as spy:
        report = cx.contextuality_cost(cx.mermin_box(0.9))
    assert spy.call_count > 1
    assert report.cost > 0.0
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("scan_cells", [1, 16])
def test_eliminated_pricing_matches_primal(scan_cells):
    """Pricing by elimination after a short scan; the boxes' joints never need one."""
    with mock.patch.object(boxes, "_SCAN_CELLS", scan_cells):
        for box in seeded_boxes(rounds=2):
            # A fresh hypergraph, so the elimination plan is made under the patch.
            g = cx.Hypergraph(box.hypergraph.observables, box.hypergraph.contexts)
            box = cx.Box(g, box.distributions)
            check_report(box, cx.contextuality_cost(box))


class PresolveOn(polytope._Highs):
    """HiGHS with its default presolve, as the cost LP used to run it."""

    def setOptionValue(self, name, value):
        if name != "presolve":
            return super().setOptionValue(name, value)


def test_presolve_off_matches_presolve_on():
    for box in seeded_boxes(rounds=2):
        report = cx.contextuality_cost(box)
        with mock.patch.object(polytope, "_Highs", PresolveOn):
            oracle = cx.contextuality_cost(box)
        assert abs(report.cost - oracle.cost) <= 1e-9
        assert np.allclose(report.interval, oracle.interval, rtol=0.0, atol=1e-9)

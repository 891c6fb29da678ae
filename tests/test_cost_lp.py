"""The cost LP, solved by HiGHS in its dual form, against the all-columns primal LP."""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, shuffled, sparse_box
from test_polytope import dense_reference_cost

import contextuality as cx


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
    g = box.hypergraph
    report = cx.contextuality_cost(box)
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

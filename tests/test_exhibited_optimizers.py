"""The entropy solver's exits at an exhibited optimizer.

A noncontextual box with every target positive stops at a projection of an
iterate onto its marginals, and an isotropic xor box at its parity mixture;
a contextual box never does.  It takes the loop's steps, or stops at the
optimizer on the face its field picks, where the oracle of
``test_solver_identity.py`` does.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, shuffled, sparse_box
from test_junction_tree import ROUNDING
from test_polytope import ternary_cycle_box
from test_solver_identity import assert_same_solve, dense_box, reference_solve_fixed, reference_sweep

import contextuality as cx
from contextuality import boxes, measures
from contextuality.closed_form import nc_interval, xu_isotropic
from contextuality.sampling import random_consistent_box, random_hypergraph


def _ternary_boundary():
    """The ternary 4-cycle mixed half and half with the uniform box: the cost
    is 0 there, and 0.1 at 0.55."""
    cycle = ternary_cycle_box(4)
    return cx.mix(cycle, cx.Box(cycle.hypergraph, [np.full(9, 1 / 9)] * 4), 0.5)


# Noncontextual boxes on the boundary: the top of each family's noncontextual
# interval, and the ternary 4-cycle's.
BOUNDARY = (
    cx.pr_box(0.75),
    cx.chain_box(5, 0.8),
    cx.pm_box(5 / 6),
    cx.mermin_box(0.8),
    _ternary_boundary(),
)
# Contextual anchors that are not flat on their parity classes, or not binary.
CONTEXTUAL = (cx.pr_box(), cx.kcbs_box(), cx.pm_box(), cx.mermin_box(), ternary_cycle_box(4))
CRITERION_2_GRID = np.linspace(0.0, 1.0, 21).tolist()


def random_weights(n, rng):
    """Positive context weights, none of them equal."""
    return cx.ContextWeights(rng.dirichlet(np.ones(n)))


@st.composite
def noncontextual_boxes(draw):
    """A dense joint's box on a ``random_hypergraph`` draw, with up to two of its
    observables made ternary, or a ``BOUNDARY`` box mixed with a dense joint's
    box, so strictly inside the noncontextual polytope."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(3, 7))
        most = min(6, math.comb(k, 2) + math.comb(k, 3))
        g = random_hypergraph(rng, k, n_contexts=draw(st.integers((k + 2) // 3, most)))
        ternary = draw(st.sets(st.integers(0, k - 1), max_size=2))
        g = cx.Hypergraph([(f"O{i}", 3 if i in ternary else 2) for i in range(k)], g.contexts)
        return dense_box(g, rng)
    anchor = draw(st.sampled_from(BOUNDARY))
    return shuffled(cx.mix(anchor, dense_box(anchor.hypergraph, rng), float(rng.uniform(0.0, 0.95))), rng)


@seed(20261101)
@settings(max_examples=60, deadline=None)
@given(box=noncontextual_boxes(), uniform=st.booleans(), draw_seed=st.integers(0, 2**32 - 1))
def test_noncontextual_boxes_stop_at_their_marginals(box, uniform, draw_seed):
    """Uniform or random weights: the optimizer has the box's context marginals
    within 1e-12, and the bracket holds the optimum 0.  On an acyclic
    hypergraph the solve stops at the junction-tree joint, whose lower end
    is an iterate's and so exact only up to rounding."""
    g = box.hypergraph
    weights = (cx.ContextWeights.uniform(g.n_contexts) if uniform
               else random_weights(g.n_contexts, np.random.default_rng(draw_seed)))
    report = cx.x_fixed(box, weights)
    assert report.converged
    slack = 0.0 if g.join_tree is None else ROUNDING
    assert report.value - report.duality_gap <= slack
    assert 0.0 <= report.value <= measures.DEFAULT_TOL
    marginals = g.incidence.marginals(report.optimizer.probabilities)
    assert np.abs(marginals - box.stacked()).max() <= 1e-12


@seed(20261102)
@settings(max_examples=40, deadline=None)
@given(
    anchor=st.sampled_from(CONTEXTUAL),
    anchor_weight=st.floats(0.6, 0.99),
    uniform=st.booleans(),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_contextual_boxes_take_the_loops_steps(anchor, anchor_weight, uniform, draw_seed):
    """An anchor mixed with a dense joint's box, where that leaves it
    contextual, from the uniform start: never a projection or the isotropic
    start.  Where the oracle takes the loop's steps, the same value, gap,
    iterations, trace and optimizer, bit for bit; where it stops at the
    face exit, the same iteration and a joint within 1e-12."""
    rng = np.random.default_rng(draw_seed)
    box = shuffled(random_consistent_box(anchor.hypergraph, rng, anchor=anchor,
                                         anchor_weight=anchor_weight), rng)
    g = box.hypergraph
    assume(cx.contextuality_cost(box).cost > 1e-6)
    weights = cx.ContextWeights.uniform(g.n_contexts) if uniform else random_weights(g.n_contexts, rng)
    report = cx.x_fixed(box, weights, tol=1e-9, max_iters=5000)
    expected, exit = reference_solve_fixed(measures._FixedWeightProblem(box, weights), 1e-9, 5000)
    assert exit in (None, "face")
    got = (report.value, report.optimizer.probabilities, report.duality_gap, report.iterations,
           report.converged, report.trace)
    assert_same_solve(got, expected, exit, box)


def isotropic_cases():
    cases = [("PM", None), ("M", None)] + [("CH", n) for n in range(4, 11)]
    return [pytest.param(family, n, id=family if n is None else f"CH{n}") for family, n in cases]


@pytest.mark.parametrize("family, n", isotropic_cases())
def test_isotropic_boxes_certify_at_their_start(family, n):
    """On the criterion-2 grid, x_u is within 1e-12 of ``xu_isotropic`` in one
    iteration, and so is x_max.  At random weights, which the group does not
    fix, the start does not certify where the box is contextual, and the
    solve takes the loop's steps bit for bit, or stops at the face exit,
    where the oracle does."""
    rng = np.random.default_rng(31)
    for alpha in CRITERION_2_GRID:
        box = cx.builtin(family, n=n, alpha=alpha)
        n_contexts = box.hypergraph.n_contexts
        report = cx.x_u(box)
        assert report.iterations == 1
        assert abs(report.value - xu_isotropic(n_contexts, alpha)) <= 1e-12
        assert report.duality_gap <= 1e-12
        lo, hi = nc_interval(n_contexts)
        if lo <= alpha <= hi or alpha in (0.0, 1.0):
            continue
        weights = random_weights(n_contexts, rng)
        fixed = cx.x_fixed(box, weights, tol=1e-9, max_iters=3000)
        expected, exit = reference_solve_fixed(measures._FixedWeightProblem(box, weights), 1e-9, 3000)
        assert exit in (None, "face")
        got = (fixed.value, fixed.optimizer.probabilities, fixed.duality_gap, fixed.iterations,
               fixed.converged, fixed.trace)
        assert_same_solve(got, expected, exit, box)
    for alpha in (0.5, 0.95):
        box = cx.builtin(family, n=n, alpha=alpha)
        report = cx.x_max(box)
        assert report.iterations == 1
        assert abs(report.value - xu_isotropic(box.hypergraph.n_contexts, alpha)) <= 1e-12


@st.composite
def contextual_mixes(draw):
    """One of ``ANCHORS`` (binary ones and the ternary 4-cycle) mixed at a
    weight in [0.6, 1) with a dense joint's box, or with a sparse joint's
    box whose zero cells leave zero entries in every context; shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchor = draw(st.sampled_from(ANCHORS))
    other = (sparse_box if draw(st.booleans()) else dense_box)(anchor.hypergraph, rng)
    return shuffled(cx.mix(anchor, other, float(rng.uniform(0.6, 1.0))), rng)


@seed(20261120)
@settings(max_examples=40, deadline=None)
@given(box=contextual_mixes(), uniform=st.booleans(), draw_seed=st.integers(0, 2**32 - 1))
def test_face_exit_against_the_loop(box, uniform, draw_seed):
    """x_fixed at tol 1e-9, uniform or random weights, on a contextual box,
    against the same solve with the face exit patched off: the values agree
    within the sum of the two gaps, and each bracket's lower end lies below
    the other's value.  A face joint whose field peaks at 1 within an ulp
    has a gap of 0, so its lower end can sit ``ROUNDING`` above the optimum,
    as the junction-tree joint's can.  The optimizer's context marginals are
    positive on every row, and ``verify_equivalence`` leaves a residual of
    at most 1e-9."""
    g = box.hypergraph
    assume(cx.contextuality_cost(box).cost > 1e-6)
    weights = (cx.ContextWeights.uniform(g.n_contexts) if uniform
               else random_weights(g.n_contexts, np.random.default_rng(draw_seed)))
    new = cx.x_fixed(box, weights, tol=1e-9, max_iters=20_000)
    with mock.patch.object(measures._FixedWeightProblem, "face_joint", return_value=None):
        old = cx.x_fixed(box, weights, tol=1e-9, max_iters=20_000)
    assert abs(new.value - old.value) <= new.duality_gap + old.duality_gap
    assert old.value - old.duality_gap <= new.value + ROUNDING
    assert new.value - new.duality_gap <= old.value + ROUNDING
    assert g.incidence.marginals(new.optimizer.probabilities).min() > 0.0
    assert measures.verify_equivalence(box, weights, tol=1e-9).residual <= 1e-9


def anchor_mix(anchor, draw):
    """Draw ``draw`` of the anchor mixes: ``random_consistent_box`` on one
    ``default_rng(1)``, each at an anchor weight drawn from U(0.8, 1)."""
    rng = np.random.default_rng(1)
    for _ in range(draw + 1):
        weight = rng.uniform(0.8, 1.0)
        box = random_consistent_box(anchor.hypergraph, rng, anchor=anchor, anchor_weight=weight)
    return box


def test_pm_anchor_draw_36_certifies_on_its_face():
    """PM mixed at weight 0.99994: the loop alone takes 144,684 iterations to
    tol 1e-9.  At the face its field picks at iteration 2 it certifies."""
    report = cx.x_u(anchor_mix(cx.pm_box(), 36), tol=1e-9)
    assert report.converged and report.iterations <= 16
    assert report.duality_gap <= 1e-9
    assert abs(report.value - 0.262636224956) <= 1e-9


def test_projection_step_is_clamped():
    """A triangle of contexts on 11 binary observables, one of them on 10
    (1024 cells), with ``DENSE_ENTRIES_CAP`` raised so that its 1032 x 2048 M
    projects.  The box is a joint's with almost all of its mass on one cell;
    the iterate has almost none there, and puts it where the last context's
    table has almost none.  After the sweep the step's exponent reaches about
    1024, past exp's overflow at 709.  Clamped, the projection raises no
    floating-point error, and the joint it returns, if any, has the box's
    marginals."""
    cap = 2**22
    # This M exceeds the cap that holds outside the test, so it goes in an
    # incidence of its own, and the shared ones are kept.
    own = functools.lru_cache(maxsize=1)(boxes._incidence.__wrapped__)
    with mock.patch.object(boxes, "DENSE_ENTRIES_CAP", cap), mock.patch.object(boxes, "_incidence", own):
        g = cx.Hypergraph([(f"O{i}", 2) for i in range(11)], [list(range(10)), [9, 10], [10, 0]])
        joint = np.full(g.joint_dim, 1e-9)
        joint[0] = 1.0
        box = cx.box_of_joint(cx.JointDistribution(g, joint / joint.sum()))
        digits = np.array(list(np.ndindex(g.joint_shape)))
        head = digits[:, :10].sum(axis=1) == 0
        p = np.ones(g.joint_dim)
        p[head & (digits[:, 10] == 0)] = 1e-30
        p[head & (digits[:, 10] == 1)] = 1e30
        p /= p.sum()
        problem = measures._FixedWeightProblem(box, cx.ContextWeights.uniform(g.n_contexts))
        assert reference_sweep(problem, p)[1].max() > 709.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            q, miss = problem.op.fit(problem.targets, p.copy())
        # A finite miss: the fit ran, its M built, rather than refusing the box.
        assert miss < math.inf
        if q is not None:
            assert np.abs(g.incidence.marginals(q) - box.stacked()).max() <= 1e-9

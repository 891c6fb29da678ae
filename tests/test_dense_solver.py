"""The entropy solver's dense small-box matrix against the implicit operator path."""

from unittest import mock

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_incidence import hypergraphs
from test_polytope import ternary_cycle_box

import contextuality as cx
from contextuality import measures
from contextuality.boxes import ContextIncidence


def implicit_only():
    """Build every problem in the block on the operator's tensor reductions."""
    return mock.patch.object(measures, "DENSE_ENTRIES_CAP", 0)


def both_paths(box, weights):
    dense = measures._FixedWeightProblem(box, weights)
    with implicit_only():
        implicit = measures._FixedWeightProblem(box, weights)
    assert dense.dense is not None and implicit.dense is None
    return dense, implicit


def sparse_box(g, rng):
    """Marginals of a joint supported on a random subset, so targets have zeros."""
    p = np.zeros(g.joint_dim)
    cells = rng.choice(g.joint_dim, size=int(rng.integers(1, g.joint_dim + 1)), replace=False)
    p[cells] = rng.dirichlet(np.ones(cells.size))
    return cx.box_of_joint(cx.JointDistribution(g, p))


def sparse_weights(n, rng):
    """Random context weights, some of them zero (never all)."""
    w = rng.dirichlet(np.ones(n)) * (rng.uniform(size=n) < 0.7)
    if w.sum() == 0.0:
        w[rng.integers(n)] = 1.0
    return cx.ContextWeights(w / w.sum())


def shuffled(box, rng):
    """The same box with contexts, and observables inside each context, reordered."""
    g = box.hypergraph
    contexts, dists = [], []
    for ci in rng.permutation(g.n_contexts):
        axes = rng.permutation(len(g.contexts[ci]))
        contexts.append(tuple(g.contexts[ci][a] for a in axes))
        dists.append(np.transpose(box.context_tensor(ci), axes).ravel())
    return cx.Box(cx.Hypergraph(g.observables, contexts), dists)


ANCHORS = (
    cx.pr_box(),
    cx.chain_box(5),
    cx.kcbs_box(),
    cx.pm_box(),
    cx.mermin_box(),
    ternary_cycle_box(4),
)
# Both components are contextual, so with one context at weight 0 the optimum
# stays positive; dropping a context of any anchor above leaves a
# noncontextual box.  Only the solver oracles draw it: in ANCHORS it slowed
# every test that samples them.
SUM_ANCHOR = cx.direct_sum(cx.chain_box(3), cx.pr_box())


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_evaluate_paths_agree(g, draw_seed):
    rng = np.random.default_rng(draw_seed)
    box = sparse_box(g, rng)
    dense, implicit = both_paths(box, sparse_weights(g.n_contexts, rng))
    uniform = np.full(g.joint_dim, 1.0 / g.joint_dim)
    points = [
        0.5 * uniform + 0.5 * rng.dirichlet(np.ones(g.joint_dim)),
        rng.dirichlet(np.ones(g.joint_dim)) * (rng.uniform(size=g.joint_dim) < 0.5),
    ]
    for p in points:
        # A zero marginal on the support is allowed here: the value is +inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            (v1, r1, max1), (v2, r2, max2) = dense.field(p), implicit.field(p)
        assert r1.shape == r2.shape == (g.joint_dim,)
        gap1, gap2 = measures._gap(max1), measures._gap(max2)
        if np.isinf(v2):
            assert np.isinf(v1) and np.isinf(gap1) and np.isinf(gap2)
            continue
        assert abs(v1 - v2) <= 1e-12
        assert abs(gap1 - gap2) <= 1e-12
        assert np.max(np.abs(r1 - r2)) <= 1e-12


@seed(20261019)
@settings(max_examples=16, deadline=None)
@given(
    anchor=st.sampled_from(ANCHORS),
    anchor_weight=st.floats(0.5, 1.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_x_fixed_paths_agree(anchor, anchor_weight, draw_seed):
    rng = np.random.default_rng(draw_seed)
    box = shuffled(cx.mix(anchor, sparse_box(anchor.hypergraph, rng), anchor_weight), rng)
    weights = sparse_weights(box.hypergraph.n_contexts, rng)
    both_paths(box, weights)
    dense = cx.x_fixed(box, weights, tol=1e-9, max_iters=5000)
    with implicit_only():
        implicit = cx.x_fixed(box, weights, tol=1e-9, max_iters=5000)
    # Each value lies within its gap above the same optimum, and a converged
    # gap is at most 1e-9.
    assert abs(dense.value - implicit.value) <= max(1e-9, dense.duality_gap, implicit.duality_gap)


def test_no_dense_matrix_above_cap():
    box = cx.chain_box(16)
    problem = measures._FixedWeightProblem(box, cx.ContextWeights.uniform(16))
    assert problem.support.size * box.hypergraph.joint_dim > measures.DENSE_ENTRIES_CAP
    assert problem.dense is None


def test_x_max_builds_one_matrix():
    builds = mock.patch.object(
        ContextIncidence, "columns", autospec=True, side_effect=ContextIncidence.columns
    )
    solves = mock.patch.object(measures, "_solve_fixed", side_effect=measures._solve_fixed)
    pm = cx.pm_box()
    box = cx.mix(pm, sparse_box(pm.hypergraph, np.random.default_rng(0)), 0.8)
    with builds as columns, solves as solve_fixed:
        cx.x_max(box, outer_window=20)
    assert solve_fixed.call_count > 1
    assert columns.call_count == 1


def per_context_divergences(problem, p):
    """One ``relative_entropy`` per context: the reference for ``divergences``."""
    op = problem.op
    pairs = zip(op.split(problem.targets), op.split(op.marginals(p)))
    return np.array([cx.relative_entropy(target, m) for target, m in pairs])


@seed(20261023)
@settings(max_examples=24, deadline=None)
@given(anchor=st.sampled_from(ANCHORS), draw_seed=st.integers(0, 2**32 - 1))
def test_divergences_against_per_context_loop(anchor, draw_seed):
    """Sparse boxes and sparse weights, so some positive-target rows have zero
    weight on most draws; checked at a solver
    iterate, at an average of iterates (as ``x_max`` takes it), and at a
    point where some positive target meets a zero marginal.  The values must
    match bit for bit, so ``x_max`` takes the same steps as with the loop."""
    rng = np.random.default_rng(draw_seed)
    g = anchor.hypergraph
    box = shuffled(cx.mix(anchor, sparse_box(g, rng), float(rng.uniform(0.5, 1.0))), rng)
    problem = measures._FixedWeightProblem(box, sparse_weights(g.n_contexts, rng))
    assert np.array_equal(problem.support, np.flatnonzero(box.stacked() > 0))
    _, iterate, _, _, _, _ = measures._solve_fixed(problem, 1e-9, 20)
    start = rng.dirichlet(np.ones(g.joint_dim))
    _, other, _, _, _, _ = measures._solve_fixed(problem, 1e-9, 3, start)
    average = (iterate + other) / (iterate + other).sum()
    face = rng.dirichlet(np.ones(g.joint_dim)) * (rng.uniform(size=g.joint_dim) < 0.25)
    face[(problem.op.rows(np.arange(g.joint_dim)) == rng.choice(problem.support)).any(axis=1)] = 0.0
    for p in (iterate, average, face):
        expected = per_context_divergences(problem, p)
        got = problem.divergences(p)
        assert got.shape == (g.n_contexts,)
        assert np.array_equal(got, expected)
    assert np.isinf(problem.divergences(face)).any()

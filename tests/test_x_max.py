"""``x_max`` against the multiplicative-weights ascent of an earlier
version, on boxes whose supremum lies on the simplex's boundary, and its
split of a direct sum into components.

``previous_x_max`` keeps the earlier ascent: log-weights moved by
``4 / sqrt(t)`` times the divergences in round t, each round warm-started
from the last minimizer, on the whole box.  Each round's value is an inner
solve's value at some weights, and the upper bound ``max_c D_c(p)`` at any
joint p is at least the supremum, so the new value must reach the earlier
one, and the earlier lower bound must lie below the new upper bound.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, SUM_ANCHOR, shuffled, sparse_box
from test_incidence import hypergraphs
from test_solver_identity import brute_incidence, dense_box, max_divergence

import contextuality as cx
from contextuality import measures
from contextuality.boxes import split_components


def previous_x_max(box, tol=measures.DEFAULT_TOL, max_iters=measures.DEFAULT_MAX_ITERS, outer_window=200):
    """The earlier ascent's value, inner gap and upper bound."""
    n = box.hypergraph.n_contexts
    log_w = np.zeros(n)
    best_value, best_gap, upper = -math.inf, math.inf, math.inf
    last_improve = 0
    warm, candidate = measures._starts(box)
    p_sum = np.zeros(box.hypergraph.joint_dim)
    problem = measures._FixedWeightProblem(box, cx.ContextWeights.uniform(n))
    for outer in range(1, 2000 + 1):
        w_vec = np.exp(log_w - log_w.max())
        w_vec /= w_vec.sum()
        problem.reweight(w_vec)
        value, p_flat, gap, _, _, _ = measures._solve_fixed(problem, tol, max_iters, warm, candidate)
        warm, candidate = p_flat, None
        p_sum += p_flat
        divergences = problem.divergences(p_flat)
        upper = min(upper, float(divergences.max()))
        if value > best_value + 1e-7:
            last_improve = outer
        if value > best_value:
            best_value, best_gap = value, gap
        if outer - last_improve >= outer_window or upper - best_value <= 1e-7:
            break
        log_w = log_w + 4.0 / math.sqrt(outer) * divergences
    upper = min(upper, float(problem.divergences(p_sum / p_sum.sum()).max()))
    return best_value, best_gap, upper


@st.composite
def ascent_boxes(draw):
    """Binary and ternary boxes: one of ``ANCHORS`` mixed with a dense joint's
    box or with a sparse joint's box, or ``SUM_ANCHOR`` mixed with a sparse
    joint's box, summed with an anchored box of at most 32 joint outcomes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["anchored", "sparse", "sum"]))
    if kind == "sum":
        small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 32]
        anchor = small[int(rng.integers(len(small)))]
        other = cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0)))
        summed = cx.mix(SUM_ANCHOR, sparse_box(SUM_ANCHOR.hypergraph, rng), float(rng.uniform(0.5, 1.0)))
        return cx.direct_sum(shuffled(summed, rng), shuffled(other, rng))
    anchor = ANCHORS[int(rng.integers(len(ANCHORS)))]
    noise = dense_box if kind == "anchored" else sparse_box
    return shuffled(cx.mix(anchor, noise(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0))), rng)


@seed(20261101)
@settings(max_examples=20, deadline=None)
@given(box=ascent_boxes())
def test_x_max_reaches_previous_ascent(box):
    report = cx.x_max(box, outer_window=40)
    value, gap, upper = previous_x_max(box, outer_window=40)
    assert report.value >= value - 1e-12
    lower, top = report.value - report.duality_gap, report.value
    assert lower <= report.value <= top
    # Each lower bound lies below the other run's upper bound, up to rounding.
    assert value - gap <= top and lower <= upper + 1e-12


@st.composite
def saddle_boxes(draw):
    """Binary and ternary boxes: one of ``ANCHORS`` (the ternary 4-cycle among
    them) mixed with a dense or a sparse joint's box at a weight in
    U(0.5, 1), or a dense joint's box on a random hypergraph."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "joint"]))
    if kind == "joint":
        return dense_box(draw(hypergraphs()), rng)
    anchor = ANCHORS[int(rng.integers(len(ANCHORS)))]
    noise = dense_box if kind == "dense" else sparse_box
    return shuffled(cx.mix(anchor, noise(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0))), rng)


def lower_end(box, p, weights):
    """``F_w(p) - log2 max r_w(p)`` at a joint p and weights w, from the
    incidence of ``brute_rows``: one ``relative_entropy`` per context, and
    ``r_w = M^T (w t / M p)`` on every cell."""
    g = box.hypergraph
    incidence, t = brute_incidence(g)[1], box.stacked()
    m = incidence @ p
    bounds = np.cumsum([0] + [g.context_dim(ci) for ci in range(g.n_contexts)])
    value = sum(w * cx.relative_entropy(t[a:b], m[a:b]) for w, a, b in zip(weights, bounds, bounds[1:]))
    rows = np.repeat(weights, np.diff(bounds)) * np.divide(t, m, out=np.zeros_like(t), where=t > 0.0)
    return value - math.log2((incidence.T @ rows).max())


@seed(20261120)
@settings(max_examples=40, deadline=None)
@given(box=saddle_boxes())
def test_saddle_exit_against_the_loop(box):
    """``x_max`` with its saddle exit against the loop with it patched off
    (at most 3,000 iterations): the brackets ``[value - duality_gap,
    value]`` overlap.  Where the exit fires, the report's two ends are its
    own: the value is ``max_c D_c`` at the optimizer, and the lower end is
    ``F_w - log2 max r_w`` at the optimizer and ``outer_weights``."""
    saddles = []
    saddle = measures._FixedWeightProblem.saddle

    def spy(problem, p, r, r_max):
        found = saddle(problem, p, r, r_max)
        saddles.append(found)
        return found

    with mock.patch.object(measures._FixedWeightProblem, "saddle", autospec=True, side_effect=spy):
        report = cx.x_max(box)
    with mock.patch.object(measures._FixedWeightProblem, "saddle", return_value=None):
        loop = cx.x_max(box, max_iters=3000)
    assert report.value - report.duality_gap <= loop.value + 1e-12
    assert loop.value - loop.duality_gap <= report.value + 1e-12
    p, weights = report.optimizer.probabilities, report.outer_weights.weights
    if any(found is not None and np.array_equal(found[0], p) for found in saddles):
        assert report.converged and report.duality_gap <= measures.DEFAULT_TOL
        assert report.value == max_divergence(box, p)
        assert abs(report.value - report.duality_gap - lower_end(box, p, weights)) <= 1e-12


def observable_marginal(box, i):
    """The marginal of observable ``i``, read from the first context that holds it."""
    ci = next(ci for ci, ctx in enumerate(box.hypergraph.contexts) if i in ctx)
    ctx = box.hypergraph.contexts[ci]
    return box.context_tensor(ci).sum(axis=tuple(a for a, j in enumerate(ctx) if j != i))


def bridged_sum(rng):
    """Two draws of the anchors with at most 32 joint outcomes (PR, CH(5),
    KCBS), each mixed with a sparse joint's box at a weight in U(0.5, 1),
    summed, and bridged by one more context on one observable of each part,
    whose table is the product of the two observables' marginals."""
    small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 32]
    parts = []
    for _ in range(2):
        anchor = small[int(rng.integers(len(small)))]
        parts.append(cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0))))
    summed = cx.direct_sum(*parts)
    g = summed.hypergraph
    n1 = parts[0].hypergraph.n_observables
    a = int(rng.integers(n1))
    b = n1 + int(rng.integers(parts[1].hypergraph.n_observables))
    table = np.multiply.outer(observable_marginal(summed, a), observable_marginal(summed, b)).ravel()
    return cx.Box(cx.Hypergraph(g.observables, [*g.contexts, (a, b)]), [*summed.distributions, table])


def sparse_mix(rng):
    """One of ``ANCHORS`` mixed with a sparse joint's box at a weight in U(0.5, 1)."""
    anchor = ANCHORS[int(rng.integers(len(ANCHORS)))]
    return cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0)))


def boundary_boxes():
    """12 bridged sums (``default_rng(11)``) and 6 sparse mixes (``default_rng(5)``):
    boxes where some weights of the supremum are 0."""
    bridged, mixes = np.random.default_rng(11), np.random.default_rng(5)
    return [bridged_sum(bridged) for _ in range(12)] + [sparse_mix(mixes) for _ in range(6)]


# The bracket of the earlier round-based ascent on the twelfth bridged sum,
# after 705,605 inner iterations.
BRIDGED_11_BRACKET = (0.120809792, 0.120809946)


@pytest.mark.parametrize("index", range(18), ids=[f"bridged-{k}" for k in range(12)] + [f"mix-{k}" for k in range(6)])
def test_boundary_boxes_close(index):
    report = cx.x_max(boundary_boxes()[index])
    assert report.converged and report.duality_gap <= measures.DEFAULT_TOL
    assert report.wall_time_s < 1.0
    if index == 11:
        lo, hi = BRIDGED_11_BRACKET
        assert lo <= report.value - report.duality_gap <= report.value <= hi


@seed(20261106)
@settings(max_examples=30, deadline=None)
@given(box=ascent_boxes(), draw_seed=st.integers(0, 2**32 - 1))
def test_bracket_is_sound(box, draw_seed):
    """The lower end is at most ``max_c D_c`` at ``x_u``'s optimizer, and at
    most ``x_fixed`` at the reported weights; the upper end is the value at
    the reported optimizer, and at least the lower end of ``x_fixed`` at
    random weights."""
    report = cx.x_max(box)
    lower = report.value - report.duality_gap
    assert report.converged and report.duality_gap <= measures.DEFAULT_TOL
    assert abs(report.value - max_divergence(box, report.optimizer.probabilities)) <= 1e-12
    assert lower <= max_divergence(box, cx.x_u(box).optimizer.probabilities) + 1e-12
    assert lower <= cx.x_fixed(box, report.outer_weights).value + 1e-12
    rng = np.random.default_rng(draw_seed)
    for _ in range(3):
        fixed = cx.x_fixed(box, cx.ContextWeights(rng.dirichlet(np.ones(box.hypergraph.n_contexts))))
        assert fixed.value - fixed.duality_gap <= report.value + 1e-12


def test_split_components_undoes_direct_sum():
    parts = (cx.kcbs_box(), cx.chain_box(3, 0.9), cx.pr_box())
    box = cx.direct_sum(cx.direct_sum(parts[0], parts[1]), parts[2])
    split = split_components(box)
    assert [members for _, members in split] == [(0, 1, 2, 3, 4), (5, 6, 7), (8, 9, 10, 11)]
    for (got, _), part in zip(split, parts):
        assert got.hypergraph.contexts == part.hypergraph.contexts
        assert got.hypergraph.cardinalities == part.hypergraph.cardinalities
        assert all(np.array_equal(a, b) for a, b in zip(got.distributions, part.distributions))


def test_split_components_shares_hypergraphs():
    """Equal hypergraphs built separately share one set of component
    hypergraphs; a box of several components on an acyclic hypergraph is
    not split, but solved whole from its junction-tree joint."""
    first, second = (cx.direct_sum(cx.kcbs_box(), cx.pr_box(0.9)) for _ in range(2))
    assert first.hypergraph is not second.hypergraph
    for (a, members_a), (b, members_b) in zip(split_components(first), split_components(second)):
        assert a.hypergraph is b.hypergraph and members_a == members_b
    rng = np.random.default_rng(0)
    pair = cx.Hypergraph([("A", 3), ("B", 2)], [(0, 1)])
    acyclic = cx.direct_sum(dense_box(pair, rng), dense_box(pair, rng))
    assert len(acyclic.hypergraph.components) == 2 and acyclic.hypergraph.join_tree is not None
    assert measures._parts(acyclic) == ((acyclic, (0, 1)),)
    assert cx.x_u(acyclic).iterations <= 1


def test_direct_sum_of_isotropic_boxes_is_its_larger_part():
    m = cx.builtin("M", alpha=0.9)
    report = cx.x_max(cx.direct_sum(m, cx.builtin("PM", alpha=0.9)))
    assert abs(report.value - cx.x_max(m).value) <= 1e-7
    assert report.wall_time_s < 1.0


def test_direct_sum_brackets_its_larger_part():
    kcbs = cx.x_max(cx.kcbs_box())
    report = cx.x_max(cx.direct_sum(cx.kcbs_box(), cx.chain_box(8, 0.95)))
    assert abs(report.value - kcbs.value) <= 1e-7
    assert report.value - report.duality_gap <= kcbs.value <= report.value
    assert report.converged


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["KCBS-first", "KCBS-second"])
def test_direct_sum_reports_one_component(order):
    """The weights are the larger part's own, with zeros on the other part's
    contexts, and the optimizer has each part's own minimizer as marginal."""
    parts = [cx.kcbs_box(), cx.chain_box(6, 0.9)]
    own = [cx.x_max(part) for part in parts]
    box = cx.direct_sum(parts[order[0]], parts[order[1]])
    report = cx.x_max(box)
    larger = int(np.argmax([r.value for r in own]))
    op = box.hypergraph.incidence
    marginals = op.split(op.marginals(report.optimizer.probabilities))
    for (_, members), k in zip(split_components(box), order):
        weights = report.outer_weights.weights[list(members)]
        if k == larger:
            assert np.array_equal(weights, own[k].outer_weights.weights)
        else:
            assert np.all(weights == 0.0)
        part_op = parts[k].hypergraph.incidence
        expected = part_op.split(part_op.marginals(own[k].optimizer.probabilities))
        for ci, table in zip(members, expected):
            assert np.abs(marginals[ci] - table).max() <= 1e-15

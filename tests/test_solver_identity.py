"""The entropy solver against a copy of its earlier loop, bit for bit.

``reference_solve_fixed`` and ``reference_x_max`` keep the solver's loop and
``x_max``'s ascent as they were before the per-iteration trims: every step
went through ``reference_evaluate`` (a scan for a zero marginal, the joint
reshapes, and the gap from ``r.max()``), the over-relaxed step took
``r.max()`` again, the components were found anew on every solve, and every
``x_max`` round built a new problem from validated ``ContextWeights``.  Like
``plain_em`` in ``test_measures.py`` they are an oracle: the library must
give the same values, gaps, iteration counts, traces and optimizers.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, implicit_only, shuffled, sparse_box, sparse_weights
from test_incidence import hypergraphs

import contextuality as cx
from contextuality import measures
from contextuality.boxes import ContextIncidence

EPS = np.finfo(float).eps


def reference_evaluate(problem, p):
    if problem.dense is None:
        m = problem.op.marginals(p)[problem.support]
    else:
        m = problem.dense @ p.reshape(-1)
    if m.min() <= 0.0:
        return float("inf"), np.zeros(p.shape), float("inf")
    ratio = problem.t_s / m
    value = float(problem.wt_s @ np.log2(ratio))
    if problem.dense is None:
        y = np.zeros(problem.op.dim)
        y[problem.support] = ratio * problem.w_s
        r = problem.op.lift(y)
    else:
        r = (ratio * problem.w_s) @ problem.dense
    gap = (float(r.max()) - 1.0) * measures.LOG2E
    return value, r.reshape(p.shape), max(gap, 0.0)


def reference_step(p, r, omega):
    q = p * r if omega == 1.0 else p * (r / r.max()) ** omega
    np.maximum(q, EPS / q.size, out=q)
    q /= q.sum()
    return q


def reference_components(g):
    parent = list(range(g.n_observables))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ctx in g.contexts:
        root = find(ctx[0])
        for i in ctx[1:]:
            parent[find(i)] = root
    groups = {}
    for i in range(g.n_observables):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def reference_factorize(p_tensor, g):
    k = g.n_observables
    factors, axis_order = [], []
    for comp in reference_components(g):
        comp = sorted(comp)
        others = tuple(a for a in range(k) if a not in comp)
        factors.append(p_tensor.sum(axis=others))
        axis_order.extend(comp)
    prod = factors[0]
    for f in factors[1:]:
        prod = np.multiply.outer(prod, f)
    perm = tuple(axis_order.index(j) for j in range(k))
    return np.ascontiguousarray(np.transpose(prod, perm))


def reference_solve_fixed(problem, tol, max_iters, init=None):
    g = problem.g
    start = np.full(g.joint_dim, 1.0 / g.joint_dim) if init is None else init.reshape(-1)
    p = reference_step(start, 1.0, 1.0)
    trace, next_trace, omega = [], 1, 1.0
    value, r, gap = reference_evaluate(problem, p)
    lower = value - gap
    iteration = 0
    for iteration in range(1, max_iters + 1):
        if gap <= tol:
            break
        trial = reference_step(p, r, omega)
        trial_value, trial_r, trial_gap = reference_evaluate(problem, trial)
        if omega > 1.0 and not trial_value < value:
            omega = 1.0
            trial = reference_step(p, r, omega)
            trial_value, trial_r, trial_gap = reference_evaluate(problem, trial)
        elif trial_value < value:
            omega = min(omega * measures.OVERRELAX_GROWTH, measures.OVERRELAX_CAP)
        p, value, r = trial, trial_value, trial_r
        lower = max(lower, value - trial_gap)
        gap = max(value - lower, 0.0)
        if iteration >= next_trace:
            trace.append((iteration, value, gap))
            next_trace *= 2
    trace.append((iteration, value, gap))
    if len(reference_components(g)) > 1:
        p = reference_factorize(p.reshape(g.joint_shape), g).reshape(-1)
        value, _, point_gap = reference_evaluate(problem, p)
        lower = max(lower, value - point_gap)
        gap = max(value - lower, 0.0)
    return max(value, 0.0), p, gap, iteration, gap <= tol + 1e-14, tuple(trace)


def reference_x_max(box, tol, max_iters, outer_window):
    """``x_max``'s ascent with a new problem per round; returns the report's fields."""
    n = box.hypergraph.n_contexts
    log_w = np.zeros(n)
    best_value, best_gap, best_weights, best_p = -float("inf"), float("inf"), None, None
    upper, total_inner, last_improve, warm = float("inf"), 0, 0, None
    p_sum = np.zeros(box.hypergraph.joint_dim)
    problem = measures._FixedWeightProblem(box, cx.ContextWeights.uniform(n))
    outer = 0
    for outer in range(1, measures._XMAX_MAX_OUTER + 1):
        w_vec = np.exp(log_w - log_w.max())
        w_vec /= w_vec.sum()
        weights = cx.ContextWeights(w_vec)
        value, p_flat, gap, iters, _, _ = reference_solve_fixed(
            measures._FixedWeightProblem(box, weights), tol, max_iters, warm
        )
        total_inner += iters
        warm = p_flat
        p_sum += p_flat
        divergences = problem.divergences(p_flat)
        upper = min(upper, float(divergences.max()))
        if value > best_value + measures._XMAX_IMPROVE_TOL:
            last_improve = outer
        if value > best_value:
            best_value, best_gap, best_weights, best_p = value, gap, weights, p_flat
        if outer - last_improve >= outer_window:
            break
        if upper - best_value <= measures._XMAX_IMPROVE_TOL:
            break
        eta = measures._XMAX_ETA0 / math.sqrt(outer)
        log_w = log_w + eta * divergences
    avg = p_sum / p_sum.sum()
    upper = min(upper, float(problem.divergences(avg).max()))
    converged = best_gap <= tol and outer < measures._XMAX_MAX_OUTER
    return (best_value, best_gap, total_inner, converged, best_weights.weights.tobytes(),
            max(0.0, upper - best_value), best_p.tobytes())


def fields(report):
    return (report.value, report.duality_gap, report.iterations, report.converged,
            report.outer_weights.weights.tobytes(), report.outer_gap,
            report.optimizer.probabilities.tobytes())


@st.composite
def identity_boxes(draw):
    """Binary and ternary boxes: an anchor mixed with a sparse joint's box, a
    sparse joint's box on a random hypergraph (often of several components),
    or a direct sum of two such anchored boxes (always several components)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["anchored", "random", "sum"]))
    if kind == "random":
        return sparse_box(draw(hypergraphs()), rng)

    def anchored(anchors):
        anchor = anchors[int(rng.integers(len(anchors)))]
        mixed = cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0)))
        return shuffled(mixed, rng)

    if kind == "anchored":
        return anchored(ANCHORS)
    # At most 81 * 32 joint outcomes: the ternary 4-cycle or a binary anchor, plus PR, CH(5) or KCBS.
    small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 32]
    return cx.direct_sum(anchored(small + [ANCHORS[-1]]), anchored(small))


@seed(20261025)
@settings(max_examples=40, deadline=None)
@given(box=identity_boxes(), draw_seed=st.integers(0, 2**32 - 1), implicit=st.booleans())
def test_x_fixed_matches_reference(box, draw_seed, implicit):
    """Weights with zeros on most draws; dense matrix or tensor reductions.

    The solver's loop from the uniform start matches the oracle on every
    draw.  ``x_fixed`` starts there too on a cyclic hypergraph; on an acyclic
    one it starts from the junction-tree joint, which the tests of
    ``test_junction_tree.py`` cover."""
    weights = sparse_weights(box.hypergraph.n_contexts, np.random.default_rng(draw_seed))
    with mock.patch.object(measures, "DENSE_ENTRIES_CAP", 0 if implicit else measures.DENSE_ENTRIES_CAP):
        problem = measures._FixedWeightProblem(box, weights)
        solved = measures._solve_fixed(problem, 1e-9, 3000)
        report = cx.x_fixed(box, weights, tol=1e-9, max_iters=3000)
    value, p, gap, iterations, converged, trace = reference_solve_fixed(problem, 1e-9, 3000)
    assert solved[:1] + solved[2:] == (value, gap, iterations, converged, trace)
    assert np.array_equal(solved[1], p)
    if box.hypergraph.join_tree is None:
        assert (report.value, report.duality_gap, report.iterations) == (value, gap, iterations)
        assert (report.converged, report.trace) == (converged, trace)
        assert np.array_equal(report.optimizer.probabilities, p)


@seed(20261026)
@settings(max_examples=10, deadline=None)
@given(box=identity_boxes())
def test_x_max_matches_reference(box):
    """Bit for bit on a cyclic hypergraph.  On an acyclic one the ascent
    starts from the junction-tree joint, so its bracket
    ``[value - duality_gap, value]`` and the oracle's must overlap."""
    report = cx.x_max(box, max_iters=2000, outer_window=8)
    reference = reference_x_max(box, measures.DEFAULT_TOL, 2000, 8)
    if box.hypergraph.join_tree is None:
        assert fields(report) == reference
    else:
        value, gap = reference[:2]
        assert value - gap <= report.value
        assert report.value - report.duality_gap <= value


@pytest.mark.parametrize("anchor", [ANCHORS[0], ANCHORS[-1]], ids=["PR", "ternary-cycle"])
def test_x_max_support_change_matches_reference(anchor):
    """A large step scale drives some context weights to 0 within a few rounds;
    the reweighted problem keeps the rows and the matrix it was built with."""
    rng = np.random.default_rng(0)
    box = shuffled(cx.mix(anchor, sparse_box(anchor.hypergraph, rng), 0.7), rng)
    builds = mock.patch.object(
        ContextIncidence, "columns", autospec=True, side_effect=ContextIncidence.columns
    )
    with mock.patch.object(measures, "_XMAX_ETA0", 1e4):
        with builds as columns:
            report = cx.x_max(box, max_iters=2000, outer_window=8)
        assert columns.call_count == 1
        assert fields(report) == reference_x_max(box, measures.DEFAULT_TOL, 2000, 8)
        with implicit_only():
            report = cx.x_max(box, max_iters=2000, outer_window=8)
            assert fields(report) == reference_x_max(box, measures.DEFAULT_TOL, 2000, 8)

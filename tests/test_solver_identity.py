"""The entropy solver against a copy of its earlier loop, bit for bit.

``reference_solve_fixed`` keeps the solver's loop as it was before the
per-iteration trims: every step went through ``reference_evaluate`` (a scan
for a zero marginal, the joint reshapes, and the gap from ``r.max()``), and
the over-relaxed step took ``r.max()`` again.  ``reference_x_max`` writes
``x_max``'s loop in the joint and the weights on its own, and every weight
step builds a new problem from validated ``ContextWeights``.
``reference_x_fixed`` and ``reference_x_max`` split a box into hypergraph
components on their own (``reference_parts``).  Like ``plain_em`` in
``test_measures.py`` they are an oracle.

The oracle also has the solver's exits at an exhibited optimizer,
written independently: the isotropic start from ``reference_candidate``
(beta by brute force over every assignment), kept if it certifies; a joint
with the box's marginals at iterations 1, 2, 4, 8, ... while the best lower
bound is at most 0: at iteration 1 the box's witness
(``reference_witness``: sweeps from the uniform joint, each followed by a
projection try, under the route's stop rule), later made from the iterate
(``reference_projection``), each one sweep of iterative proportional
fitting over the contexts, one multiplicative step toward the marginals and
the orthogonal projection, each pseudo-inverse by ``lstsq`` on an incidence
matrix built from ``brute_rows`` (``brute_incidence``, made once per
hypergraph); and at iterations 2, 4, 8, ... of ``x_fixed``'s loop, unless
that projection missed by less negative mass than ``boxes.CONTEXTUAL_MISS``,
the optimizer on the face of cells where the field is at least
``measures._FACE_SHARE`` of its largest entry (``reference_face``): Newton
steps in the joint, each the least-norm solution by ``lstsq`` of the
equality-constrained Newton system on the same incidence.  At the same
iterations under the same rule, ``x_max``'s loop tries instead its saddle
on a face (``reference_saddle``): Newton steps in the cell space for the
joint on a face, the weights and the value, each by ``lstsq`` of the
bordered system on the same incidence, certified by its own two ends.
Every lower end is the iterate's value less ``log2(max r)``.  Where no exit
fires, the library must give the same values, gaps, iteration counts,
traces and optimizers bit for bit, as the loop without the exits does.
Where one fires, it must stop at the same iteration with the same
convergence, its value and gap within 1e-12 of the oracle's, and an
optimizer whose context marginals match the box within 1e-12 (a
projection) or that is within 1e-12 of the oracle's candidate or face
joint; for ``x_max``, weights within 1e-12 of the oracle's.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import (
    ANCHORS,
    SUM_ANCHOR,
    implicit_only,
    shuffled,
    sparse_box,
    sparse_weights,
)
from test_incidence import brute_rows, hypergraphs
from test_polytope import ternary_cycle_box

import contextuality as cx
from contextuality import boxes, measures
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
    return value, r.reshape(p.shape), max(math.log2(float(r.max())), 0.0)


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


def reference_parts(box):
    """The box whole with every context index if its hypergraph is connected
    or acyclic, else each component's box with its context indices."""
    g = box.hypergraph
    comps = reference_components(g)
    if len(comps) == 1 or g.join_tree is not None:
        return [(box, list(range(g.n_contexts)))]
    parts = []
    for comp in comps:
        index = {i: j for j, i in enumerate(sorted(comp))}
        cis = [ci for ci, ctx in enumerate(g.contexts) if set(ctx) <= set(comp)]
        part = cx.Box(
            cx.Hypergraph([g.observables[i] for i in sorted(comp)],
                          [[index[i] for i in g.contexts[ci]] for ci in cis]),
            [box.distributions[ci] for ci in cis])
        parts.append((part, cis))
    return parts


def reference_candidate(box):
    """The isotropic start: ``t U(max beta) + (1 - t) U(min beta)`` for a binary
    box whose contexts are each flat on their even and odd outcomes, with one
    heavier-class mass alpha on every context, t from alpha clipped to
    ``[min beta / n, max beta / n]``; None for any other box.  beta counts,
    per assignment, the contexts it hits in their heavier class."""
    g = box.hypergraph
    if any(d != 2 for d in g.cardinalities):
        return None
    heavier, masses = [], []
    for ci, ctx in enumerate(g.contexts):
        dist = box.distributions[ci]
        parity = np.array([bin(k).count("1") % 2 for k in range(dist.size)])
        for side in (0, 1):
            part = dist[parity == side]
            if np.abs(part - part.mean()).max() > 1e-12:
                return None
        even, odd = dist[parity == 0].sum(), dist[parity == 1].sum()
        heavier.append(0 if even >= odd else 1)
        masses.append(max(even, odd))
    if max(masses) - min(masses) > 1e-12:
        return None
    beta = np.array([
        sum(sum(outcome[i] for i in ctx) % 2 == side for ctx, side in zip(g.contexts, heavier))
        for outcome in np.ndindex(g.joint_shape)
    ], dtype=float)
    top, bottom, n = beta.max(), beta.min(), g.n_contexts
    t = 1.0 if top == bottom else min(1.0, max(0.0, (sum(masses) - bottom) / (top - bottom)))
    p = np.where(beta == top, t / np.count_nonzero(beta == top), 0.0)
    p += np.where(beta == bottom, (1.0 - t) / np.count_nonzero(beta == bottom), 0.0)
    return p


@functools.lru_cache(maxsize=16)
def brute_incidence(g):
    """``brute_rows`` of ``g`` and the incidence M they give, one row per
    stacked context outcome and one column per joint index, made once per
    hypergraph and read-only."""
    rows = brute_rows(g)
    incidence = np.zeros((sum(g.context_dim(ci) for ci in range(g.n_contexts)), rows.shape[0]))
    for hit in rows.T:
        incidence[hit, np.arange(rows.shape[0])] = 1.0
    rows.flags.writeable = incidence.flags.writeable = False
    return rows, incidence


def reference_sweep(problem, p):
    """From ``p``: one sweep of iterative proportional fitting, context by
    context, that rescales each context's marginal to its table; the
    exponent ``N z`` of the step toward the marginals, with
    ``z = M^+ (b - M q)`` by ``lstsq`` and N the joint's size, unclamped;
    and the full incidence M (``brute_incidence``)."""
    (rows, incidence), b = brute_incidence(problem.g), problem.targets
    q = p.copy()
    for hit in rows.T:
        marginal = np.bincount(hit, weights=q, minlength=b.size)
        q = q * b[hit] / marginal[hit]
    return q, q.size * np.linalg.lstsq(incidence, b - incidence @ q, rcond=None)[0], incidence


def projects(problem):
    """Whether the problem is dense with every row on the support."""
    return problem.support.size == problem.op.dim and problem.dense is not None


def reference_correction(problem, q, exponent, incidence):
    """The step ``q * exp(N z)`` with its exponent clamped at
    ``boxes._EXPONENT_CAP``, then ``q - M^+ (M q - b)`` by ``lstsq``, not
    normalized, negative entries and all."""
    q = q * np.exp(np.minimum(exponent, boxes._EXPONENT_CAP))
    return q - np.linalg.lstsq(incidence, incidence @ q - problem.targets, rcond=None)[0]


def reference_projection(problem, p):
    """``reference_sweep`` from ``p``, then ``reference_correction``; None
    unless the problem ``projects``."""
    if not projects(problem):
        return None
    return reference_correction(problem, *reference_sweep(problem, p))


def reference_witness(problem):
    """The box's witness, or None: ``reference_sweep`` from the uniform joint,
    at most ``boxes._WITNESS_SWEEPS`` times, each followed by
    ``reference_correction`` of the swept joint.  The first correction with
    no negative entry, normalized, is the witness.  None unless the problem
    ``projects``, and at the first correction whose negative mass is at
    least ``boxes.CONTEXTUAL_MISS`` and at least half the one before."""
    if not projects(problem):
        return None
    q, last = np.full(problem.g.joint_dim, 1.0 / problem.g.joint_dim), math.inf
    for _ in range(boxes._WITNESS_SWEEPS):
        q, exponent, incidence = reference_sweep(problem, q)
        joint = reference_correction(problem, q, exponent, incidence)
        miss = -joint[joint < 0.0].sum()
        if miss == 0.0:
            return joint / joint.sum()
        if miss >= boxes.CONTEXTUAL_MISS and miss >= 0.5 * last:
            return None
        last = miss
    return None


def reference_face(problem, p, r):
    """The face exit's joint at the iterate ``p`` with field ``r``, or None.

    The face A holds the cells where r is at least ``measures._FACE_SHARE``
    of its largest entry.  With L the rows of positive target and weight of
    the incidence built from ``brute_rows``, restricted to A, and a their
    weights times targets, the joint x on A starts as ``p`` on A,
    normalized, and takes at most ``measures._FACE_STEPS`` Newton steps for
    the maximum of ``sum a log (L x)`` subject to ``sum x = 1``.  Each step d
    is the least-norm solution, by ``lstsq``, of
    ``[[H, 1], [1^T, 0]] [d; mu] = [g; 0]`` with ``g = L^T (a / Lx)`` and
    ``H = L^T diag(a / (Lx)^2) L``, halved until ``x + d >= 0`` at most
    ``measures._FACE_HALVINGS`` times, and the steps stop after one whose
    decrement ``g.d`` is at most ``measures._FACE_DECREMENT``.  None if a
    row of L meets no mass, or no halving keeps x nonnegative.  The joint
    is x on A and 0 elsewhere, floored and normalized by ``reference_step``."""
    incidence, b = brute_incidence(problem.g)[1], problem.targets
    graph = problem.g
    a = np.repeat(problem.weights, [graph.context_dim(ci) for ci in range(graph.n_contexts)]) * b
    face = np.flatnonzero(r >= measures._FACE_SHARE * r.max())
    L, a = incidence[a > 0.0][:, face], a[a > 0.0]
    x = p[face] / p[face].sum()
    n = face.size
    for _ in range(measures._FACE_STEPS):
        u = L @ x
        if u.min() <= 0.0:
            return None
        g = L.T @ (a / u)
        hessian = L.T @ (L * (a / u**2)[:, None])
        kkt = np.block([[hessian, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
        d = np.linalg.lstsq(kkt, np.append(g, 0.0), rcond=1e-10)[0][:n]
        t = 1.0
        for _ in range(measures._FACE_HALVINGS):
            if (x + t * d).min() >= 0.0:
                break
            t *= 0.5
        else:
            return None
        x = x + t * d
        if g @ d <= measures._FACE_DECREMENT:
            break
    if (L @ x).min() <= 0.0:
        return None
    q = np.zeros(p.size)
    q[face] = x
    return reference_step(q, 1.0, 1.0)


def reference_saddle(problem, p, r):
    """The saddle exit's joint and weights at the iterate ``p`` with field
    ``r``, or None.

    It starts at ``reference_face``'s joint q.  The face A holds the cells
    where the field at q is at least ``measures._SADDLE_SHARE`` of its
    largest entry, and x starts as q on A, normalized; every context with
    positive weight is active.  With L the rows of positive target of the
    active contexts in the incidence built from ``brute_rows``, restricted
    to A, t their targets, y = t / (L x) and E each row's active context
    as an indicator, each Newton step solves, by ``lstsq`` in the cell
    space, the bordered system

        [[H, -C, 0, 1], [C^T, 0, 1, 0], [1^T, 0, 0, 0], [0, 1^T, 0, 0]] [d; v; V; mu] = [0; D; 0; 1]

    with ``C = L^T diag(y) E``, ``H = L^T diag(y (E w) / Lx) L`` and D the
    active contexts' divergences in nats: ``r = mu`` on A, ``D_c = V``,
    ``sum d = 0`` and ``sum v = 1``, linearized at x for the new weights v.
    If v has a negative entry, those contexts are dropped, their weights
    set to 0, the rest renormalized, and the step is solved again.  Else w
    takes v on the active contexts, and d is halved until ``x + d >= 0``
    at most ``measures._FACE_HALVINGS`` times.  At most
    ``measures._SADDLE_STEPS`` steps, stopped after a full one whose largest
    entry of d is at most ``measures._SADDLE_MOVE``.  The joint is x on A,
    0 elsewhere, floored and normalized by ``reference_step``, and the
    weights are w normalized.  None where the face joint is None, a row of
    L meets no mass, or no halving keeps x nonnegative."""
    q = reference_face(problem, p, r)
    if q is None:
        return None
    r = reference_evaluate(problem, q)[1]
    face = np.flatnonzero(r >= measures._SADDLE_SHARE * r.max())
    incidence, graph = brute_incidence(problem.g)[1], problem.g
    context = np.repeat(np.arange(graph.n_contexts), [graph.context_dim(ci) for ci in range(graph.n_contexts)])
    x, w = q[face] / q[face].sum(), problem.weights.copy()
    active = w > 0.0
    n = face.size
    for _ in range(measures._SADDLE_STEPS):
        rows = active[context] & (problem.targets > 0.0)
        L, t = incidence[rows][:, face], problem.targets[rows]
        members = np.flatnonzero(active)
        E = (context[rows][:, None] == members).astype(float)
        m = members.size
        u = L @ x
        if u.min() <= 0.0:
            return None
        y = t / u
        C = L.T @ (y[:, None] * E)
        H = L.T @ (L * (y * (E @ w[active]) / u)[:, None])
        kkt = np.zeros((n + m + 2, n + m + 2))
        kkt[:n, :n], kkt[:n, n:n + m], kkt[:n, -1] = H, -C, 1.0
        kkt[n:n + m, :n], kkt[n:n + m, n + m] = C.T, 1.0
        kkt[n + m, :n] = 1.0
        kkt[-1, n:n + m] = 1.0
        rhs = np.zeros(n + m + 2)
        rhs[n:n + m] = E.T @ (t * np.log(y))
        rhs[-1] = 1.0
        solved = np.linalg.lstsq(kkt, rhs, rcond=1e-10)[0]
        v, d = solved[n:n + m], solved[:n]
        if v.min() <= 0.0:
            active[members[v <= 0.0]] = False
            w[members[v <= 0.0]] = 0.0
            w = w / w.sum()
            continue
        w[active] = v
        step = 1.0
        for _ in range(measures._FACE_HALVINGS):
            if (x + step * d).min() >= 0.0:
                break
            step *= 0.5
        else:
            return None
        x = x + step * d
        if step == 1.0 and np.abs(d).max() <= measures._SADDLE_MOVE:
            break
    q = np.zeros(p.size)
    q[face] = x
    return reference_step(q, 1.0, 1.0), w / w.sum()


def reference_solve_fixed(problem, tol, max_iters, init=None, candidate=None, exits=True):
    """The solve's fields, and which exit ended it: "candidate", "projection",
    "face" or None.  ``exits=False`` is the loop without them."""
    g = problem.g
    exit = None
    if exits and candidate is not None:
        p = reference_step(candidate, 1.0, 1.0)
        value, r, gap = reference_evaluate(problem, p)
        if gap <= tol:
            exit = "candidate"
    if exit is None:
        start = np.full(g.joint_dim, 1.0 / g.joint_dim) if init is None else init.reshape(-1)
        p = reference_step(start, 1.0, 1.0)
        value, r, gap = reference_evaluate(problem, p)
    trace, next_trace, omega = [], 1, 1.0
    lower = value - gap
    iteration = 0
    for iteration in range(1, max_iters + 1):
        if gap <= tol:
            break
        power = math.log2(iteration).is_integer()
        miss = math.inf
        if exits and lower <= 0.0 and power:
            q = reference_witness(problem) if iteration == 1 else reference_projection(problem, p)
            if q is not None:
                miss = -q[q < 0.0].sum()
            if miss == 0.0:
                q = q / q.sum()
                q_value, _, q_gap = reference_evaluate(problem, q)
                q_lower = max(lower, min(q_value - q_gap, 0.0))
                if q_value - q_lower <= tol:
                    p, value, lower, exit = q, q_value, q_lower, "projection"
                    gap = max(value - lower, 0.0)
                    break
        if exits and iteration > 1 and power and problem.dense is not None and miss >= boxes.CONTEXTUAL_MISS:
            q = reference_face(problem, p, r)
            if q is not None:
                q_value, _, q_gap = reference_evaluate(problem, q)
                q_lower = max(lower, q_value - q_gap)
                if q_value - q_lower <= tol:
                    p, value, lower, exit = q, q_value, q_lower, "face"
                    gap = max(value - lower, 0.0)
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
    return (max(value, 0.0), p, gap, iteration, gap <= tol + 1e-14, tuple(trace)), exit


def assert_same_solve(got, expected, exit, box):
    """``got`` (the library's value, optimizer, gap, iterations, convergence and
    trace) against the oracle's: bit for bit where no exit fired, else as
    the module docstring says."""
    value, p, gap, iterations, converged, trace = expected
    if exit is None:
        assert got[:1] + got[2:] == (value, gap, iterations, converged, trace)
        assert np.array_equal(got[1], p)
        return
    assert (got[3], got[4]) == (iterations, converged)
    assert abs(got[0] - value) <= 1e-12 and abs(got[2] - gap) <= 1e-12
    if exit == "projection":
        marginals = box.hypergraph.incidence.marginals(got[1])
        assert np.abs(marginals - box.stacked()).max() <= 1e-12
    else:
        assert np.abs(got[1] - p).max() <= 1e-12


def reference_x_fixed(box, weights, tol, max_iters):
    """``x_fixed`` by ``reference_solve_fixed``.  A box that
    ``reference_parts`` leaves whole is solved from its starts (the
    junction-tree joint, else the isotropic candidate).  Otherwise each
    component's box is solved so at its weights divided by their sum s, and
    the report has the s-weighted sums of the values and gaps, the summed
    iterations, an empty trace and the product of the components' joints; a
    component with s = 0 is not solved and takes the uniform joint.  The
    components share one budget: each may take the iterations of
    ``max_iters`` that the ones before it left.  Returns the fields, and
    each part's context indices and exit."""
    parts = reference_parts(box)
    if len(parts) == 1:
        init = measures.junction_tree_joint(box)
        candidate = reference_candidate(box) if init is None else None
        problem = measures._FixedWeightProblem(box, weights)
        expected, exit = reference_solve_fixed(problem, tol, max_iters, init, candidate)
        return expected, [(parts[0][1], exit)]
    value = gap = 0.0
    iterations, joints, exits = 0, [], []
    for part, cis in parts:
        share = float(weights.weights[cis].sum())
        if share == 0.0:
            joints.append(np.full(part.hypergraph.joint_dim, 1.0 / part.hypergraph.joint_dim))
            exits.append((cis, None))
            continue
        solved, part_exits = reference_x_fixed(part, cx.ContextWeights(weights.weights[cis] / share),
                                               tol, max_iters - iterations)
        value, gap, iterations = value + share * solved[0], gap + share * solved[2], iterations + solved[3]
        joints.append(solved[1])
        exits.append((cis, part_exits[0][1]))
    p = reference_product(box.hypergraph, joints)
    return (value, p, gap, iterations, gap <= tol + 1e-14, ()), exits


def assert_same_x_fixed(report, expected, exits, box):
    """An ``x_fixed`` report against ``reference_x_fixed``: as
    ``assert_same_solve`` on a box solved whole, and bit for bit on a split
    box where no part's exit fired.  Where one fired, the same iterations,
    convergence and trace, the value and gap within 1e-12, and on each
    context the optimizer's marginal within 1e-12 of the box's table (a
    part that stopped at a projection) or of the oracle optimizer's."""
    got = (report.value, report.optimizer.probabilities, report.duality_gap,
           report.iterations, report.converged, report.trace)
    if len(exits) == 1 or not any(exit for _, exit in exits):
        assert_same_solve(got, expected, exits[0][1] if len(exits) == 1 else None, box)
        return
    assert got[3:] == expected[3:]
    assert abs(got[0] - expected[0]) <= 1e-12 and abs(got[2] - expected[2]) <= 1e-12
    op = box.hypergraph.incidence
    marginals, reference = op.split(op.marginals(got[1])), op.split(op.marginals(expected[1]))
    tables = op.split(box.stacked())
    for cis, exit in exits:
        for ci in cis:
            target = tables[ci] if exit == "projection" else reference[ci]
            assert np.abs(marginals[ci] - target).max() <= 1e-12


def max_divergence(box, p):
    """``max_c D_c(p)``, one ``relative_entropy`` per context."""
    op = box.hypergraph.incidence
    pairs = zip(op.split(box.stacked()), op.split(op.marginals(p)))
    return max(cx.relative_entropy(target, m) for target, m in pairs)


def reference_divergences(problem, p):
    """Per-context D(g_c || p_c) from the marginals ``reference_evaluate``
    reads, each context's support rows added in order from 0."""
    g = problem.g
    m = problem.dense @ p if problem.dense is not None else problem.op.marginals(p)[problem.support]
    terms = problem.t_s * np.log2(problem.t_s / m)
    starts = np.cumsum([0] + [g.context_dim(ci) for ci in range(g.n_contexts)])
    d = np.zeros(g.n_contexts)
    for row, term in zip(problem.support, terms):
        d[np.searchsorted(starts, row, side="right") - 1] += term
    return d


def reference_ascent(box, tol, max_iters):
    """The loop in the joint and the weights on one connected box, a new
    problem per weight step: the start, the steps in p and the projection
    exit of ``reference_solve_fixed``, with the least ``max_c D_c`` seen as
    the upper end and the best ``value - gap`` seen as the lower end.  In
    place of the face exit, at the same iterations under the same rule,
    ``reference_saddle`` at the current weights; where its joint's
    ``max_c D_c`` less its ``value - gap`` at its weights, on a problem
    built at those weights, is within tol, the loop stops with those two
    ends and those weights.  After each step in p, while the gap is at most half the
    bracket, the weights' base-2 logarithms move by ``eta * (d - max d)``;
    eta starts at ``measures._ETA0``, and from the second weight step on is multiplied by
    0.5 if ``max d - w.d`` grew since the last one, else by 1.1, and clamped
    to [0.05, 64].  Returns ``max_c D_c`` at the upper end's iterate, one
    ``relative_entropy`` per context, and its distance to the lower end, as
    the solver reports them, that iterate, the lower end's weights, the
    iterations, and whether an exit fired."""
    n = box.hypergraph.n_contexts
    init = measures.junction_tree_joint(box)
    candidate = reference_candidate(box) if init is None else None
    w = cx.ContextWeights.uniform(n).weights
    problem = measures._FixedWeightProblem(box, cx.ContextWeights(w))
    exit = None
    if candidate is not None:
        p = reference_step(candidate, 1.0, 1.0)
        value, r, gap = reference_evaluate(problem, p)
        exit = "candidate" if gap <= tol else None
    if exit is None:
        start = np.full(box.hypergraph.joint_dim, 1.0 / box.hypergraph.joint_dim) if init is None else init
        p = reference_step(start.reshape(-1), 1.0, 1.0)
        value, r, gap = reference_evaluate(problem, p)
    lower, lower_w = value - gap, w
    upper, p_upper = float(reference_divergences(problem, p).max()), p
    log_w, eta, spread, omega = np.log2(w), measures._ETA0, None, 1.0
    gap = max(upper - lower, 0.0)
    iteration = 0
    for iteration in range(1, max_iters + 1):
        if gap <= tol:
            break
        power, miss = math.log2(iteration).is_integer(), math.inf
        if lower <= 0.0 and power:
            q = reference_witness(problem) if iteration == 1 else reference_projection(problem, p)
            if q is not None:
                miss = -q[q < 0.0].sum()
            if miss == 0.0:
                q = q / q.sum()
                q_value, _, q_gap = reference_evaluate(problem, q)
                q_lower = max(lower, min(q_value - q_gap, 0.0))
                q_upper = float(reference_divergences(problem, q).max())
                if q_upper - q_lower <= tol:
                    if q_lower > lower:
                        lower_w = w
                    p_upper, upper, lower, exit = q, q_upper, q_lower, "projection"
                    gap = max(upper - lower, 0.0)
                    break
        if iteration > 1 and power and problem.dense is not None and miss >= boxes.CONTEXTUAL_MISS:
            found = reference_saddle(problem, p, r)
            if found is not None:
                q, q_w = found
                at_q = measures._FixedWeightProblem(box, cx.ContextWeights(q_w))
                q_value, _, q_gap = reference_evaluate(at_q, q)
                q_upper = float(reference_divergences(at_q, q).max())
                if q_upper - (q_value - q_gap) <= tol:
                    p_upper, upper, lower, lower_w, exit = q, q_upper, q_value - q_gap, q_w, "saddle"
                    gap = max(upper - lower, 0.0)
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
        if value - trial_gap > lower:
            lower, lower_w = value - trial_gap, w
        d = reference_divergences(problem, p)
        if d.max() < upper:
            upper, p_upper = float(d.max()), p
        gap = max(upper - lower, 0.0)
        if trial_gap <= 0.5 * gap:
            widened = float(d.max()) - float(w @ d)
            if spread is not None:
                eta = min(max(eta * (0.5 if widened > spread else 1.1), 0.05), 64.0)
            spread = widened
            log_w = log_w + eta * (d - d.max())
            log_w -= log_w.max()
            w = np.exp2(log_w)
            w /= w.sum()
            problem = measures._FixedWeightProblem(box, cx.ContextWeights(w))
            value, r, _ = reference_evaluate(problem, p)
    value = max_divergence(box, p_upper)
    return max(value, 0.0), max(value - lower, 0.0), p_upper, lower_w, iteration, exit is not None


def reference_product(g, parts):
    """The joint whose marginal on each component (``reference_components``'
    order) is the matching flat joint of ``parts``."""
    comps = reference_components(g)
    prod = parts[0].reshape([g.cardinalities[i] for i in comps[0]])
    for comp, part in zip(comps[1:], parts[1:]):
        prod = np.multiply.outer(prod, part.reshape([g.cardinalities[i] for i in comp]))
    axis_order = [i for comp in comps for i in comp]
    perm = tuple(axis_order.index(j) for j in range(g.n_observables))
    return np.ascontiguousarray(np.transpose(prod, perm)).reshape(-1)


def reference_x_max(box, tol, max_iters):
    """``x_max`` by ``reference_ascent``: on the whole box if its hypergraph
    is connected or acyclic, else on each component's box, reporting the
    largest upper end, the first largest lower end's weights with zeros
    elsewhere, the product of the components' iterates and their summed
    iterations, within one budget of ``max_iters`` as in
    ``reference_x_fixed``.  Returns the report's fields, and whether an exit
    fired in any component."""
    g = box.hypergraph
    parts = reference_parts(box)
    ascents, budget = [], max_iters
    for part, _ in parts:
        ascents.append(reference_ascent(part, tol, budget))
        budget -= ascents[-1][4]
    members = [cis for _, cis in parts]
    lowers = [upper - gap for upper, gap, *_ in ascents]
    k = lowers.index(max(lowers))
    upper = max(a[0] for a in ascents)
    weights = np.zeros(g.n_contexts)
    weights[members[k]] = ascents[k][3]
    p = ascents[0][2] if len(parts) == 1 else reference_product(g, [a[2] for a in ascents])
    gap = max(upper - lowers[k], 0.0)
    return (upper, gap, sum(a[4] for a in ascents), gap <= tol + 1e-14, weights.tobytes(),
            p.tobytes()), any(a[5] for a in ascents)


def fields(report):
    return (report.value, report.duality_gap, report.iterations, report.converged,
            report.outer_weights.weights.tobytes(), report.optimizer.probabilities.tobytes())


def assert_same_x_max(report, expected, exited):
    """Bit for bit where no exit fired; else the same iteration total and
    convergence, and values, gaps and weights within 1e-12."""
    got = fields(report)
    if not exited:
        assert got == expected
        return
    assert (got[2], got[3]) == (expected[2], expected[3])
    for a, b in ((got[0], expected[0]), (got[1], expected[1])):
        assert abs(a - b) <= 1e-12
    weights = np.frombuffer(got[4]), np.frombuffer(expected[4])
    assert np.abs(weights[0] - weights[1]).max() <= 1e-12


@st.composite
def identity_boxes(draw, anchors=ANCHORS):
    """Binary and ternary boxes: one of ``anchors`` mixed with a sparse joint's
    box, a sparse joint's box on a random hypergraph (often of several
    components), or a direct sum of two anchored boxes (always several
    components)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["anchored", "random", "sum"]))
    if kind == "random":
        return sparse_box(draw(hypergraphs()), rng)

    def anchored(anchors):
        anchor = anchors[int(rng.integers(len(anchors)))]
        mixed = cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0)))
        return shuffled(mixed, rng)

    if kind == "anchored":
        return anchored(anchors)
    # At most 81 * 32 joint outcomes: the ternary 4-cycle or a binary anchor, plus PR, CH(5) or KCBS.
    small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 32]
    return cx.direct_sum(anchored(small + [ANCHORS[-1]]), anchored(small))


def dense_box(g, rng):
    """The box of a joint with every cell positive: noncontextual, no zero target."""
    return cx.box_of_joint(cx.JointDistribution(g, rng.dirichlet(np.ones(g.joint_dim))))


@st.composite
def exit_boxes(draw):
    """Binary and ternary boxes on which the exits can fire: a dense joint's
    box on a random hypergraph (noncontextual, every target positive), one
    of ``ANCHORS`` mixed with a dense joint's box at a weight in [0, 1]
    (either side of the noncontextual boundary), or an isotropic box."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["joint", "dense-anchored", "isotropic"]))
    if kind == "joint":
        return dense_box(draw(hypergraphs()), rng)
    if kind == "isotropic":
        family = draw(st.sampled_from(["PR", "PM", "M", "CH"]))
        return cx.builtin(family, n=draw(st.integers(3, 8)) if family == "CH" else None,
                          alpha=draw(st.sampled_from(np.linspace(0.0, 1.0, 21).tolist())))
    anchor = ANCHORS[int(rng.integers(len(ANCHORS)))]
    return shuffled(cx.mix(anchor, dense_box(anchor.hypergraph, rng), float(rng.uniform())), rng)


@seed(20261025)
@settings(max_examples=40, deadline=None)
@given(
    box=identity_boxes(ANCHORS + (SUM_ANCHOR,)),
    draw_seed=st.integers(0, 2**32 - 1),
    implicit=st.booleans(),
)
def test_x_fixed_matches_reference(box, draw_seed, implicit):
    """Weights with zeros on most draws; dense matrix or tensor reductions.
    ``SUM_ANCHOR`` among the anchors keeps a positive optimum under a zero weight.

    The solver's loop from the uniform start on the whole box, a direct sum
    too, matches the oracle on every draw.  On a cyclic hypergraph
    ``x_fixed`` matches ``reference_x_fixed``: a connected box starts there
    too, or at the isotropic start if it certifies, and a box of several
    components is solved one component at a time.  On an acyclic hypergraph
    it starts from the junction-tree joint, which the tests of
    ``test_junction_tree.py`` cover."""
    weights = sparse_weights(box.hypergraph.n_contexts, np.random.default_rng(draw_seed))
    with mock.patch.object(boxes, "DENSE_ENTRIES_CAP", 0 if implicit else boxes.DENSE_ENTRIES_CAP):
        problem = measures._FixedWeightProblem(box, weights)
        solved = measures._solve_fixed(problem, 1e-9, 3000)
        report = cx.x_fixed(box, weights, tol=1e-9, max_iters=3000)
        assert_same_solve(solved, *reference_solve_fixed(problem, 1e-9, 3000), box)
        if box.hypergraph.join_tree is None:
            assert_same_x_fixed(report, *reference_x_fixed(box, weights, 1e-9, 3000), box)


@seed(20261026)
@settings(max_examples=10, deadline=None)
@given(box=identity_boxes())
def test_x_max_matches_reference(box):
    """As the oracle on a cyclic hypergraph (see ``assert_same_x_max``).  On
    an acyclic one the loop starts from the junction-tree joint, so its
    bracket ``[value - duality_gap, value]`` and the oracle's must overlap."""
    report = cx.x_max(box, max_iters=2000, outer_window=8)
    reference, exited = reference_x_max(box, measures.DEFAULT_TOL, 2000)
    if box.hypergraph.join_tree is None:
        assert_same_x_max(report, reference, exited)
    else:
        value, gap = reference[:2]
        assert value - gap <= report.value
        assert report.value - report.duality_gap <= value


@pytest.mark.parametrize("max_iters", [5, 40])
def test_components_share_one_budget(max_iters):
    """A direct sum whose first component, a ternary-cycle mix, does not reach
    tol 1e-15 within ``max_iters``: it takes the whole budget and the KCBS mix
    after it none, in the library and in both oracles alike."""
    rng = np.random.default_rng(3)
    box = cx.direct_sum(*(cx.mix(anchor, dense_box(anchor.hypergraph, rng), 0.6)
                          for anchor in (ternary_cycle_box(4), cx.kcbs_box())))
    weights = cx.ContextWeights.uniform(box.hypergraph.n_contexts)
    report = cx.x_fixed(box, weights, tol=1e-15, max_iters=max_iters)
    expected, exits = reference_x_fixed(box, weights, 1e-15, max_iters)
    assert report.iterations == expected[3] == max_iters
    assert_same_x_fixed(report, expected, exits, box)
    report = cx.x_max(box, tol=1e-15, max_iters=max_iters)
    expected, exited = reference_x_max(box, 1e-15, max_iters)
    assert report.iterations == expected[2] == max_iters
    assert_same_x_max(report, expected, exited)


@st.composite
def sum_exit_boxes(draw):
    """Direct sums of two boxes on which the exits can fire, each an isotropic
    chain of 3 to 5 contexts or one of ``ANCHORS`` of at most 81 joint
    outcomes mixed with a dense joint's box, so ``x_fixed`` and ``x_max``
    solve them one component at a time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 81]

    def part():
        if draw(st.booleans()):
            return cx.builtin("CH", n=draw(st.integers(3, 5)),
                              alpha=draw(st.sampled_from(np.linspace(0.0, 1.0, 21).tolist())))
        anchor = draw(st.sampled_from(small))
        return shuffled(cx.mix(anchor, dense_box(anchor.hypergraph, rng), float(rng.uniform())), rng)

    return cx.direct_sum(part(), part())


def check_x_fixed_exits(box, uniform, draw_seed):
    """``x_fixed`` at uniform weights or at random positive ones against the
    oracle with both exits (see ``assert_same_x_fixed``)."""
    g = box.hypergraph
    rng = np.random.default_rng(draw_seed)
    weights = cx.ContextWeights.uniform(g.n_contexts) if uniform else cx.ContextWeights(
        rng.dirichlet(np.ones(g.n_contexts)))
    report = cx.x_fixed(box, weights, tol=1e-9, max_iters=3000)
    assert_same_x_fixed(report, *reference_x_fixed(box, weights, 1e-9, 3000), box)


@seed(20261031)
@settings(max_examples=60, deadline=None)
@given(box=exit_boxes(), uniform=st.booleans(), draw_seed=st.integers(0, 2**32 - 1))
def test_exits_match_reference(box, uniform, draw_seed):
    """``check_x_fixed_exits``, and ``x_max`` against the oracle with both exits."""
    check_x_fixed_exits(box, uniform, draw_seed)
    if box.hypergraph.join_tree is None:
        assert_same_x_max(cx.x_max(box, max_iters=2000, outer_window=8),
                          *reference_x_max(box, measures.DEFAULT_TOL, 2000))


@seed(20261109)
@settings(max_examples=20, deadline=None)
@given(box=sum_exit_boxes(), uniform=st.booleans(), draw_seed=st.integers(0, 2**32 - 1))
def test_exits_on_sums_match_reference(box, uniform, draw_seed):
    """``check_x_fixed_exits`` on direct sums.  ``x_max`` is left out: on a sum
    of two noncontextual parts that each stop at a projection, the two lower
    ends tie within rounding, and the library and the oracle may report
    either part's weights."""
    check_x_fixed_exits(box, uniform, draw_seed)


@pytest.mark.parametrize("anchor", [ANCHORS[0], ANCHORS[-1]], ids=["PR", "ternary-cycle"])
def test_x_max_support_change_matches_reference(anchor):
    """A huge first weight step drives three of the four context weights to
    exactly 0; the reweighted problem keeps the rows and the matrix it was
    built with, and builds M once.  The box is on a fresh copy of the
    anchor's hypergraph: test_exhibited_optimizers.py builds PR's M on its
    own copy, which equal hypergraphs share."""
    # Clear the shared incidences before the copy first reads one, so its M is built afresh.
    boxes._incidence.cache_clear()
    g = cx.Hypergraph(anchor.hypergraph.observables, anchor.hypergraph.contexts)
    rng = np.random.default_rng(0)
    box = cx.mix(cx.Box(g, anchor.distributions), sparse_box(g, rng), 0.7)
    builds = mock.patch.object(
        ContextIncidence, "columns", autospec=True, side_effect=ContextIncidence.columns
    )
    with mock.patch.object(measures, "_ETA0", 1e6):
        with builds as columns:
            report = cx.x_max(box, max_iters=2000, outer_window=8)
        assert columns.call_count == 1
        assert_same_x_max(report, *reference_x_max(box, measures.DEFAULT_TOL, 2000))
        with implicit_only():
            report = cx.x_max(box, max_iters=2000, outer_window=8)
            assert_same_x_max(report, *reference_x_max(box, measures.DEFAULT_TOL, 2000))

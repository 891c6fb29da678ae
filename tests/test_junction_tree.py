"""Boxes on acyclic hypergraphs: the junction-tree closed form against the iterative path.

On an acyclic hypergraph every consistent box is noncontextual (Vorob'ev
1962), and ``x_fixed``, ``x_u``, ``x_max`` and the cost start from, or
return, the junction-tree joint.  Here that path is checked against the
solver from the uniform start and against the all-columns primal LP, on
binary and ternary boxes with and without zero entries, on hypergraphs with
contained contexts and several components, and on sum-mod boxes.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from test_cost_lp import check_report, highs_log, sum_mod_box  # noqa: F401 (a fixture)
from test_dense_solver import shuffled, sparse_box, sparse_weights
from test_incidence import hypergraphs, mid_hypergraphs
from test_polytope import ternary_cycle_box

import contextuality as cx
from contextuality import measures
from contextuality.boxes import junction_tree_joint
from contextuality.sampling import random_hypergraph, random_noncontextual_box


@st.composite
def acyclic_hypergraphs(draw):
    """Acyclic hypergraphs built from a join tree, of 2 to 6 binary, or
    binary and ternary, observables, relabeled and reordered.

    Each new context takes part of an earlier context (its separator, empty
    on a new component) and new observables; with none new it lies inside
    the earlier one.  The fixed case ``{0,1,2}, {0,1}, {1,2}`` is drawn too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 7)) == 0:
        k, contexts = 3, [(0, 1, 2), (0, 1), (1, 2)]
    else:
        k = int(rng.integers(2, 7))
        contexts = [tuple(range(int(rng.integers(1, 3))))]
        used = len(contexts[0])
        while used < k or rng.uniform() < 0.3:
            parent = contexts[int(rng.integers(len(contexts)))]
            kept = [i for i in parent if rng.uniform() < 0.6]
            fresh = int(rng.integers(0, min(2, k - used) + 1))
            ctx = tuple(kept) + tuple(range(used, used + fresh))
            if ctx and frozenset(ctx) not in map(frozenset, contexts):
                contexts.append(ctx)
                used += fresh
            if len(contexts) > 8:
                break
        k = used
    max_card = draw(st.sampled_from([2, 3]))
    cards = rng.integers(2, max_card + 1, size=k)
    names = rng.permutation(k)
    return cx.Hypergraph(
        [(f"O{i}", int(cards[i])) for i in range(k)],
        [tuple(int(names[i]) for i in rng.permutation(c)) for c in contexts],
    )


def reduces_to_nothing(g):
    """Vertex-form GYO reduction: drop observables in one context only, and
    contexts inside another (or empty), until nothing changes; acyclic iff
    at most one context is left."""
    edges = [set(c) for c in g.contexts]
    changed = True
    while changed:
        changed = False
        for e in edges:
            lonely = {i for i in e if sum(i in f for f in edges) == 1}
            if lonely:
                e -= lonely
                changed = True
        for a, b in itertools.permutations(range(len(edges)), 2):
            if edges[a] <= edges[b]:
                del edges[a]
                changed = True
                break
    return len(edges) <= 1


def check_running_intersection(g, tree):
    """Each context once; each separator is the context's overlap with those
    before it, and lies inside one of them."""
    assert sorted(ci for ci, _ in tree) == list(range(g.n_contexts))
    seen = set()
    for position, (ci, separator) in enumerate(tree):
        ctx = set(g.contexts[ci])
        assert separator == tuple(sorted(ctx & seen))
        earlier = [set(g.contexts[cj]) for cj, _ in tree[:position]]
        assert not separator or any(set(separator) <= e for e in earlier)
        seen |= ctx


@seed(20261101)
@settings(max_examples=120, deadline=None)
@given(g=st.one_of(hypergraphs(), mid_hypergraphs()))
def test_join_tree_matches_vertex_reduction(g):
    tree = g.join_tree
    assert (tree is not None) == reduces_to_nothing(g)
    if tree is not None:
        check_running_intersection(g, tree)


@pytest.mark.parametrize(
    "box",
    [
        cx.Box(cx.Hypergraph([(f"A{i}", 2) for i in range(3)], [(0, 1), (1, 2), (2, 0)]),
               [np.full(4, 0.25)] * 3),
        ternary_cycle_box(4),
        cx.pr_box(),
        cx.pm_box(),
        cx.mermin_box(),
        cx.kcbs_box(),
        *(cx.chain_box(n) for n in (3, 5, 8, 14, 18)),
    ],
    ids=["triangle", "4-cycle", "PR", "PM", "M", "KCBS", "CH3", "CH5", "CH8", "CH14", "CH18"],
)
def test_cyclic_hypergraphs_have_no_join_tree(box):
    assert box.hypergraph.join_tree is None
    assert junction_tree_joint(box) is None


def test_acyclicity_builds_no_lp():
    """One context of 23 binary observables is acyclic, though the tree's LP
    would be over the cap: the acyclicity test reads only the tree's structure."""
    g = cx.Hypergraph([(f"O{i}", 2) for i in range(23)], [tuple(range(23))])
    assert g.join_tree == ((0, ()),)
    with pytest.raises(cx.CapExceededError, match="junction-tree LP"):
        g.junction_tree.matrix


def test_min_fill_prices_where_index_order_is_refused():
    """Why two orders remain: on a random hypergraph of 60 binary observables the
    index order of ``optimize_linear`` needs a table of 2^23 cells, refused
    before allocating, while the min-fill tree's cliques hold at most 9
    observables and its min-sum pass runs: a deterministic box's rows score
    their own assignment least, and normal weights score no sampled assignment
    below the least score."""
    g = random_hypergraph(np.random.default_rng(0), 60, n_contexts=56)
    tracemalloc.start()
    try:
        with pytest.raises(cx.CapExceededError,
                           match="eliminating observable 31 needs a table of 8388608 cells"):
            cx.optimize_linear(g, [np.ones(g.context_dim(ci)) for ci in range(g.n_contexts)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a table of 2^23 cells would take 64 MB

    tree = g.junction_tree
    assert max(map(len, tree.cliques)) <= 9
    rng = np.random.default_rng(1)
    own = cx.deterministic_box(cx.DeterministicAssignment(rng.integers(0, 2, size=60)), g)
    assert tree.min_score(1.0 - own.stacked()) == 0.0
    assert tree.min_score(-own.stacked()) == -g.n_contexts
    y = rng.normal(size=g.incidence.dim)
    sampled = y[g.incidence.digit_rows(rng.integers(0, 2, size=(200, 60)))].sum(axis=1)
    assert tree.min_score(y) <= sampled.min()


def acyclic_box(g, kind, rng):
    if kind == "dense":
        return random_noncontextual_box(g, rng)
    if kind == "sparse":
        return shuffled(sparse_box(g, rng), rng)
    return sum_mod_box(g, rng)


@seed(20261102)
@settings(max_examples=60, deadline=None)
@given(g=acyclic_hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_junction_tree_joint_has_the_box_marginals(g, draw_seed):
    rng = np.random.default_rng(draw_seed)
    check_running_intersection(g, g.join_tree)
    box = random_noncontextual_box(g, rng)
    joint = junction_tree_joint(box)
    assert joint.shape == (g.joint_dim,) and joint.min() >= 0.0
    assert np.max(np.abs(g.incidence.marginals(joint) - box.stacked())) <= 1e-14


# The gap comes from ``max r``, which rounds to 1 where a context ratio
# ``t / m`` one ulp above 1 already adds up to log2(1 + eps) = 3.2e-16 bits to
# the value; so the lower end ``value - duality_gap`` can sit that far above
# the optimum, 0 here (on 303 of 1,800 seeded reports, never further).  The
# solver from the uniform start rounds the same way.
ROUNDING = 1e-15


def check_bracket_at_zero(report):
    """Converged without a step, and ``[value - duality_gap, value]`` holds 0
    up to the rounding of one evaluation."""
    assert report.converged and report.iterations <= 1
    assert report.value - report.duality_gap <= ROUNDING
    assert 0.0 <= report.value <= 1e-12


@seed(20261103)
@settings(max_examples=60, deadline=None)
@given(
    g=acyclic_hypergraphs(),
    kind=st.sampled_from(["dense", "sparse", "sum-mod"]),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_x_measures_take_no_step(g, kind, draw_seed):
    """``x_fixed`` at weights with zeros agrees with the solver from the
    uniform start within the two gaps (and rounding); ``x_u`` and ``x_max``
    bracket 0."""
    rng = np.random.default_rng(draw_seed)
    box = acyclic_box(g, kind, rng)
    weights = sparse_weights(g.n_contexts, rng)
    report = cx.x_fixed(box, weights, tol=1e-9, max_iters=3000)
    check_bracket_at_zero(report)
    problem = measures._FixedWeightProblem(box, weights)
    value, _, gap, _, _, _ = measures._solve_fixed(problem, 1e-9, 3000)
    assert abs(report.value - value) <= report.duality_gap + gap + ROUNDING
    check_bracket_at_zero(cx.x_u(box))
    report = cx.x_max(box)
    check_bracket_at_zero(report)


@seed(20261104)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    g=acyclic_hypergraphs(),
    kind=st.sampled_from(["dense", "sparse", "sum-mod"]),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_cost_runs_no_lp(g, kind, draw_seed, highs_log):
    box = acyclic_box(g, kind, np.random.default_rng(draw_seed))
    report = cx.contextuality_cost(box)
    check_report(box, report)
    assert highs_log["runs"] == 0
    assert report.interval[0] == 0.0 and report.interval[1] <= 1e-12


def nearly_consistent(box, rng):
    """The box with 1e-8 of one context's mass moved between two positive
    entries: consistent within ``require_consistent``'s 1e-7, not to rounding."""
    ci = int(np.argmax([d.max() for d in box.distributions]))
    dists = [d.copy() for d in box.distributions]
    hi, lo = int(np.argmax(dists[ci])), int(rng.integers(dists[ci].size))
    if lo == hi:
        lo = (hi + 1) % dists[ci].size
    dists[ci][hi] -= 1e-8
    dists[ci][lo] += 1e-8
    return cx.Box(box.hypergraph, dists)


@seed(20261105)
@settings(max_examples=20, deadline=None)
@given(g=acyclic_hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_nearly_consistent_box_keeps_its_brackets(g, draw_seed):
    """Off the theorem's exact hypothesis the solver steps on from the joint,
    and the cost's bracket stays sound whether or not the LP runs."""
    rng = np.random.default_rng(draw_seed)
    box = nearly_consistent(random_noncontextual_box(g, rng), rng)
    weights = cx.ContextWeights.uniform(g.n_contexts)
    report = cx.x_fixed(box, weights, tol=1e-12, max_iters=3000)
    value, _, gap, _, _, _ = measures._solve_fixed(
        measures._FixedWeightProblem(box, weights), 1e-12, 3000
    )
    assert abs(report.value - value) <= report.duality_gap + gap + ROUNDING
    check_report(box, cx.contextuality_cost(box))

"""The context-incidence operator against a brute-force loop over joint outcomes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import contextuality as cx
from contextuality import boxes
from contextuality.sampling import random_hypergraph


@st.composite
def hypergraphs(draw):
    """Random hypergraphs with binary, or binary and ternary, observables.

    Contexts list their observables in a random order, so the row-major
    layout of a context differs from the joint one.
    """
    k = draw(st.integers(2, 5))
    max_card = draw(st.sampled_from([2, 3]))
    cards = [draw(st.integers(2, max_card)) for _ in range(k)]
    contexts, seen = [], set()
    for _ in range(draw(st.integers(1, 5))):
        ctx = tuple(draw(st.permutations(range(k)))[: draw(st.integers(1, k))])
        if frozenset(ctx) not in seen:
            seen.add(frozenset(ctx))
            contexts.append(ctx)
    uncovered = tuple(i for i in range(k) if not any(i in c for c in contexts))
    if uncovered:
        contexts.append(uncovered)
    return cx.Hypergraph([(f"O{i}", d) for i, d in enumerate(cards)], contexts)


def brute_rows(g):
    """Stacked row hit in each context, per joint index, from np.ndindex."""
    offsets = np.cumsum([0] + [g.context_dim(ci) for ci in range(g.n_contexts)])
    table = []
    for outcome in np.ndindex(g.joint_shape):
        row = []
        for ci, ctx in enumerate(g.contexts):
            index = 0
            for i in ctx:
                index = index * g.cardinalities[i] + outcome[i]
            row.append(offsets[ci] + index)
        table.append(row)
    return np.array(table, dtype=np.int64)


def extremum(op, y, sense):
    """``best_outcome``'s value, and the joint index of its digits."""
    value, digits = op.best_outcome(y, sense)
    return value, int(np.ravel_multi_index(digits, op.joint_shape))


def sequential_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def stacked_values(g, rng):
    """Random stacked weights; small integers half the time, to force ties."""
    dim = sum(g.context_dim(ci) for ci in range(g.n_contexts))
    if rng.uniform() < 0.5:
        return rng.integers(0, 3, size=dim).astype(float)
    return rng.normal(size=dim)


@seed(20240613)
@settings(max_examples=60, deadline=None)
@given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_operator_matches_bruteforce(g, draw_seed):
    rng = np.random.default_rng(draw_seed)
    op = g.incidence
    table = brute_rows(g)
    assert op.dim == int(table.max()) + 1

    # rows: every joint index, and each column is its deterministic box.
    assert np.array_equal(op.rows(np.arange(g.joint_dim)), table)
    for j in rng.choice(g.joint_dim, size=min(4, g.joint_dim), replace=False):
        assert np.array_equal(op.rows(int(j)), table[j])
        outputs = np.unravel_index(int(j), g.joint_shape)
        det = cx.deterministic_box(cx.DeterministicAssignment(outputs), g)
        assert np.array_equal(np.flatnonzero(det.stacked()), table[j])

    # marginals: M p accumulated outcome by outcome.
    p = rng.dirichlet(np.ones(g.joint_dim))
    expected = np.zeros(op.dim)
    for j, row in enumerate(table):
        expected[row] += p[j]
    assert np.allclose(op.marginals(p), expected, rtol=0.0, atol=1e-14)
    joint = cx.JointDistribution(g, p)
    for part, ctx in zip(op.split(op.marginals(p)), g.contexts):
        assert np.allclose(part, cx.marginal(joint, ctx), rtol=0.0, atol=1e-14)

    # lift: M^T y, summed in context order, hence bit for bit.
    y = stacked_values(g, rng)
    scores = np.array([sequential_sum(y[row]) for row in table])
    assert np.array_equal(op.lift(y).ravel(), scores)

    # Pricing: the minimum score and its first joint index, as the lift gives them.
    lifted = op.lift(y).ravel()
    assert extremum(op, y, "min") == (lifted.min(), int(np.argmin(lifted)))
    assert lifted.min() == scores.min()

    # split and stack are inverse; stack refuses a wrong context count or size.
    weights = op.split(y)
    assert np.array_equal(op.stack(weights), y)
    with pytest.raises(cx.InvalidBoxError):
        op.stack(weights[:-1])
    with pytest.raises(cx.InvalidBoxError):
        cx.optimize_linear(g, [np.append(w, 0.0) for w in weights])

    # optimize_linear: value and first optimal assignment in lexicographic order.
    for direction, sign in (("max", 1.0), ("min", -1.0)):
        result = cx.optimize_linear(g, weights, direction)
        best = int(np.argmax(sign * scores))
        assert result.value == scores[best]
        assert result.argopt.outputs == tuple(int(v) for v in np.unravel_index(best, g.joint_shape))

    # columns: the dense M, one 1 per context in each column, and any rows of it.
    dense = np.zeros((op.dim, g.joint_dim))
    dense[table, np.arange(g.joint_dim)[:, None]] = 1.0
    assert np.array_equal(op.columns(np.arange(op.dim)), dense)
    support = np.sort(rng.choice(op.dim, size=int(rng.integers(1, op.dim + 1)), replace=False))
    assert np.array_equal(op.columns(support=support), dense[support])
    assert op.dense.dtype == np.float64 and np.array_equal(op.dense, dense)

    # least_norm: M^+ u for u in M's range, against lstsq, and M (M^+ u) = u.
    x = rng.normal(size=g.joint_dim)
    projected = np.linalg.lstsq(dense, dense @ x, rcond=None)[0]
    assert np.allclose(op.least_norm(dense @ x) @ dense, projected, rtol=0.0, atol=1e-12 * np.abs(projected).max())
    u = dense @ rng.normal(size=g.joint_dim)
    assert np.allclose(dense @ (op.least_norm(u) @ dense), u, rtol=0.0, atol=1e-12 * np.abs(u).max())


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_layout_matches_transpose_reference(g, draw_seed):
    """Tables against a per-context transpose, and marginals against ``cx.marginal``,
    bit for bit."""
    rng = np.random.default_rng(draw_seed)
    op = g.incidence
    y = stacked_values(g, rng)
    for table, part, ctx in zip(op.tables(y), op.split(y), g.contexts):
        shape = tuple(d if i in ctx else 1 for i, d in enumerate(g.joint_shape))
        context_shape = [g.cardinalities[i] for i in ctx]
        reference = np.transpose(np.reshape(part, context_shape), np.argsort(ctx))
        assert table.shape == shape
        assert np.array_equal(table, reference.reshape(shape))

    p = rng.dirichlet(np.ones(g.joint_dim))
    joint = cx.JointDistribution(g, p)
    for part, ctx in zip(op.split(op.marginals(p)), g.contexts):
        assert np.array_equal(part, cx.marginal(joint, ctx))


@pytest.mark.parametrize("box", [cx.pr_box(), cx.chain_box(14)])
def test_layout_refuses_malformed_input(box):
    """A score vector not shaped ``(dim,)`` and a sense other than "max" or "min"
    are refused, by the whole-joint scan (PR) and by elimination (CH(14)) alike."""
    op = box.hypergraph.incidence
    y = box.stacked()
    for bad in (np.append(y, np.zeros(5)), y[:-1], y[:, None], y.reshape(1, -1)):
        for call in (op.tables, op.lift, lambda v: extremum(op, v, "max")):
            with pytest.raises(cx.InvalidBoxError):
                call(bad)
    for sense in ("maximum", "", None):
        with pytest.raises(cx.InvalidBoxError):
            extremum(op, y, sense)


@pytest.mark.parametrize("box", [cx.pr_box(), cx.chain_box(14)])
def test_marginals_refuse_a_joint_of_another_size(box):
    """A joint vector or tensor of another size than the joint's is refused
    with ``InvalidBoxError``, not numpy's reshape error."""
    g = box.hypergraph
    op = g.incidence
    p = np.full(g.joint_dim, 1.0 / g.joint_dim)
    for bad in (np.ones(17) / 17, np.append(p, 0.0), p[:-1], np.ones(g.joint_shape + (2,))):
        with pytest.raises(cx.InvalidBoxError):
            op.marginals(bad)
    assert np.array_equal(op.marginals(p.reshape(g.joint_shape)), op.marginals(p))


@seed(20261018)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("scan_cells", [1, 16])
@given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_elimination_matches_scan(scan_cells, g, draw_seed):
    """Elimination after a short scan against the full scan of every joint outcome."""
    rng = np.random.default_rng(draw_seed)
    y = stacked_values(g, rng)
    integer = np.array_equal(y, np.round(y))
    scores = np.array([sequential_sum(y[row]) for row in brute_rows(g)])
    with mock.patch.object(boxes, "_SCAN_CELLS", scan_cells):
        # The plan is read at each call, so every call in the block takes the patched one.
        op = g.incidence
        if scan_cells == 1:
            # Nothing is scanned: the last step has one cell, no context rows, only messages
            # after the work vector's 0.0.
            terms = op._elimination[-1].terms
            assert terms.shape[1:] == (1,) and terms[0] == op.dim and (terms[1:] > op.dim).all()

        # The first optimum in row-major order, and its score.
        for direction, sign in (("max", 1.0), ("min", -1.0)):
            best, picked = extremum(op, y, direction)
            first = int(np.argmax(sign * scores))
            assert picked == first
            assert best == scores[first] if integer else abs(best - scores[first]) <= 1e-12
            result = cx.optimize_linear(g, op.split(y), direction)
            assert result.value == scores[first]
            assert result.argopt.outputs == tuple(
                int(v) for v in np.unravel_index(first, g.joint_shape)
            )


@st.composite
def mid_hypergraphs(draw):
    """Binary and ternary hypergraphs with 2^10 < joint_dim <= 2^14, which a
    scan of 2^14 cells takes whole and one of 2^10 cells does not.

    Contexts of 2 or 3 observables, listed in a random order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n_ternary = draw(st.sampled_from(
        [(11, 0), (12, 0), (13, 0), (14, 0), (7, 6), (7, 7), (8, 4), (8, 8), (9, 3), (10, 2)]
    ))
    g = random_hypergraph(rng, k, draw(st.integers(k // 2 + 1, 2 * k)))
    ternary = set(rng.choice(k, size=n_ternary, replace=False).tolist())
    contexts = [tuple(rng.permutation(ctx).tolist()) for ctx in g.contexts]
    return cx.Hypergraph([(f"O{i}", 3 if i in ternary else 2) for i in range(k)], contexts)


def scan_cells(op):
    """Cells of the prefix ``best_outcome`` scans on ``op``, and whether it eliminates any:
    the scan is the plan's last step, with an empty separator."""
    *buckets, scan = op._elimination
    assert scan.separator == ()
    return math.prod(scan.shape), bool(buckets)


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(g=mid_hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_short_scan_matches_full_scan(g, draw_seed):
    """The 2^10-cell scan and its buckets agree with a scan of the whole joint."""
    assert 2**10 < g.joint_dim <= 2**14
    rng = np.random.default_rng(draw_seed)
    op = g.incidence
    assert scan_cells(op)[0] <= 2**10 and scan_cells(op)[1]
    y = stacked_values(g, rng)
    integer = np.array_equal(y, np.round(y))
    scores = op.lift(y).ravel()
    # The plan is read at each call: the whole-joint scan only inside the block.
    with mock.patch.object(boxes, "_SCAN_CELLS", 2**14):
        assert scan_cells(op) == (g.joint_dim, False)
        references = {sense: extremum(op, y, sense) for sense in ("max", "min")}

    # The first optimum in row-major order; its score exact on integer weights.
    for sense, sign in (("max", 1.0), ("min", -1.0)):
        reference = references[sense]
        first = int(np.argmax(sign * scores))
        assert reference == (scores[first], first)
        best, picked = extremum(op, y, sense)
        assert picked == first
        assert best == scores[first] if integer else abs(best - scores[first]) <= 1e-12


@pytest.mark.parametrize("n", [14, 15, 16, 17, 18, 19, 20])
def test_chains_take_the_short_scan(n):
    """CH(14) to CH(20) scan 2^10 cells and eliminate the other observables."""
    assert scan_cells(cx.chain_box(n).hypergraph.incidence) == (2**10, True)


@pytest.mark.parametrize("n, merged, single", [(14, 2, 5), (18, 3, 9), (20, 3, 11), (50, 9, 41)])
def test_chain_buckets_merge(n, merged, single):
    """CH(n) eliminates its trailing observables in steps of at most ``_BUCKET_CELLS``
    cells, 2^7: five observables each, over a separator of the first and the one
    before them.  With ``_BUCKET_CELLS`` patched to 1, one bucket per observable."""
    op = cx.chain_box(n).hypergraph.incidence
    *buckets, _ = op._elimination
    assert len(buckets) + 1 == merged
    assert all(math.prod(step.shape) * 2 ** len(step.separator) <= 2**7 for step in buckets)
    with mock.patch.object(boxes, "_BUCKET_CELLS", 1):
        assert len(op._elimination) == single


@pytest.mark.parametrize("g", [
    cx.chain_box(10).hypergraph, cx.pm_box().hypergraph, cx.mermin_box().hypergraph,
    cx.kcbs_box().hypergraph,
    cx.Hypergraph([(f"O{i}", 3) for i in range(6)], [(i, (i + 1) % 6) for i in range(6)]),
])
def test_small_joints_keep_the_whole_joint_scan(g):
    """Joints of at most 2^10 cells are scanned whole: the lift, context by context.
    The plan is one step, holding every context's rows at every joint cell, in
    context order, and no message."""
    assert g.joint_dim <= 2**10
    op = g.incidence
    assert scan_cells(op) == (g.joint_dim, False)
    (scan,) = op._elimination
    assert np.array_equal(scan.terms, op.rows(np.arange(g.joint_dim)).T)


@pytest.mark.parametrize("ternary", [False, True])
def test_rows_match_bruteforce(ternary):
    """``rows`` of scattered joint indices, in any array shape, against ``brute_rows``;
    an empty list of joint indices gives an empty row table and an empty block.
    Each row's parity class is ``2 c`` plus the parity of its context's digits."""
    rng = np.random.default_rng(20261019 + ternary)
    for _ in range(30):
        k = int(rng.integers(3, 9))
        g = random_hypergraph(rng, k, int(rng.integers(k // 3 + 1, k + 1)))
        cards = rng.integers(2, 4 if ternary else 3, size=k)
        contexts = [tuple(rng.permutation(ctx).tolist()) for ctx in g.contexts]
        g = cx.Hypergraph([(f"O{i}", int(d)) for i, d in enumerate(cards)], contexts)
        table = brute_rows(g)
        op = g.incidence
        picked = rng.integers(0, g.joint_dim, size=(3, 5))
        assert np.array_equal(op.rows(picked), table[picked])
        assert np.array_equal(op.rows(picked.ravel()), table[picked.ravel()])
        assert np.array_equal(op.rows(int(picked[0, 0])), table[picked[0, 0]])
        assert np.array_equal(op.rows(np.arange(g.joint_dim)), table)
        assert op.rows(picked).dtype == np.int64
        assert op.rows([]).shape == (0, g.n_contexts)
        assert op.columns(support=[]).shape == (0, g.joint_dim)
        digits = np.array(list(np.ndindex(g.joint_shape)))
        parity = np.stack([digits[:, list(ctx)].sum(axis=1) % 2 for ctx in g.contexts], axis=1)
        assert np.array_equal(op.parity_classes[table], 2 * np.arange(g.n_contexts) + parity)


def clique_tables(g, p):
    """A joint's marginal on each junction-tree clique, in the LP's layout, concatenated."""
    joint = np.reshape(p, g.joint_shape)
    parts = []
    for clique in g.junction_tree.cliques:
        summed = joint.sum(axis=tuple(i for i in range(g.n_observables) if i not in clique))
        parts.append(np.transpose(summed, [sorted(clique).index(v) for v in clique]).ravel())
    return np.concatenate(parts)


@seed(20261027)
@settings(max_examples=60, deadline=None)
@given(g=st.one_of(hypergraphs(), mid_hypergraphs()), draw_seed=st.integers(0, 2**32 - 1))
def test_junction_tree_against_a_joint(g, draw_seed):
    """The junction tree's cliques, separators and homes, its LP rows applied to a
    joint's clique tables, and the assignments peeled from those tables."""
    tree = g.junction_tree
    cliques = [set(c) for c in tree.cliques]
    assert tree.parents[0] == -1 and tree.separators[0] == ()
    for c in range(1, len(cliques)):
        separator = tree.separators[c]
        assert 0 <= tree.parents[c] < c
        assert set(separator) == cliques[c] & cliques[tree.parents[c]]
        assert tree.cliques[c][: len(separator)] == separator
    # Running intersection: each observable is off the separator of exactly one
    # clique that holds it, the top of the subtree of those that do.
    for v in range(g.n_observables):
        tops = [v in clique and v not in sep for clique, sep in zip(cliques, tree.separators)]
        assert sum(tops) == 1
    for ctx, home in zip(g.contexts, tree.homes):
        assert set(ctx) <= cliques[home]

    # A sparse joint's clique tables agree on every separator, and each context row
    # sums to the joint's marginal.
    rng = np.random.default_rng(draw_seed)
    p = rng.dirichlet(np.full(g.joint_dim, 0.2))
    p[rng.uniform(size=g.joint_dim) < 0.5] = 0.0
    p /= p.sum()
    x = clique_tables(g, p)
    assert x.size == tree.offsets[-1]
    starts, indices, values = tree.matrix
    ends = np.append(starts[1:], indices.size)
    rows = np.array([values[a:b] @ x[indices[a:b]] for a, b in zip(starts, ends)])
    assert np.allclose(rows[: tree.n_agreements], 0.0, rtol=0.0, atol=1e-12)
    assert np.allclose(rows[tree.n_agreements:], g.incidence.marginals(p), rtol=0.0, atol=1e-12)

    # The peeled assignments, distinct and positive, have those clique tables.
    digits, weights = tree.peel(x)
    columns = np.ravel_multi_index(tuple(digits.T), g.joint_shape)
    assert np.unique(columns).size == columns.size and np.all(weights > 0.0)
    q = np.bincount(columns, weights=weights, minlength=g.joint_dim)
    assert np.allclose(clique_tables(g, q), x, rtol=0.0, atol=1e-12)


def test_equal_hypergraphs_share_one_junction_tree():
    """Equal hypergraphs built separately share one tree, whose LP rows are read-only;
    another context list gets its own."""
    g = cx.mermin_box().hypergraph
    twin = cx.Hypergraph(list(g.observables), [list(ctx) for ctx in g.contexts])
    assert twin is not g and twin.junction_tree is g.junction_tree
    assert not any(a.flags.writeable for a in g.junction_tree.matrix)
    assert cx.pm_box().hypergraph.junction_tree is not g.junction_tree


def same_steps(a, b):
    """Whether two plans have the same steps, field by field."""
    return len(a) == len(b) and all(
        (s.separator, s.free, s.shape, s.strides, s.at) == (t.separator, t.free, t.shape, t.strides, t.at)
        and np.array_equal(s.terms, t.terms) and s.terms.shape == t.terms.shape
        for s, t in zip(a, b)
    )


def test_equal_hypergraphs_share_one_elimination_plan():
    """Equal hypergraphs built separately share one ``best_outcome`` plan, whose index
    arrays are read-only.  A plan made under another scan size is its own, and is
    never reused at the real one; each plan is a function of its key alone."""
    g = cx.chain_box(20).hypergraph
    twin = cx.Hypergraph(list(g.observables), [list(ctx) for ctx in g.contexts])
    plan = g.incidence._elimination
    assert twin is not g and twin.incidence._elimination is plan
    assert not any(step.terms.flags.writeable for step in plan)
    assert cx.chain_box(18).hypergraph.incidence._elimination is not plan

    # A ternary 7-cycle, planned under a patched scan size first, then at the real one:
    # the plan is read at each call, so the patched one only inside the block.
    op = cx.Hypergraph([(f"O{i}", 3) for i in range(7)], [(i, (i + 1) % 7) for i in range(7)]).incidence
    with mock.patch.object(boxes, "_SCAN_CELLS", 16):
        patched = op._elimination
        assert scan_cells(op) == (9, True)
    real = op._elimination
    assert real is not patched
    assert scan_cells(op) == (729, True)
    for steps, cells in ((patched, 16), (real, 2**10)):
        fresh = boxes._elimination_plan.__wrapped__((3,) * 7, op.contexts, cells, boxes._BUCKET_CELLS)
        assert same_steps(steps, fresh)
    assert not same_steps(patched, real)


@pytest.mark.parametrize("n", [5, 14, 30, 62])
def test_chain_cliques_have_three_observables(n):
    """Min-fill eliminates a cycle around it: cliques of at most 3 observables."""
    tree = cx.chain_box(n).hypergraph.junction_tree
    assert max(map(len, tree.cliques)) == 3
    assert tree.offsets[-1] <= 8 * n

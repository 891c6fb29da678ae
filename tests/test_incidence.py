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

    # Pricing: the minimum score and the cheapest columns.
    count = int(rng.integers(1, g.joint_dim + 2))
    min_score, picked = op.extremum(y, "min", count)
    assert min_score == scores.min()
    assert picked.size == min(count, g.joint_dim) == np.unique(picked).size
    rest = np.setdiff1d(np.arange(g.joint_dim), picked)
    assert rest.size == 0 or scores[picked].max() <= scores[rest].min()

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
    """A score vector not shaped ``(dim,)`` and a count below 1 or not an integer are
    refused, by the whole-joint scan (PR) and by elimination (CH(14)) alike."""
    op = box.hypergraph.incidence
    y = box.stacked()
    for bad in (np.append(y, np.zeros(5)), y[:-1], y[:, None], y.reshape(1, -1)):
        for call in (op.tables, op.lift, lambda v: op.extremum(v, "max")):
            with pytest.raises(cx.InvalidBoxError):
                call(bad)
    for count in (0, -1, 1.5, 2.0, None):
        with pytest.raises(cx.InvalidBoxError):
            op.extremum(y, "min", count)
    assert op.extremum(y, "max", np.int64(2))[1].size == 2


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
        # A fresh hypergraph, so the elimination plan is made under the patch.
        g = cx.Hypergraph(g.observables, g.contexts)
        op = g.incidence

        # count 1: the first optimum in row-major order, and its score.
        for direction, sign in (("max", 1.0), ("min", -1.0)):
            best, picked = op.extremum(y, direction)
            first = int(np.argmax(sign * scores))
            assert picked.tolist() == [first]
            assert best == scores[first] if integer else abs(best - scores[first]) <= 1e-12
            result = cx.optimize_linear(g, op.split(y), direction)
            assert result.value == scores[first]
            assert result.argopt.outputs == tuple(
                int(v) for v in np.unravel_index(first, g.joint_shape)
            )

        # count > 1: the count best joint outcomes, exactly.
        count = int(rng.integers(2, g.joint_dim + 2))
        best, picked = op.extremum(y, "min", count)
        assert picked.size == min(count, g.joint_dim) == np.unique(picked).size
        rest = np.setdiff1d(np.arange(g.joint_dim), picked)
        assert rest.size == 0 or scores[picked].max() <= scores[rest].min()
        assert best == scores.min() if integer else abs(best - scores.min()) <= 1e-12


def test_list_merges_stay_within_cap():
    """Under a small cap the lists are cut short: every merge stays within it, and the
    candidates are still the best ones, as many as a list holds."""
    g = cx.chain_box(8).hypergraph
    y = np.random.default_rng(5).integers(0, 10, size=g.incidence.dim).astype(float)
    scores = g.incidence.lift(y).ravel()
    sizes = []

    def smallest(values, m):
        sizes.append(values.size)
        return real(values, m)

    real = boxes._smallest
    with mock.patch.multiple(boxes, _SCAN_CELLS=1, JOINT_DIM_CAP=64, _smallest=smallest):
        # Nothing is scanned, and every bucket table has 8 cells: lists of 4, since the
        # pairs of two lists of m number at most 8 for m = 4 (4 + 2 + 1 + 1) and 10 for 5.
        op = cx.Hypergraph(g.observables, g.contexts).incidence
        best, picked = op.extremum(y, "min", 100)
    assert max(sizes) <= 64
    assert picked.size == 4 == np.unique(picked).size
    assert best == scores.min()
    rest = np.setdiff1d(np.arange(g.joint_dim), picked)
    assert scores[picked].max() <= scores[rest].min()


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
    """Cells of the prefix ``extremum`` scans on ``op``, and whether it eliminates any."""
    prefix, buckets = op._elimination
    return math.prod(prefix.shape), bool(buckets)


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(g=mid_hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
def test_short_scan_matches_full_scan(g, draw_seed):
    """The 2^10-cell scan and its buckets agree with a scan of the whole joint."""
    assert 2**10 < g.joint_dim <= 2**14
    rng = np.random.default_rng(draw_seed)
    op = g.incidence
    assert scan_cells(op)[0] <= 2**10 and scan_cells(op)[1]
    with mock.patch.object(boxes, "_SCAN_CELLS", 2**14):
        full = cx.Hypergraph(g.observables, g.contexts).incidence
        assert scan_cells(full) == (g.joint_dim, False)
    y = stacked_values(g, rng)
    integer = np.array_equal(y, np.round(y))
    scores = op.lift(y).ravel()

    # count 1: the first optimum in row-major order; its score exact on integer weights.
    for sense, sign in (("max", 1.0), ("min", -1.0)):
        reference = full.extremum(y, sense)
        first = int(np.argmax(sign * scores))
        assert reference[1].tolist() == [first] and reference[0] == scores[first]
        best, picked = op.extremum(y, sense)
        assert picked.tolist() == [first]
        assert best == scores[first] if integer else abs(best - scores[first]) <= 1e-12

    # count > 1, among them the cost LP's: the count best outcomes, exactly.
    for count in (int(rng.integers(2, 64)), op.dim, 2 * op.dim):
        best, picked = op.extremum(y, "min", count)
        assert picked.size == count == np.unique(picked).size
        rest = np.setdiff1d(np.arange(g.joint_dim), picked)
        assert scores[picked].max() <= scores[rest].min()
        assert best == scores.min() if integer else abs(best - scores.min()) <= 1e-12


@pytest.mark.parametrize("n", [14, 15, 16, 17, 18, 19, 20])
def test_chains_take_the_short_scan(n):
    """CH(14) to CH(20) scan 2^10 cells and eliminate the other observables."""
    assert scan_cells(cx.chain_box(n).hypergraph.incidence) == (2**10, True)


@pytest.mark.parametrize("g", [
    cx.chain_box(10).hypergraph, cx.pm_box().hypergraph, cx.mermin_box().hypergraph,
    cx.kcbs_box().hypergraph,
    cx.Hypergraph([(f"O{i}", 3) for i in range(6)], [(i, (i + 1) % 6) for i in range(6)]),
])
def test_small_joints_keep_the_whole_joint_scan(g):
    """Joints of at most 2^10 cells are scanned whole: the lift, context by context."""
    assert g.joint_dim <= 2**10
    op = g.incidence
    assert scan_cells(op) == (g.joint_dim, False)
    assert op._elimination[0].contexts == tuple(range(g.n_contexts))


@pytest.mark.parametrize("ternary", [False, True])
def test_rows_match_bruteforce(ternary):
    """``rows`` of scattered joint indices, in any array shape, against ``brute_rows``;
    an empty list of joint indices gives an empty row table and an empty block."""
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

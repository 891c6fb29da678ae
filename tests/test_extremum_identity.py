"""``ContextIncidence.best_outcome`` against the broadcasting elimination it replaced,
and ``JunctionTree.min_score`` against ``best_outcome``.

``reference_extremum`` keeps that code: every bucket's tables and messages
on all of the joint's axes, with size 1 off the bucket's scope.  The library
now lays them on each bucket's own axes, from a plan shared by equal
hypergraphs, and adds every cell's terms in the same order, so the value
and the joint index must agree bit for bit: the value compared by its hex
form, which tells -0.0 from 0.0.
"""

import itertools
import operator
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_incidence import extremum, hypergraphs, mid_hypergraphs

import contextuality as cx
from contextuality import boxes


@dataclass(frozen=True)
class Bucket:
    """A sum of context tables and messages over the observables of ``scope``.

    ``shape`` is the joint shape with 1 off the scope, so every context table
    (``ContextIncidence.tables``) and every message (kept with its
    eliminated axis) adds in by broadcasting.
    """

    scope: tuple[int, ...]
    shape: tuple[int, ...]
    contexts: tuple[int, ...]
    messages: tuple[int, ...]

    def table(self, tables):
        """The sum of the bucket's context tables, added in context order."""
        out = np.zeros(self.shape)
        for ci in self.contexts:
            out += tables[ci]
        return out


def reference_plan(op, scan_cells):
    """The scanned prefix and the buckets that eliminate the other observables."""
    cards = op.joint_shape
    prefix = sum(cells <= scan_cells for cells in itertools.accumulate(cards, operator.mul))

    def home(scope):
        top = max(scope, default=-1)
        return top if top >= prefix else -1

    def bucket(scope, contexts, messages):
        shape = tuple(d if i in scope else 1 for i, d in enumerate(cards))
        return Bucket(tuple(scope), shape, tuple(contexts), tuple(messages))

    pending = {v: ([], []) for v in range(-1, len(cards))}
    for ci, ctx in enumerate(op.contexts):
        pending[home(ctx)][0].append(ci)
    buckets = []
    for v in range(len(cards) - 1, prefix - 1, -1):
        contexts, messages = pending[v]
        scope = sorted(set().union(
            *(op.contexts[ci] for ci in contexts), *(buckets[m].scope[:-1] for m in messages)
        ))
        buckets.append(bucket(scope, contexts, messages))
        pending[home(scope[:-1])][1].append(len(buckets) - 1)
    return bucket(range(prefix), *pending[-1]), tuple(buckets)


def reference_extremum(op, y, sense, scan_cells):
    """Best score and the joint index of its first outcome, on the joint's axes."""
    prefix, buckets = reference_plan(op, scan_cells)
    y = np.asarray(y, dtype=float)
    tables = op.tables(-y if sense == "max" else y)
    cards = op.joint_shape
    messages, choices = [], []
    for b in buckets:
        values = b.table(tables)
        for k in b.messages:
            values += messages[k]
        # Eliminate v, the last of the scope: every later axis has size 1.
        v = b.scope[-1]
        values = values.reshape(-1, cards[v])
        messages.append(values.min(axis=1).reshape(b.shape[:v] + (1,) * (len(cards) - v)))
        choices.append(values.argmin(axis=1))
    scores = prefix.table(tables)
    for k in prefix.messages:
        scores = scores + messages[k]
    scores = scores.ravel()
    at = int(scores.argmin())
    best = float(scores[at])
    # Digits not yet decoded are 0, so a bucket's index over its scope, taken
    # before its own observable is decoded, is its parents' index times that
    # observable's cardinality.
    digits = np.zeros(len(cards), dtype=np.int64)
    if prefix.scope:
        digits[: len(prefix.scope)] = np.unravel_index(at, cards[: len(prefix.scope)])
    strides = np.ones(len(cards), dtype=np.int64)
    strides[:-1] = np.cumprod(cards[:0:-1], dtype=np.int64)[::-1]
    for b, choice in zip(reversed(buckets), reversed(choices)):
        v = b.scope[-1]
        axes = np.array(b.scope, dtype=np.int64)
        local = np.ones(len(b.scope), dtype=np.int64)
        local[:-1] = np.cumprod([cards[i] for i in b.scope[:0:-1]], dtype=np.int64)[::-1]
        digits[v] = choice[digits[axes] @ local // cards[v]]
    return (-best if sense == "max" else best), int(digits @ strides)


def plus(*graphs):
    """The direct sum of hypergraphs, the first one's observables first."""
    observables, contexts, offset = [], [], 0
    for k, g in enumerate(graphs):
        observables += [(f"{name}#{k}", d) for name, d in g.observables]
        contexts += [tuple(i + offset for i in ctx) for ctx in g.contexts]
        offset += g.n_observables
    return cx.Hypergraph(observables, contexts)


BUILTINS = [cx.pr_box().hypergraph, cx.pm_box().hypergraph, cx.mermin_box().hypergraph,
            cx.kcbs_box().hypergraph, cx.chain_box(7).hypergraph]

chains = st.integers(14, 30).map(lambda n: cx.chain_box(n).hypergraph)
direct_sums = st.one_of(
    st.tuples(hypergraphs(), st.sampled_from(BUILTINS)).map(lambda gs: plus(*gs)),
    st.tuples(st.sampled_from(BUILTINS), hypergraphs()).map(lambda gs: plus(*gs)),
    st.just(plus(*BUILTINS[1:3], cx.chain_box(14).hypergraph)),
    # A 1-cell scan adds one message per component: enough of them for numpy's
    # pairwise summation to reorder a reduction.
    st.lists(hypergraphs(), min_size=8, max_size=10).map(lambda gs: plus(*gs)),
)


def weights(g, rng):
    """Stacked weights: small integers (ties, zeros), normal reals, or reals
    spread over twelve orders of magnitude, where the order of a sum shows."""
    dim = g.incidence.dim
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(0, 3, size=dim).astype(float)
    if kind == 1:
        return rng.normal(size=dim)
    return rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 6, size=dim)


@seed(20261030)
@settings(max_examples=400, deadline=None)
@given(
    g=st.one_of(hypergraphs(), mid_hypergraphs(), chains, direct_sums),
    scan_cells=st.sampled_from([1, 16, 2**10]),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_extremum_matches_broadcasting_reference(g, scan_cells, draw_seed):
    """Value and joint index bit for bit, in both senses, and ``best_outcome``'s
    digits are those of the index."""
    y = weights(g, np.random.default_rng(draw_seed))
    with mock.patch.object(boxes, "_SCAN_CELLS", scan_cells):
        # The plan is read at each call, so every call in the block takes the patched one.
        op = g.incidence
        for sense in ("max", "min"):
            best, index = extremum(op, y, sense)
            expected, first = reference_extremum(op, y, sense, scan_cells)
            assert (best.hex(), index) == (expected.hex(), first)
            value, digits = op.best_outcome(y, sense)
            assert value.hex() == best.hex()
            assert digits == tuple(int(d) for d in np.unravel_index(index, g.joint_shape))


@pytest.mark.parametrize("sense", ["max", "min"])
def test_zero_scores_keep_their_sign(sense):
    """All-zero weights score 0 everywhere: the first outcome, and the value the
    reference gives, -0.0 for "max" (its negated minimum) and 0.0 for "min"."""
    g = cx.chain_box(20).hypergraph
    best, index = extremum(g.incidence, np.zeros(g.incidence.dim), sense)
    assert index == 0
    assert best.hex() == (-0.0 if sense == "max" else 0.0).hex()
    expected, first = reference_extremum(g.incidence, np.zeros(g.incidence.dim), sense, 2**10)
    assert (best.hex(), index) == (expected.hex(), first)


@seed(20261101)
@settings(max_examples=200, deadline=None)
@given(
    g=st.one_of(hypergraphs(), mid_hypergraphs(), chains, direct_sums),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_tree_min_score_matches_best_outcome(g, draw_seed):
    """The junction tree's min-sum pass against ``best_outcome``'s value in both
    senses (the max as minus the least score of -y): exact on small integer
    weights of both signs, and on normal ones within 1e-12 relative to the
    score, or absolute below 1, since the two add their terms in other orders."""
    rng = np.random.default_rng(draw_seed)
    dim = g.incidence.dim
    integer = bool(rng.integers(2))
    y = rng.integers(-3, 4, size=dim).astype(float) if integer else rng.normal(size=dim)
    tree = g.junction_tree
    for sense, sign in (("min", 1.0), ("max", -1.0)):
        expected, _ = g.incidence.best_outcome(y, sense)
        value = sign * tree.min_score(sign * y)
        if integer:
            assert value == expected
        else:
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), (value, expected)

"""Measurement hypergraphs and the boxes compatible with them.

A hypergraph is a finite set of observables, each with a finite output
alphabet, together with a list of contexts (subsets of jointly measurable
observables).  A box assigns one probability distribution per context; a
joint distribution lives on the full product alphabet.  Everything here is
immutable and pure.

Outcome ordering convention (used everywhere, including the file format):
row-major with the first-listed observable most significant.  For a context
``(i, j)`` over binary observables the vector order is ``00, 01, 10, 11``
with ``i``'s value first.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    HypergraphMismatchError,
    InconsistentBoxError,
    InvalidBoxError,
    NotXorBoxError,
)

# Absolute tolerance on distribution sums; below-tolerance negatives are
# clamped to zero, anything more negative is rejected (file round-trip rule).
NORMALIZATION_TOL = 1e-9
NEGATIVE_TOL = -1e-12
# Absolute tolerance within which a context counts as P_even or P_odd.
PARITY_TOL = 1e-9
# Largest joint tensor (cells) the entropy solver or ``junction_tree_joint``
# allocates, the largest table ``ContextIncidence.best_outcome`` builds, and
# the most variables and matrix entries of a junction-tree LP.
JOINT_DIM_CAP = 2**22
# Most observables a hypergraph's tables can have: numpy's limit on array dimensions.
MAX_OBSERVABLES = 64
# Most entries (8 MB of floats) of a dense incidence matrix: ``ContextIncidence.dense``
# holds the full M only within it, and the entropy solver keeps its support
# rows dense only within it.  Below it two matrix-vector products beat the
# incidence's marginal sums and table lift on every box measured, above it the
# gain shrinks and turns into a loss on boxes with many rows per context.
DENSE_ENTRIES_CAP = 2**20
# The witness route's fits (``projected_joint``): at most this many, each a
# sweep followed by a projection try.  Of 303 seeded noncontextual Dirichlet
# boxes on 4-5 observables under many contexts, the route missed 7 at 8
# sweeps and 2 at 16 or 32; the entropy solver's 16 steps before it missed 23.
_WITNESS_SWEEPS = 16
# The largest exponent of the projection's multiplicative step (``ContextIncidence.fit``),
# so the step never overflows.  It stayed below 5 on every box measured, and is bounded by
# about the incidence's row count, which can pass the 709 of exp's overflow.
_EXPONENT_CAP = 64.0
# A projection try (``ContextIncidence.fit``) that misses by less negative mass
# than this marks its box as about noncontextual: the witness route gives up
# only at a larger miss, and the entropy solver's face exit waits after a try
# at the same iteration that missed by less.  On small-batch the two
# noncontextual boxes that certify at the solver's projection at step 8
# missed by at most 7e-4 at steps 2 and 4, and each contextual box by at least
# 8e-2; on 280 contextual anchor mixes across the noncontextual boundary,
# every box that certified at a face had missed by at least 1.9e-2.
CONTEXTUAL_MISS = 1e-2
# Largest spread of a parity class that ``parity_mixture`` calls flat, and of
# the heavier classes' masses that it calls isotropic; the widest bracket that
# the cost's parity route (``polytope._parity_cost``) keeps.
PARITY_FLAT_TOL = 1e-12
# Cells of the leading observables that ``ContextIncidence.best_outcome`` scores
# outright, each by its best completion; the others are eliminated.  The cost's
# parity route (``polytope._parity_cost``) lifts only joints of at most this
# many cells.  On CH(14) to CH(20), a scan of 2^10 cells took 17-57% less time
# than one of 2^14.  With merged buckets (``_BUCKET_CELLS``), one pass (p10 of
# 2,000 calls) took 31-71 us on CH(16/18/20/30/50) and 48 us on M+PM+CH(14) at
# 2^10; 23-68 and 62 us at 2^8; 65-111 and 72 us at 2^12.  2^8 wins on the
# chains by 4-9 us and loses on the direct sum by 14 us, so 2^10 stays.
_SCAN_CELLS = 2**10
# Most cells of a step of ``best_outcome``'s plan that eliminates more than one
# observable (``_elimination_plan``).  One pass at 2^1 (one bucket each),
# 2^4, 2^5, 2^6, 2^7, 2^8, 2^9 and 2^10, in us (p10 of 2,000 calls, scan 2^10):
# CH(18) 59, 40, 35, 31, 31, 33, 36, 36; CH(50) 215, 122, 95, 77, 72, 72, 79,
# 100; M+PM+CH(14) 137, 85, 71, 60, 48, 46, 45, 50.  On these three and CH(16),
# CH(20) and CH(30), 2^7 and 2^8 come within 4 us of each other; 2^7 keeps the
# smaller tables.
_BUCKET_CELLS = 2**7


def probability_vector(values: Iterable[float], *, what: str = "distribution") -> np.ndarray:
    """Coerce ``values`` to a validated probability vector.

    Entries in ``[-1e-12, 0]`` are clamped to zero; entries below that or a
    sum off by more than 1e-9 raise :class:`InvalidBoxError`.
    """
    vec = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise InvalidBoxError(f"{what} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(vec)):
        raise InvalidBoxError(f"{what} contains non-finite entries")
    if np.any(vec < NEGATIVE_TOL):
        raise InvalidBoxError(f"{what} has negative entries below {NEGATIVE_TOL}")
    vec = np.where(vec < 0.0, 0.0, vec)
    total = float(vec.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidBoxError(f"{what} sums to {total!r}, expected 1 within {NORMALIZATION_TOL}")
    vec.flags.writeable = False
    return vec


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Hypergraph:
    """Observables with finite alphabets plus an ordered list of contexts.

    ``observables`` is an ordered sequence of ``(name, cardinality)`` pairs;
    ``contexts`` lists observable indices in the order that fixes each
    context's outcome layout.
    """

    observables: tuple[tuple[str, int], ...]
    contexts: tuple[tuple[int, ...], ...]

    def __init__(self, observables, contexts):
        object.__setattr__(
            self,
            "observables",
            tuple((str(name), int(card)) for name, card in observables),
        )
        object.__setattr__(self, "contexts", tuple(tuple(int(i) for i in c) for c in contexts))
        self._validate()

    def _validate(self) -> None:
        k = len(self.observables)
        if k == 0:
            raise InvalidBoxError("hypergraph needs at least one observable")
        names = [name for name, _ in self.observables]
        if len(set(names)) != k:
            raise InvalidBoxError("observable names must be unique")
        for name, card in self.observables:
            if card < 2:
                raise InvalidBoxError(f"observable {name!r} has cardinality {card} < 2")
        if not self.contexts:
            raise InvalidBoxError("hypergraph needs at least one context")
        covered: set[int] = set()
        for ci, c in enumerate(self.contexts):
            if not c:
                raise InvalidBoxError("empty context")
            if any(i < 0 or i >= k for i in c):
                raise InvalidBoxError(f"context {c} references an invalid observable index")
            if len(set(c)) != len(c):
                raise InvalidBoxError(f"context {c} repeats an observable")
            # The index keeps the last context of each set, so a repeat shows here.
            if self._context_index[frozenset(c)] != ci:
                raise InvalidBoxError(f"duplicate context {sorted(c)}")
            covered.update(c)
        if covered != set(range(k)):
            missing = sorted(set(range(k)) - covered)
            raise InvalidBoxError(f"observables {missing} appear in no context")

    @property
    def n_observables(self) -> int:
        return len(self.observables)

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.observables)

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(card for _, card in self.observables)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Number of contexts each observable belongs to."""
        deg = [0] * self.n_observables
        for c in self.contexts:
            for i in c:
                deg[i] += 1
        return tuple(deg)

    def context_shape(self, ci: int) -> tuple[int, ...]:
        return tuple(self.cardinalities[i] for i in self.contexts[ci])

    def context_dim(self, ci: int) -> int:
        return math.prod(self.context_shape(ci))

    @property
    def joint_shape(self) -> tuple[int, ...]:
        return self.cardinalities

    @property
    def joint_dim(self) -> int:
        return math.prod(self.cardinalities)

    @cached_property
    def incidence(self) -> "ContextIncidence":
        """The context-incidence operator of this hypergraph, shared by equal
        hypergraphs (see ``_incidence``)."""
        return _incidence(self.cardinalities, self.contexts)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Observables of each connected component (contexts join their
        observables), each in increasing order, ordered by least observable."""
        parent = list(range(self.n_observables))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ctx in self.contexts:
            root = find(ctx[0])
            for i in ctx[1:]:
                parent[find(i)] = root
        groups: dict[int, list[int]] = {}
        for i in range(self.n_observables):
            groups.setdefault(find(i), []).append(i)
        return tuple(map(tuple, groups.values()))

    @cached_property
    def is_binary_cycle(self) -> bool:
        """Whether this is the n-cycle scenario: n >= 3 binary observables,
        contexts that are pairs, every observable in two of them (so n
        contexts), and one component, so the contexts close one cycle."""
        return (
            self.n_observables >= 3
            and all(card == 2 for card in self.cardinalities)
            and all(len(ctx) == 2 for ctx in self.contexts)
            and all(d == 2 for d in self.degrees)
            and len(self.components) == 1
        )

    @property
    def junction_tree(self) -> "JunctionTree":
        """A junction tree of the observables, from a min-fill order (see
        ``JunctionTree``): the incidence's, so equal hypergraphs share it."""
        return self.incidence.junction_tree

    @property
    def join_tree(self) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
        """``(context index, separator)`` pairs in running-intersection order,
        or None if the hypergraph is cyclic.

        Each context's separator is its set of observables (in increasing
        order) shared with the contexts before it, and one of those contains
        it all, so the product of each context's conditional on its separator
        has every context marginal of a consistent box (see ``JunctionTree.join_tree``).
        """
        return self.junction_tree.join_tree

    @cached_property
    def _context_index(self) -> dict[frozenset[int], int]:
        return {frozenset(c): ci for ci, c in enumerate(self.contexts)}

    def find_context(self, observables: Iterable[int]) -> int:
        """Index of the context equal (as a set) to ``observables``; -1 if absent."""
        return self._context_index.get(frozenset(observables), -1)


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidBoxError(f"tolerance must be finite and nonnegative, got {tol!r}")


def check_joint_dim(g: Hypergraph) -> None:
    """Refuse, before any allocation, a hypergraph whose joint tensor exceeds
    ``JOINT_DIM_CAP`` cells, read at each call."""
    if g.joint_dim > JOINT_DIM_CAP:
        raise CapExceededError(f"joint dimension {g.joint_dim} exceeds cap {JOINT_DIM_CAP}")


@dataclass(frozen=True, eq=False)
class _Step:
    """One step of a min-sum pass (``_min_sum``): a table over the scope
    ``separator + free``, row-major, whose least entry per separator cell is
    the step's message.

    The pass keeps one work vector: the stacked scores, a 0.0 at the
    stacked dimension, then each step's message in turn, this step's from
    index ``at`` on.  ``terms`` holds the vector's index of each term at
    each cell: shape ``(terms, cells)``, or ``(layers, terms, cells)`` where
    an outer bucket of a merged step adds more than one term of its own;
    each layer sums its terms in order, then the layers add up, innermost
    first.  ``strides`` turn the separator's digits into its cell, and
    ``shape`` holds the free observables' cardinalities.  The index array
    is read-only.
    """

    separator: tuple[int, ...]
    free: tuple[int, ...]
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    terms: np.ndarray
    at: int

    def cell(self, digits: Sequence[int]) -> int:
        """The separator cell of an outcome's digits."""
        return sum(digits[v] * stride for v, stride in zip(self.separator, self.strides))

    def place(self, digits: list[int], at: int) -> None:
        """Set the free observables' digits from their row-major index ``at``."""
        for v, card in zip(reversed(self.free), reversed(self.shape)):
            at, digits[v] = divmod(at, card)


def _step(
    cards: Sequence[int], separator: Sequence[int], free: Sequence[int], layers: list,
    zero: int, at: int,
) -> _Step:
    """A step over ``separator + free`` whose message goes to ``at``, from its
    layers, innermost first, each a pair: its contexts' terms, then its
    messages', every term the work vector's index at each cell.  A layer
    with no context starts at ``zero``, the index of the vector's 0.0, and
    a short layer ends with it, so the layers stack.  The index array is
    made read-only."""
    pad = np.full(math.prod(cards[v] for v in (*separator, *free)), zero)
    layers = [[*(contexts or [pad]), *messages] for contexts, messages in layers]
    # A layer of one term goes on with the sum of the layers inside it while that is one sum.
    while len(layers) > 1 and len(layers[1]) == 1:
        layers[0] += layers.pop(1)
    depth = max(map(len, layers))
    terms = [layer + [pad] * (depth - len(layer)) for layer in layers]
    return _Step(
        tuple(separator), tuple(free), tuple(cards[v] for v in free),
        tuple(_row_major([cards[v] for v in separator]).tolist()),
        _frozen_array(terms[0] if len(terms) == 1 else terms, dtype=np.int64), at,
    )


def _min_sum(
    steps: Sequence[_Step], y: np.ndarray, decode: bool
) -> tuple[float, list[int] | None]:
    """Least score ``sum_c y_c(lambda_c)`` of a stacked ``y`` over joint outcomes
    lambda, by a min-sum pass over ``steps`` (Dechter 1999), and with
    ``decode`` the digits of the first outcome that reaches it.

    Each step gathers its terms from the work vector (see ``_Step``), adds
    each layer's in order and then the layers, innermost first, and writes
    its least entry per separator cell to the vector as its message (and
    with ``decode`` keeps the first free cell that gives it).  The last
    step's separator is empty, so its one entry, the vector's last, is the
    score; the outcome is decoded from the last step back, each step's free
    digits from its separator's.
    """
    work = np.empty(steps[-1].at + 1)
    work[: y.size] = y
    work[y.size] = 0.0
    choices: list[np.ndarray] = []
    for step in steps:
        table = work[step.terms]
        while table.ndim > 1:
            # numpy adds terms of one cell pairwise, so those go one at a time.
            table = (table.sum(axis=-2) if table.shape[-1] > 1
                     else np.add.accumulate(table, axis=-2)[..., -1, :])
        table = table.reshape(-1, math.prod(step.shape))
        table.min(axis=1, out=work[step.at : step.at + len(table)])
        if decode:
            choices.append(table.argmin(axis=1))
    if not decode:
        return float(work[-1]), None
    digits = [0] * sum(len(step.free) for step in steps)
    for step, choice in zip(reversed(steps), reversed(choices)):
        step.place(digits, int(choice[step.cell(digits)]))
    return float(work[-1]), digits


@functools.lru_cache(maxsize=64)
def _elimination_plan(
    cards: tuple[int, ...], contexts: tuple[tuple[int, ...], ...], scan_cells: int,
    bucket_cells: int,
) -> tuple[_Step, ...]:
    """The steps of ``best_outcome`` on a hypergraph, in index order, made once
    per cardinalities, context list, scan size and bucket size; they hold
    index data only.

    The last step, the scan, has every observable of the longest run of
    leading observables with at most ``scan_cells`` cells free.  The others
    are eliminated before it, last index first: each bucket sums the
    contexts and messages whose highest observable it eliminates, so that
    observable is the bucket's free observable and every other one in its
    scope is decoded before it.  A bucket whose last term is the message of
    the bucket just before it takes that bucket in, as long as the merged
    table has at most ``bucket_cells`` cells: the step frees both, and adds
    the inner bucket's whole table where that message was.  Rounding is
    monotone, so the least entry over the inner observable is the message
    itself, and the value is the one-bucket plan's bit for bit.  Index
    order makes every choice, and so the decoded outcome, the first optimum
    in row-major order; where an outer term rounds two inner sums to one
    number, a merged step takes the first of them.  Refuses, before any
    index is built, a plan whose one-bucket tables, the scan's included,
    exceed ``JOINT_DIM_CAP`` cells.
    """
    prefix = sum(cells <= scan_cells for cells in itertools.accumulate(cards, operator.mul))

    def home(scope: Sequence[int]) -> int:
        """The bucket of a term: its highest observable, or -1 (the scan)."""
        top = max(scope, default=-1)
        return top if top >= prefix else -1

    def check(scope: Sequence[int]) -> None:
        size = math.prod(cards[i] for i in scope)
        if size > JOINT_DIM_CAP:
            raise CapExceededError(
                f"eliminating observable {scope[-1]} needs a table of {size} "
                f"cells, over the cap {JOINT_DIM_CAP}"
            )

    # Contexts and messages waiting in each bucket; each bucket's scope,
    # contexts and the earlier buckets whose messages it adds.
    pending: dict[int, tuple[list, list]] = {v: ([], []) for v in range(-1, len(cards))}
    for ci, ctx in enumerate(contexts):
        pending[home(ctx)][0].append(ci)
    buckets: list[tuple[tuple[int, ...], list, list]] = []
    for v in range(len(cards) - 1, prefix - 1, -1):
        cs, ms = pending[v]
        scope = set().union(*(contexts[ci] for ci in cs), *(buckets[m][0][:-1] for m in ms))
        scope = tuple(sorted(scope))
        check(scope)
        buckets.append((scope, cs, ms))
        pending[home(scope[:-1])][1].append(len(buckets) - 1)
    check(range(prefix))

    # The buckets of each step, innermost first: a bucket joins the step before
    # it where that step's message is its last term and the merged table fits.
    groups: list[list[int]] = []
    for b, (scope, _, ms) in enumerate(buckets):
        if ms[-1:] == [b - 1] and math.prod(
            cards[v] for v in (*scope, *(buckets[i][0][-1] for i in groups[-1]))
        ) <= bucket_cells:
            groups[-1].append(b)
        else:
            groups.append([b])

    # Every table is within the cap: the index data.
    offsets = list(itertools.accumulate((math.prod(cards[i] for i in c) for c in contexts),
                                        initial=0))
    zero = offsets[-1]
    steps: list[_Step] = []
    sent: dict[int, int] = {}

    def layer(scope: tuple[int, ...], cs: list, ms: list) -> tuple[list, list]:
        return ([offsets[ci] + _cells(cards, scope, contexts[ci]) for ci in cs],
                [sent[m] + _cells(cards, scope, buckets[m][0][:-1]) for m in ms])

    at = zero + 1
    for group in groups:
        separator = buckets[group[-1]][0][:-1]
        free = tuple(buckets[b][0][-1] for b in reversed(group))
        layers = []
        for b in group:
            _, cs, ms = buckets[b]
            layers.append(layer(separator + free, cs, ms if b == group[0] else ms[:-1]))
        steps.append(_step(cards, separator, free, layers, zero, at))
        sent[group[-1]] = at
        at += math.prod(cards[v] for v in separator)
    scan = tuple(range(prefix))
    steps.append(_step(cards, (), scan, [layer(scan, *pending[-1])], zero, at))
    return tuple(steps)


def _cells(cards: Sequence[int], scope: tuple[int, ...], observables: Sequence[int]) -> np.ndarray:
    """Row-major index over ``observables`` (all in ``scope``) of each cell of
    ``scope``, row-major: each observable's digit times its stride, summed one
    axis at a time."""
    shape = [cards[v] for v in scope]
    out = np.zeros(shape, dtype=np.int64)
    for v, stride in zip(observables, _row_major([cards[v] for v in observables]).tolist()):
        axis = scope.index(v)
        out += (np.arange(shape[axis]) * stride).reshape([-1] + [1] * (len(shape) - axis - 1))
    return out.ravel()


def _marginal_index(cards: tuple[int, ...], contexts: tuple[tuple[int, ...], ...], homes) -> tuple:
    """Read-only ``rows`` and ``cells``, and ``firsts``: ``bincount(cells, stacked[rows])``
    holds, from cell ``firsts[k]`` on, context c's marginal on the observables s,
    row-major over them, for the kth ``(c, s)`` of ``homes``; ``firsts[-1]`` counts the cells."""
    offsets = [0, *itertools.accumulate(math.prod(cards[i] for i in ctx) for ctx in contexts)]
    firsts = [0, *itertools.accumulate(math.prod(cards[i] for i in s) for _, s in homes)]
    rows = [np.arange(offsets[c], offsets[c + 1]) for c, _ in homes]
    cells = [first + _cells(cards, contexts[c], s) for (c, s), first in zip(homes, firsts)]
    return _frozen_array(np.concatenate(rows), np.int64), _frozen_array(np.concatenate(cells), np.int64), firsts


def _row_major(radices: Sequence[int]) -> np.ndarray:
    """Multipliers that turn digits over ``radices`` into a row-major index."""
    out = np.ones(len(radices), dtype=np.int64)
    out[:-1] = np.cumprod(radices[:0:-1], dtype=np.int64)[::-1]
    return out


class ContextIncidence:
    """The context-incidence map M of a hypergraph's cardinalities and context list.

    Rows of M are the stacked context outcomes: every context's outcome
    vector (row-major in the context's observable order), concatenated in
    context order.  Columns are joint outcomes (row-major over all
    observables), and column lambda has a single 1 per context, at the row
    of lambda's restriction to that context.  So ``marginals(p) = M p`` is
    the stacked vector of context marginals, ``lift(y) = M^T y`` is the
    joint tensor ``sum_c y_c(lambda_c)``, and ``rows(lambda)`` lists the
    rows of column lambda.  A context's table (``tables``) is its outcome
    vector on the joint's axes, of size 1 off the context; one gather
    through ``_sorted_rows`` takes every table, and one scatter through it
    stacks the marginals, so memory stays O(joint_dim).  Consistency, the
    component factorization and the group action read these tables.
    ``rows`` maps joint indices to their rows through their digits (``digit_rows``).
    ``columns`` builds dense rows of M, on every joint index, only for the
    caller that asks for them; ``dense`` is the whole of M, built by it on
    first use, as floats, but only where M has at most ``DENSE_ENTRIES_CAP``
    entries: 8 MB at most.  ``dense_rows`` gives a support's rows within the
    same cap; both read it at call time.  ``least_norm`` is ``M^+`` in
    closed form, and ``fit`` moves a joint onto given marginals with it and
    ``dense``: the step of the witness route (``projected_joint``) and of the entropy solver's own
    projection tries.  The entropy solver reads them on small boxes; the
    cost LP's rows and its pricing come from
    ``junction_tree``.  The consistency check reads the incidence's one
    list of overlapping pairs of contexts (``_overlaps``) and its index
    arrays over those pairs (``_overlap_index``).  ``parity_classes`` labels
    each row with its context's even or odd outcomes, from which
    ``context_parities`` reads each context's parity.  This module is the
    only code that knows the stacked layout.
    All of it is index data, read-only, made on first use from the
    cardinalities and the context list alone, so equal hypergraphs share
    one incidence (``_incidence``).

    ``best_outcome`` finds the best joint outcome lambda of a score
    ``sum_c y_c(lambda_c)`` without building the joint tensor, by the
    min-sum pass (``_min_sum``) that also prices the cost LP on the
    junction tree's min-fill plan.  Its own plan (``_elimination_plan``)
    keeps index order, for the first optimum in row-major order: it
    eliminates the trailing observables in buckets, whose tables grow with
    the induced width of that order (2 for a chain), a bucket merged with
    the one its message goes to while their table has at most
    ``_BUCKET_CELLS`` cells, and scans the leading ones.  Its plan is read
    at the scan and bucket sizes of each call.  Refuses,
    before any table is built, a hypergraph of more than ``MAX_OBSERVABLES``
    observables, whose tables numpy cannot hold.
    """

    def __init__(self, cards: tuple[int, ...], contexts: tuple[tuple[int, ...], ...]):
        if len(cards) > MAX_OBSERVABLES:
            raise CapExceededError(
                f"hypergraph has {len(cards)} observables; a table holds at most {MAX_OBSERVABLES}"
            )
        self.joint_shape = cards
        self._joint_dim = math.prod(cards)
        self.contexts = contexts
        self.context_shapes = tuple(tuple(cards[i] for i in ctx) for ctx in contexts)
        self.dims = tuple(map(math.prod, self.context_shapes))
        self.offsets = tuple(itertools.accumulate(self.dims, initial=0))
        self.dim = self.offsets[-1]
        # Each context's table shape, and the axes its marginal sums out.
        self._table_shapes = tuple(
            tuple(d if i in ctx else 1 for i, d in enumerate(cards)) for ctx in contexts
        )
        self._summed = tuple(tuple(i for i in range(len(cards)) if i not in c) for c in contexts)

    def stack(self, parts: Sequence) -> np.ndarray:
        """One vector per context, concatenated in context order (inverse of ``split``)."""
        parts = [np.asarray(v, dtype=float) for v in parts]
        if len(parts) != len(self.dims) or any(v.size != d for v, d in zip(parts, self.dims)):
            raise InvalidBoxError("need one vector per context, sized to its outcome space")
        return np.concatenate(parts, axis=None)

    def split(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Per-context views of a stacked vector."""
        return [stacked[a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    def marginals(self, p: np.ndarray) -> np.ndarray:
        """``M p``: stacked context marginals of a joint tensor (or flat joint vector).

        A context's marginal sums its other axes, in table order; one scatter stacks them.
        Refuses an array of another size than the joint's.
        """
        if np.size(p) != self._joint_dim:
            raise InvalidBoxError(f"joint has {np.size(p)} entries, not {self._joint_dim}")
        p = np.reshape(p, self.joint_shape)
        out = np.empty(self.dim)
        out[self._sorted_rows] = np.concatenate([p.sum(axis=a).ravel() for a in self._summed])
        return out

    def tables(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Each context's part of a stacked vector as its table: an array on the
        joint's axes, of size 1 off the context, so it broadcasts to the joint shape.

        One gather takes every table.  Refuses a vector not shaped ``(dim,)``.
        """
        stacked = np.asarray(stacked)
        if stacked.shape != (self.dim,):
            raise InvalidBoxError(f"stacked vector has shape {stacked.shape}, not ({self.dim},)")
        stacked = stacked[self._sorted_rows]
        return [
            stacked[a:b].reshape(shape)
            for a, b, shape in zip(self.offsets, self.offsets[1:], self._table_shapes)
        ]

    def lift(self, stacked: np.ndarray) -> np.ndarray:
        """``M^T y``: joint tensor ``sum_c y_c(lambda_c)``, added in context order."""
        out = np.zeros(self.joint_shape)
        for table in self.tables(stacked):
            out += table
        return out

    @cached_property
    def parity_classes(self) -> np.ndarray:
        """Each stacked row's parity class: ``2 c + s % 2`` for a row of context c
        whose outcome's digits sum to s.  On binary observables these are the
        context's even and odd outcomes, half its rows each."""
        return _frozen_array(np.concatenate([
            2 * ci + np.indices(shape).sum(axis=0).ravel() % 2
            for ci, shape in enumerate(self.context_shapes)
        ]), dtype=np.int64)

    @property
    def scans_whole_joint(self) -> bool:
        """Whether the joint has at most ``_SCAN_CELLS`` cells, so ``best_outcome`` scans it
        whole and the whole joint may be lifted."""
        return self._joint_dim <= _SCAN_CELLS

    @property
    def _elimination(self) -> tuple[_Step, ...]:
        """The steps of ``best_outcome`` (``_elimination_plan``) at the scan and
        bucket sizes of this call."""
        return _elimination_plan(self.joint_shape, self.contexts, _SCAN_CELLS, _BUCKET_CELLS)

    def best_outcome(self, y: np.ndarray, sense: str) -> tuple[float, tuple[int, ...]]:
        """Best score ``sum_c y_c(lambda_c)`` over joint outcomes lambda, and
        the digits of the first best outcome in row-major order.

        ``sense`` is "max" or "min".  One min-sum pass (``_min_sum``) over
        the index-order plan (``_elimination_plan``): the buckets eliminate
        the trailing observables, the scan scores every cell of the leading
        ones by its best completion, and the best cell's completion is
        decoded, parents first.  Each cell adds its context terms in context
        order, then its messages, a merged bucket's whole table in the place
        of its message, and every choice takes the first index among ties,
        so when nothing is eliminated the scores are ``lift(y)``.
        Refuses a ``y`` not shaped ``(dim,)``.
        """
        if sense not in ("max", "min"):
            raise InvalidBoxError(f"sense must be 'max' or 'min', got {sense!r}")
        steps = self._elimination
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise InvalidBoxError(f"stacked vector has shape {y.shape}, not ({self.dim},)")
        # Min-sum throughout; negation is exact, so ties stay ties.
        best, digits = _min_sum(steps, -y if sense == "max" else y, True)
        # A sum from +0.0 is never -0.0; summing from the first term instead
        # changes only the sign of a zero, which adding +0.0 undoes.
        best += 0.0
        return (-best if sense == "max" else best), tuple(digits)

    @cached_property
    def _sorted_rows(self) -> np.ndarray:
        """The stacked rows with each context's outcomes row-major in increasing
        observable order, the order of its table.  ``tables`` and ``marginals``
        read it even where the plan of ``best_outcome`` is refused."""
        cards = self.joint_shape
        return _frozen_array(np.concatenate([
            start + _cells(cards, tuple(sorted(c)), c) for c, start in zip(self.contexts, self.offsets)
        ]), dtype=np.int64)

    def rows(self, joint_indices) -> np.ndarray:
        """Stacked row hit in each context by each joint index: shape ``(..., n_contexts)``."""
        digits = np.unravel_index(np.asarray(joint_indices, dtype=np.int64), self.joint_shape)
        return self.digit_rows(np.moveaxis(np.array(digits, dtype=float), 0, -1))

    def digit_rows(self, digits) -> np.ndarray:
        """``rows`` of outcomes given by their digits, shape ``(..., n_observables)``.

        The float product is exact: every term is an integer below the stacked dimension.
        """
        local = np.asarray(digits, dtype=float) @ self._context_strides
        return local.astype(np.int64) + self.offsets[:-1]

    @cached_property
    def _context_strides(self) -> np.ndarray:
        """``(n_observables, n_contexts)``: observable i's stride in context c's
        row-major outcome index, 0 off the context."""
        out = np.zeros((len(self.joint_shape), len(self.contexts)))
        for ci, (ctx, shape) in enumerate(zip(self.contexts, self.context_shapes)):
            out[list(ctx), ci] = _row_major(shape)
        out.flags.writeable = False
        return out

    def columns(self, support) -> np.ndarray:
        """Dense ``M[support]`` as floats, on every joint index.

        Each context's table of flat row starts, plus the grid of column
        indices, scatters its 1s into a block of one row per support row and
        a spare last row, which takes the rows off the support and is
        dropped on return.
        """
        size = np.size(support)
        n = self._joint_dim
        # The flat position of each stacked row's first column.
        start = np.full(self.dim, size * n)
        start[support] = np.arange(size) * n
        grid = np.arange(n).reshape(self.joint_shape)
        out = np.zeros((size + 1) * n)
        for table in self.tables(start):
            out[(table + grid).ravel()] = 1
        return out[: size * n].reshape(size, n)

    def _fits(self, n_rows: int) -> bool:
        """Whether ``n_rows`` dense rows of M fit ``DENSE_ENTRIES_CAP``: the
        one reading of the cap, at call time, so a patch of it holds at once
        and leaves nothing cached behind."""
        return n_rows * self._joint_dim <= DENSE_ENTRIES_CAP

    @property
    def dense(self) -> np.ndarray | None:
        """All of M, ``columns`` on every stacked row, read-only, built once;
        None, with nothing built, where M has more than ``DENSE_ENTRIES_CAP``
        entries."""
        return self._dense if self._fits(self.dim) else None

    @cached_property
    def _dense(self) -> np.ndarray:
        out = self.columns(np.arange(self.dim))
        out.flags.writeable = False
        return out

    def dense_rows(self, support: np.ndarray) -> np.ndarray | None:
        """Dense ``M[support]`` (increasing rows): ``dense`` itself on every
        row, its rows where it is held, else built by ``columns``; None, with
        nothing built, where they have more than ``DENSE_ENTRIES_CAP`` entries."""
        if not self._fits(support.size):
            return None
        full = self.dense
        if full is None:
            return self.columns(support)
        return full if support.size == self.dim else full[support]

    def least_norm(self, u: np.ndarray) -> np.ndarray:
        """A stacked y with ``M^T y = M^+ u`` for u in M's range; no matrix is
        inverted.  ``M^+ M`` is ``sum_T mu(T) E_T`` over the context sets closed
        under intersection, E_T the mean over the cells off T and, from the
        largest T down, ``mu(T) = 1 - sum mu(T')`` over T's strict supersets
        (Moebius inversion, Rota 1964): 0 on a nested context, while disjoint
        contexts bring in the empty set, whose one cell is the total mass.  One
        ``bincount`` takes T's marginal from the first context that holds T, one
        puts it back on that context's rows, scaled by ``mu(T) cells(T) / joint_dim``."""
        rows, cells, size, scale = self._least_norm_index
        return np.bincount(rows, (scale * np.bincount(cells, u[rows], size))[cells], self.dim)

    def fit(self, b: np.ndarray, q: np.ndarray) -> tuple[np.ndarray | None, float]:
        """The positive flat joint ``q`` moved onto the stacked marginals b:
        ``(joint, 0.0)``, the joint normalized, where the result is
        nonnegative, else None and its negative mass; ``(None, inf)``, with no
        M built, where b has a zero entry or ``dense`` is None.

        Three moves.  One sweep of iterative proportional fitting on ``q``, in
        place: ``q <- q * (b_c / (M_c q)) @ M_c`` on each context's run of
        rows in turn, which keeps it positive and fits each context (Csiszar
        1975; Deming & Stephan 1940).  One multiplicative step in the
        exponential family, ``q <- q * exp(N z)`` with ``z = M^+ (b - M q)``
        and N the joint's size, its exponent clamped at ``_EXPONENT_CAP``.
        Then the orthogonal projection ``q - M^+ (M q - b)``, each ``M^+`` in
        closed form (``least_norm``, then M).  The step keeps q positive, so
        the projection moves less, and goes negative less often, than from
        the swept ``q`` itself.  A nonnegative result is a global section of
        the box b (Abramsky & Brandenburger 2011)."""
        if not b.min() > 0.0 or self.dense is None:
            return None, math.inf
        dense = self.dense
        for start, stop in zip(self.offsets, self.offsets[1:]):
            rows = dense[start:stop]
            q *= (b[start:stop] / (rows @ q)) @ rows
        z = self.least_norm(b - dense @ q) @ dense
        z *= q.size
        q = q * np.exp(np.minimum(z, _EXPONENT_CAP, out=z), out=z)
        q -= self.least_norm(dense @ q - b) @ dense
        if q.min() < 0.0:
            return None, -float(q[q < 0.0].sum())
        q /= q.sum()
        return q, 0.0

    @cached_property
    def _least_norm_index(self) -> tuple:
        """``least_norm``'s ``(rows, cells, size, scale)`` (``_marginal_index``), read-only."""
        sets = [frozenset(c) for c in self.contexts]
        closed: dict[frozenset[int], None] = {}
        for c in sets:
            closed.update(dict.fromkeys([c, *(c & t for t in closed)]))
        mu: dict[frozenset[int], int] = {}
        for t in sorted(closed, key=len, reverse=True):
            mu[t] = 1 - sum(m for s, m in mu.items() if t < s)
        kept = [t for t, m in mu.items() if m]
        homes = [(next(i for i, c in enumerate(sets) if t <= c), tuple(sorted(t))) for t in kept]
        rows, cells, firsts = _marginal_index(self.joint_shape, self.contexts, homes)
        widths = np.diff(firsts)
        scale = np.repeat([mu[t] * w / self._joint_dim for t, w in zip(kept, widths.tolist())], widths)
        return rows, cells, firsts[-1], _frozen_array(scale)

    @cached_property
    def junction_tree(self) -> "JunctionTree":
        """A junction tree of the observables (see ``JunctionTree``)."""
        return JunctionTree(self.joint_shape, self.contexts)

    @cached_property
    def _overlaps(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """``(a, b, shared observables in increasing order)`` for each pair of
        contexts that share an observable, ``a < b``, in lexicographic order:
        the pairs the consistency check compares."""
        out = []
        for a, b in itertools.combinations(range(len(self.contexts)), 2):
            shared = set(self.contexts[a]) & set(self.contexts[b])
            if shared:
                out.append((a, b, tuple(sorted(shared))))
        return tuple(out)

    @cached_property
    def _overlap_index(self) -> tuple:
        """Index arrays that give every overlapping pair's shared marginals from
        one ``bincount``: ``(rows, cells, size, left, right, starts)``, read-only.

        Each context's marginal on each observable set it shares with another
        context is made once, however many pairs share it, among the ``size``
        cells of all of them (``_marginal_index``).  Pair k of ``_overlaps``
        compares the cells ``left[starts[k]:starts[k + 1]]`` of its first
        context's marginal with the cells ``right[...]`` of its second's.  There
        is no array per pair, so the arrays are linear in the pairs' shared cells
        and in the contexts' rows times the marginals each gives.
        """
        cards, pairs = self.joint_shape, self._overlaps
        homes = list(dict.fromkeys((c, shared) for a, b, shared in pairs for c in (a, b)))
        rows, cells, firsts = _marginal_index(cards, self.contexts, homes)
        first = dict(zip(homes, firsts))
        widths = [math.prod(cards[i] for i in shared) for _, _, shared in pairs]
        starts = np.cumsum([0] + widths)
        within = np.arange(starts[-1]) - np.repeat(starts[:-1], widths)
        return (
            rows, cells, firsts[-1],
            _frozen_array(np.repeat([first[a, s] for a, _, s in pairs], widths) + within, np.int64),
            _frozen_array(np.repeat([first[b, s] for _, b, s in pairs], widths) + within, np.int64),
            _frozen_array(starts[:-1], dtype=np.int64),
        )


@functools.lru_cache(maxsize=64)
def _incidence(cards: tuple[int, ...], contexts: tuple[tuple[int, ...], ...]) -> ContextIncidence:
    """``Hypergraph.incidence``: one ``ContextIncidence`` per cardinalities and
    context list, made on first use and shared by every hypergraph with that
    key, built afresh or with other observable names.  It holds index data
    only, no box data: at most 8 MB of dense M (2^20 floats), a
    junction-tree LP of at most ``JOINT_DIM_CAP`` entries, and index arrays
    over its stacked rows, its pairs of contexts and their intersections.
    The cache holds 64 incidences, so 64 x 8 MB = 512 MB of dense matrices
    at the very most, plus those of any incidence that a live hypergraph
    still holds after its eviction.  One perfbench small-batch pass meets 54 context
    lists, so nothing there is evicted or rebuilt."""
    return ContextIncidence(cards, contexts)


def _min_fill(
    contexts: Sequence[Sequence[int]], cards: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """``(observable, its neighbours)`` per step of greedy min-fill elimination
    (Kjaerulff 1990): the observable whose neighbours (observables sharing a
    context) lack the fewest edges among themselves goes first (ties: fewest
    neighbour cells, then lowest index), and its neighbours are joined."""
    neighbours = [set() for _ in cards]
    for ctx in contexts:
        for i in ctx:
            neighbours[i].update(set(ctx) - {i})

    def score(v: int) -> tuple[int, int, int]:
        near = neighbours[v]
        fill = sum(b not in neighbours[a] for a, b in itertools.combinations(near, 2))
        return fill, math.prod(cards[i] for i in near), v

    steps, remaining = [], set(range(len(cards)))
    while remaining:
        v = min(remaining, key=score)
        remaining.remove(v)
        for i in neighbours[v]:
            neighbours[i] |= neighbours[v] - {i}
            neighbours[i].remove(v)
        steps.append((v, tuple(sorted(neighbours[v]))))
    return steps


class JunctionTree:
    """A junction tree of a hypergraph's observables, the cost LP on its clique
    tables, the least score that prices its duals, and the join tree.

    Eliminating an observable in min-fill order (``_min_fill``) makes a
    clique of it and its neighbours; the neighbours are its separator, and
    they lie in the clique of the first of them eliminated, its parent.  A
    parent that equals a child's separator gives its place to that child.
    The roots of separate components hang from the first by empty
    separators, so ``cliques[0]`` is the root and parents come first.  Each
    context's home is the clique of its first-eliminated observable, which
    holds it.  The LP's rows and ``min_score``'s steps, the min-fill plan of
    the min-sum pass that ``best_outcome`` runs in index order, are built on
    first use: min-fill keeps the tables narrow where index order can need
    a table over the cap.

    Nonnegative clique tables that agree on every separator are the clique
    marginals of a measure on the joint (Lauritzen & Spiegelhalter 1988), so
    the cost LP is exactly an LP on the tables.  A table is row-major over
    its clique: the separator's observables, then the others, each in
    increasing order; ``offsets`` places them in the LP's variables.  The
    LP's rows (``matrix``, compressed by row: starts, column indices,
    values) are first the ``n_agreements`` agreement rows, a child's table
    summed to each separator cell less its parent's, and then one row per
    stacked context outcome, in stacked order: the home's cells whose
    restriction to the context is that outcome.  Refuses, before any of
    them exists, an LP whose variables and matrix entries come to more than
    ``JOINT_DIM_CAP``, as a clique of more cells makes them.
    """

    def __init__(self, cards: tuple[int, ...], contexts: tuple[tuple[int, ...], ...]):
        self._cards, self._contexts = cards, contexts
        steps = _min_fill(contexts, cards)
        position = {v: i for i, (v, _) in enumerate(steps)}
        slot: dict[int, int] = {}
        taken: set[int] = set()
        cliques: list[set[int]] = []
        separators, parents = [], []
        # Last step first, so every parent comes before its children.
        for i in reversed(range(len(steps))):
            v, near = steps[i]
            p = min((position[u] for u in near), default=-1)
            if p >= 0 and p not in taken and len(near) == len(steps[p][1]) + 1:
                # p's clique is this separator: this clique takes p's place.
                taken.add(p)
                c = slot[p]
            else:
                c = len(cliques)
                cliques.append(set())
                separators.append(near)
                parents.append(slot[p] if p >= 0 else -1 if c == 0 else 0)
            cliques[c] |= {v, *near}
            slot[i] = c
        self.cliques = tuple(sep + tuple(sorted(c - set(sep))) for c, sep in zip(cliques, separators))
        self.separators, self.parents = tuple(separators), tuple(parents)
        self.homes = tuple(slot[min(position[v] for v in ctx)] for ctx in contexts)
        self._sizes = tuple(math.prod(cards[v] for v in clique) for clique in self.cliques)
        self.offsets = tuple(itertools.accumulate(self._sizes, initial=0))
        self.n_agreements = sum(math.prod(cards[v] for v in sep) for sep in self.separators[1:])

    @cached_property
    def join_tree(self) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
        """``Hypergraph.join_tree``, None unless every clique is a context homed there: an
        alpha-acyclic hypergraph's primal graph is chordal and each of its cliques lies in a
        context (Beeri, Fagin, Maier & Yannakakis 1983), so min-fill adds no fill, and a
        cyclic one leaves a clique in no context.  Each clique's own context comes first."""
        contexts = self._contexts
        whole = {h for h, ctx in zip(self.homes, contexts) if len(ctx) == len(self.cliques[h])}
        if len(whole) < len(self.cliques):
            return None
        order = sorted(range(len(contexts)), key=lambda ci: (self.homes[ci], -len(contexts[ci]), ci))
        seen: set[int] = set()
        tree = []
        for ci in order:
            tree.append((ci, tuple(sorted(seen.intersection(contexts[ci])))))
            seen.update(contexts[ci])
        return tuple(tree)

    @cached_property
    def _lp(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], tuple[_Step, ...]]:
        """``matrix``, and the steps of ``min_score``, one per clique, leaves
        first: each clique's separator then its other observables, the
        stacked rows of its contexts at its cells, and its children's
        messages.  Refuses the LP over the cap before any of it is built."""
        sizes, cards = self._sizes, self._cards
        # Variables, then matrix entries: a child's and its parent's cells per
        # agreement block, and the home's cells per context.
        size = 2 * sum(sizes) - sizes[0] + sum(sizes[p] for p in self.parents[1:])
        size += sum(sizes[home] for home in self.homes)
        if size > JOINT_DIM_CAP:
            raise CapExceededError(
                f"the junction-tree LP needs {size} variables and matrix entries, its largest "
                f"clique a table of {max(sizes)} cells, over the cap {JOINT_DIM_CAP}"
            )
        n, cliques = len(self.cliques), self.cliques
        blocks, rows, inbox, row = [], [[] for _ in range(n)], [[] for _ in range(n)], 0
        for c in range(1, n):
            separator, parent = self.separators[c], self.parents[c]
            up = _cells(cards, cliques[parent], separator)
            blocks += [(row + _cells(cards, cliques[c], separator), c, 1.0), (row + up, parent, -1.0)]
            inbox[parent].append((c, up))
            row += math.prod(cards[v] for v in separator)
        for home, ctx in zip(self.homes, self._contexts):
            outcome = _cells(cards, cliques[home], ctx)
            blocks.append((row + outcome, home, 1.0))
            rows[home].append(row - self.n_agreements + outcome)
            row += math.prod(cards[v] for v in ctx)
        at = np.concatenate([cells for cells, _, _ in blocks])
        order = np.argsort(at, kind="stable")
        columns = np.concatenate([self.offsets[c] + np.arange(cells.size) for cells, c, _ in blocks])
        values = np.concatenate([np.full(cells.size, sign) for cells, _, sign in blocks])
        starts = np.searchsorted(at[order], np.arange(row))
        matrix = starts.astype(np.int32), columns[order].astype(np.int32), values[order]
        for a in matrix:
            a.flags.writeable = False
        # Leaves first: each clique's message goes to the work vector after
        # the stacked scores, their 0.0 and its children's messages.
        zero = row - self.n_agreements
        steps, sent, slot = [], {}, zero + 1
        for c in reversed(range(n)):
            separator = self.separators[c]
            messages = [sent[child] + up for child, up in inbox[c]]
            steps.append(_step(cards, separator, cliques[c][len(separator):],
                               [(rows[c], messages)], zero, slot))
            sent[c] = slot
            slot += math.prod(cards[v] for v in separator)
        return matrix, tuple(steps)

    @property
    def matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The LP's rows (see the class docstring), read-only: equal hypergraphs share them."""
        return self._lp[0]

    def min_score(self, y: np.ndarray) -> float:
        """Least score ``sum_c y_c(lambda_c)`` over joint outcomes lambda, of a
        stacked ``y``: the value of one min-sum pass (``_min_sum``) over the
        cliques, leaves first, the root's message being the score."""
        return _min_sum(self._lp[1], y, False)[0]

    def peel(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Digits, shape ``(m, n_observables)``, and weights of assignments whose
        clique marginals make up the tables ``x``.

        Each step walks down the tree, taking in each clique the largest cell
        that agrees with its parent's: one assignment, weighted by the least
        of those cells, which is taken off each and so zeroes one.  Where
        rounding leaves a clique no positive cell that agrees, its parent's
        cell is zeroed instead.  Weights of 1e-12 or less are dropped.  The
        walk reads each clique's layout from its step of ``min_score``.
        """
        walk = []
        for c, step in enumerate(reversed(self._lp[1])):
            table = np.maximum(x[self.offsets[c]:self.offsets[c + 1]], 0.0)
            walk.append((table.reshape(-1, math.prod(step.shape)), step))
        digits = [0] * len(self._cards)
        found, weights = [], []
        while True:
            cells = []
            for table, step in walk:
                s = step.cell(digits)
                f = int(table[s].argmax())
                step.place(digits, f)
                cells.append((table, s, f, float(table[s, f])))
            short = [c for c, cell in enumerate(cells) if cell[3] <= 0.0]
            if short[:1] == [0]:
                break
            if short:
                table, s, f, _ = cells[self.parents[short[0]]]
                table[s, f] = 0.0
                continue
            w = min(mass for *_, mass in cells)
            for table, s, f, mass in cells:
                table[s, f] = mass - w if mass > w else 0.0
            if w > 1e-12:
                found.append(list(digits))
                weights.append(w)
        return np.array(found, dtype=np.int64).reshape(-1, len(self._cards)), np.array(weights)


@dataclass(frozen=True)
class DeterministicAssignment:
    """One fixed output per observable; the vertex data of the NC polytope."""

    outputs: tuple[int, ...]

    def __init__(self, outputs):
        object.__setattr__(self, "outputs", tuple(int(v) for v in outputs))

    @classmethod
    def _of(cls, outputs: tuple[int, ...]) -> "DeterministicAssignment":
        """The assignment of a tuple of Python ints, taken as is: no per-entry conversion."""
        self = object.__new__(cls)
        object.__setattr__(self, "outputs", outputs)
        return self

    def validate_for(self, hypergraph: Hypergraph) -> None:
        cards = hypergraph.cardinalities
        if len(self.outputs) != len(cards):
            raise InvalidBoxError(
                f"assignment has {len(self.outputs)} outputs for {len(cards)} observables"
            )
        for i, (v, d) in enumerate(zip(self.outputs, cards)):
            if not 0 <= v < d:
                raise InvalidBoxError(f"output {v} outside alphabet of observable {i}")


@dataclass(frozen=True, eq=False)
class Box:
    """One probability vector per context of a hypergraph.

    The constructor only fixes the structure (one float vector per context);
    normalization and shape are checked by :func:`validate_box`, which is
    report-style so that broken inputs (e.g. from files) can be diagnosed.

    A box and its arrays are immutable, so what is read off them alone is
    made once, on first use, and held as long as the box: the stacked
    vector, the largest shared-marginal distance, and, each by its one
    reader (``_held``), the validation report (``validate_box``) and the
    three joints it exhibits, each None where it has none: the
    junction-tree joint (``junction_tree_joint``), the parity mixture
    (``parity_mixture``) and the witness (``projected_joint``), all
    read-only.  The tree joint is the largest, one float per joint cell, at
    most ``JOINT_DIM_CAP`` of them (32 MB); the witness has one float per
    column of an M that fits ``DENSE_ENTRIES_CAP``, so at most 8 MB; the
    mixture holds one entry per stacked row and an index and a weight per
    assignment it mixes, at most two per joint cell.
    """

    hypergraph: Hypergraph
    distributions: tuple[np.ndarray, ...]

    def __init__(self, hypergraph: Hypergraph, distributions: Sequence):
        object.__setattr__(self, "hypergraph", hypergraph)
        dists = tuple(_frozen_array(d) for d in distributions)
        if len(dists) != hypergraph.n_contexts:
            raise InvalidBoxError(
                f"box needs {hypergraph.n_contexts} distributions, got {len(dists)}"
            )
        object.__setattr__(self, "distributions", dists)

    def context_tensor(self, ci: int) -> np.ndarray:
        return self.distributions[ci].reshape(self.hypergraph.context_shape(ci))

    def allclose(self, other: "Box", atol: float = 1e-12) -> bool:
        """Whether the boxes share a hypergraph and every entry is within
        ``atol`` (no relative tolerance); a NaN is never close.  The same
        hypergraph fixes the same layout, so the stacked vectors are compared
        in one pass."""
        if self.hypergraph != other.hypergraph:
            return False
        pairs = list(zip(self.distributions, other.distributions))
        if any(a.shape != b.shape for a, b in pairs):
            return False
        try:
            diff = self.stacked() - other.stacked()
        except InvalidBoxError:
            # Vectors not sized to their contexts: compare them as they are.
            diff = np.concatenate([(a - b).ravel() for a, b in pairs])
        return bool(np.abs(diff).max(initial=0.0) <= atol)

    def stacked(self) -> np.ndarray:
        """All context vectors concatenated in context order, read-only.

        Made once per box; refuses a box whose vectors are not sized to their
        contexts (see ``validate_box``).
        """
        return self._stacked

    @cached_property
    def _stacked(self) -> np.ndarray:
        stacked = self.hypergraph.incidence.stack(self.distributions)
        stacked.flags.writeable = False
        return stacked

    @cached_property
    def _max_shared_tv(self) -> float:
        return max((tv for *_, tv in _shared_marginal_tvs(self)), default=0.0)


def _held(build):
    """The one reader of what ``build`` makes of a box alone: made on the
    first read and held on the box, under the reader's name, for as long as
    the box lives, so every later read returns the same object.  Threads
    that race on a first read each build, and all return the value held
    first (``dict.setdefault`` is atomic).  The reader calls ``build`` as
    its ``__wrapped__``."""
    name = build.__name__

    @functools.wraps(build)
    def read(box: Box):
        held = vars(box)
        return held[name] if name in held else held.setdefault(name, read.__wrapped__(box))

    return read


@dataclass(frozen=True)
class BoxIssue:
    context: int | None
    kind: str
    detail: str


@dataclass(frozen=True)
class BoxValidationReport:
    ok: bool
    issues: tuple[BoxIssue, ...]


@_held
def validate_box(box: Box) -> BoxValidationReport:
    """Report-style check of the Box invariants (shape, nonnegativity, sums):
    each context's issues, in context order, its shape, or else its
    finiteness, or else its least entry and its sum.  Made once per box and
    held on it.

    Shapes are checked per context.  The vectors of the right shape, all of
    them being the stacked vector, are then read with one reduction for
    their minima and one for their sums; a NaN or an infinity fails one of
    the two tests, as an issue does.  Only a context that fails one is
    visited again, to word its issues.  The pass adds in another order than
    ``vec.sum()``, so it flags every sum off by half the tolerance, and the
    visit decides by ``vec.sum()``: two orders of adding at most 2^22
    entries, none below ``NEGATIVE_TOL``, differ by far less than that.
    """
    dims = box.hypergraph.incidence.dims
    fits = [vec.ndim == 1 and vec.size == dim for vec, dim in zip(box.distributions, dims)]
    good = [ci for ci, ok in enumerate(fits) if ok]
    flagged = [ci for ci, ok in enumerate(fits) if not ok]
    if good:
        if len(good) == len(fits):
            stacked = box.stacked()
        else:
            stacked = np.concatenate([box.distributions[ci] for ci in good])
        starts = list(itertools.accumulate((dims[ci] for ci in good[:-1]), initial=0))
        with np.errstate(invalid="ignore", over="ignore"):
            passed = (np.minimum.reduceat(stacked, starts) >= NEGATIVE_TOL) & (
                np.abs(np.add.reduceat(stacked, starts) - 1.0) <= 0.5 * NORMALIZATION_TOL)
        flagged += [good[k] for k in np.flatnonzero(~passed).tolist()]
    issues: list[BoxIssue] = []
    for ci in sorted(flagged):
        vec = box.distributions[ci]
        if not fits[ci]:
            issues.append(BoxIssue(ci, "shape", f"length {vec.size}, expected {dims[ci]}"))
            continue
        if not np.all(np.isfinite(vec)):
            issues.append(BoxIssue(ci, "nan", "non-finite entries"))
            continue
        if vec.min() < NEGATIVE_TOL:
            issues.append(BoxIssue(ci, "negative", f"min entry {float(vec.min())!r} below {NEGATIVE_TOL}"))
        with np.errstate(over="ignore"):
            total = float(vec.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            issues.append(BoxIssue(ci, "normalization", f"sums to {total!r}"))
    return BoxValidationReport(ok=not issues, issues=tuple(issues))


def require_valid(box: Box) -> None:
    report = validate_box(box)
    if not report.ok:
        lines = "; ".join(
            f"context {i.context}: {i.kind} ({i.detail})" for i in report.issues
        )
        raise InvalidBoxError(f"invalid box: {lines}")


@dataclass(frozen=True)
class ConsistencyViolation:
    context_a: int
    context_b: int
    shared: tuple[int, ...]
    distance: float


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    max_deviation: float
    violations: tuple[ConsistencyViolation, ...]


def _shared_marginal_tvs(box: Box):
    """``(a, b, shared observables, TV distance)`` per pair of overlapping
    contexts, every distance from one ``bincount`` (see ``_overlap_index``)."""
    op = box.hypergraph.incidence
    pairs = op._overlaps
    if not pairs:
        return
    rows, cells, size, left, right, starts = op._overlap_index
    marginals = np.bincount(cells, box.stacked()[rows], size)
    tvs = 0.5 * np.add.reduceat(np.abs(marginals[left] - marginals[right]), starts)
    for (a, b, shared), tv in zip(pairs, tvs.tolist()):
        yield a, b, shared, tv


def check_consistency(box: Box, tol: float = 1e-9) -> ConsistencyReport:
    """Pairwise shared-marginal agreement in total-variation distance.

    True iff for every pair of contexts with non-empty intersection the two
    marginals on the shared observables agree within ``tol``.  The largest
    distance is computed once per box and cached on it; the pairs are
    visited again only to list the violations when it exceeds ``tol``, which
    must be finite and nonnegative.
    """
    check_tolerance(tol)
    require_valid(box)
    worst = box._max_shared_tv
    violations = () if worst <= tol else tuple(
        ConsistencyViolation(a, b, shared, tv)
        for a, b, shared, tv in _shared_marginal_tvs(box)
        if tv > tol
    )
    return ConsistencyReport(
        consistent=not violations, max_deviation=worst, violations=violations
    )


def require_consistent(box: Box, tol: float = 1e-7) -> None:
    report = check_consistency(box, tol)
    if not report.consistent:
        raise InconsistentBoxError(
            f"box is inconsistent (max shared-marginal TV {report.max_deviation:.3e})"
        )


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability vector over the full product alphabet of a hypergraph."""

    hypergraph: Hypergraph
    probabilities: np.ndarray

    def __init__(self, hypergraph: Hypergraph, probabilities):
        object.__setattr__(self, "hypergraph", hypergraph)
        vec = probability_vector(probabilities, what="joint distribution")
        if vec.size != hypergraph.joint_dim:
            raise InvalidBoxError(
                f"joint has dimension {vec.size}, expected {hypergraph.joint_dim}"
            )
        object.__setattr__(self, "probabilities", vec)

    @classmethod
    def _of(cls, hypergraph: Hypergraph, probabilities: np.ndarray) -> "JointDistribution":
        """The joint of a nonnegative float vector of the joint's size that sums
        to 1, taken as is and made read-only: for vectors the library made."""
        self = object.__new__(cls)
        object.__setattr__(self, "hypergraph", hypergraph)
        probabilities.flags.writeable = False
        object.__setattr__(self, "probabilities", probabilities)
        return self

    def tensor(self) -> np.ndarray:
        return self.probabilities.reshape(self.hypergraph.joint_shape)


def marginal(joint: JointDistribution, subset: Sequence[int]) -> np.ndarray:
    """Exact marginal of ``joint`` on ``subset``, row-major in the given order."""
    subset = tuple(int(i) for i in subset)
    if not subset:
        raise InvalidBoxError("marginal subset must be non-empty")
    k = joint.hypergraph.n_observables
    if len(set(subset)) != len(subset) or any(i < 0 or i >= k for i in subset):
        raise InvalidBoxError(f"invalid marginal subset {subset}")
    kept = sorted(subset)
    summed = joint.tensor().sum(axis=tuple(i for i in range(k) if i not in subset))
    return np.transpose(summed, [kept.index(i) for i in subset]).reshape(-1)


def box_of_joint(joint: JointDistribution) -> Box:
    """The (non-contextual, hence consistent) box of marginals of ``joint``."""
    g = joint.hypergraph
    return Box(g, g.incidence.split(g.incidence.marginals(joint.probabilities)))


@_held
def junction_tree_joint(box: Box) -> np.ndarray | None:
    """The junction-tree joint of a box, as a flat read-only vector; None if
    its hypergraph is cyclic or its joint exceeds ``JOINT_DIM_CAP`` cells.

    The product over ``join_tree`` of each context's distribution
    conditioned on its separator, ``b_c(lambda_c | lambda_sep)``, with
    0/0 = 0; the tables come from one gather.  On an acyclic hypergraph
    every consistent box is the box of this joint (Vorob'ev 1962), so it is
    noncontextual; in floating point the marginals match to rounding, and
    callers certify what they report from the joint, not from the theorem.
    Made once per box and held on it.
    """
    g = box.hypergraph
    if g.joint_dim > JOINT_DIM_CAP or g.join_tree is None:
        return None
    tables = g.incidence.tables(box.stacked())
    joint = np.ones(g.joint_shape)
    for ci, separator in g.join_tree:
        table = tables[ci]
        free = tuple(i for i in g.contexts[ci] if i not in separator)
        given = table.sum(axis=free, keepdims=True)
        joint *= np.divide(table, given, out=np.zeros(table.shape), where=given > 0.0)
    joint = joint.reshape(-1)
    joint.flags.writeable = False
    return joint


def deterministic_box(assignment: DeterministicAssignment, g: Hypergraph) -> Box:
    """The box whose every context distribution is the point mass induced by ``assignment``."""
    assignment.validate_for(g)
    stacked = np.zeros(g.incidence.dim)
    stacked[g.incidence.digit_rows(assignment.outputs)] = 1.0
    return Box(g, g.incidence.split(stacked))


def mix(b1: Box, b2: Box, p: float) -> Box:
    """Context-wise convex combination ``p*b1 + (1-p)*b2``."""
    if b1.hypergraph != b2.hypergraph:
        raise HypergraphMismatchError("mix requires identical hypergraphs")
    if not 0.0 <= p <= 1.0:
        raise InvalidBoxError(f"mixing weight {p} outside [0, 1]")
    return Box(
        b1.hypergraph,
        [p * d1 + (1.0 - p) * d2 for d1, d2 in zip(b1.distributions, b2.distributions)],
    )


def parity_distribution(m: int, parity: int) -> np.ndarray:
    """Uniform distribution over m-bit strings of the given parity (0 or 1)."""
    if m < 1:
        raise InvalidBoxError("parity distribution needs m >= 1")
    idx = np.arange(2**m)
    bits = np.zeros(2**m, dtype=int)
    for b in range(m):
        bits += (idx >> b) & 1
    vec = np.where(bits % 2 == parity, 2.0 ** (1 - m), 0.0)
    return vec


def context_parities(box: Box) -> tuple[int | None, ...]:
    """Each context's parity: 0/1 if its distribution is P_even/P_odd within
    ``PARITY_TOL`` on every entry, even tried first, else None.

    A context with a non-binary observable reads None, and so does one with
    a NaN entry.  One pass over the stacked vector takes each context's
    largest deviation from both targets.
    """
    op = box.hypergraph.incidence
    # Every cardinality is at least 2, so a context of m observables is binary
    # iff it has 2^m outcomes; P_even is then 2 / 2^m on its even outcomes and
    # 0 on its odd ones.
    dims = np.array(op.dims)
    odd = op.parity_classes % 2 == 1
    mass = np.repeat(2.0 / dims, dims)
    stacked, starts = box.stacked(), op.offsets[:-1]
    far_even = np.maximum.reduceat(np.abs(stacked - np.where(odd, 0.0, mass)), starts)
    far_odd = np.maximum.reduceat(np.abs(stacked - np.where(odd, mass, 0.0)), starts)
    # A NaN makes a maximum NaN, which compares false.
    return tuple(
        None if dim != 2 ** len(ctx) else 0 if e <= PARITY_TOL else 1 if o <= PARITY_TOL else None
        for ctx, dim, e, o in zip(op.contexts, op.dims, far_even.tolist(), far_odd.tolist())
    )


class ParityMixture(NamedTuple):
    """A binary box flat on each context's parity classes (see ``parity_mixture``)."""

    heavier: np.ndarray  # 1 on the stacked rows of each context's heavier class, else 0
    isotropic: bool  # every context's heavier-class mass is one alpha, within PARITY_FLAT_TOL
    top: float  # max beta
    columns: np.ndarray  # joint indices of the mixture
    weights: np.ndarray  # their weights, which sum to 1


@_held
def parity_mixture(box: Box) -> ParityMixture | None:
    """The parity classification of a binary box, and its symmetric mixture;
    None unless every observable is binary and each context's even outcomes
    are equally likely, and so are its odd ones, within ``PARITY_FLAT_TOL``.

    These are the isotropic PR, chained, Peres-Mermin and Mermin boxes and
    everything twirling maps onto them (Masanes, Acin & Gisin 2006).  With
    y the indicator of each context's heavier class (even on a tie),
    ``lift(y)`` scores every assignment D by the number beta_D of contexts
    it hits in that class.  The mixture ``t U(max beta) + (1 - t) U(min beta)``
    of the uniform distributions on the assignments of highest and lowest
    beta puts the box's heavier-class mass on those classes in total, with
    t clipped to [0, 1]: when every context's heavier mass is one alpha,
    that is alpha clipped to the noncontextual interval
    ``[min beta / n, max beta / n]``.  ``polytope._parity_cost`` takes it as
    the cost's witness, and the entropy measures as their isotropic start.
    Made once per box and held on it, its arrays read-only.
    """
    g = box.hypergraph
    if any(d != 2 for d in g.cardinalities):
        return None
    incidence = g.incidence
    stacked = box.stacked()
    classes = incidence.parity_classes
    n = g.n_contexts
    mass = np.bincount(classes, weights=stacked, minlength=2 * n)
    mean = mass / np.bincount(classes, minlength=2 * n)
    if np.abs(stacked - mean[classes]).max() > PARITY_FLAT_TOL:
        return None
    heavier = np.empty(2 * n, dtype=bool)
    heavier[0::2] = mass[0::2] >= mass[1::2]
    heavier[1::2] = ~heavier[0::2]
    y = heavier[classes].astype(float)
    beta = incidence.lift(y).ravel()
    top, bottom = float(beta.max()), float(beta.min())
    t = 1.0
    if top > bottom:
        t = min(1.0, max(0.0, (float(mass[heavier].sum()) - bottom) / (top - bottom)))
    highest, lowest = np.flatnonzero(beta == top), np.flatnonzero(beta == bottom)
    weights = np.concatenate([np.full(highest.size, t / highest.size),
                              np.full(lowest.size, (1.0 - t) / lowest.size)])
    isotropic = bool(np.ptp(mass[heavier]) <= PARITY_FLAT_TOL)
    columns = np.concatenate([highest, lowest])
    for a in (y, columns, weights):
        a.flags.writeable = False
    return ParityMixture(y, isotropic, top, columns, weights)


@_held
def projected_joint(box: Box) -> np.ndarray | None:
    """The box's witness: a flat read-only joint with its context marginals,
    or None.

    ``ContextIncidence.fit`` runs from the uniform joint, at most
    ``_WITNESS_SWEEPS`` times, each sweep continuing from the last; the first
    joint it returns is the witness, a global section of the box.  The route
    gives up at a try that misses by at least ``CONTEXTUAL_MISS`` of negative
    mass and by at least half the try before: a contextual box's miss
    stalls, and a noncontextual box's shrinks from sweep to sweep.  None,
    before the uniform joint is allocated, where the box has a zero entry or
    its M exceeds ``DENSE_ENTRIES_CAP``.  Only M and the box enter, so no
    weights do.

    Every measure reads this one joint: the entropy solver tries it at its
    first iteration, in place of a projection of its own, and
    ``polytope.contextuality_cost`` certifies a cost of 0 from it.  Nothing
    rests on the route: each keeps only what its own certificate proves.
    Made once per box and held on it.
    """
    g, b = box.hypergraph, box.stacked()
    if not b.min() > 0.0 or g.incidence.dense is None:
        return None
    q = np.full(g.joint_dim, 1.0 / g.joint_dim)
    last = math.inf
    for _ in range(_WITNESS_SWEEPS):
        joint, miss = g.incidence.fit(b, q)
        if joint is not None:
            joint.flags.writeable = False
            return joint
        if miss >= CONTEXTUAL_MISS and miss >= 0.5 * last:
            return None
        last = miss
    return None


def opposite(box: Box) -> Box:
    """Swap P_even and P_odd on every context of an xor-box, whose contexts
    may differ in size; refuses, naming it, the first context that
    ``context_parities`` reads as neither."""
    require_valid(box)
    parities = context_parities(box)
    if None in parities:
        raise NotXorBoxError(
            f"context {parities.index(None)} is not a parity-class distribution; opposite() needs an xor-box"
        )
    return Box(box.hypergraph, [parity_distribution(len(ctx), 1 - parity)
                                for ctx, parity in zip(box.hypergraph.contexts, parities)])


def _merged_observables(g1: Hypergraph, g2: Hypergraph) -> tuple[tuple[str, int], ...]:
    """Union observable list; name collisions get deterministic '#1'/'#2' suffixes."""
    collisions = set(g1.names) & set(g2.names)
    obs1 = [
        (f"{name}#1" if name in collisions else name, card) for name, card in g1.observables
    ]
    obs2 = [
        (f"{name}#2" if name in collisions else name, card) for name, card in g2.observables
    ]
    return tuple(obs1 + obs2)


def direct_sum(b1: Box, b2: Box) -> Box:
    """Disjoint union of hypergraphs; contexts concatenated, b1's first."""
    g1, g2 = b1.hypergraph, b2.hypergraph
    off = g1.n_observables
    g = Hypergraph(
        _merged_observables(g1, g2),
        tuple(g1.contexts) + tuple(tuple(i + off for i in c) for c in g2.contexts),
    )
    return Box(g, list(b1.distributions) + list(b2.distributions))


def split_components(box: Box) -> tuple[tuple[Box, tuple[int, ...]], ...]:
    """The box on each connected component of its hypergraph, with the
    indices of that component's contexts in the box: ``direct_sum`` undone,
    up to the names it suffixed.  A component keeps its observables and
    contexts in the box's order, so each table is the box's own; nothing is
    validated again, and equal hypergraphs share the components'
    hypergraphs.  ``x_fixed`` and ``x_max`` solve a cyclic sum's components
    apart, and report their summed iterations and no trace."""
    g = box.hypergraph
    parts = _component_graphs(g.observables, g.contexts)
    return tuple((Box(sub, [box.distributions[ci] for ci in members]), members) for sub, members in parts)


@functools.lru_cache(maxsize=256)
def _component_graphs(observables: tuple, contexts: tuple) -> tuple[tuple[Hypergraph, tuple[int, ...]], ...]:
    """``split_components``' hypergraphs and context indices, made once per
    observable and context list; the cache holds no box data."""
    comps = Hypergraph(observables, contexts).components
    members = [tuple(ci for ci, ctx in enumerate(contexts) if ctx[0] in comp) for comp in comps]
    return tuple(
        (Hypergraph([observables[i] for i in comp], [[comp.index(i) for i in contexts[ci]] for ci in cis]), cis)
        for comp, cis in zip(comps, members)
    )


def tensor(b1: Box, b2: Box) -> Box:
    """Tensor product: contexts are all unions of context pairs, product distributions."""
    g1, g2 = b1.hypergraph, b2.hypergraph
    off = g1.n_observables
    contexts = []
    dists = []
    for c1, d1 in zip(g1.contexts, b1.distributions):
        for c2, d2 in zip(g2.contexts, b2.distributions):
            contexts.append(tuple(c1) + tuple(i + off for i in c2))
            dists.append(np.kron(d1, d2))
    g = Hypergraph(_merged_observables(g1, g2), contexts)
    return Box(g, dists)


ChannelMixture = Sequence[tuple[float, Sequence[np.ndarray]]]


def apply_independent_channels(box: Box, mixture: ChannelMixture) -> Box:
    """Apply a probabilistic mixture of independent per-observable channels.

    Each mixture term is ``(weight, [T_0, ..., T_{k-1}])`` where ``T_i`` is a
    column-stochastic matrix on observable i's alphabet (``T[y, x] = P(y|x)``).
    Such maps are linear, preserve consistency, and map non-contextual boxes
    to non-contextual boxes.
    """
    require_valid(box)
    g = box.hypergraph
    probability_vector([w for w, _ in mixture], what="channel mixture weights")
    for _, mats in mixture:
        if len(mats) != g.n_observables:
            raise InvalidBoxError("each mixture term needs one channel per observable")
        for i, t in enumerate(mats):
            t = np.asarray(t, dtype=float)
            d = g.cardinalities[i]
            if t.shape != (d, d):
                raise InvalidBoxError(f"channel for observable {i} has shape {t.shape}")
            if np.any(t < -1e-12) or not np.allclose(t.sum(axis=0), 1.0, atol=1e-9):
                raise InvalidBoxError(f"channel for observable {i} is not column-stochastic")
    new_dists = [np.zeros_like(d) for d in box.distributions]
    for w, mats in mixture:
        for ci, ctx in enumerate(g.contexts):
            t = box.context_tensor(ci)
            for axis, i in enumerate(ctx):
                t = np.moveaxis(
                    np.tensordot(np.asarray(mats[i], dtype=float), t, axes=([1], [axis])),
                    0,
                    axis,
                )
            new_dists[ci] = new_dists[ci] + w * t.reshape(-1)
    return Box(g, new_dists)

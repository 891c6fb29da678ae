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
from typing import Iterable, Sequence

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
# allocates, and the largest table ``ContextIncidence.extremum`` builds.
JOINT_DIM_CAP = 2**22
# Cells of the leading observables that ``ContextIncidence.extremum`` scores
# outright, each by its best completion; the trailing observables are
# eliminated, keeping the m best completions per cell.  Joints of at most
# this many cells are scanned whole.  On CH(14) to CH(20), a scan of 2^10
# cells and a few width-2 buckets took 17-57% less time than one of 2^14,
# from one outcome to twice the stacked rows.
_SCAN_CELLS = 2**10


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
    def context_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c) for c in self.contexts)

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
        """The context-incidence operator of this hypergraph, built once."""
        return ContextIncidence(self)

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

    @property
    def join_tree(self) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
        """``(context index, separator)`` pairs in running-intersection order,
        or None if the hypergraph is cyclic.

        Each context's separator is its set of observables (in increasing
        order) shared with the contexts before it, and one of those contains
        it all, so the product of each context's conditional on its separator
        has every context marginal of a consistent box (see ``_join_tree``).
        """
        return _join_tree(self.contexts, self.n_observables)

    @cached_property
    def _context_index(self) -> dict[frozenset[int], int]:
        return {s: ci for ci, s in enumerate(self.context_sets)}

    def find_context(self, observables: Iterable[int]) -> int:
        """Index of the context equal (as a set) to ``observables``; -1 if absent."""
        return self._context_index.get(frozenset(observables), -1)


@functools.lru_cache(maxsize=256)
def _join_tree(contexts: tuple[tuple[int, ...], ...], n_observables: int) -> tuple | None:
    """``Hypergraph.join_tree`` of a context list, by GYO ear removal
    (Graham 1979; Yu & Ozsoyoglu 1979).

    A context is an ear when the observables it shares with the other
    remaining contexts lie in one of them (a context inside another is one).
    Ears are removed, first index first, until one context is left, and the
    order is reversed.  Removing an ear keeps an acyclic hypergraph acyclic,
    so the greedy order fails only on a cyclic one.  Made once per context
    list, so boxes on one hypergraph (or on equal ones) share it.
    """
    sets = [frozenset(c) for c in contexts]
    holders: list[set[int]] = [set() for _ in range(n_observables)]
    for ci, ctx in enumerate(sets):
        for i in ctx:
            holders[i].add(ci)
    remaining = set(range(len(sets)))
    removed: list[tuple[int, tuple[int, ...]]] = []
    while len(remaining) > 1:
        for ci in sorted(remaining):
            shared = [i for i in sets[ci] if len(holders[i]) > 1]
            if not shared:
                break
            # A context holding every shared observable holds the first.
            if any(ci != f and sets[f].issuperset(shared) for f in holders[shared[0]]):
                break
        else:
            return None
        remaining.remove(ci)
        for i in sets[ci]:
            holders[i].remove(ci)
        removed.append((ci, tuple(sorted(shared))))
    (last,) = remaining
    return ((last, ()),) + tuple(reversed(removed))


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidBoxError(f"tolerance must be finite and nonnegative, got {tol!r}")


def check_joint_dim(g: Hypergraph, cap: int = JOINT_DIM_CAP) -> None:
    """Refuse, before any allocation, a hypergraph whose joint tensor exceeds ``cap`` cells."""
    if g.joint_dim > cap:
        raise CapExceededError(f"joint dimension {g.joint_dim} exceeds cap {cap}")


@dataclass(frozen=True)
class _Bucket:
    """A sum of context tables and messages over the observables of ``scope``.

    ``shape`` is the joint shape with 1 off the scope, so every context table
    (``ContextIncidence.tables``) and every message (kept with its
    eliminated axis) adds in by broadcasting.  ``contexts`` and ``messages``
    index the context tables and the earlier buckets' messages it adds.
    """

    scope: tuple[int, ...]
    shape: tuple[int, ...]
    contexts: tuple[int, ...]
    messages: tuple[int, ...]

    @cached_property
    def axes(self) -> np.ndarray:
        return np.array(self.scope, dtype=np.int64)

    @cached_property
    def radices(self) -> np.ndarray:
        return np.array([self.shape[i] for i in self.scope], dtype=np.int64)

    @cached_property
    def strides(self) -> np.ndarray:
        """A cell's index over the scope is ``digits[axes] @ strides``."""
        return _row_major(self.radices)

    def table(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        """The sum of the bucket's context tables, added in context order."""
        out = np.zeros(self.shape)
        for ci in self.contexts:
            out += tables[ci]
        return out

    def total(
        self, tables: Sequence[np.ndarray], lists: Sequence[np.ndarray], m: int
    ) -> tuple[np.ndarray, list]:
        """The ``m`` smallest sums per cell, ascending along a last axis, and how each was made.

        A sum takes ``table`` and one entry of each message's list; the
        second value holds each message's ``_add_lists`` record, in order.
        """
        out = self.table(tables)[..., None]
        steps = []
        for k in self.messages:
            out, step = _add_lists(out, lists[k], m)
            steps.append(step)
        return out, steps


def _row_major(radices: Sequence[int]) -> np.ndarray:
    """Multipliers that turn digits over ``radices`` into a row-major index."""
    return np.cumprod(np.concatenate(([1], radices[:0:-1])), dtype=np.int64)[::-1]


def _smallest(values: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` smallest entries of each row, ascending, and their positions.

    Ties keep the first position, so with ``m`` 1 these are ``min`` and ``argmin``.
    """
    if m == 1:
        return values.min(axis=1, keepdims=True), values.argmin(axis=1)[:, None]
    order = np.argsort(values, axis=1, kind="stable")[:, :m]
    return values[np.arange(len(values))[:, None], order], order


@functools.lru_cache(maxsize=1024)
def _pairs(a: int, b: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks ``(i, j)`` in two ascending lists of ``a`` and ``b`` entries with ``(i+1)(j+1) <= m``.

    The sum at ``(i, j)`` is at least each sum at ``(i', j')`` with ``i' <= i``
    and ``j' <= j``, so the ``m`` smallest sums lie among these pairs, which
    number at most ``_pair_bound(m)``.  In ``i``-major order.
    """
    i = np.arange(min(a, m))
    lengths = np.minimum(b, m // (i + 1))
    left = np.repeat(i, lengths)
    right = np.arange(left.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    left.flags.writeable = right.flags.writeable = False
    return left, right


@functools.lru_cache(maxsize=1024)
def _pair_bound(m: int) -> int:
    """Most pairs ``_pairs`` returns for ``m``: the positive ``(i, j)`` with ``i * j <= m``."""
    return int((m // np.arange(1, m + 1)).sum())


def _add_lists(left: np.ndarray, right: np.ndarray, m: int) -> tuple[np.ndarray, tuple]:
    """The ``m`` smallest sums of one entry of ``left`` and one of ``right``, per cell.

    Both lists run along the last axis, ascending, and so does the result.
    Also returns the record ``(i, j, order)`` that decodes result rank ``t``
    at a cell: it adds rank ``i[q]`` of ``left`` to rank ``j[q]`` of
    ``right``, with ``q = order[cell, t]``, or ``q = t`` when ``order`` is None.
    """
    a, b = left.shape[-1], right.shape[-1]
    i, j = _pairs(a, b, m)
    if a == 1 or b == 1:
        # One list is a constant per cell, and adding it keeps the other's order.
        return left[..., :m] + right[..., :m], (i, j, None)
    sums = left[..., i] + right[..., j]
    smallest, order = _smallest(sums.reshape(-1, i.size), m)
    return smallest.reshape(sums.shape[:-1] + (-1,)), (i, j, order)


def _unwind(steps, messages: Sequence[int], t, cell: np.ndarray, ranks: list) -> None:
    """Set in ``ranks`` the rank of each message behind rank ``t`` of a bucket's list."""
    for (i, j, order), k in zip(steps[::-1], messages[::-1]):
        q = t if order is None else order[cell, t]
        ranks[k], t = j[q], i[q]


class ContextIncidence:
    """The context-incidence map M of a hypergraph.

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
    ``rows`` maps joint indices to their rows through their digits.
    ``columns`` builds dense rows of M, on every joint index, only for the
    caller that asks for them (the entropy solver on small boxes), and the
    cost LP takes its rows from ``rows``.  This is the only code that knows
    the stacked layout.

    ``extremum`` finds the best joint outcomes lambda of a score
    ``sum_c y_c(lambda_c)`` without building the joint tensor: it scans the
    leading observables and eliminates the trailing ones by m-best bucket
    elimination (Dechter 1999; Flerova, Marinescu & Dechter 2016), whose
    tables grow with the induced width of the hypergraph (2 for a chain) and
    the number of outcomes asked for, not with the joint dimension.
    """

    def __init__(self, g: Hypergraph):
        cards = g.cardinalities
        self.joint_shape = cards
        self._joint_dim = g.joint_dim
        self.contexts = g.contexts
        self.context_shapes = tuple(tuple(cards[i] for i in ctx) for ctx in g.contexts)
        self.dims = tuple(map(math.prod, self.context_shapes))
        self.offsets = tuple(itertools.accumulate(self.dims, initial=0))
        self.dim = self.offsets[-1]
        # Each context's table shape, and the axes its marginal sums out.
        self._table_shapes = tuple(
            tuple(d if i in ctx else 1 for i, d in enumerate(cards)) for ctx in g.contexts
        )
        self._summed = tuple(tuple(i for i in range(len(cards)) if i not in c) for c in g.contexts)

    def stack(self, parts: Sequence) -> np.ndarray:
        """One vector per context, concatenated in context order (inverse of ``split``)."""
        if len(parts) != len(self.dims) or any(np.size(v) != d for v, d in zip(parts, self.dims)):
            raise InvalidBoxError("need one vector per context, sized to its outcome space")
        return np.concatenate([np.asarray(v, dtype=float).ravel() for v in parts])

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
    def _elimination(self) -> tuple[_Bucket, tuple[_Bucket, ...]]:
        """The scanned prefix and the buckets that eliminate the other observables.

        The prefix is the longest run of leading observables with at most
        ``_SCAN_CELLS`` cells.  The others are eliminated last index first:
        each bucket sums the contexts and messages whose highest observable
        it eliminates, so that observable is the last of the bucket's scope
        and every other one in it is decoded before it.  Refuses, before any
        table exists, a plan whose largest table, the prefix's included,
        exceeds ``JOINT_DIM_CAP`` cells, and a joint of 2^63 cells or more,
        whose indices overflow int64.
        """
        cards = self.joint_shape
        if math.prod(cards) >= 2**63:
            raise CapExceededError(f"joint dimension {math.prod(cards)} overflows a joint index")
        prefix = sum(cells <= _SCAN_CELLS for cells in itertools.accumulate(cards, operator.mul))

        def home(scope: Sequence[int]) -> int:
            """The bucket of a term: its highest observable, or -1 (the prefix)."""
            top = max(scope, default=-1)
            return top if top >= prefix else -1

        def bucket(scope: Sequence[int], contexts: list[int], messages: list[int]) -> _Bucket:
            shape = tuple(d if i in scope else 1 for i, d in enumerate(cards))
            if math.prod(shape) > JOINT_DIM_CAP:
                raise CapExceededError(
                    f"eliminating observable {scope[-1]} needs a table of {math.prod(shape)} "
                    f"cells, over the cap {JOINT_DIM_CAP}"
                )
            return _Bucket(tuple(scope), shape, tuple(contexts), tuple(messages))

        # Contexts and messages waiting in each bucket.
        pending: dict[int, tuple[list, list]] = {v: ([], []) for v in range(-1, len(cards))}
        for ci, ctx in enumerate(self.contexts):
            pending[home(ctx)][0].append(ci)
        buckets: list[_Bucket] = []
        for v in range(len(cards) - 1, prefix - 1, -1):
            contexts, messages = pending[v]
            scope = sorted(set().union(
                *(self.contexts[ci] for ci in contexts), *(buckets[m].scope[:-1] for m in messages)
            ))
            buckets.append(bucket(scope, contexts, messages))
            pending[home(scope[:-1])][1].append(len(buckets) - 1)
        return bucket(range(prefix), *pending[-1]), tuple(buckets)

    def extremum(self, y: np.ndarray, sense: str, count: int = 1) -> tuple[float, np.ndarray]:
        """Best score ``sum_c y_c(lambda_c)`` over joint outcomes lambda, and where.

        ``sense`` is "max" or "min".  Returns the best score and the joint
        indices of the ``count`` best joint outcomes (all of them, if fewer),
        by m-best bucket elimination (Nilsson 1998; Flerova, Marinescu &
        Dechter 2016): each bucket keeps, per cell of its scope, the ``m``
        best partial scores and where each came from.  The scan scores every
        prefix (see ``_elimination``) by its best completion and keeps the
        ``count`` best, which hold the prefixes of the ``count`` best
        outcomes up to ties; their lists are merged and the best ``count``
        decoded.  ``m`` is ``count``, or less where a merge of two lists
        would exceed ``JOINT_DIM_CAP`` entries; then the best score is still
        exact, but fewer candidates may come back, and they need not be the
        next best.  Every choice takes the first index among ties, so with
        ``count`` 1 the candidate is the first optimum in row-major order.
        When nothing is eliminated, the scores are ``lift(y)`` and the
        candidates are its first best entry (``count`` 1) or its
        ``argpartition``.  Refuses a ``y`` not shaped ``(dim,)`` and a
        ``count`` that is not an integer of at least 1.
        """
        if sense not in ("max", "min"):
            raise InvalidBoxError(f"sense must be 'max' or 'min', got {sense!r}")
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise InvalidBoxError(f"count must be an integer >= 1, got {count!r}")
        prefix, buckets = self._elimination
        y = np.asarray(y, dtype=float)
        # Min-sum throughout; negation is exact, so ties stay ties.
        tables = self.tables(-y if sense == "max" else y)
        ctx = prefix.table(tables)
        count_p = min(count, ctx.size)
        m = self._ranks(count, count_p)
        lists: list[np.ndarray] = []
        records = []
        cards = self.joint_shape
        for b in buckets:
            # Eliminate v, the last of the scope: rank r of value d sits at d * k + r.
            values, steps = b.total(tables, lists, m)
            v, k = b.scope[-1], values.shape[-1]
            message, choice = _smallest(values.reshape(-1, cards[v] * k), m)
            lists.append(message.reshape(b.shape[:v] + (1,) * (len(cards) - v) + (-1,)))
            records.append((steps, choice, k))
        scores = ctx
        for k in prefix.messages:
            scores = scores + lists[k][..., 0]
        scores, ctx = scores.ravel(), ctx.ravel()
        if count_p > 1:
            picked = np.argpartition(scores, count_p - 1)[:count_p]
        else:
            picked = scores.argmin(keepdims=True)
        if not buckets:
            best = float(scores[picked].min())
            return (-best if sense == "max" else best), picked
        # The picked prefixes' lists, merged; their best count are decoded.
        # Digits not yet decoded are 0, so a bucket's index over its scope,
        # taken before its own observable is decoded, is its parents' index
        # times that observable's cardinality.
        digits = np.zeros((count_p, len(cards)), dtype=np.int64)
        scanned = len(prefix.scope)
        if scanned:
            digits[:, :scanned] = np.transpose(np.unravel_index(picked, cards[:scanned]))
        values, steps = ctx[picked][:, None], []
        for k in prefix.messages:
            b = buckets[k]
            at = digits[:, b.axes] @ b.strides // cards[b.scope[-1]]
            values, step = _add_lists(values, lists[k].reshape(-1, lists[k].shape[-1])[at], m)
            steps.append(step)
        flat = values.ravel()
        if count >= flat.size:
            chosen = np.arange(flat.size)
        else:
            chosen = np.argpartition(flat, count - 1)[:count]
        best = float(flat[chosen].min())
        best = -best if sense == "max" else best
        # Decode the eliminated observables in index order, parents first.
        p, t = np.divmod(chosen, values.shape[-1])
        digits = digits[p]
        ranks: list = [None] * len(buckets)
        _unwind(steps, prefix.messages, t, p, ranks)
        for bi in reversed(range(len(buckets))):
            (steps, choice, k), b = records[bi], buckets[bi]
            v = b.scope[-1]
            at = digits[:, b.axes] @ b.strides
            digits[:, v], t = np.divmod(choice[at // cards[v], ranks[bi]], k)
            _unwind(steps, b.messages, t, at + digits[:, v], ranks)
        return best, digits @ self._strides

    @cached_property
    def _strides(self) -> np.ndarray:
        return _row_major(self.joint_shape)

    def _ranks(self, count: int, prefixes: int) -> int:
        """Entries per list: ``count``, or the most that keep every list merge within the cap.

        A merge sums at most ``_pair_bound(m)`` pairs in each cell of a
        bucket, or of each of the ``prefixes`` picked prefixes.
        """
        _, buckets = self._elimination
        if count == 1 or not buckets:
            return 1
        cells = max(prefixes, *(math.prod(b.shape) for b in buckets))
        if _pair_bound(count) * cells <= JOINT_DIM_CAP:
            return count
        lo, hi = 1, count
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _pair_bound(mid) * cells <= JOINT_DIM_CAP:
                lo = mid
            else:
                hi = mid - 1
        return lo

    @cached_property
    def _sorted_rows(self) -> np.ndarray:
        """The stacked rows with each context's outcomes row-major in increasing
        observable order, the order of its table."""
        parts = zip(self.contexts, self.context_shapes, self.offsets, self.offsets[1:])
        return np.concatenate([
            np.arange(a, b).reshape(s).transpose(sorted(range(len(c)), key=c.__getitem__)).ravel()
            for c, s, a, b in parts
        ])

    def rows(self, joint_indices) -> np.ndarray:
        """Stacked row hit in each context by each joint index: shape ``(..., n_contexts)``."""
        digits = np.unravel_index(np.asarray(joint_indices, dtype=np.int64), self.joint_shape)
        return self._digit_rows(np.moveaxis(np.array(digits, dtype=float), 0, -1))

    def _digit_rows(self, digits) -> np.ndarray:
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
        return out

    def columns(self, support) -> np.ndarray:
        """Dense ``M[support]`` on every joint index.

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
            out[(table + grid).ravel()] = 1.0
        return out[: size * n].reshape(size, n)


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
        if self.hypergraph != other.hypergraph:
            return False
        return all(
            a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=atol)
            for a, b in zip(self.distributions, other.distributions)
        )

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

    # A box and its arrays are immutable, so each check runs once per box.
    @cached_property
    def _validation(self) -> BoxValidationReport:
        return _validation_report(self)

    @cached_property
    def _max_shared_tv(self) -> float:
        return max((tv for *_, tv in _shared_marginal_tvs(self)), default=0.0)


@dataclass(frozen=True)
class BoxIssue:
    context: int | None
    kind: str
    detail: str


@dataclass(frozen=True)
class BoxValidationReport:
    ok: bool
    issues: tuple[BoxIssue, ...]


def validate_box(box: Box) -> BoxValidationReport:
    """Report-style check of the Box invariants (shape, nonnegativity, sums).

    The report is computed once per box and cached on it.
    """
    return box._validation


def _validation_report(box: Box) -> BoxValidationReport:
    issues: list[BoxIssue] = []
    for ci in range(box.hypergraph.n_contexts):
        vec = box.distributions[ci]
        expected = box.hypergraph.context_dim(ci)
        if vec.ndim != 1 or vec.size != expected:
            issues.append(
                BoxIssue(ci, "shape", f"length {vec.size}, expected {expected}")
            )
            continue
        if not np.all(np.isfinite(vec)):
            issues.append(BoxIssue(ci, "nan", "non-finite entries"))
            continue
        if np.any(vec < NEGATIVE_TOL):
            issues.append(
                BoxIssue(ci, "negative", f"min entry {float(vec.min())!r} below {NEGATIVE_TOL}")
            )
        total = float(vec.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            issues.append(
                BoxIssue(ci, "normalization", f"sums to {total!r}")
            )
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


@functools.lru_cache(maxsize=256)
def _overlaps(contexts: tuple[tuple[int, ...], ...]) -> tuple:
    """``(a, b, shared observables, a's others, b's others)`` for each pair of
    contexts that share an observable; summing its others out of a context's
    table leaves its marginal on the shared observables, in one shape for both.

    Made once per context list, so boxes on one hypergraph (or on equal
    ones) share it; the cache holds axes only, no box data.
    """
    out = []
    for a, b in itertools.combinations(range(len(contexts)), 2):
        sa, sb = set(contexts[a]), set(contexts[b])
        if sa & sb:
            out.append((a, b, tuple(sorted(sa & sb)), tuple(sorted(sa - sb)), tuple(sorted(sb - sa))))
    return tuple(out)


def _shared_marginal_tvs(box: Box):
    """``(a, b, shared observables, TV distance)`` per pair of overlapping contexts."""
    g = box.hypergraph
    tables = g.incidence.tables(box.stacked())
    for a, b, shared, a_only, b_only in _overlaps(g.contexts):
        diff = tables[a].sum(axis=a_only, keepdims=True) - tables[b].sum(axis=b_only, keepdims=True)
        yield a, b, shared, 0.5 * float(np.abs(diff).sum())


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

    def tensor(self) -> np.ndarray:
        return self.probabilities.reshape(self.hypergraph.joint_shape)

    def allclose(self, other: "JointDistribution", atol: float = 1e-12) -> bool:
        return self.hypergraph == other.hypergraph and np.allclose(
            self.probabilities, other.probabilities, rtol=0.0, atol=atol
        )


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


def junction_tree_joint(box: Box) -> np.ndarray | None:
    """The junction-tree joint of a box, as a flat vector; None if its
    hypergraph is cyclic or its joint exceeds ``JOINT_DIM_CAP`` cells.

    The product over ``join_tree`` of each context's distribution
    conditioned on its separator, ``b_c(lambda_c | lambda_sep)``, with
    0/0 = 0; the tables come from one gather.  On an acyclic hypergraph
    every consistent box is the box of this joint (Vorob'ev 1962), so it is
    noncontextual; in floating point the marginals match to rounding, and
    callers certify what they report from the joint, not from the theorem.
    """
    g = box.hypergraph
    tree = g.join_tree
    if tree is None or g.joint_dim > JOINT_DIM_CAP:
        return None
    tables = g.incidence.tables(box.stacked())
    joint = np.ones(g.joint_shape)
    for ci, separator in tree:
        table = tables[ci]
        free = tuple(i for i in g.contexts[ci] if i not in separator)
        given = table.sum(axis=free, keepdims=True)
        joint *= np.divide(table, given, out=np.zeros(table.shape), where=given > 0.0)
    return joint.reshape(-1)


def deterministic_box(assignment: DeterministicAssignment, g: Hypergraph) -> Box:
    """The box whose every context distribution is the point mass induced by ``assignment``."""
    assignment.validate_for(g)
    stacked = np.zeros(g.incidence.dim)
    stacked[g.incidence._digit_rows(assignment.outputs)] = 1.0
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


@functools.lru_cache(maxsize=64)
def _parity_vectors(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only P_even and P_odd on m bits."""
    return _frozen_array(parity_distribution(m, 0)), _frozen_array(parity_distribution(m, 1))


def context_parity(box: Box, ci: int) -> int | None:
    """0/1 if the context distribution is P_even/P_odd within ``PARITY_TOL``, else None.

    Each entry must be within the tolerance; a NaN entry matches neither parity.
    """
    ctx = box.hypergraph.contexts[ci]
    if any(box.hypergraph.cardinalities[i] != 2 for i in ctx):
        return None
    vec = box.distributions[ci]
    m = len(ctx)
    if vec.size != 2**m:
        return None
    for parity, target in enumerate(_parity_vectors(m)):
        # A NaN makes the maximum NaN, which compares false.
        if np.abs(vec - target).max() <= PARITY_TOL:
            return parity
    return None


def opposite(box: Box) -> Box:
    """Swap P_even and P_odd on every context of an xor-box."""
    require_valid(box)
    dists = []
    for ci in range(box.hypergraph.n_contexts):
        parity = context_parity(box, ci)
        if parity is None:
            raise NotXorBoxError(
                f"context {ci} is not a parity-class distribution; opposite() needs an xor-box"
            )
        m = len(box.hypergraph.contexts[ci])
        dists.append(parity_distribution(m, 1 - parity))
    return Box(box.hypergraph, dists)


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

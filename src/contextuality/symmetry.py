"""Hypergraph automorphisms, finite group closure, and twirling.

A group element is an observable permutation composed with per-observable
output relabelings (bit flips, in the binary case).  Such maps send contexts
to contexts, preserve consistency, and map non-contextual boxes to
non-contextual boxes.  Numbering the (observable, output) literals
``off[i] + v``, an element is one permutation of the literals,
``GroupElement.literals``: elements compose and invert as integer arrays, and
the closure of a generating set forms each product with one gather.  On the
stacked context outcomes (see :class:`~contextuality.boxes.ContextIncidence`)
an element acts as one permutation of rows, ``GroupElement.stacked_source``.
Averaging a box over a finite group of its automorphisms (twirling) projects
onto the invariant family; that average is the mean over each stacked row's
orbit, and the generators alone give the orbits.  On an isotropic family,
where twirling reduces a box to its mixing weight, X_u has a closed form
(``x_u_isotropic_reduced``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxes import Box, Hypergraph, require_valid
from .builders import chain_hypergraph, mermin_hypergraph, pm_hypergraph
from .closed_form import chi
from .errors import CapExceededError, HypergraphMismatchError, InvalidBoxError, NotXorBoxError
from .inequalities import beta, classify_xor, nc_alpha_interval
from .sampling import random_consistent_box

DEFAULT_GROUP_CAP = 2_000_000
# Largest idempotence or generator-invariance error of a sampled twirl.
INVARIANCE_TOL = 1e-12
# Largest deviation of a box from its twirl that still counts as isotropic.
ISOTROPY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Observable permutation plus per-observable output relabelings.

    ``perm[i]`` is the image observable of source observable ``i``;
    ``relabelings[i]`` maps the source output ``v`` to the output reported at
    ``perm[i]``.  The permutation must map every context onto a context.  The
    element is stored as its action on literals, the read-only array
    ``literals[off[i] + v] = off[perm[i]] + relabelings[i][v]``, from which
    ``perm`` and ``relabelings`` are read back on request.
    """

    hypergraph: Hypergraph
    literals: np.ndarray

    def __init__(self, hypergraph, perm, relabelings):
        perm = tuple(int(i) for i in perm)
        relabelings = tuple(tuple(int(v) for v in r) for r in relabelings)
        k, cards = hypergraph.n_observables, hypergraph.cardinalities
        if sorted(perm) != list(range(k)):
            raise InvalidBoxError(f"{perm} is not a permutation of {k} observables")
        if len(relabelings) != k:
            raise InvalidBoxError("need one output relabeling per observable")
        for i, r in enumerate(relabelings):
            if cards[perm[i]] != cards[i]:
                raise InvalidBoxError(
                    f"permutation sends observable {i} (d={cards[i]}) to "
                    f"{perm[i]} (d={cards[perm[i]]})"
                )
            if sorted(r) != list(range(cards[i])):
                raise InvalidBoxError(f"relabeling {r} is not a bijection on {cards[i]} outputs")
        for c in hypergraph.contexts:
            image = frozenset(perm[i] for i in c)
            if hypergraph.find_context(image) < 0:
                raise InvalidBoxError(
                    f"permutation maps context {c} to non-context {sorted(image)}"
                )
        off = _literal_offsets(hypergraph)
        literals = np.array([off[j] + v for j, r in zip(perm, relabelings) for v in r])
        literals.flags.writeable = False
        vars(self).update(hypergraph=hypergraph, literals=literals)
        vars(self).update(perm=perm, relabelings=relabelings)

    def __eq__(self, other) -> bool:
        same = isinstance(other, GroupElement) and self.hypergraph == other.hypergraph
        return same and np.array_equal(self.literals, other.literals)

    def __hash__(self) -> int:
        return hash((self.hypergraph, self.literals.tobytes()))

    def key(self) -> tuple:
        return (self.perm, self.relabelings)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        off = _literal_offsets(self.hypergraph)
        return tuple((np.searchsorted(off, self.literals[off[:-1]], side="right") - 1).tolist())

    @cached_property
    def relabelings(self) -> tuple[tuple[int, ...], ...]:
        off = _literal_offsets(self.hypergraph)
        values = (self.literals - np.repeat(off[list(self.perm)], np.diff(off))).tolist()
        return tuple(tuple(values[a:b]) for a, b in itertools.pairwise(off.tolist()))

    @cached_property
    def context_image(self) -> tuple[int, ...]:
        """Index of the image context of each source context."""
        g = self.hypergraph
        return tuple(g.find_context(self.perm[i] for i in c) for c in g.contexts)

    @cached_property
    def stacked_source(self) -> np.ndarray:
        """The action as one gather of stacked rows.

        ``apply(self, box).stacked() == box.stacked()[stacked_source]``: the
        row of image context ``t' = context_image[t]`` reached from an outcome
        of source context ``t`` reads that outcome's row.  Context ``t'``'s
        table of row numbers (``ContextIncidence.tables``), its axes taken
        back to the source observables and each reindexed by its relabeling,
        is indexed by the source outcome like context ``t``'s table, so one
        scatter pairs the two.
        """
        g = self.hypergraph
        rows = g.incidence.tables(np.arange(g.incidence.dim))
        source = np.empty(g.incidence.dim, dtype=np.int64)
        for t, (ctx, tprime) in enumerate(zip(g.contexts, self.context_image)):
            image = np.transpose(rows[tprime], self.perm)
            for i in ctx:
                image = np.take(image, self.relabelings[i], axis=i)
            source[image.ravel()] = rows[t].ravel()
        source.flags.writeable = False
        return source


def _literal_offsets(g: Hypergraph) -> np.ndarray:
    """``off[i]``: number of observable ``i``'s first literal (``off[-1]`` literals in all)."""
    return np.cumsum((0,) + g.cardinalities)


def _wrap(g: Hypergraph, literals: np.ndarray) -> GroupElement:
    """Element with these ``literals``, unchecked: products and inverses of valid ones are valid."""
    element = object.__new__(GroupElement)
    literals.flags.writeable = False
    vars(element).update(hypergraph=g, literals=literals)
    return element


def identity_element(g: Hypergraph) -> GroupElement:
    return _wrap(g, np.arange(sum(g.cardinalities)))


def compose(second: GroupElement, first: GroupElement) -> GroupElement:
    """Apply ``first``, then ``second``."""
    if second.hypergraph != first.hypergraph:
        raise HypergraphMismatchError("cannot compose elements on different hypergraphs")
    return _wrap(first.hypergraph, second.literals[first.literals])


def inverse(element: GroupElement) -> GroupElement:
    return _wrap(element.hypergraph, np.argsort(element.literals))


def apply(element: GroupElement, box: Box) -> Box:
    """Relabeled box: contexts permuted, outcome labels rewritten."""
    if element.hypergraph != box.hypergraph:
        raise HypergraphMismatchError("element and box live on different hypergraphs")
    require_valid(box)
    stacked = box.stacked()[element.stacked_source]
    return Box(box.hypergraph, box.hypergraph.incidence.split(stacked))


@dataclass(frozen=True)
class TwirlGroup:
    """A finite group of automorphisms, closed under composition and inverse."""

    hypergraph: Hypergraph
    generators: tuple[GroupElement, ...]
    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def orbits(self) -> np.ndarray:
        """Orbit label (0, 1, ...) of each stacked row under the generators.

        Each row takes the least label it can reach through the generators'
        ``stacked_source`` maps; inverses are powers of those maps, so the
        fixed point is constant exactly on the group's orbits.
        """
        labels = np.arange(self.hypergraph.incidence.dim)
        while True:
            before = labels.copy()
            for gen in self.generators:
                np.minimum(labels, labels[gen.stacked_source], out=labels)
            if np.array_equal(labels, before):
                return np.unique(labels, return_inverse=True)[1]


def generate_group(generators: list[GroupElement] | tuple[GroupElement, ...]) -> TwirlGroup:
    """Breadth-first closure of the generators under composition.

    Fails with :class:`CapExceededError` if the order would exceed
    ``DEFAULT_GROUP_CAP``, read at each call.
    Inverses come for free: in a finite closed monoid of bijections every
    element's powers cycle back through its inverse.
    """
    if not generators:
        raise InvalidBoxError("need at least one generator (use the identity for trivial groups)")
    g = generators[0].hypergraph
    for gen in generators:
        if gen.hypergraph != g:
            raise HypergraphMismatchError("all generators must share one hypergraph")
    ident = identity_element(g)
    gen_literals = [gen.literals for gen in generators]
    elements = {ident.literals.tobytes(): ident}
    frontier = [ident.literals]
    while frontier:
        new_frontier = []
        for literals in frontier:
            for gen in gen_literals:
                product = gen[literals]
                key = product.tobytes()
                if key not in elements:
                    if len(elements) >= DEFAULT_GROUP_CAP:
                        raise CapExceededError(f"group closure exceeded cap {DEFAULT_GROUP_CAP}")
                    elements[key] = _wrap(g, product)
                    new_frontier.append(product)
        frontier = new_frontier
    return TwirlGroup(g, tuple(generators), tuple(elements.values()))


def twirl(group: TwirlGroup, box: Box) -> Box:
    """Uniform average of ``apply(f, box)`` over all group elements.

    By orbit-stabilizer every element of a stacked row's orbit feeds that row
    equally often, so the average is the mean of ``box.stacked()`` over each
    orbit of ``group.orbits``; the elements themselves are never visited.
    """
    if group.hypergraph != box.hypergraph:
        raise HypergraphMismatchError("group and box live on different hypergraphs")
    require_valid(box)
    orbits = group.orbits
    means = np.bincount(orbits, weights=box.stacked()) / np.bincount(orbits)
    return Box(box.hypergraph, box.hypergraph.incidence.split(means[orbits]))


def _binary_flip_element(
    g: Hypergraph, perm: tuple[int, ...], flipped_targets: set[int]
) -> GroupElement:
    """Element from a permutation plus bit flips named at *target* observables."""
    relabelings = []
    for i in range(g.n_observables):
        d = g.cardinalities[i]
        if perm[i] in flipped_targets:
            if d != 2:
                raise InvalidBoxError("bit flips need binary observables")
            relabelings.append((1, 0))
        else:
            relabelings.append(tuple(range(d)))
    return GroupElement(g, perm, tuple(relabelings))


def _perm_from_pairs(k: int, pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    perm = list(range(k))
    for a, b in pairs:
        perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def _pm_generators() -> tuple[GroupElement, ...]:
    g = pm_hypergraph()
    gens = []
    # h1..h6: the 3! permutations of the three rows.
    for sigma in itertools.permutations(range(3)):
        perm = tuple(3 * sigma[r] + c for r in range(3) for c in range(3))
        gens.append(_binary_flip_element(g, perm, set()))
    # h7: swap of the two solid columns.
    gens.append(_binary_flip_element(g, _perm_from_pairs(9, [(0, 1), (3, 4), (6, 7)]), set()))
    # h8: reflection about the diagonal (transpose) with a bit flip on A9.
    transpose = tuple(3 * (i % 3) + i // 3 for i in range(9))
    gens.append(_binary_flip_element(g, transpose, {8}))
    return tuple(gens)


def _mermin_generators() -> tuple[GroupElement, ...]:
    g = mermin_hypergraph()
    # Indices: A,B,C,D,E = 0..4 and a,b,c,d,e = 5..9.
    reflections = [
        ([(1, 4), (2, 3), (6, 9), (7, 8)], set()),      # about the A-a axis
        ([(0, 4), (1, 3), (5, 9), (6, 8)], {7}),        # about C-c, flip on c
        ([(0, 1), (2, 4), (5, 6), (7, 9)], {8}),        # about D-d, flip on d
        ([(0, 3), (1, 2), (5, 8), (6, 7)], {4}),        # about E-e, flip on E
        ([(0, 2), (3, 4), (5, 7), (8, 9)], {1}),        # about B-b, flip on B
    ]
    gens = [
        _binary_flip_element(g, _perm_from_pairs(10, pairs), flips)
        for pairs, flips in reflections
    ]
    # Bit flips on the five triangles of the star.
    ident = tuple(range(10))
    for triangle in ({0, 7, 8}, {1, 8, 9}, {2, 5, 9}, {3, 5, 6}, {4, 6, 7}):
        gens.append(_binary_flip_element(g, ident, triangle))
    return tuple(gens)


def _chain_generators(n: int) -> tuple[GroupElement, ...]:
    g = chain_hypergraph(n)
    gens = []
    for j in range(1, n):
        perm = tuple((i + j) % n for i in range(n))
        gens.append(_binary_flip_element(g, perm, set(range(j))))
    return tuple(gens)


def _kcbs_generators() -> tuple[GroupElement, ...]:
    g = chain_hypergraph(5)
    rotation = tuple((i + 1) % 5 for i in range(5))
    reflection = tuple((5 - i) % 5 for i in range(5))
    return (
        _binary_flip_element(g, rotation, set()),
        _binary_flip_element(g, reflection, set()),
    )


def builtin_generators(name: str, n: int | None = None) -> tuple[GroupElement, ...]:
    """Generator sets for the named boxes: PM, M, CH(n), KCBS."""
    base = name.strip().upper()
    if base == "PM":
        return _pm_generators()
    if base == "M":
        return _mermin_generators()
    if base == "CH":
        if n is None or n < 3:
            raise InvalidBoxError("CH generators need n >= 3")
        return _chain_generators(n)
    if base == "KCBS":
        return _kcbs_generators()
    raise InvalidBoxError(f"no builtin generators named {name!r}")


def builtin_group(name: str, n: int | None = None) -> TwirlGroup:
    return generate_group(list(builtin_generators(name, n)))


@dataclass(frozen=True)
class InvariantSetCheck:
    ok: bool
    samples: int
    max_idempotence_error: float
    max_invariance_error: float
    counterexample: Box | None


def invariant_set_check(
    group: TwirlGroup, samples: int = 100, seed: int | None = 0
) -> InvariantSetCheck:
    """Sampled check that the twirl image equals the invariant set.

    For random consistent boxes b: twirl(twirl(b)) = twirl(b) (idempotence,
    so the image is inside the invariant set and invariant boxes are fixed
    points) and apply(h, twirl(b)) = twirl(b) for every generator h, both
    within ``INVARIANCE_TOL``.
    """
    rng = np.random.default_rng(seed)
    worst_idem = 0.0
    worst_inv = 0.0
    for _ in range(samples):
        box = random_consistent_box(group.hypergraph, rng)
        tb = twirl(group, box)
        stacked = tb.stacked()
        idem = float(np.abs(twirl(group, tb).stacked() - stacked).max())
        inv = max(
            (float(np.abs(apply(gen, tb).stacked() - stacked).max()) for gen in group.generators),
            default=0.0,
        )
        worst_idem = max(worst_idem, idem)
        worst_inv = max(worst_inv, inv)
        if idem > INVARIANCE_TOL or inv > INVARIANCE_TOL:
            return InvariantSetCheck(False, samples, worst_idem, worst_inv, box)
    return InvariantSetCheck(True, samples, worst_idem, worst_inv, None)


def isotropic_parameter(box: Box, reference: Box, group: TwirlGroup) -> float:
    """Mixing weight alpha of a box inside an isotropic family.

    Requires ``box`` to be twirl-invariant within ``ISOTROPY_TOL``; then
    ``alpha = beta_reference(box) / n``.
    """
    twirled = twirl(group, box)
    if not twirled.allclose(box, atol=ISOTROPY_TOL):
        raise InvalidBoxError("box is not invariant under the reference twirling group")
    return beta(reference, box) / box.hypergraph.n_contexts


def x_u_isotropic_reduced(
    reference: Box,
    alpha: float,
    group: TwirlGroup | None = None,
) -> float:
    """Symmetry-reduced X_u for an isotropic family, in closed form.

    For the family ``alpha*ref + (1-alpha)*ref'`` the measure collapses to a
    single binary divergence ``min_a0 chi(alpha, a0)`` over the non-contextual
    interval ``[lo, hi]``.  ``chi(alpha, a0)`` is convex in ``a0`` with its
    minimum at ``a0 = alpha``, so the minimizer is ``alpha`` clipped to the
    interval; this stays exact for chain sizes far beyond the joint solver.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidBoxError(f"alpha {alpha} outside [0, 1]")
    profile = classify_xor(reference)
    if profile is None:
        raise NotXorBoxError("reduced solver needs an xor-box reference")
    lo, hi = nc_alpha_interval(profile)
    if group is not None:
        for gen in group.generators:
            if not apply(gen, reference).allclose(reference, atol=1e-9):
                raise InvalidBoxError("reference is not fixed by the supplied group")

    eps = 1e-15
    a0 = min(max(alpha, lo), hi)
    return max(0.0, chi(alpha, min(max(a0, eps), 1.0 - eps)))

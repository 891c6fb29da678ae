"""Symmetry: element action, group closure, twirling, isotropic projection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_incidence import hypergraphs
from test_polytope import vertices

import contextuality as cx
from contextuality.sampling import random_consistent_box
from contextuality.symmetry import _binary_flip_element, compose, identity_element, inverse


def flip_element(g, observable):
    relabelings = [
        (1, 0) if i == observable else (0, 1) for i in range(g.n_observables)
    ]
    return cx.GroupElement(g, tuple(range(g.n_observables)), relabelings)


def qutrit_cycle_group():
    """The order-3 group of test_nonbinary: the qutrit alphabet cycled on a 3-cycle."""
    g = cx.Hypergraph([("A", 3), ("B", 2), ("C", 2)], [(0, 1), (1, 2), (2, 0)])
    return cx.generate_group([cx.GroupElement(g, (0, 1, 2), ((1, 2, 0), (0, 1), (0, 1)))])


TWIRL_GROUPS = [
    ("PM", lambda: cx.builtin_group("PM")),
    ("M", lambda: cx.builtin_group("M")),
    *[(f"CH({n})", lambda n=n: cx.builtin_group("CH", n)) for n in range(4, 8)],
    ("KCBS", lambda: cx.builtin_group("KCBS")),
    ("qutrit-cycle", qutrit_cycle_group),
]


def reference_apply(element, box):
    """Per-context action, outcome by outcome: source outcome x of context t
    lands at the image outcome of context ``context_image[t]``."""
    g = box.hypergraph
    dists = [np.zeros(g.context_dim(ci)) for ci in range(g.n_contexts)]
    for t, ctx in enumerate(g.contexts):
        tprime = element.context_image[t]
        image = {element.perm[i]: i for i in ctx}
        for x in np.ndindex(g.context_shape(t)):
            value = dict(zip(ctx, x))
            y = [element.relabelings[image[j]][value[image[j]]] for j in g.contexts[tprime]]
            row = np.ravel_multi_index(tuple(y), g.context_shape(tprime))
            dists[tprime][row] = box.context_tensor(t)[x]
    return dists


def random_automorphism(g, rng):
    """Uniform random element: an automorphism of ``g`` times random relabelings."""
    cards = g.cardinalities
    perms = [
        perm for perm in itertools.permutations(range(g.n_observables))
        if all(cards[perm[i]] == cards[i] for i in range(g.n_observables))
        and all(g.find_context(perm[i] for i in c) >= 0 for c in g.contexts)
    ]
    perm = perms[int(rng.integers(len(perms)))]
    return cx.GroupElement(g, perm, [rng.permutation(d) for d in cards])


class TestApply:
    def test_identity_fixes_pr(self, pr):
        assert cx.apply(identity_element(pr.hypergraph), pr).allclose(pr)

    def test_single_bit_flip_swaps_parity_on_incident_contexts(self, pr):
        flipped = cx.apply(flip_element(pr.hypergraph, 0), pr)
        # Observable A1 sits in contexts 0 and 3; their parities flip.
        assert np.allclose(flipped.distributions[0], [0, 0.5, 0.5, 0])
        assert np.allclose(flipped.distributions[3], [0.5, 0, 0, 0.5])
        assert np.allclose(flipped.distributions[1], pr.distributions[1])
        assert np.allclose(flipped.distributions[2], pr.distributions[2])

    def test_chain_generator_fixes_chain(self):
        for n in (4, 5, 8):
            box = cx.chain_box(n)
            h1 = cx.builtin_generators("CH", n)[0]
            assert cx.apply(h1, box).allclose(box, atol=1e-15)

    def test_preserves_normalization_and_consistency(self, rng, pm):
        gen = cx.builtin_generators("PM")[7]
        box = random_consistent_box(pm.hypergraph, rng, anchor=pm)
        moved = cx.apply(gen, box)
        assert cx.validate_box(moved).ok
        assert cx.check_consistency(moved, 1e-9).consistent

    def test_invalid_permutation_rejected(self, pr):
        # Maps context {0,1} to {0,2}, which is not a context of the chain.
        with pytest.raises(cx.InvalidBoxError):
            cx.GroupElement(
                pr.hypergraph, (0, 2, 1, 3), tuple((0, 1) for _ in range(4))
            )


    @pytest.mark.parametrize("name,make_group", TWIRL_GROUPS)
    def test_matches_per_context_reference_on_group_elements(self, name, make_group):
        rng = np.random.default_rng(20240710)
        grp = make_group()
        box = random_consistent_box(grp.hypergraph, rng)
        picks = rng.choice(grp.order, size=min(grp.order, 24), replace=False)
        for element in [*grp.generators, *(grp.elements[int(i)] for i in picks)]:
            moved = cx.apply(element, box)
            for got, want in zip(moved.distributions, reference_apply(element, box)):
                assert np.array_equal(got, want)

    @seed(20240710)
    @settings(max_examples=60, deadline=None)
    @given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
    def test_matches_per_context_reference_on_random_relabelings(self, g, draw_seed):
        rng = np.random.default_rng(draw_seed)
        box = random_consistent_box(g, rng)
        element = random_automorphism(g, rng)
        moved = cx.apply(element, box)
        for got, want in zip(moved.distributions, reference_apply(element, box)):
            assert np.array_equal(got, want)


class TestComposeInverse:
    def test_compose_then_invert_is_identity(self, pm):
        gens = cx.builtin_generators("PM")
        element = compose(gens[7], gens[6])
        ident = identity_element(pm.hypergraph)
        assert compose(inverse(element), element).key() == ident.key()

    def test_apply_respects_composition(self, rng, pm):
        gens = cx.builtin_generators("PM")
        box = random_consistent_box(pm.hypergraph, rng)
        one_shot = cx.apply(compose(gens[7], gens[1]), box)
        two_step = cx.apply(gens[7], cx.apply(gens[1], box))
        assert one_shot.allclose(two_step, atol=1e-15)


def reference_compose_key(second, first):
    """``(perm, relabelings)`` of ``first`` then ``second``, composed as nested tuples."""
    perm = tuple(second.perm[j] for j in first.perm)
    relabelings = tuple(
        tuple(second.relabelings[j][v] for v in r) for j, r in zip(first.perm, first.relabelings)
    )
    return perm, relabelings


def reference_inverse_key(element):
    """``(perm, relabelings)`` of the inverse, observable by observable."""
    source = {j: i for i, j in enumerate(element.perm)}
    perm = tuple(source[j] for j in range(len(element.perm)))
    relabelings = tuple(
        tuple(element.relabelings[i].index(w) for w in range(len(element.relabelings[i])))
        for i in perm
    )
    return perm, relabelings


class TestLiteralAlgebra:
    @seed(20240713)
    @settings(max_examples=60, deadline=None)
    @given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
    def test_compose_and_inverse_match_tuple_reference(self, g, draw_seed):
        rng = np.random.default_rng(draw_seed)
        first, second = random_automorphism(g, rng), random_automorphism(g, rng)
        assert compose(second, first).key() == reference_compose_key(second, first)
        assert inverse(first).key() == reference_inverse_key(first)
        assert compose(inverse(first), first).key() == identity_element(g).key()

    @seed(20240715)
    @settings(max_examples=40, deadline=None)
    @given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1))
    def test_derived_elements_equal_constructed_ones(self, g, draw_seed):
        # compose, inverse and identity_element wrap literal arrays unchecked;
        # each must equal, and hash like, the validated element of its key().
        rng = np.random.default_rng(draw_seed)
        first, second = random_automorphism(g, rng), random_automorphism(g, rng)
        for element in (compose(second, first), inverse(first), identity_element(g)):
            built = cx.GroupElement(g, *element.key())
            assert element == built and hash(element) == hash(built)
            assert not element.literals.flags.writeable
            assert element != element.key()

    @pytest.mark.parametrize("name,make_group", TWIRL_GROUPS)
    def test_closure_elements_equal_constructed_ones(self, name, make_group):
        grp = make_group()
        for element in grp.elements:
            built = cx.GroupElement(grp.hypergraph, *element.key())
            assert element == built and hash(element) == hash(built)
        assert len(set(grp.elements)) == grp.order
        assert all(a != b for a, b in zip(grp.elements, grp.elements[1:]))

    @seed(20240714)
    @settings(max_examples=40, deadline=None)
    @given(g=hypergraphs())
    def test_find_context_matches_linear_scan(self, g):
        sets = [set(c) for c in g.contexts]
        for ci, ctx in enumerate(g.contexts):
            for order in itertools.permutations(ctx):
                assert g.find_context(order) == sets.index(set(order)) == ci
        for size in range(1, g.n_observables + 1):
            for subset in itertools.combinations(range(g.n_observables), size):
                if set(subset) not in sets:
                    assert g.find_context(subset) == -1


class TestGenerateGroup:
    def test_trivial_group(self, pr):
        grp = cx.generate_group([identity_element(pr.hypergraph)])
        assert grp.order == 1

    def test_kcbs_dihedral_order_ten(self):
        grp = cx.builtin_group("KCBS")
        assert grp.order == 10

    def test_chain_group_order_2n_and_transitive(self):
        for n in (3, 4, 5, 6):
            grp = cx.builtin_group("CH", n)
            assert grp.order == 2 * n
            # Transitivity on contexts: context 0 reaches every context.
            images = {element.context_image[0] for element in grp.elements}
            assert images == set(range(n))

    def test_cap_exceeded(self):
        gens = cx.builtin_generators("PM")
        with pytest.raises(cx.CapExceededError):
            cx.generate_group(list(gens), cap=10)

    @pytest.mark.parametrize("name,order", [("PM", 1152), ("M", 640)])
    def test_closure_calls_no_constructor(self, name, order, monkeypatch):
        # Products of valid generators are valid, so the closure never
        # decodes or re-validates one through GroupElement.__init__.
        gens = cx.builtin_generators(name)
        calls = []
        init = cx.GroupElement.__init__

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(cx.GroupElement, "__init__", counting_init)
        assert cx.generate_group(gens).order == order
        assert len(calls) == 0

    @pytest.mark.parametrize("name,n", [("PM", None), ("M", None), ("KCBS", None), ("CH", 5)])
    def test_closure_matches_reference(self, name, n):
        # Breadth-first closure that builds and validates every product, each
        # composed as a map on (observable, output) pairs: first, then second.
        gens = cx.builtin_generators(name, n)
        g = gens[0].hypergraph

        def product(second, first):
            images = [
                [(second.perm[j], second.relabelings[j][w]) for j, w in
                 ((first.perm[i], first.relabelings[i][v]) for v in range(d))]
                for i, d in enumerate(g.cardinalities)
            ]
            return cx.GroupElement(g, [row[0][0] for row in images],
                                   [[w for _, w in row] for row in images])

        ident = identity_element(g)
        seen, frontier = {ident.key(): ident}, [ident]
        while frontier:
            products = [product(gen, element) for element in frontier for gen in gens]
            frontier = [p for p in products if seen.setdefault(p.key(), p) is p]
        grp = cx.generate_group(gens)
        assert [e.key() for e in grp.elements] == list(seen)


class TestBuiltinGenerators:
    @pytest.mark.parametrize(
        "name,n,count,box_fn",
        [
            ("PM", None, 8, cx.pm_box),
            ("M", None, 10, cx.mermin_box),
            ("CH", 5, 4, lambda: cx.chain_box(5)),
            ("KCBS", None, 2, cx.kcbs_box),
        ],
    )
    def test_counts_and_fixed_points(self, name, n, count, box_fn):
        gens = cx.builtin_generators(name, n)
        box = box_fn()
        assert len(gens) == count
        for gen in gens:
            assert cx.apply(gen, box).allclose(box, atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.builtin_generators("GHZ")


class TestTwirl:
    def test_pr_invariant_under_own_group(self, pr):
        grp = cx.builtin_group("CH", 4)
        assert cx.twirl(grp, pr).allclose(pr, atol=1e-15)

    def test_trivial_group_identity(self, rng, pm):
        grp = cx.generate_group([identity_element(pm.hypergraph)])
        box = random_consistent_box(pm.hypergraph, rng)
        assert cx.twirl(grp, box).allclose(box, atol=1e-15)

    def test_all_zeros_det_twirls_to_five_sixths_pm(self, pm):
        # beta_PM(det0) = 5 (the odd context misses), hence alpha = 5/6.
        grp = cx.builtin_group("PM")
        det = cx.deterministic_box(cx.DeterministicAssignment([0] * 9), pm.hypergraph)
        target = cx.mix(pm, cx.opposite(pm), 5 / 6)
        assert cx.twirl(grp, det).allclose(target, atol=1e-12)

    def test_twirl_is_linear(self, rng, pm):
        grp = cx.builtin_group("PM")
        a = random_consistent_box(pm.hypergraph, rng, anchor=pm)
        b = random_consistent_box(pm.hypergraph, rng)
        p = 0.3
        lhs = cx.twirl(grp, cx.mix(a, b, p))
        rhs = cx.mix(cx.twirl(grp, a), cx.twirl(grp, b), p)
        assert lhs.allclose(rhs, atol=1e-12)

    @pytest.mark.parametrize(
        "name,n,box_fn",
        [("PM", None, cx.pm_box), ("M", None, cx.mermin_box), ("CH", 5, lambda: cx.chain_box(5))],
    )
    def test_twirled_vertices_lie_on_segment(self, name, n, box_fn):
        box = box_fn()
        opp = cx.opposite(box)
        grp = cx.builtin_group(name, n)
        for assignment in vertices(box.hypergraph):
            det = cx.deterministic_box(assignment, box.hypergraph)
            tw = cx.twirl(grp, det)
            alpha = cx.beta(box, tw) / box.hypergraph.n_contexts
            assert tw.allclose(cx.mix(box, opp, alpha), atol=1e-9)


class TestOrbitTwirl:
    @pytest.mark.parametrize("name,make_group", TWIRL_GROUPS)
    def test_equals_explicit_group_average(self, name, make_group):
        rng = np.random.default_rng(20240711)
        grp = make_group()
        for _ in range(2):
            box = random_consistent_box(grp.hypergraph, rng)
            average = np.mean([cx.apply(e, box).stacked() for e in grp.elements], axis=0)
            assert np.abs(cx.twirl(grp, box).stacked() - average).max() <= 1e-14

    @pytest.mark.parametrize("name,make_group", TWIRL_GROUPS)
    def test_generators_alone_twirl_like_the_full_group(self, name, make_group):
        rng = np.random.default_rng(20240712)
        grp = make_group()
        bare = cx.TwirlGroup(grp.hypergraph, grp.generators, elements=())
        box = random_consistent_box(grp.hypergraph, rng)
        assert np.array_equal(cx.twirl(bare, box).stacked(), cx.twirl(grp, box).stacked())


class TestInvariantSetCheck:
    def test_pm_group_passes(self):
        grp = cx.builtin_group("PM")
        result = cx.invariant_set_check(grp, samples=20, seed=7)
        assert result.ok
        assert result.max_idempotence_error <= 1e-12

    def test_trivial_group_passes(self, pr):
        grp = cx.generate_group([identity_element(pr.hypergraph)])
        assert cx.invariant_set_check(grp, samples=5, seed=0).ok


class TestIsotropicParameter:
    def test_pr_corner(self, pr):
        grp = cx.builtin_group("CH", 4)
        assert cx.isotropic_parameter(pr, pr, grp) == pytest.approx(1.0, abs=1e-12)

    def test_half_mix(self, pr):
        grp = cx.builtin_group("CH", 4)
        box = cx.mix(pr, cx.opposite(pr), 0.5)
        assert cx.isotropic_parameter(box, pr, grp) == pytest.approx(0.5, abs=1e-12)

    def test_twirled_det_gives_five_sixths(self, pm):
        grp = cx.builtin_group("PM")
        det = cx.deterministic_box(cx.DeterministicAssignment([0] * 9), pm.hypergraph)
        tw = cx.twirl(grp, det)
        assert cx.isotropic_parameter(tw, pm, grp) == pytest.approx(5 / 6, abs=1e-12)

    def test_non_isotropic_rejected(self, rng, pm):
        grp = cx.builtin_group("PM")
        box = random_consistent_box(pm.hypergraph, rng)
        with pytest.raises(cx.InvalidBoxError):
            cx.isotropic_parameter(box, pm, grp)


class TestGroupClosureInvariants:
    def test_contains_identity_and_closed(self, pr):
        grp = cx.builtin_group("CH", 4)
        keys = {e.key() for e in grp.elements}
        assert identity_element(pr.hypergraph).key() in keys
        for a in grp.elements[:6]:
            assert inverse(a).key() in keys
            for b in grp.elements[:6]:
                assert compose(a, b).key() in keys


_PR_G = cx.pr_box().hypergraph
_PM_G = cx.pm_box().hypergraph
_QUTRIT_G = qutrit_cycle_group().hypergraph


@pytest.mark.parametrize(
    "call,error,fragment",
    [
        pytest.param(lambda: cx.GroupElement(_PR_G, (0, 0, 1, 2), [(0, 1)] * 4), cx.InvalidBoxError,
                     "not a permutation", id="element-not-a-permutation"),
        pytest.param(lambda: cx.GroupElement(_PR_G, range(4), [(0, 1)] * 3), cx.InvalidBoxError,
                     "one output relabeling per observable", id="element-relabeling-count"),
        pytest.param(lambda: cx.GroupElement(_QUTRIT_G, (1, 0, 2), [(0, 1, 2), (0, 1), (0, 1)]),
                     cx.InvalidBoxError, "sends observable 0", id="element-cardinality"),
        pytest.param(lambda: cx.GroupElement(_PR_G, range(4), [(0, 0)] + [(0, 1)] * 3),
                     cx.InvalidBoxError, "not a bijection", id="element-relabeling-not-bijective"),
        pytest.param(lambda: cx.GroupElement(_PR_G, (0, 2, 1, 3), [(0, 1)] * 4), cx.InvalidBoxError,
                     "to non-context", id="element-context-image"),
        pytest.param(lambda: compose(identity_element(_PR_G), identity_element(_PM_G)),
                     cx.HypergraphMismatchError, "different hypergraphs", id="compose-across"),
        pytest.param(lambda: cx.twirl(cx.generate_group([identity_element(_PM_G)]), cx.pr_box()),
                     cx.HypergraphMismatchError, "different hypergraphs", id="twirl-across"),
        pytest.param(lambda: cx.generate_group([identity_element(_PR_G), identity_element(_PM_G)]),
                     cx.HypergraphMismatchError, "share one hypergraph", id="generate-across"),
        pytest.param(lambda: cx.generate_group([]), cx.InvalidBoxError,
                     "at least one generator", id="generate-no-generators"),
        pytest.param(lambda: _binary_flip_element(_QUTRIT_G, (0, 1, 2), {0}),
                     cx.InvalidBoxError, "binary observables", id="bit-flip-ternary"),
        pytest.param(lambda: cx.builtin_generators("CH", 2), cx.InvalidBoxError,
                     "n >= 3", id="chain-generators-n"),
        pytest.param(lambda: cx.builtin_generators("CH"), cx.InvalidBoxError,
                     "n >= 3", id="chain-generators-without-n"),
    ],
)
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()

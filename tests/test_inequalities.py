"""beta functional, xor classification, and the non-contextual alpha interval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_boxes import allclose_parity
from test_polytope import vertices

import contextuality as cx
from contextuality.boxes import PARITY_TOL
from contextuality.inequalities import SUPPORT_THRESHOLD, support_weights
from contextuality.sampling import random_consistent_box


class TestClassifyXor:
    def test_pr_profile(self, pr):
        profile = cx.classify_xor(pr)
        assert profile is not None
        assert profile.context_size == 2
        assert profile.parities == (0, 0, 0, 1)
        assert profile.degrees == (2, 2, 2, 2)
        assert profile.all_degrees_even and profile.single_odd_context

    def test_pm_profile(self, pm):
        profile = cx.classify_xor(pm)
        assert profile.context_size == 3
        assert profile.degrees == (2,) * 9
        assert sum(profile.parities) == 1

    def test_mixture_is_not_xor(self, pr):
        assert cx.classify_xor(cx.mix(pr, cx.opposite(pr), 0.9)) is None

    def test_kcbs_is_not_xor(self, kcbs):
        assert cx.classify_xor(kcbs) is None


@pytest.mark.parametrize("build", [cx.pr_box, cx.pm_box, cx.mermin_box, lambda: cx.chain_box(16)],
                         ids=["PR", "PM", "M", "CH16"])
def test_classify_xor_reads_parities_as_context_parity(build):
    """Seeded xor boxes, each context P_even or P_odd, with mass moved between two
    outcomes of some contexts by just under, at or just over ``PARITY_TOL``: the
    profile holds the parities ``allclose_parity`` reads on each context, or is
    None where it reads None on one.  Both sides of the tolerance are reached."""
    rng = np.random.default_rng(20261030)
    g = build().hypergraph
    m = len(g.contexts[0])
    kept = lost = 0
    for _ in range(80):
        dists = [cx.parity_distribution(m, int(rng.integers(2))) for _ in g.contexts]
        for ci in rng.choice(g.n_contexts, size=int(rng.integers(1, 3)), replace=False):
            step = PARITY_TOL * (1.0 + rng.choice([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3]))
            source = rng.choice(np.flatnonzero(dists[ci]))
            target = rng.choice(np.delete(np.arange(2**m), source))
            dists[ci][source] -= step
            dists[ci][target] += step
        box = cx.Box(g, dists)
        parities = tuple(allclose_parity(d, m) for d in box.distributions)
        profile = cx.classify_xor(box)
        if None in parities:
            assert profile is None
            lost += 1
        else:
            assert profile.parities == parities
            kept += 1
    assert kept and lost


def test_classify_xor_refuses_other_boxes():
    """Mixed context sizes and ternary observables give None; a NaN entry is invalid."""
    even2, even3 = cx.parity_distribution(2, 0), cx.parity_distribution(3, 0)
    mixed = cx.Hypergraph([(f"O{i}", 2) for i in range(4)], [(0, 1), (1, 2, 3)])
    assert cx.classify_xor(cx.Box(mixed, [even2, even3])) is None
    ternary = cx.Hypergraph([("A", 3), ("B", 2)], [(0, 1)])
    assert cx.classify_xor(cx.Box(ternary, [np.full(6, 1 / 6)])) is None
    pr = cx.pr_box()
    nan = [d.copy() for d in pr.distributions]
    nan[1][0] = np.nan
    with pytest.raises(cx.InvalidBoxError):
        cx.classify_xor(cx.Box(pr.hypergraph, nan))


class TestBeta:
    def test_self_beta_is_context_count(self, pr):
        assert cx.beta(pr, pr) == pytest.approx(4.0, abs=1e-12)

    def test_opposite_beta_is_zero(self, pr):
        assert cx.beta(pr, cx.opposite(pr)) == pytest.approx(0.0, abs=1e-12)

    @given(alpha=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_isotropic_beta_is_n_alpha(self, alpha):
        pr = cx.pr_box()
        mixed = cx.mix(pr, cx.opposite(pr), alpha)
        assert cx.beta(pr, mixed) == pytest.approx(4 * alpha, abs=1e-12)

    def test_hypergraph_mismatch(self, pr, pm):
        with pytest.raises(cx.HypergraphMismatchError):
            cx.beta(pr, pm)

    def test_affine_in_second_argument(self, rng, pm):
        b1 = random_consistent_box(pm.hypergraph, rng, anchor=pm)
        b2 = random_consistent_box(pm.hypergraph, rng)
        for t in (0.0, 0.25, 0.8, 1.0):
            lhs = cx.beta(pm, cx.mix(b1, b2, t))
            rhs = t * cx.beta(pm, b1) + (1 - t) * cx.beta(pm, b2)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_invariant_under_twirl_of_second_argument(self, rng, mermin):
        group = cx.builtin_group("M")
        for _ in range(5):
            box = random_consistent_box(mermin.hypergraph, rng, anchor=mermin)
            assert cx.beta(mermin, cx.twirl(group, box)) == pytest.approx(
                cx.beta(mermin, box), abs=1e-12
            )


class TestScalarIdentity:
    @pytest.mark.parametrize("box_fn", [cx.pr_box, cx.pm_box, cx.mermin_box])
    def test_named_boxes(self, box_fn):
        box = box_fn()
        assert cx.beta_scalar_identity_check(box, box) <= 1e-12

    def test_random_second_argument(self, rng, pr):
        for _ in range(10):
            box = random_consistent_box(pr.hypergraph, rng, anchor=pr)
            assert cx.beta_scalar_identity_check(pr, box) <= 1e-12

    def test_needs_xor_reference(self, kcbs):
        with pytest.raises(cx.NotXorBoxError):
            cx.beta_scalar_identity_check(kcbs, kcbs)


class TestAlphaInterval:
    def test_pr(self, pr):
        assert cx.nc_alpha_interval(cx.classify_xor(pr)) == (0.25, 0.75)

    def test_pm(self, pm):
        lo, hi = cx.nc_alpha_interval(cx.classify_xor(pm))
        assert lo == pytest.approx(1 / 6)
        assert hi == pytest.approx(5 / 6)

    def test_mermin_odd_n(self, mermin):
        lo, hi = cx.nc_alpha_interval(cx.classify_xor(mermin))
        assert lo == 0.0
        assert hi == pytest.approx(4 / 5)

    def test_refuses_two_odd_contexts(self):
        g = cx.chain_box(4).hypergraph
        even, odd = cx.parity_distribution(2, 0), cx.parity_distribution(2, 1)
        box = cx.Box(g, [even, even, odd, odd])
        with pytest.raises(cx.NotXorBoxError):
            cx.nc_alpha_interval(cx.classify_xor(box))


class TestBoundsByLp:
    @pytest.mark.parametrize(
        "box_fn,expected_max,expected_min",
        [
            (cx.pr_box, 3.0, 1.0),
            (cx.pm_box, 5.0, 1.0),
            (cx.mermin_box, 4.0, 0.0),
        ],
    )
    def test_named_boxes(self, box_fn, expected_max, expected_min):
        report = cx.verify_bounds_by_lp(box_fn())
        assert report.ok
        assert report.max_beta == expected_max
        assert report.min_beta == expected_min

    @pytest.mark.parametrize("box_fn", [cx.pr_box, cx.pm_box, cx.mermin_box] + [
        (lambda n: lambda: cx.chain_box(n))(n) for n in range(5, 21)
    ])
    def test_matches_support_weights_route(self, box_fn):
        """The report, field for field, is the one built from ``support_weights``
        (each context's indicator above ``SUPPORT_THRESHOLD``) and ``optimize_linear``
        in both senses; values compared by their hex form."""
        box = box_fn()
        weights = support_weights(box)
        for w, d in zip(weights, box.distributions):
            assert np.array_equal(w, (d > SUPPORT_THRESHOLD).astype(float))
        hi = cx.optimize_linear(box.hypergraph, weights, "max")
        lo = cx.optimize_linear(box.hypergraph, weights, "min")
        report = cx.verify_bounds_by_lp(box)
        n = box.hypergraph.n_contexts
        assert (report.max_beta.hex(), report.min_beta.hex()) == (hi.value.hex(), lo.value.hex())
        assert (report.argmax_outputs, report.argmin_outputs) == (hi.argopt.outputs, lo.argopt.outputs)
        assert (report.expected_max, report.expected_min) == (n - 1, 1.0 if n % 2 == 0 else 0.0)
        assert report.ok == (hi.value == n - 1 and lo.value == report.expected_min)

    def test_attaining_vertices_recheck(self, pm):
        report = cx.verify_bounds_by_lp(pm)
        hi_det = cx.deterministic_box(
            cx.DeterministicAssignment(report.argmax_outputs), pm.hypergraph
        )
        lo_det = cx.deterministic_box(
            cx.DeterministicAssignment(report.argmin_outputs), pm.hypergraph
        )
        assert cx.beta(pm, hi_det) == report.max_beta
        assert cx.beta(pm, lo_det) == report.min_beta

    def test_lp_endpoints_match_interval_via_twirled_vertices(self, pm):
        # The extremal vertices, twirled, sit at the interval endpoints.
        group = cx.builtin_group("PM")
        report = cx.verify_bounds_by_lp(pm)
        lo, hi = cx.nc_alpha_interval(cx.classify_xor(pm))
        for outputs, endpoint in (
            (report.argmax_outputs, hi),
            (report.argmin_outputs, lo),
        ):
            det = cx.deterministic_box(cx.DeterministicAssignment(outputs), pm.hypergraph)
            alpha = cx.isotropic_parameter(cx.twirl(group, det), pm, group)
            assert alpha == pytest.approx(endpoint, abs=1e-9)


@pytest.mark.parametrize(
    "box_fn,n",
    [(cx.pr_box, 4), (cx.pm_box, 6), (cx.mermin_box, 5), (lambda: cx.chain_box(6), 6)],
)
def test_vertex_beta_values_are_integers_in_range(box_fn, n):
    box = box_fn()
    profile = cx.classify_xor(box)
    lo, _ = cx.nc_alpha_interval(profile)
    for assignment in vertices(box.hypergraph):
        det = cx.deterministic_box(assignment, box.hypergraph)
        value = cx.beta(box, det)
        assert value == pytest.approx(round(value), abs=1e-12)
        assert lo * n - 1e-12 <= value <= n - 1 + 1e-12


def _odd_degree_star_box():
    """Observable A in three contexts, one of them odd: an xor box with an odd degree."""
    g = cx.Hypergraph([("A", 2), ("B", 2), ("C", 2), ("D", 2)], [(0, 1), (0, 2), (0, 3)])
    even, odd = cx.parity_distribution(2, 0), cx.parity_distribution(2, 1)
    return cx.Box(g, [even, even, odd])


@pytest.mark.parametrize(
    "call,fragment",
    [
        pytest.param(lambda: cx.nc_alpha_interval(cx.classify_xor(_odd_degree_star_box())),
                     "even number of contexts", id="interval-odd-degree"),
        pytest.param(lambda: cx.verify_bounds_by_lp(cx.kcbs_box()), "xor-box reference",
                     id="bounds-not-xor"),
    ],
)
def test_refusals(call, fragment):
    with pytest.raises(cx.NotXorBoxError, match=fragment):
        call()

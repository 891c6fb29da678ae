"""Box core: validation, consistency, marginals, and composition operators."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_incidence import hypergraphs

import contextuality as cx
from contextuality import boxes
from contextuality.boxes import parity_distribution
from contextuality.sampling import random_joint

EVEN2 = np.array([0.5, 0.0, 0.0, 0.5])
ODD2 = np.array([0.0, 0.5, 0.5, 0.0])


def apply_channels_to_joint(joint, mixture):
    """Oracle: the channel action of ``apply_independent_channels`` on a full joint distribution."""
    g = joint.hypergraph
    out = np.zeros(g.joint_dim)
    for w, mats in mixture:
        t = joint.tensor()
        for axis in range(g.n_observables):
            t = np.moveaxis(
                np.tensordot(np.asarray(mats[axis], dtype=float), t, axes=([1], [axis])),
                0,
                axis,
            )
        out = out + w * t.reshape(-1)
    return cx.JointDistribution(g, out)


def plan_marginal(tensor, axes, subset):
    """Marginal on ``subset`` of a tensor whose axis j carries observable ``axes[j]``:
    the other axes summed out, the kept ones transposed into ``subset``'s order."""
    keep = [axes.index(i) for i in subset]
    kept_sorted = sorted(keep)
    other = tuple(a for a in range(len(axes)) if a not in keep)
    return np.transpose(tensor.sum(axis=other), [kept_sorted.index(a) for a in keep])


def loop_marginal(box, ci, subset):
    """Marginal on ``subset`` of context ``ci``'s distribution, outcome by outcome."""
    ctx = box.hypergraph.contexts[ci]
    out = np.zeros([box.hypergraph.cardinalities[i] for i in subset])
    for outcome, p in zip(np.ndindex(box.hypergraph.context_shape(ci)), box.distributions[ci]):
        out[tuple(outcome[ctx.index(i)] for i in subset)] += p
    return out


def pair_tvs(box):
    """``{(a, b, shared): TV distance}`` over the overlapping context pairs, each
    marginal taken by its context's own transpose plan and checked by a loop."""
    g = box.hypergraph
    out = {}
    for a, b in itertools.combinations(range(g.n_contexts), 2):
        shared = tuple(sorted(set(g.contexts[a]) & set(g.contexts[b])))
        if not shared:
            continue
        ma, mb = (plan_marginal(box.context_tensor(c), g.contexts[c], shared) for c in (a, b))
        assert np.allclose(ma, loop_marginal(box, a, shared), rtol=0.0, atol=1e-15)
        assert np.allclose(mb, loop_marginal(box, b, shared), rtol=0.0, atol=1e-15)
        out[(a, b, shared)] = 0.5 * float(np.abs(ma - mb).sum())
    return out


def two_context_hypergraph():
    return cx.Hypergraph([("A1", 2), ("A2", 2), ("A3", 2)], [(0, 1), (1, 2)])


class TestHypergraph:
    def test_basic_properties(self):
        g = cx.pr_box().hypergraph
        assert g.n_observables == 4
        assert g.n_contexts == 4
        assert g.cardinalities == (2, 2, 2, 2)
        assert g.degrees == (2, 2, 2, 2)
        assert g.joint_dim == 16

    def test_rejects_bad_context_index(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.Hypergraph([("A", 2), ("B", 2)], [(0, 2)])

    def test_rejects_duplicate_context_sets(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.Hypergraph([("A", 2), ("B", 2)], [(0, 1), (1, 0)])

    def test_rejects_uncovered_observable(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.Hypergraph([("A", 2), ("B", 2), ("C", 2)], [(0, 1)])

    def test_rejects_repeated_observable_in_context(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.Hypergraph([("A", 2), ("B", 2)], [(0, 0), (0, 1)])

    def test_rejects_cardinality_below_two(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.Hypergraph([("A", 1), ("B", 2)], [(0, 1)])


class TestValidateBox:
    def test_builtin_pr_is_valid(self, pr):
        assert cx.validate_box(pr).ok

    def test_scaled_distribution_reports_normalization(self, pr):
        bad = cx.Box(pr.hypergraph, [2.0 * pr.distributions[0], *pr.distributions[1:]])
        report = cx.validate_box(bad)
        assert not report.ok
        assert [i.kind for i in report.issues] == ["normalization"]
        assert report.issues[0].context == 0

    def test_wrong_length_reports_shape(self, pr):
        dists = list(pr.distributions)
        dists[2] = np.array([0.5, 0.5])
        report = cx.validate_box(cx.Box(pr.hypergraph, dists))
        assert not report.ok
        assert report.issues[0].kind == "shape"
        assert report.issues[0].context == 2


class TestConsistency:
    def test_pr_consistent(self, pr):
        assert cx.check_consistency(pr, 1e-9).consistent

    def test_pm_consistent(self, pm):
        assert cx.check_consistency(pm, 1e-9).consistent

    def test_point_mass_context_breaks_consistency(self, pr):
        # Context 0 becomes the point mass on (0,0): observable A1's marginal
        # is (1, 0) there but (1/2, 1/2) in its other context, so TV = 1/2.
        dists = list(pr.distributions)
        dists[0] = np.array([1.0, 0.0, 0.0, 0.0])
        report = cx.check_consistency(cx.Box(pr.hypergraph, dists), 1e-9)
        assert not report.consistent
        assert report.max_deviation == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_tolerance_not_finite_and_nonnegative_refused(self, pr, tol):
        # The shared marginals of this box differ by 1/2: a NaN tolerance
        # compares false with it and would report the box consistent.
        dists = list(pr.distributions)
        dists[0] = np.array([1.0, 0.0, 0.0, 0.0])
        box = cx.Box(pr.hypergraph, dists)
        with pytest.raises(cx.InvalidBoxError, match="tolerance"):
            cx.check_consistency(box, tol)
        with pytest.raises(cx.InvalidBoxError, match="tolerance"):
            boxes.require_consistent(box, tol)
        with pytest.raises(cx.InvalidBoxError, match="tolerance"):
            cx.check_consistency(pr, tol)


def nudged_pr(eps):
    """PR(0.9) with ``eps`` moved from outcome 00 to 10 of context 0: max shared TV is eps."""
    pr = cx.pr_box(0.9)
    dists = list(pr.distributions)
    dists[0] = dists[0] + eps * np.array([-1.0, 0.0, 1.0, 0.0])
    return cx.Box(pr.hypergraph, dists)


# A ternary cycle with a context over all of it; contexts that share no observable.
TERNARY = cx.Hypergraph([("T0", 3), ("T1", 3), ("B", 2)], [(1, 0), (2, 1), (0, 2), (2, 0, 1)])
DISJOINT = cx.Hypergraph([("T0", 3), ("B0", 2), ("B1", 2)], [(0,), (2, 1)])


@seed(20261106)
@settings(max_examples=80, deadline=None)
@given(
    g=hypergraphs(),
    draw_seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dense", "sparse", "nudged", "independent"]),
)
@example(g=TERNARY, draw_seed=1, kind="nudged")
@example(g=TERNARY, draw_seed=2, kind="independent")
@example(g=TERNARY, draw_seed=3, kind="sparse")
@example(g=DISJOINT, draw_seed=4, kind="independent")
@example(g=DISJOINT, draw_seed=5, kind="dense")
@example(g=cx.Hypergraph([("T0", 3), ("T1", 3)], [(1, 0)]), draw_seed=6, kind="nudged")
def test_consistency_matches_per_pair_oracle(g, draw_seed, kind):
    """``check_consistency`` against ``pair_tvs`` on consistent boxes (of a dense or
    a sparse joint) and inconsistent ones (a consistent box with mass moved
    inside one context, or independent context distributions).  Besides the
    drawn hypergraphs, ternary ones and ones with no overlapping pair (whose
    distance is 0) are always run."""
    rng = np.random.default_rng(draw_seed)
    p = rng.dirichlet(np.ones(g.joint_dim))
    if kind == "sparse":
        p[rng.uniform(size=p.size) < 0.5] = 0.0
        p[rng.integers(p.size)] += 0.5
    box = cx.box_of_joint(cx.JointDistribution(g, p / p.sum()))
    if kind == "nudged":
        dists = list(box.distributions)
        ci = int(rng.integers(g.n_contexts))
        vec = dists[ci].copy()
        src, dst = rng.choice(vec.size, size=2, replace=False)
        moved = vec[src] * float(rng.choice([1e-9, 1e-6, 1e-3, 1.0]))
        vec[src] -= moved
        vec[dst] += moved
        dists[ci] = vec
        box = cx.Box(g, dists)
    elif kind == "independent":
        box = cx.Box(g, [rng.dirichlet(np.ones(g.context_dim(ci))) for ci in range(g.n_contexts)])
    tvs = pair_tvs(box)
    for tol in (1e-12, 1e-9, 1e-7, 1e-4, 1e-2):
        report = cx.check_consistency(box, tol)
        assert abs(report.max_deviation - max(tvs.values(), default=0.0)) <= 1e-15
        found = {(v.context_a, v.context_b, v.shared): v.distance for v in report.violations}
        # A distance within rounding of the tolerance may fall on either side.
        near = {pair for pair, tv in tvs.items() if abs(tv - tol) <= 1e-15}
        assert set(found) - near == {pair for pair, tv in tvs.items() if tv > tol} - near
        assert all(abs(found[pair] - tvs[pair]) <= 1e-15 for pair in found)
        assert report.consistent == (not found)


@pytest.mark.parametrize("name", ["pr", "pm", "mermin"])
def test_builtin_boxes_are_exactly_consistent(name, request):
    box = request.getfixturevalue(name)
    report = cx.check_consistency(box, 0.0)
    assert report.max_deviation == 0.0 and report.consistent
    assert max(pair_tvs(box).values()) == 0.0


class TestStacked:
    def test_made_once_and_read_only(self, pm):
        box = cx.Box(pm.hypergraph, pm.distributions)
        stacked = box.stacked()
        assert box.stacked() is stacked
        assert not stacked.flags.writeable
        assert np.array_equal(stacked, np.concatenate(pm.distributions))
        with pytest.raises(ValueError):
            stacked[0] = 1.0

    def test_wrong_length_refused_after_its_shape_report(self, pr):
        dists = list(pr.distributions)
        dists[1] = np.array([0.5, 0.5])
        box = cx.Box(pr.hypergraph, dists)
        report = cx.validate_box(box)
        assert [(i.context, i.kind) for i in report.issues] == [(1, "shape")]
        for _ in range(2):
            with pytest.raises(cx.InvalidBoxError):
                box.stacked()


class TestAllclose:
    def test_equal_within_atol(self, pr):
        near = cx.Box(pr.hypergraph, [d + 1e-13 * np.array([1, -1, 0, 0]) for d in pr.distributions])
        assert pr.allclose(near) and near.allclose(pr)
        assert not pr.allclose(near, atol=1e-14)

    def test_another_hypergraph_is_not_close(self, pr):
        renamed = cx.Hypergraph([("B" + name, card) for name, card in pr.hypergraph.observables],
                                pr.hypergraph.contexts)
        assert not pr.allclose(cx.Box(renamed, pr.distributions))

    def test_other_shapes_are_not_close(self, pr):
        short = cx.Box(pr.hypergraph, [d[:3] for d in pr.distributions])
        assert not pr.allclose(short) and not short.allclose(pr)

    def test_vectors_not_sized_to_contexts_compared_as_they_are(self, pr):
        # Three entries per context of four outcomes: ``stacked`` refuses these
        # boxes, so their vectors are compared one by one.
        short = cx.Box(pr.hypergraph, [d[:3] for d in pr.distributions])
        with pytest.raises(cx.InvalidBoxError):
            short.stacked()
        near = cx.Box(pr.hypergraph, [d[:3] + 1e-13 for d in pr.distributions])
        far = cx.Box(pr.hypergraph, [d[:3] + np.array([0.0, 0.0, 1e-3]) for d in pr.distributions])
        assert short.allclose(near)
        assert not short.allclose(far)


class TestValidatedOnce:
    """A box's validity and largest shared-marginal distance are computed once."""

    def test_pairwise_marginals_computed_once(self, monkeypatch):
        box = cx.mix(cx.pm_box(), cx.box_of_joint(random_joint(cx.pm_box().hypergraph,
                                                                np.random.default_rng(3))), 0.8)
        calls = []

        def counting(b):
            calls.append(b)
            return shared_marginal_tvs(b)

        shared_marginal_tvs = boxes._shared_marginal_tvs
        monkeypatch.setattr(boxes, "_shared_marginal_tvs", counting)
        cx.x_u(box)
        cx.contextuality_cost(box)
        cx.x_max(box, outer_window=20)
        cx.check_consistency(box, 1e-9)
        assert calls == [box]

    @pytest.mark.parametrize(
        "solve", [cx.x_u, cx.contextuality_cost, lambda box: cx.x_max(box, outer_window=5)],
        ids=["x_u", "contextuality_cost", "x_max"],
    )
    def test_bad_boxes_refused_on_every_call(self, pr, solve):
        invalid = cx.Box(pr.hypergraph, [2.0 * pr.distributions[0], *pr.distributions[1:]])
        inconsistent = nudged_pr(1e-3)
        for _ in range(3):
            assert not cx.validate_box(invalid).ok
            with pytest.raises(cx.InvalidBoxError):
                solve(invalid)
            with pytest.raises(cx.InvalidBoxError):
                cx.check_consistency(invalid)
            with pytest.raises(cx.InconsistentBoxError):
                solve(inconsistent)

    @pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-10, 1e-8, 1e-6])
    def test_cached_report_matches_fresh_box(self, eps):
        box = nudged_pr(eps)
        assert box.distributions[0].min() > 0.0
        tols = [1e-7, 1e-12, 1e-9, 1e-12, 1e-7]
        for tol in tols:
            fresh = cx.Box(box.hypergraph, box.distributions)
            report = cx.check_consistency(box, tol)
            assert report == cx.check_consistency(fresh, tol)
            assert report.consistent == (report.max_deviation <= tol)
            assert report.consistent == (not report.violations)
        assert cx.check_consistency(box, 1e-12).max_deviation == pytest.approx(eps, abs=1e-15)


class TestMarginal:
    def test_uniform_joint_single_observable(self):
        g = cx.Hypergraph([("A1", 2), ("A2", 2)], [(0, 1)])
        j = cx.JointDistribution(g, np.full(4, 0.25))
        assert np.allclose(cx.marginal(j, [0]), [0.5, 0.5])

    def test_point_mass_subset(self):
        g = two_context_hypergraph()
        vec = np.zeros(8)
        vec[np.ravel_multi_index((1, 0, 1), (2, 2, 2))] = 1.0
        j = cx.JointDistribution(g, vec)
        out = cx.marginal(j, [0, 2])
        assert np.allclose(out, [0, 0, 0, 1])  # point mass on (1, 1)

    def test_ghz_style_mixture(self):
        g = two_context_hypergraph()
        vec = np.zeros(8)
        vec[0] = 0.5
        vec[7] = 0.5
        j = cx.JointDistribution(g, vec)
        out = cx.marginal(j, [0, 1])
        assert np.allclose(out, [0.5, 0, 0, 0.5])

    def test_empty_subset_rejected(self):
        g = two_context_hypergraph()
        j = cx.JointDistribution(g, np.full(8, 0.125))
        with pytest.raises(cx.InvalidBoxError):
            cx.marginal(j, [])

    def test_order_follows_subset(self):
        g = two_context_hypergraph()
        vec = np.zeros(8)
        vec[np.ravel_multi_index((1, 0, 0), (2, 2, 2))] = 1.0
        j = cx.JointDistribution(g, vec)
        assert np.allclose(cx.marginal(j, [0, 1]), [0, 0, 1, 0])
        assert np.allclose(cx.marginal(j, [1, 0]), [0, 1, 0, 0])


class TestBoxOfJoint:
    def test_contexts_equal_marginals_exactly(self, rng):
        g = cx.pm_box().hypergraph
        j = random_joint(g, rng)
        box = cx.box_of_joint(j)
        for ci, ctx in enumerate(g.contexts):
            assert np.array_equal(box.distributions[ci], cx.marginal(j, ctx))

    def test_always_consistent(self, rng):
        g = cx.chain_box(6).hypergraph
        for _ in range(5):
            box = cx.box_of_joint(random_joint(g, rng))
            assert cx.check_consistency(box, 1e-12).consistent

    def test_polytope_membership_cross_module(self, rng):
        g = cx.pr_box().hypergraph
        box = cx.box_of_joint(random_joint(g, rng))
        assert cx.is_noncontextual(box)


class TestDeterministicBox:
    def test_all_zeros_on_pr(self, pr):
        box = cx.deterministic_box(cx.DeterministicAssignment([0, 0, 0, 0]), pr.hypergraph)
        for d in box.distributions:
            assert np.allclose(d, [1, 0, 0, 0])

    def test_all_ones(self, pr):
        box = cx.deterministic_box(cx.DeterministicAssignment([1, 1, 1, 1]), pr.hypergraph)
        for d in box.distributions:
            assert np.allclose(d, [0, 0, 0, 1])

    def test_alternating_assignment_on_chain4(self, pr):
        box = cx.deterministic_box(cx.DeterministicAssignment([0, 1, 0, 1]), pr.hypergraph)
        expected = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        for d, e in zip(box.distributions, expected):
            assert np.allclose(d, e)

    def test_assignment_out_of_alphabet(self, pr):
        with pytest.raises(cx.InvalidBoxError):
            cx.deterministic_box(cx.DeterministicAssignment([0, 0, 0, 2]), pr.hypergraph)


class TestMix:
    def test_half_mix_of_pr_and_opposite_is_maximally_mixed(self, pr):
        mixed = cx.mix(pr, cx.opposite(pr), 0.5)
        for d in mixed.distributions:
            assert np.allclose(d, 0.25)

    def test_identity_case(self, pr):
        assert cx.mix(pr, cx.opposite(pr), 1.0).allclose(pr)

    def test_quantum_chain5(self):
        alpha = cx.quantum_chain_alpha(5)
        box = cx.mix(cx.chain_box(5), cx.opposite(cx.chain_box(5)), alpha)
        assert box.allclose(cx.chain_box(5, alpha))

    def test_hypergraph_mismatch(self, pr, pm):
        with pytest.raises(cx.HypergraphMismatchError):
            cx.mix(pr, pm, 0.5)

    @given(p=st.floats(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_mix_is_affine_per_context(self, p):
        b1, b2 = cx.pr_box(), cx.opposite(cx.pr_box())
        mixed = cx.mix(b1, b2, p)
        for d, d1, d2 in zip(mixed.distributions, b1.distributions, b2.distributions):
            assert np.allclose(d, p * d1 + (1 - p) * d2, atol=1e-15)


class TestOpposite:
    def test_pr_swaps_parities(self, pr):
        opp = cx.opposite(pr)
        assert np.allclose(opp.distributions[0], ODD2)
        assert np.allclose(opp.distributions[3], EVEN2)

    def test_involution(self, pm):
        assert cx.opposite(cx.opposite(pm)).allclose(pm)

    def test_non_xor_rejected(self, kcbs):
        with pytest.raises(cx.NotXorBoxError):
            cx.opposite(kcbs)

    def test_mixture_rejected(self, pr):
        with pytest.raises(cx.NotXorBoxError):
            cx.opposite(cx.mix(pr, cx.opposite(pr), 0.9))


class TestDirectSum:
    def test_pr_plus_mixed_pr(self, pr):
        ds = cx.direct_sum(pr, cx.pr_box(alpha=0.5))
        assert ds.hypergraph.n_observables == 8
        assert ds.hypergraph.n_contexts == 8
        assert cx.check_consistency(ds).consistent

    def test_self_sum_renames_and_doubles_contexts(self, pm):
        ds = cx.direct_sum(pm, pm)
        assert ds.hypergraph.n_contexts == 12
        assert ds.hypergraph.names[0] == "A1#1"
        assert ds.hypergraph.names[9] == "A1#2"

    def test_det_sum_det_is_det(self, pr):
        d1 = cx.deterministic_box(cx.DeterministicAssignment([0, 1, 0, 1]), pr.hypergraph)
        ds = cx.direct_sum(d1, d1)
        joint_outputs = cx.DeterministicAssignment([0, 1, 0, 1, 0, 1, 0, 1])
        assert ds.allclose(cx.deterministic_box(joint_outputs, ds.hypergraph))


class TestTensor:
    def test_pr_squared_shape(self, pr):
        t = cx.tensor(pr, pr)
        assert t.hypergraph.n_contexts == 16
        assert all(len(c) == 4 for c in t.hypergraph.contexts)
        assert all(d.size == 16 for d in t.distributions)
        assert cx.check_consistency(t).consistent

    def test_context_count_multiplies(self, pm, kcbs):
        assert cx.tensor(pm, kcbs).hypergraph.n_contexts == 30

    def test_product_with_point_mass_context(self, pr):
        g1 = cx.Hypergraph([("Z", 2)], [(0,)])
        point = cx.Box(g1, [np.array([0.0, 1.0])])
        t = cx.tensor(pr, point)
        for d, d_pr in zip(t.distributions, pr.distributions):
            assert np.allclose(d, np.kron(d_pr, [0.0, 1.0]))

    def test_point_masses_tensor(self):
        g1 = cx.Hypergraph([("A", 2), ("B", 2)], [(0, 1)])
        d00 = cx.Box(g1, [np.array([1.0, 0, 0, 0])])
        g2 = cx.Hypergraph([("C", 2), ("D", 2)], [(0, 1)])
        d11 = cx.Box(g2, [np.array([0, 0, 0, 1.0])])
        t = cx.tensor(d00, d11)
        expected = np.zeros(16)
        expected[np.ravel_multi_index((0, 0, 1, 1), (2, 2, 2, 2))] = 1.0
        assert np.allclose(t.distributions[0], expected)


class TestChannels:
    def test_preserves_validity_and_consistency(self, rng, pr):
        from contextuality.sampling import random_channel_mixture

        channel = random_channel_mixture(pr.hypergraph, rng)
        out = cx.apply_independent_channels(pr, channel)
        assert cx.validate_box(out).ok
        assert cx.check_consistency(out, 1e-9).consistent

    def test_identity_channel_is_identity(self, pm):
        eye = [(1.0, [np.eye(2)] * 9)]
        assert cx.apply_independent_channels(pm, eye).allclose(pm)

    def test_commutes_with_box_of_joint(self, rng):
        # Independent channels act on the joint or on the box equivalently.
        from contextuality.sampling import random_channel_mixture

        g = cx.chain_box(4).hypergraph
        j = random_joint(g, rng)
        channel = random_channel_mixture(g, rng)
        via_joint = cx.box_of_joint(apply_channels_to_joint(j, channel))
        via_box = cx.apply_independent_channels(cx.box_of_joint(j), channel)
        assert via_joint.allclose(via_box, atol=1e-12)

    @pytest.mark.parametrize(
        "weights",
        [(np.nan, 1.0), (np.inf, 0.0), (-np.inf, 1.0), (1.5, -0.5), (0.5, 0.49), (0.6, 0.6)],
        ids=["nan", "inf", "-inf", "negative", "under-normalized", "over-normalized"],
    )
    def test_mixture_weights_not_a_probability_vector_refused(self, pr, weights):
        # A NaN weight passed a hand-written check and made every entry NaN.
        eye = [np.eye(2)] * 4
        with pytest.raises(cx.InvalidBoxError, match="channel mixture weights"):
            cx.apply_independent_channels(pr, [(w, eye) for w in weights])


class TestParityDistribution:
    def test_even_two_bits(self):
        assert np.allclose(parity_distribution(2, 0), EVEN2)

    def test_odd_three_bits(self):
        odd = parity_distribution(3, 1)
        assert odd[np.ravel_multi_index((0, 0, 1), (2, 2, 2))] == 0.25
        assert odd[0] == 0.0
        assert odd.sum() == 1.0


class TestContextParity:
    """A context is P_even or P_odd when every entry is within PARITY_TOL of it."""

    @staticmethod
    def parity_of(vec):
        g = cx.pr_box().hypergraph
        return boxes.context_parity(cx.Box(g, [vec, EVEN2, EVEN2, ODD2]), 0)

    @staticmethod
    def allclose_parity(vec):
        """The earlier rule: np.allclose against each parity vector."""
        for parity, target in ((0, EVEN2), (1, ODD2)):
            if np.allclose(vec, target, rtol=0.0, atol=boxes.PARITY_TOL):
                return parity
        return None

    @pytest.mark.parametrize("parity, target", [(0, EVEN2), (1, ODD2)])
    def test_tolerance_boundary(self, parity, target):
        tol = boxes.PARITY_TOL
        zero = int(np.flatnonzero(target == 0.0)[0])
        # Off by exactly the tolerance at a zero entry (either sign): a match.
        for off in (tol, -tol):
            vec = target.copy()
            vec[zero] = off
            assert self.parity_of(vec) == parity == self.allclose_parity(vec)
        # One ulp past it: no match.
        for off in (np.nextafter(tol, 1.0), np.nextafter(-tol, -1.0)):
            vec = target.copy()
            vec[zero] = off
            assert self.parity_of(vec) is None and self.allclose_parity(vec) is None
        assert self.parity_of(target) == parity

    def test_nan_matches_neither_parity(self):
        for target in (EVEN2, ODD2):
            for at in range(4):
                vec = target.copy()
                vec[at] = np.nan
                assert self.parity_of(vec) is None and self.allclose_parity(vec) is None
        assert self.parity_of(np.full(4, np.nan)) is None

    def test_parity_vectors_are_read_only_copies(self):
        even, odd = boxes._parity_vectors(3)
        assert not even.flags.writeable and not odd.flags.writeable
        assert np.array_equal(even, parity_distribution(3, 0))
        assert np.array_equal(odd, parity_distribution(3, 1))
        assert parity_distribution(3, 0).flags.writeable


_PR = cx.pr_box()
_PR_JOINT = cx.JointDistribution(_PR.hypergraph, np.full(16, 1.0 / 16))
_EYE2 = np.eye(2)
_NOT_STOCHASTIC = np.array([[0.5, 0.5], [0.2, 0.5]])  # column sums 0.7 and 1


@pytest.mark.parametrize(
    "call,error,fragment",
    [
        pytest.param(lambda: cx.Hypergraph([], [(0,)]), cx.InvalidBoxError,
                     "at least one observable", id="hypergraph-no-observables"),
        pytest.param(lambda: cx.Hypergraph([("A", 2), ("A", 2)], [(0, 1)]), cx.InvalidBoxError,
                     "names must be unique", id="hypergraph-duplicate-names"),
        pytest.param(lambda: cx.Hypergraph([("A", 2)], []), cx.InvalidBoxError,
                     "at least one context", id="hypergraph-no-contexts"),
        pytest.param(lambda: cx.Hypergraph([("A", 2)], [(0,), ()]), cx.InvalidBoxError,
                     "empty context", id="hypergraph-empty-context"),
        pytest.param(lambda: boxes.probability_vector([[0.5], [0.5]]), cx.InvalidBoxError,
                     "1-D vector", id="probability-vector-2d"),
        pytest.param(lambda: boxes.probability_vector([np.nan, 1.0]), cx.InvalidBoxError,
                     "non-finite", id="probability-vector-nan"),
        pytest.param(lambda: boxes.probability_vector([np.inf, 0.0]), cx.InvalidBoxError,
                     "non-finite", id="probability-vector-inf"),
        pytest.param(lambda: cx.Box(_PR.hypergraph, _PR.distributions[:3]),
                     cx.InvalidBoxError, "needs 4 distributions", id="box-distribution-count"),
        pytest.param(lambda: cx.deterministic_box(cx.DeterministicAssignment((0,)), _PR.hypergraph),
                     cx.InvalidBoxError, "1 outputs for 4 observables", id="assignment-length"),
        pytest.param(lambda: cx.JointDistribution(_PR.hypergraph, [0.5, 0.5]),
                     cx.InvalidBoxError, "expected 16", id="joint-size"),
        pytest.param(lambda: cx.marginal(_PR_JOINT, (0, 0)), cx.InvalidBoxError,
                     "invalid marginal subset", id="marginal-repeated"),
        pytest.param(lambda: cx.marginal(_PR_JOINT, (4,)), cx.InvalidBoxError,
                     "invalid marginal subset", id="marginal-out-of-range"),
        pytest.param(lambda: cx.mix(_PR, _PR, 1.5), cx.InvalidBoxError,
                     "outside", id="mix-weight-above-one"),
        pytest.param(lambda: cx.mix(_PR, _PR, -0.5), cx.InvalidBoxError,
                     "outside", id="mix-weight-negative"),
        pytest.param(lambda: parity_distribution(0, 0), cx.InvalidBoxError,
                     "m >= 1", id="parity-zero-bits"),
        pytest.param(lambda: cx.apply_independent_channels(_PR, [(1.0, [_EYE2] * 3)]),
                     cx.InvalidBoxError, "one channel per observable", id="channel-count"),
        pytest.param(lambda: cx.apply_independent_channels(_PR, [(1.0, [np.eye(3)] * 4)]),
                     cx.InvalidBoxError, "has shape", id="channel-shape"),
        pytest.param(lambda: cx.apply_independent_channels(_PR, [(1.0, [_NOT_STOCHASTIC] * 4)]),
                     cx.InvalidBoxError, "not column-stochastic", id="channel-column-sums"),
    ],
)
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()

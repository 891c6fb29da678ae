"""Entropy measures: fixed/uniform/maximized solves, equivalence, reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, SUM_ANCHOR, shuffled, sparse_box, sparse_weights
from test_incidence import hypergraphs
from test_junction_tree import ROUNDING
from test_polytope import ternary_cycle_box

import contextuality as cx
from contextuality import boxes, closed_form, measures
from contextuality.sampling import (
    random_channel_mixture,
    random_consistent_box,
    random_joint,
    random_noncontextual_box,
)

LOG2_4_3 = 0.41503749927884376
KCBS_XU = 0.04665764960103094


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        assert cx.relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_one_bit(self):
        assert cx.relative_entropy([1, 0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_parity_mixture_single_term(self):
        even = cx.parity_distribution(2, 0)
        odd = cx.parity_distribution(2, 1)
        mixed = 0.75 * even + 0.25 * odd
        assert cx.relative_entropy(even, mixed) == pytest.approx(LOG2_4_3, abs=1e-14)

    def test_support_mismatch_is_infinite(self):
        assert cx.relative_entropy([0.5, 0.5], [1.0, 0.0]) == float("inf")

    def test_length_mismatch(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.relative_entropy([1.0], [0.5, 0.5])


class TestContextWeights:
    def test_uniform(self):
        w = cx.ContextWeights.uniform(4)
        assert np.allclose(w.weights, 0.25)

    @pytest.mark.parametrize("n", [3, 5, 7, 50])
    def test_unchecked_uniform_matches_checked(self, n):
        """The uniform weights skip the checks, with the bytes of the checked constructor."""
        fast, checked = cx.ContextWeights.uniform(n), cx.ContextWeights(np.full(n, 1.0 / n))
        assert fast.weights.tobytes() == checked.weights.tobytes()
        assert not fast.weights.flags.writeable

    def test_solver_outputs_are_read_only(self, kcbs):
        """The optimizer and the x_max weights, built unchecked, are read-only as before."""
        report = cx.x_max(kcbs, outer_window=5)
        for vec in (report.optimizer.probabilities, report.outer_weights.weights,
                    cx.x_u(kcbs).optimizer.probabilities):
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 0.0
        checked = cx.JointDistribution(kcbs.hypergraph, report.optimizer.probabilities)
        assert checked.probabilities.tobytes() == report.optimizer.probabilities.tobytes()

    def test_sum_enforced(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.ContextWeights([0.5, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.ContextWeights([1.5, -0.5])

    @pytest.mark.parametrize(
        "weights,ok",
        [([0.5, 0.5 + 5e-10], True), ([-5e-13, 1.0], True), ([0.5, 0.5 + 2e-9], False),
         ([-2e-12, 1.0], False)],
        ids=["sum-within", "negative-within", "sum-outside", "negative-outside"],
    )
    def test_same_check_as_probability_vector(self, weights, ok):
        """Context weights pass exactly where ``probability_vector`` passes, with its clamping."""
        if ok:
            expected = cx.boxes.probability_vector(weights)
            assert cx.ContextWeights(weights).weights.tobytes() == expected.tobytes()
        else:
            for check in (cx.ContextWeights, cx.boxes.probability_vector):
                with pytest.raises(cx.InvalidBoxError):
                    check(weights)

    @pytest.mark.parametrize(
        "weights", [[float("nan"), 0.5, 0.25, 0.25], [float("nan")] * 4], ids=["one", "all"]
    )
    def test_nan_rejected(self, weights):
        with pytest.raises(cx.InvalidBoxError, match="finite"):
            cx.ContextWeights(weights)


class TestXFixed:
    def test_noncontextual_box_gives_zero(self, rng):
        box = random_noncontextual_box(cx.pr_box().hypergraph, rng)
        report = cx.x_fixed(box, cx.ContextWeights.uniform(4))
        assert report.value <= 1e-9
        assert report.converged

    def test_pr_uniform(self, pr):
        report = cx.x_fixed(pr, cx.ContextWeights.uniform(4))
        assert report.value == pytest.approx(LOG2_4_3, abs=1e-5)
        assert report.duality_gap <= 1e-7

    def test_kcbs_uniform(self, kcbs):
        report = cx.x_fixed(kcbs, cx.ContextWeights.uniform(5))
        assert report.value == pytest.approx(KCBS_XU, abs=1e-5)

    def test_zero_weight_contexts_ignored(self, pr):
        # All weight on the three even contexts: they admit a common joint.
        report = cx.x_fixed(pr, cx.ContextWeights([1 / 3, 1 / 3, 1 / 3, 0.0]), tol=1e-10)
        assert report.value <= 1e-9

    def test_minimizer_marginals_match_optimal_isotropic(self, pr):
        report = cx.x_fixed(pr, cx.ContextWeights.uniform(4), tol=1e-9)
        # Optimal joint is the alpha0 = 3/4 isotropic box.
        target = cx.pr_box(alpha=0.75)
        box = cx.box_of_joint(report.optimizer)
        assert box.allclose(target, atol=1e-4)

    def test_floored_step_leaves_stalled_face(self, pr):
        # Unfloored multiplicative steps never leave the face A1 = A2 they
        # start on: plain EM stalls there at 0.4387 (gap 0.18 after 20,000
        # steps).  The floor at eps/joint_dim puts mass on every cell at the
        # start, so the steps grow the optimum's cells back and reach it.
        init = np.zeros(pr.hypergraph.joint_shape)
        init[0, 0] = init[1, 1] = 1.0 / 8
        problem = measures._FixedWeightProblem(pr, cx.ContextWeights.uniform(4))
        value, _, gap, _, converged, _ = measures._solve_fixed(problem, 1e-7, 20_000, init)
        assert converged
        assert gap <= 1e-7
        assert value - gap - 1e-12 <= LOG2_4_3 <= value + 1e-12

    def test_dim_cap(self):
        with pytest.raises(cx.CapExceededError):
            cx.x_u(cx.chain_box(30))

    @pytest.mark.parametrize(
        "solve",
        [cx.x_u, cx.x_max, lambda box: cx.x_fixed(box, cx.ContextWeights.uniform(4))],
        ids=["x_u", "x_max", "x_fixed"],
    )
    def test_joint_cap_read_at_call_time(self, pr, solve, monkeypatch):
        # The cap is a module constant: lowered below PR's 16 cells, it refuses
        # PR before the solver runs.
        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran")

        monkeypatch.setattr(measures, "_solve_fixed", no_solve)
        monkeypatch.setattr(boxes, "JOINT_DIM_CAP", 15)
        with pytest.raises(cx.CapExceededError, match="joint dimension 16 exceeds cap 15"):
            solve(pr)

    def test_inconsistent_box_refused(self, pr):
        dists = list(pr.distributions)
        dists[0] = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(cx.InconsistentBoxError):
            cx.x_u(cx.Box(pr.hypergraph, dists))

    def test_nonconvergence_is_flagged(self, kcbs):
        report = cx.x_u(kcbs, max_iters=2)
        assert not report.converged
        assert report.duality_gap > 1e-7

    @pytest.mark.parametrize("solve", [cx.x_u, cx.x_max])
    def test_negative_max_iters_refused(self, pr, solve):
        with pytest.raises(cx.InvalidBoxError, match="max_iters"):
            solve(pr, max_iters=-1)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, False, "3", None])
    @pytest.mark.parametrize(
        "solve",
        [cx.x_u, cx.x_max, lambda box, **kw: cx.x_fixed(box, cx.ContextWeights.uniform(4), **kw)],
        ids=["x_u", "x_max", "x_fixed"],
    )
    def test_non_integer_max_iters_refused(self, pr, solve, max_iters, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solver ran")

        monkeypatch.setattr(measures, "_solve_fixed", no_solve)
        with pytest.raises(cx.InvalidBoxError, match="max_iters"):
            solve(pr, max_iters=max_iters)

    @pytest.mark.parametrize("outer_window", [-1, 1.5, 2.0, True, None, "3"])
    def test_bad_outer_window_refused(self, pr, outer_window, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solver ran")

        monkeypatch.setattr(measures, "_solve_fixed", no_solve)
        with pytest.raises(cx.InvalidBoxError, match="outer_window"):
            cx.x_max(pr, outer_window=outer_window)

    def test_numpy_integer_arguments_accepted(self, pr):
        report = cx.x_max(pr, outer_window=np.int64(2))
        assert report.value > 0.0

    def test_numpy_integer_max_iters_accepted(self, pr):
        report = cx.x_u(pr, max_iters=np.int64(3))
        assert report.iterations <= 3

    def test_zero_max_iters_reports_start(self, kcbs):
        # KCBS is not flat on its parity classes, so the start is the uniform joint.
        report = cx.x_u(kcbs, max_iters=0)
        assert report.iterations == 0
        assert not report.converged
        assert report.value - report.duality_gap <= KCBS_XU <= report.value

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
    @pytest.mark.parametrize("solve", [cx.x_u, cx.x_max])
    def test_bad_tolerance_refused(self, pr, solve, tol):
        with pytest.raises(cx.InvalidBoxError, match="tolerance"):
            solve(pr, tol=tol)


class TestXu:
    def test_pm(self, pm):
        assert cx.x_u(pm).value == pytest.approx(0.2630344058337938, abs=1e-5)

    def test_mermin(self, mermin):
        assert cx.x_u(mermin).value == pytest.approx(0.32192809488736235, abs=1e-5)

    def test_chsh_quantum(self):
        alpha = cx.quantum_chain_alpha(4)
        value = cx.x_u(cx.chain_box(4, alpha)).value
        assert value == pytest.approx(closed_form.xu_chain(4, alpha), abs=1e-5)
        assert round(value, 4) == 0.0463

    def test_certificate_brackets_closed_form(self):
        for n, alpha in ((4, 1.0), (5, 1.0), (6, 0.9), (8, 0.9)):
            report = cx.x_u(cx.chain_box(n, alpha))
            truth = closed_form.xu_chain(n, alpha)
            assert report.value - report.duality_gap - 1e-12 <= truth <= report.value + 1e-12

    def test_twirl_never_increases(self, rng):
        group = cx.builtin_group("CH", 5)
        anchor = cx.chain_box(5)
        for _ in range(3):
            box = random_consistent_box(anchor.hypergraph, rng, anchor=anchor)
            assert cx.x_u(cx.twirl(group, box)).value <= cx.x_u(box).value + 1e-6

    def test_twirl_equality_for_isotropic(self):
        group = cx.builtin_group("CH", 4)
        box = cx.pr_box(alpha=0.9)
        assert cx.x_u(cx.twirl(group, box)).value == pytest.approx(
            cx.x_u(box).value, abs=1e-7
        )

    def test_channel_monotonicity(self, rng, pr):
        for _ in range(3):
            box = random_consistent_box(pr.hypergraph, rng, anchor=pr)
            channel = random_channel_mixture(box.hypergraph, rng)
            degraded = cx.apply_independent_channels(box, channel)
            assert cx.x_u(degraded).value <= cx.x_u(box).value + 1e-6


class TestXmax:
    def test_never_below_xu(self, pr):
        box = cx.mix(pr, cx.opposite(pr), 0.9)
        ru = cx.x_u(box)
        rm = cx.x_max(box, outer_window=20)
        assert rm.value >= ru.value - 1e-9

    def test_equals_xu_on_isotropic(self):
        for family, alpha in (("PR", 1.0), ("PM", 0.95), ("M", 0.85)):
            box = cx.builtin(family, alpha=alpha)
            ru = cx.x_u(box)
            rm = cx.x_max(box, outer_window=30)
            assert abs(rm.value - ru.value) <= 2e-5

    def test_noncontextual_gives_zero(self, rng):
        box = random_noncontextual_box(cx.pr_box().hypergraph, rng)
        report = cx.x_max(box, outer_window=10)
        assert report.value <= 1e-8

    def test_direct_sum_max_rule_and_weights(self, pr):
        ds = cx.direct_sum(pr, cx.pr_box(alpha=0.5))
        report = cx.x_max(ds, outer_window=60)
        assert report.value == pytest.approx(LOG2_4_3, abs=2e-5)
        assert float(report.outer_weights.weights[:4].sum()) >= 0.999

    def test_report_fields(self, pr):
        report = cx.x_max(pr, outer_window=10)
        assert report.outer_weights is not None
        assert report.duality_gap >= 0.0


class TestDirectSumLaws:
    def test_xu_weighted_average(self, pr):
        ds = cx.direct_sum(pr, cx.pr_box(alpha=0.5))
        assert cx.x_u(ds).value == pytest.approx(0.5 * LOG2_4_3, abs=2e-5)

    def test_xu_general_average(self, pr, kcbs):
        ds = cx.direct_sum(pr, kcbs)
        expected = (4 * LOG2_4_3 + 5 * KCBS_XU) / 9
        assert cx.x_u(ds).value == pytest.approx(expected, abs=2e-5)

    def test_minimizer_factorizes_across_blocks(self, pr):
        ds = cx.direct_sum(pr, cx.pr_box(alpha=0.5))
        report = cx.x_u(ds)
        p = report.optimizer
        m1 = cx.marginal(p, range(4))
        m2 = cx.marginal(p, range(4, 8))
        tv = 0.5 * np.abs(np.kron(m1, m2) - p.probabilities).sum()
        assert tv <= 1e-6


@pytest.mark.parametrize("max_iters", [0, 1, 3, 5, 8, 40])
def test_split_box_shares_one_iteration_budget(max_iters):
    """A direct sum solved one component at a time gives each part the
    iterations the parts before it left, so a report never counts more than
    ``max_iters``; with enough of them both measures converge.  x_u
    converges in 5 (KCBS at its face exit at iteration 4, the chain at its
    isotropic start), so 3 leave it unconverged."""
    box = cx.direct_sum(cx.kcbs_box(), cx.chain_box(8, 0.95))
    assert len(measures._parts(box)) == 2
    for report in (cx.x_u(box, max_iters=max_iters), cx.x_max(box, max_iters=max_iters)):
        assert report.iterations <= max_iters
    short = cx.x_u(box, max_iters=3)
    assert short.iterations == 3 and not short.converged
    for solve in (cx.x_u, cx.x_max):
        full = solve(box)
        exact = solve(box, max_iters=full.iterations)
        assert full.converged and exact.converged
        assert (exact.value, exact.duality_gap, exact.iterations) == (
            full.value, full.duality_gap, full.iterations)


class TestVerifyEquivalence:
    def test_pr(self, pr):
        eq = cx.verify_equivalence(pr, cx.ContextWeights.uniform(4))
        assert eq.residual <= 1e-5

    def test_kcbs(self, kcbs):
        eq = cx.verify_equivalence(kcbs, cx.ContextWeights.uniform(5))
        assert eq.residual <= 1e-5

    def test_noncontextual_both_sides_zero(self, rng):
        box = random_noncontextual_box(cx.pr_box().hypergraph, rng)
        eq = cx.verify_equivalence(box, cx.ContextWeights.uniform(4))
        assert eq.x_value <= 1e-9
        assert eq.mutual_information <= 1e-6

    def test_nonuniform_weights(self, pr):
        eq = cx.verify_equivalence(pr, cx.ContextWeights([0.4, 0.3, 0.2, 0.1]))
        assert eq.residual <= 1e-5

    def test_zero_weight_context_skipped(self, pr):
        # PR's three even contexts admit a common joint: both sides are 0.
        eq = cx.verify_equivalence(pr, cx.ContextWeights([1 / 3, 1 / 3, 1 / 3, 0.0]))
        assert eq.residual <= 1e-8
        assert eq.x_value <= 1e-7 and eq.mutual_information <= 1e-7


class TestIsotropicReduced:
    def test_pr_corner(self, pr):
        assert cx.x_u_isotropic_reduced(pr, 1.0) == pytest.approx(LOG2_4_3, abs=1e-10)

    def test_chain_fifty(self):
        value = cx.x_u_isotropic_reduced(cx.chain_box(50), 1.0)
        assert value == pytest.approx(0.02914634565951651, abs=1e-10)

    def test_chain5_quantum_matches_closed_form(self):
        alpha = cx.quantum_chain_alpha(5)
        value = cx.x_u_isotropic_reduced(cx.chain_box(5), alpha)
        assert value == pytest.approx(closed_form.xu_chain(5, alpha), abs=1e-10)

    def test_inside_interval_is_zero(self):
        assert cx.x_u_isotropic_reduced(cx.chain_box(6), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_group_validation(self, pr):
        group = cx.builtin_group("CH", 4)
        assert cx.x_u_isotropic_reduced(pr, 1.0, group=group) == pytest.approx(
            LOG2_4_3, abs=1e-10
        )

    def test_wrong_group_rejected(self, pm):
        group = cx.builtin_group("CH", 4)
        with pytest.raises((cx.InvalidBoxError, cx.HypergraphMismatchError)):
            cx.x_u_isotropic_reduced(pm, 1.0, group=group)

    def test_non_xor_reference_rejected(self, kcbs):
        with pytest.raises(cx.NotXorBoxError):
            cx.x_u_isotropic_reduced(kcbs, 1.0)


class TestFaithfulness:
    def test_both_directions(self, rng, pr):
        for s in range(8):
            if s % 2 == 0:
                box = random_noncontextual_box(pr.hypergraph, rng)
            else:
                box = random_consistent_box(
                    pr.hypergraph, rng, anchor=pr, anchor_weight=float(rng.uniform(0.85, 1.0))
                )
            xu_zero = cx.x_u(box, tol=1e-8).value <= 1e-6
            cost_zero = cx.contextuality_cost(box).cost <= 1e-6
            member = cx.is_noncontextual(box, tol=1e-6)
            assert xu_zero == cost_zero == member


def test_xu_of_joint_box_zero_for_any_weights(rng):
    g = cx.pm_box().hypergraph
    j = random_joint(g, rng)
    box = cx.box_of_joint(j)
    w = rng.dirichlet(np.ones(6))
    report = cx.x_fixed(box, cx.ContextWeights(w))
    assert report.value <= 1e-9


@pytest.mark.parametrize(
    "box, ceiling",
    [
        (cx.pr_box(), 10),
        (cx.pm_box(), 15),
        (cx.mermin_box(), 12),
        (cx.kcbs_box(), 25),
        (cx.chain_box(14), 25),
        (cx.chain_box(8, 0.9), 25),
    ],
    ids=["PR", "PM", "M", "KCBS", "CH14", "CH8-0.9"],
)
def test_xu_iteration_budget(box, ceiling):
    report = cx.x_u(box)
    assert report.converged
    assert report.iterations <= ceiling


def crawl_box():
    """Ternary 4-cycle mixed with a sparse joint, reordered: its optimum is a
    noncontextual point on a face, where plain EM steps crawl (28,843 of them
    at the default tolerance)."""
    g = cx.Hypergraph([(f"A{i}", 3) for i in range(4)], [(0, 3), (2, 3), (1, 2), (0, 1)])
    dists = [
        [
            0.02783734762222601, 0.04197792267537837, 0.2009353563514011,
            0.20156634367895981, 0.06831894004247656, 0.0790995639098273,
            0.05908373872167494, 0.2443338011497713, 0.0768469858482846,
        ],
        [
            0.18712813753043062, 0.08690721844099802, 0.06479015231585024,
            0.04414809932698259, 0.18568015314376443, 0.032538150078950515,
            0.05721119316544754, 0.08204329228286378, 0.25955360371471226,
        ],
        [
            0.19083560859894788, 0.02323092515074189, 0.12419163119768142,
            0.04257531542812758, 0.21857494575855446, 0.04597243481743948,
            0.10541458426020343, 0.020560531640401163, 0.22864402314790266,
        ],
        [
            0.20678682797877135, 0.03091626246650351, 0.03304753620373064,
            0.052773976210208226, 0.2261357939120093, 0.07007507750904614,
            0.0786973607583916, 0.05007063962560872, 0.2514965253357305,
        ],
    ]
    weights = cx.ContextWeights(
        [0.0020287626226696527, 0.4141470594216534, 0.17274020868561632, 0.4110839692700606]
    )
    return cx.Box(g, dists), weights


def test_crawl_box_converges_within_budget():
    box, weights = crawl_box()
    report = cx.x_fixed(box, weights)
    assert report.converged
    assert report.iterations <= 10_000
    assert 0.0 <= report.value <= 1e-7


def anchored_mix(family):
    """``family`` mixed at 0.9 with a seeded random consistent box: contextual,
    and not flat on its parity classes."""
    anchor = cx.builtin(family)
    return random_consistent_box(anchor.hypergraph, np.random.default_rng(1), anchor=anchor,
                                 anchor_weight=0.9)


@pytest.mark.parametrize(
    "box, weights, iterations",
    [
        (cx.pr_box(), None, 1),
        (cx.pm_box(), None, 1),
        (cx.mermin_box(), None, 1),
        (cx.kcbs_box(), None, 4),
        (*crawl_box(), 6555),
        (anchored_mix("PR"), None, 2),
        (anchored_mix("PM"), None, 2),
        (anchored_mix("M"), None, 2),
    ],
    ids=["PR", "PM", "M", "KCBS", "crawl", "PR-mix", "PM-mix", "M-mix"],
)
def test_iteration_counts_pinned(box, weights, iterations):
    """Exact step counts at the default tol (uniform weights unless given).
    A rewrite of the step that is meant to keep every iterate bit for bit
    must keep these; a new step rule may move them, and says so.  PR, PM
    and M certify at their isotropic start, which counts 1 iteration.  KCBS
    and the anchored mixes are contextual and not isotropic: they certify at
    the optimizer on the face their field picks, tried at iterations 2, 4,
    8, ..., where the loop alone took 14, 51, 43 and 50 steps.  The crawl
    box's optimum lies on a face of its noncontextual polytope, and no face
    exit certifies it."""
    if weights is None:
        weights = cx.ContextWeights.uniform(box.hypergraph.n_contexts)
    assert cx.x_fixed(box, weights).iterations == iterations


@pytest.mark.parametrize("draw_seed", [4, 17, 53])
def test_value_never_negative(draw_seed):
    # Optimum 0 at these weights; rounding used to leave values near -4e-16.
    anchor = ternary_cycle_box(4)
    box = cx.mix(anchor, sparse_box(anchor.hypergraph, np.random.default_rng(draw_seed)), 0.5)
    weights = cx.ContextWeights(np.array([0.0, 0.41, 0.17, 0.41]) / 0.99)
    reports = [cx.x_fixed(box, weights, tol=tol) for tol in (1e-7, 1e-9, 1e-10, 1e-12)]
    reports.append(cx.x_max(box, outer_window=10))
    for report in reports:
        assert 0.0 <= report.value
        assert report.value - report.duality_gap <= report.value


def plain_em(box, weights, tol, max_iters):
    """Plain multiplicative steps ``p <- p * r`` from the uniform joint, the
    reference for the over-relaxed step; returns (value, gap, iterations,
    converged), counted as the solver counts them."""
    problem = measures._FixedWeightProblem(box, weights)
    p = np.full(problem.g.joint_dim, 1.0 / problem.g.joint_dim)
    # Unfloored steps can zero a marginal on the support: the value is then +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        value, r, r_max = problem.field(p)
        iteration = 0
        for iteration in range(1, max_iters + 1):
            if measures._gap(r_max) <= tol:
                break
            p *= r
            p /= p.sum()
            value, r, r_max = problem.field(p)
    gap = measures._gap(r_max)
    return max(value, 0.0), gap, iteration, gap <= tol + 1e-14


@seed(20261020)
@settings(max_examples=6, deadline=None)
@given(draw_seed=st.integers(0, 2**32 - 1))
def test_overrelaxed_step_against_em(draw_seed):
    """One box per binary and ternary anchor: the over-relaxed "auto" step
    reaches the plain EM value, never raises F, and needs at most half the
    iterations on the boxes where EM converges within the budget."""
    rng = np.random.default_rng(draw_seed)
    auto_iters = em_iters = 0
    for anchor in ANCHORS + (SUM_ANCHOR,):
        mixed = cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0)))
        box = shuffled(mixed, rng)
        weights = sparse_weights(box.hypergraph.n_contexts, rng)
        auto = cx.x_fixed(box, weights, tol=1e-9, max_iters=5000)
        em_value, em_gap, em_iterations, em_converged = plain_em(box, weights, 1e-9, 5000)
        # Each value lies within its gap above the same optimum.
        assert abs(auto.value - em_value) <= max(1e-9, auto.duality_gap, em_gap)
        values = [value for _, value, _ in auto.trace]
        # Slack for rounding only: a plain EM step at a fixed point can move F
        # by an ulp.
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        if em_converged:
            auto_iters += auto.iterations
            em_iters += em_iterations
    assert 2 * auto_iters <= em_iters


@seed(20261022)
@settings(max_examples=24, deadline=None)
@given(anchor=st.sampled_from(ANCHORS + (SUM_ANCHOR,)), draw_seed=st.integers(0, 2**32 - 1))
def test_face_start_against_em(anchor, draw_seed):
    """Starts on a face of the simplex, three quarters of the cells zero and
    every cell of one support row among them (its marginal starts at 0): the
    solve stays finite and positive, lands within its gap of the plain EM
    value from the uniform joint, and never raises F."""
    rng = np.random.default_rng(draw_seed)
    g = anchor.hypergraph
    box = shuffled(cx.mix(anchor, sparse_box(g, rng), float(rng.uniform(0.5, 1.0))), rng)
    weights = sparse_weights(box.hypergraph.n_contexts, rng)
    problem = measures._FixedWeightProblem(box, weights)
    init = rng.dirichlet(np.ones(g.joint_dim)) * (rng.uniform(size=g.joint_dim) < 0.25)
    missed = rng.choice(problem.support)
    init[(problem.op.rows(np.arange(g.joint_dim)) == missed).any(axis=1)] = 0.0
    value, p, gap, _, _, trace = measures._solve_fixed(problem, 1e-9, 2000, init)
    assert math.isfinite(value) and math.isfinite(gap)
    assert np.all(p > 0.0)
    em_value, em_gap, _, _ = plain_em(box, weights, 1e-9, 2000)
    assert abs(value - em_value) <= max(1e-9, gap, em_gap)
    values = [v for _, v, _ in trace]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def without_zero_weights(box, weights):
    """The box on its positive-weight contexts, without the observables those
    leave uncovered, and the weights renormalized on them."""
    g = box.hypergraph
    kept = np.flatnonzero(weights.weights > 0.0)
    covered = sorted({i for ci in kept for i in g.contexts[ci]})
    index = {old: new for new, old in enumerate(covered)}
    sub = cx.Hypergraph(
        [g.observables[i] for i in covered],
        [tuple(index[i] for i in g.contexts[ci]) for ci in kept],
    )
    w = weights.weights[kept]
    return cx.Box(sub, [box.distributions[ci] for ci in kept]), cx.ContextWeights(w / w.sum())


@seed(20261107)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), draw_seed=st.integers(0, 2**32 - 1))
def test_zero_weight_is_no_context(data, draw_seed):
    """A zero-weight context adds 0 * D = 0 to X_w, so the measure equals the
    one on the box without it, whatever rows the solver keeps.  Binary and
    ternary boxes: an anchor mixed with a sparse joint's box, a sparse
    joint's box on a random hypergraph, or the direct sum of the two (an
    anchor of at most 32 joint outcomes, mixed at 0.8 or more), where a zero
    weight on the second summand leaves a contextual box.  Weights have
    zeros on most draws; the brackets ``[value - duality_gap, value]`` of
    the two solves hold the same optimum."""
    rng = np.random.default_rng(draw_seed)

    def anchored(anchors, least):
        anchor = data.draw(st.sampled_from(anchors))
        mixed = cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(least, 1.0)))
        return shuffled(mixed, rng)

    kind = data.draw(st.sampled_from(["anchored", "random", "sum"]))
    if kind == "anchored":
        box = anchored(ANCHORS, 0.5)
    else:
        box = sparse_box(data.draw(hypergraphs()), rng)
        if kind == "sum":
            small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 32]
            box = cx.direct_sum(anchored(small, 0.8), box)
    weights = sparse_weights(box.hypergraph.n_contexts, rng)
    full = cx.x_fixed(box, weights, tol=1e-9, max_iters=5000)
    part = cx.x_fixed(*without_zero_weights(box, weights), tol=1e-9, max_iters=5000)
    assert full.value - full.duality_gap <= part.value + ROUNDING
    assert part.value - part.duality_gap <= full.value + ROUNDING


@seed(20261108)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), draw_seed=st.integers(0, 2**32 - 1))
def test_direct_sum_solved_by_components(data, draw_seed):
    """``x_fixed`` of a cyclic binary or ternary sum, solved one component at
    a time, against ``_solve_fixed`` on the whole problem (the joint on the
    product space).  Each summand is an anchor of at most 81 joint outcomes
    mixed with a sparse joint's box, and the sum's contexts are shuffled.
    The weights have zeros on most draws, and on some draws none on a whole
    component.  The two brackets ``[value - duality_gap, value]`` overlap;
    each part's optimizer, solved at its weights divided by their sum, is
    the optimizer's marginal on its component (the uniform joint where that
    sum is 0); and the iterations are the parts' sum."""
    rng = np.random.default_rng(draw_seed)
    small = [a for a in ANCHORS if a.hypergraph.joint_dim <= 81]

    def anchored():
        anchor = data.draw(st.sampled_from(small))
        return cx.mix(anchor, sparse_box(anchor.hypergraph, rng), float(rng.uniform(0.5, 1.0)))

    box = shuffled(cx.direct_sum(anchored(), anchored()), rng)
    parts = measures._parts(box)
    assert len(parts) == 2
    w = sparse_weights(box.hypergraph.n_contexts, rng).weights.copy()
    dropped = data.draw(st.sampled_from([None, 0, 1]))
    if dropped is not None:
        w[list(parts[dropped][1])] = 0.0
        kept = list(parts[1 - dropped][1])
        if w[kept].sum() == 0.0:
            w[kept[int(rng.integers(len(kept)))]] = 1.0
    weights = cx.ContextWeights(w / w.sum())
    report = cx.x_fixed(box, weights, tol=1e-9, max_iters=5000)
    whole = measures._FixedWeightProblem(box, weights)
    value, _, gap, _, _, _ = measures._solve_fixed(whole, 1e-9, 5000, *measures._starts(box))
    assert report.value - report.duality_gap <= value + 1e-12
    assert value - gap <= report.value + 1e-12
    iterations = 0
    for (part, members), comp in zip(parts, box.hypergraph.components):
        g = part.hypergraph
        share = float(weights.weights[list(members)].sum())
        if share == 0.0:
            expected = np.full(g.joint_dim, 1.0 / g.joint_dim)
        else:
            own = cx.x_fixed(part, cx.ContextWeights(weights.weights[list(members)] / share),
                             tol=1e-9, max_iters=5000)
            expected, iterations = own.optimizer.probabilities, iterations + own.iterations
        assert np.abs(cx.marginal(report.optimizer, comp) - expected).max() <= 1e-12
    assert report.iterations == iterations


def _pr_flip_group():
    """The group of one output flip on PR's first observable, which moves PR."""
    g = cx.pr_box().hypergraph
    return cx.generate_group([cx.GroupElement(g, range(4), [(1, 0)] + [(0, 1)] * 3)])


@pytest.mark.parametrize(
    "call,fragment",
    [
        pytest.param(lambda: cx.ContextWeights([]), "non-empty 1-D vector", id="weights-empty"),
        pytest.param(lambda: cx.x_fixed(cx.pr_box(), cx.ContextWeights.uniform(3)),
                     "one weight per context", id="x-fixed-weight-count"),
        pytest.param(lambda: cx.x_u_isotropic_reduced(cx.pr_box(), 1.5), "alpha 1.5 outside",
                     id="reduced-alpha"),
        pytest.param(lambda: cx.x_u_isotropic_reduced(cx.pr_box(), 0.9, _pr_flip_group()),
                     "not fixed by the supplied group", id="reduced-group-moves-reference"),
    ],
)
def test_refusals(call, fragment):
    with pytest.raises(cx.InvalidBoxError, match=fragment):
        call()

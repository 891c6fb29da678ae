"""NC polytope: vertices, cost LP, linear optimization."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

import contextuality as cx
from contextuality.boxes import JOINT_DIM_CAP
from contextuality.inequalities import support_weights
from contextuality.polytope import DENSE_VERTEX_CAP
from contextuality.sampling import (
    random_channel_mixture,
    random_consistent_box,
    random_noncontextual_box,
)


def vertices(g):
    """Every deterministic assignment of ``g``, in joint-index order."""
    return [
        cx.DeterministicAssignment(np.unravel_index(j, g.joint_shape)) for j in range(g.joint_dim)
    ]


def dense_reference_cost(box, n_columns=None):
    """Cost from one LP over vertex columns, independent of column generation.

    Uses every vertex column, or only the first ``n_columns`` of them; with
    fewer than all, the result is an upper bound on the cost.  HiGHS runs at
    its smallest feasibility tolerances, so boxes with entries near its
    default of 1e-7 are solved to 1e-9 too.
    """
    g = box.hypergraph
    columns = np.arange(min(g.joint_dim, n_columns or g.joint_dim))
    res = linprog(
        c=-np.ones(columns.size),
        A_ub=g.incidence.columns(np.arange(g.incidence.dim))[:, columns],
        b_ub=box.stacked(),
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return 1.0 + float(res.fun)


def ternary_cycle_box(n):
    """Ternary n-cycle: equal outputs on every context but the last, a shift by one there.

    The shifts around the cycle sum to 1 mod 3, so no deterministic assignment
    fits the support and the cost is 1.
    """
    g = cx.Hypergraph([(f"A{i}", 3) for i in range(n)], [(i, (i + 1) % n) for i in range(n)])
    dists = []
    for i in range(n):
        shift = 1 if i == n - 1 else 0
        dist = np.zeros(9)
        dist[[3 * a + (a + shift) % 3 for a in range(3)]] = 1 / 3
        dists.append(dist)
    return cx.Box(g, dists)


def seeded_boxes(seed=2024, rounds=3):
    """Binary and ternary boxes, with joint_dim both within and beyond 512."""
    rng = np.random.default_rng(seed)
    anchors = [
        cx.pr_box(),
        cx.kcbs_box(),
        cx.chain_box(6),
        cx.chain_box(10),
        cx.mermin_box(),
        ternary_cycle_box(4),
        ternary_cycle_box(6),
    ]
    boxes = []
    for _ in range(rounds):
        for anchor in anchors:
            weight = float(rng.uniform(0.5, 1.0))
            boxes.append(
                random_consistent_box(anchor.hypergraph, rng, anchor=anchor, anchor_weight=weight)
            )
        # Noncontextual Mermin-star boxes: cost 0, reached in more than one round.
        boxes.append(random_noncontextual_box(cx.mermin_box().hypergraph, rng))
    return boxes


class TestEnumerateVertices:
    def test_every_vertex_is_consistent_deterministic_box(self):
        g = cx.chain_box(4).hypergraph
        for assignment in vertices(g):
            det = cx.deterministic_box(assignment, g)
            assert cx.check_consistency(det, 1e-12).consistent


class TestContextualityCost:
    def test_pr_costs_one(self, pr):
        report = cx.contextuality_cost(pr)
        assert report.cost == pytest.approx(1.0, abs=1e-9)

    def test_pr_three_quarters_costs_zero(self):
        report = cx.contextuality_cost(cx.pr_box(alpha=0.75))
        assert report.cost == pytest.approx(0.0, abs=1e-8)

    def test_pm_eleven_twelfths_costs_half(self):
        # 6 * (11/12) - 5 = 1/2.
        report = cx.contextuality_cost(cx.pm_box(alpha=11 / 12))
        assert report.cost == pytest.approx(0.5, abs=1e-8)

    def test_report_invariants(self):
        # Mermin at 0.9 enters columns over more than one round.
        for box in (cx.pm_box(alpha=11 / 12), cx.mermin_box(0.9)):
            g = box.hypergraph
            report = cx.contextuality_cost(box)
            weights = report.witness_weights
            assert all(w >= 0 for w in weights.values())
            assert sum(weights.values()) == pytest.approx(1 - report.cost, abs=1e-8)
            # Reconstruction: cost * residual + sum_D w_D * det_D == box.
            recon = [np.zeros(g.context_dim(ci)) for ci in range(g.n_contexts)]
            for assignment, w in weights.items():
                det = cx.deterministic_box(assignment, g)
                for ci in range(g.n_contexts):
                    recon[ci] += w * det.distributions[ci]
            for ci in range(g.n_contexts):
                recon[ci] += report.cost * report.residual_box.distributions[ci]
                assert np.allclose(recon[ci], box.distributions[ci], atol=1e-8)

    def test_residual_is_consistent_box(self):
        report = cx.contextuality_cost(cx.pm_box(alpha=11 / 12))
        residual = report.residual_box
        assert cx.validate_box(residual).ok
        assert cx.check_consistency(residual, 1e-7).consistent

    def test_interval_brackets_cost(self, kcbs):
        report = cx.contextuality_cost(kcbs)
        lo, hi = report.interval
        assert lo - 1e-12 <= report.cost <= hi + 1e-12
        assert hi - lo < 1e-7

    def test_inconsistent_box_refused(self, pr):
        dists = list(pr.distributions)
        dists[0] = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(cx.InconsistentBoxError):
            cx.contextuality_cost(cx.Box(pr.hypergraph, dists))

    def test_column_generation_matches_dense(self):
        for box in [cx.chain_box(6, 0.9), cx.mermin_box(0.9), *seeded_boxes()]:
            cost = cx.contextuality_cost(box).cost
            assert cost == pytest.approx(dense_reference_cost(box), abs=1e-9)
        for n in (4, 6):
            assert cx.contextuality_cost(ternary_cycle_box(n)).cost == pytest.approx(1.0, abs=1e-9)

    def test_column_generation_beyond_dense_cap(self):
        # 2^16 vertices exceed the enumeration cap; the formula value is 16a - 15.
        box = cx.chain_box(16, 0.95)
        report = cx.contextuality_cost(box)
        assert report.cost == pytest.approx(0.2, abs=1e-7)

    def test_elimination_table_over_the_cap_refused_before_allocation(self):
        # Binary K_24, consistent: eliminating the last observable first joins all 24
        # in one table of 2^24 cells, which would take 128 MB.
        g = cx.Hypergraph(
            [(f"O{i}", 2) for i in range(24)], list(itertools.combinations(range(24), 2))
        )
        box = cx.Box(g, [np.full(4, 0.25)] * g.n_contexts)
        tracemalloc.start()
        try:
            with pytest.raises(cx.CapExceededError, match="table of 16777216 cells"):
                cx.contextuality_cost(box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_joint_index_overflow_refused(self):
        # CH(63) has 2^63 joint cells: its tables are small, but no int64 indexes the joint.
        with pytest.raises(cx.CapExceededError, match="overflows a joint index"):
            cx.contextuality_cost(cx.chain_box(63, 0.9))


class TestCostBracket:
    """``0 <= lo <= cost <= hi <= 1``, and the cost of the full vertex LP."""

    @staticmethod
    def assert_ordered(report):
        lo, hi = report.interval
        assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)

    @pytest.mark.parametrize("reference_columns", [DENSE_VERTEX_CAP, 1])
    def test_mermin_ninety(self, reference_columns):
        # The dense LP once returned lo = 0.5000000000000001 > hi = 0.5 here.
        box = cx.mermin_box(0.9)
        report = cx.contextuality_cost(box)
        self.assert_ordered(report)
        # The reference LP is exact over every vertex column, an upper bound over fewer.
        reference = dense_reference_cost(box, reference_columns)
        if reference_columns >= box.hypergraph.joint_dim:
            assert report.cost == pytest.approx(reference, abs=1e-9)
        else:
            assert report.cost <= reference + 1e-9

    def test_chain16_ninety(self):
        # Column generation once returned hi = -4.4e-16 here.
        self.assert_ordered(cx.contextuality_cost(cx.chain_box(16, 0.9)))

    def test_seeded_boxes_on_both_paths(self):
        # Column generation against the full vertex LP.
        for box in seeded_boxes(seed=7, rounds=4):
            report = cx.contextuality_cost(box)
            self.assert_ordered(report)
            assert report.cost == pytest.approx(dense_reference_cost(box), abs=1e-9)

class TestIsNoncontextual:
    def test_joint_box_is_member(self, rng):
        box = random_noncontextual_box(cx.pm_box().hypergraph, rng)
        assert cx.is_noncontextual(box)

    def test_pr_is_not(self, pr):
        assert not cx.is_noncontextual(pr)

    def test_isotropic_pr_boundary(self):
        for alpha in np.linspace(0, 1, 21):
            expected = 0.25 - 1e-9 <= alpha <= 0.75 + 1e-9
            assert cx.is_noncontextual(cx.pr_box(alpha=float(alpha)), tol=1e-8) == expected

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_tolerance_not_finite_and_nonnegative_refused(self, tol):
        # cost <= tol read a noncontextual box as contextual at tol -1 or NaN.
        with pytest.raises(cx.InvalidBoxError, match="tolerance"):
            cx.is_noncontextual(cx.pr_box(0.5), tol=tol)


class TestCostProperties:
    def test_convex_monotone_under_mixing(self, rng):
        g = cx.chain_box(5).hypergraph
        anchor = cx.chain_box(5)
        for _ in range(5):
            b1 = random_consistent_box(g, rng, anchor=anchor)
            b2 = random_consistent_box(g, rng)
            p = float(rng.uniform())
            c_mix = cx.contextuality_cost(cx.mix(b1, b2, p)).cost
            bound = p * cx.contextuality_cost(b1).cost + (1 - p) * cx.contextuality_cost(b2).cost
            assert c_mix <= bound + 1e-8

    def test_joint_boxes_cost_zero(self, rng):
        for _ in range(5):
            box = random_noncontextual_box(cx.kcbs_box().hypergraph, rng)
            assert cx.contextuality_cost(box).cost <= 1e-9

    def test_channel_monotonicity(self, rng):
        anchor = cx.pr_box()
        for _ in range(5):
            box = random_consistent_box(anchor.hypergraph, rng, anchor=anchor)
            channel = random_channel_mixture(box.hypergraph, rng)
            degraded = cx.apply_independent_channels(box, channel)
            assert (
                cx.contextuality_cost(degraded).cost
                <= cx.contextuality_cost(box).cost + 1e-8
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_chain_cost_formula_on_grid(self, n):
        # Above the NC interval this is n*alpha - (n-1); for even n the
        # family is bit-flip symmetric, which mirrors the formula below it.
        for alpha in np.linspace(0, 1, 21):
            box = cx.chain_box(n, float(alpha))
            expected = cx.cost_closed_form("CH", float(alpha), n=n)
            assert cx.contextuality_cost(box).cost == pytest.approx(expected, abs=1e-7)

    def test_even_family_cost_is_bitflip_symmetric(self):
        for alpha in (0.0, 0.1, 0.9):
            left = cx.contextuality_cost(cx.pr_box(alpha=alpha)).cost
            right = cx.contextuality_cost(cx.pr_box(alpha=1 - alpha)).cost
            assert left == pytest.approx(right, abs=1e-9)


class TestOptimizeLinear:
    def test_beta_pr_max_is_three(self, pr):
        result = cx.optimize_linear(pr.hypergraph, support_weights(pr), "max")
        assert result.value == 3.0

    def test_beta_pm_min_is_one(self, pm):
        result = cx.optimize_linear(pm.hypergraph, support_weights(pm), "min")
        assert result.value == 1.0

    def test_beta_mermin_min_is_zero(self, mermin):
        result = cx.optimize_linear(mermin.hypergraph, support_weights(mermin), "min")
        assert result.value == 0.0

    def test_attaining_vertex_rechecks(self, pr):
        result = cx.optimize_linear(pr.hypergraph, support_weights(pr), "max")
        det = cx.deterministic_box(result.argopt, pr.hypergraph)
        assert cx.beta(pr, det) == result.value

    def test_matches_bruteforce_over_materialized_vertices(self, rng, kcbs):
        g = kcbs.hypergraph
        weights = [rng.normal(size=g.context_dim(ci)) for ci in range(g.n_contexts)]
        fast = cx.optimize_linear(g, weights, "max")
        brute = -np.inf
        for assignment in vertices(g):
            det = cx.deterministic_box(assignment, g)
            score = sum(float(w @ d) for w, d in zip(weights, det.distributions))
            brute = max(brute, score)
        assert fast.value == pytest.approx(brute, abs=1e-12)

    def test_direction_validated(self, pr):
        with pytest.raises(cx.InvalidBoxError):
            cx.optimize_linear(pr.hypergraph, support_weights(pr), "sideways")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_refused(self, pr, bad):
        weights = support_weights(pr)
        weights[2][1] = bad
        for direction in ("max", "min"):
            with pytest.raises(cx.InvalidBoxError):
                cx.optimize_linear(pr.hypergraph, weights, direction)

    @pytest.mark.parametrize("n", [30, 50])
    def test_ks_bounds_beyond_joint_cap(self, n):
        box = cx.chain_box(n)
        assert box.hypergraph.joint_dim > JOINT_DIM_CAP
        report = cx.verify_bounds_by_lp(box)
        assert (report.max_beta, report.min_beta) == (n - 1, 1.0)
        for outputs, value in ((report.argmax_outputs, n - 1), (report.argmin_outputs, 1.0)):
            det = cx.deterministic_box(cx.DeterministicAssignment(outputs), box.hypergraph)
            assert cx.beta(box, det) == value

    def test_elimination_table_cap_refused_before_allocating(self):
        # Binary K_24: eliminating the last observable first joins all 24 in one table.
        g = cx.Hypergraph(
            [(f"O{i}", 2) for i in range(24)], list(itertools.combinations(range(24), 2))
        )
        weights = [np.ones(4)] * g.n_contexts
        tracemalloc.start()
        try:
            with pytest.raises(cx.CapExceededError):
                cx.optimize_linear(g, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a table over the cap would take 2^22 * 8 bytes


def test_vertex_matrix_columns_are_deterministic_boxes(pr):
    g = pr.hypergraph
    a_mat = g.incidence.columns(np.arange(g.incidence.dim))
    for j in (0, 7, 15):
        det = cx.deterministic_box(vertices(g)[j], g)
        assert np.array_equal(a_mat[:, j], det.stacked())


def test_stacked_rows_match_outcome_indices(pm):
    g = pm.hypergraph
    rows = g.incidence.rows(np.arange(8))
    det = cx.deterministic_box(vertices(g)[3], g)
    stacked = det.stacked()
    assert np.allclose(stacked[rows[3]], 1.0)
    assert stacked.sum() == g.n_contexts

"""Machine-checkable verification suites behind ``contextuality verify``.

Each suite returns a list of named pass/fail checks.  The golden suite pins
the numerical solvers to the closed-form values; the property suites are
seeded and sized by the caller.  The acceptance tests run these same
functions, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .boxes import apply_independent_channels, direct_sum, mix, tensor
from .builders import builtin, chain_box, kcbs_box, mermin_box, pm_box, pr_box
from .errors import ContextualityError
from .inequalities import beta, beta_scalar_identity_check, verify_bounds_by_lp
from .measures import (
    ContextWeights,
    verify_equivalence,
    x_max,
    x_u,
)
from .polytope import _tree_lp, contextuality_cost, is_noncontextual
from .sampling import (
    random_channel_mixture,
    random_consistent_box,
    random_hypergraph,
    random_noncontextual_box,
)
from .symmetry import builtin_group, invariant_set_check, twirl, x_u_isotropic_reduced


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _golden_match(name: str, report, expected: float, tol: float) -> list[CheckResult]:
    """Value match plus the lower-bound certificate bracket for one solve."""
    err = abs(report.value - expected)
    results = [
        _check(name, err <= tol, f"value={report.value:.8f} expected={expected:.8f} err={err:.2e}")
    ]
    lo = report.value - report.duality_gap - 1e-12
    hi = report.value + 1e-12
    results.append(
        _check(
            name + "/certificate",
            lo <= expected <= hi,
            f"closed form inside [value-gap, value] = [{lo:.8f}, {hi:.8f}]",
        )
    )
    return results


def golden_suite(tol: float = 1e-5, chain_full_max: int = 12) -> list[CheckResult]:
    """Criterion 1: solver values against the closed forms."""
    results: list[CheckResult] = []
    results += _golden_match("xu/PR", x_u(pr_box()), math.log2(4 / 3), tol)
    results += _golden_match("xu/PM", x_u(pm_box()), math.log2(6 / 5), tol)
    results += _golden_match("xu/M", x_u(mermin_box()), math.log2(5 / 4), tol)
    for n in range(3, chain_full_max + 1):
        start = time.perf_counter()
        report = x_u(chain_box(n))
        elapsed = time.perf_counter() - start
        results += _golden_match(f"xu/CH({n})", report, math.log2(n / (n - 1)), tol)
        if n == 12:
            results.append(
                _check("xu/CH(12)/runtime", elapsed < 30.0, f"{elapsed:.2f}s")
            )
    for n in range(13, 51):
        reduced = x_u_isotropic_reduced(chain_box(n), 1.0)
        closed = closed_form.xu_chain(n, 1.0)
        results.append(
            _check(
                f"xu/CH({n})/reduced",
                abs(reduced - closed) <= 1e-9,
                f"reduced={reduced:.12f} closed={closed:.12f}",
            )
        )
    alpha_chsh = closed_form.quantum_chain_alpha(4)
    results += _golden_match(
        "xu/CHSH-quantum",
        x_u(chain_box(4, alpha_chsh)),
        closed_form.xu_chain(4, alpha_chsh),
        tol,
    )
    kcbs_expected = closed_form.chi(1 - 2 / math.sqrt(5), 0.2)
    results += _golden_match("xu/KCBS", x_u(kcbs_box()), kcbs_expected, tol)
    results.append(
        _check(
            "xu/KCBS/paper-constant",
            abs(kcbs_expected - 0.0466576) <= 1e-7,
            f"chi = {kcbs_expected:.7f}",
        )
    )
    return results


def cost_suite(tol: float = 1e-7, grid: int = 21) -> list[CheckResult]:
    """Criterion 2: the cost, and the junction-tree LP behind it, against the
    isotropic closed forms on an alpha grid.

    PR and the chains are binary cycles, whose cost is itself a closed form,
    and isotropic PM and M are certified by their parity inequality and a
    symmetric witness, so none of them reaches an LP through
    ``contextuality_cost``; the LP is checked on its own as well, through
    ``_tree_lp``.
    """
    results: list[CheckResult] = []
    cases = [("PR", None), ("PM", None), ("M", None)] + [("CH", n) for n in (3, 4, 5, 6)]
    for family, n in cases:
        worst = worst_lp = 0.0
        for alpha in np.linspace(0.0, 1.0, grid):
            box = builtin(family, n=n, alpha=float(alpha))
            expected = closed_form.cost_closed_form(family, float(alpha), n=n)
            worst = max(worst, abs(contextuality_cost(box).cost - expected))
            worst_lp = max(worst_lp, abs(_tree_lp(box).cost - expected))
        label = family if n is None else f"CH({n})"
        results.append(
            _check(
                f"cost/{label}",
                max(worst, worst_lp) <= tol,
                f"worst |cost - formula| = {worst:.2e}, |LP - formula| = {worst_lp:.2e}",
            )
        )
    return results


def bounds_suite() -> list[CheckResult]:
    """Criterion 3: KS bounds attained exactly at integer vertices.

    The chains run past the joint-size cap (2^22 cells, CH(22)): the extrema
    come from elimination, whose tables stay small on a chain.
    """
    results: list[CheckResult] = []
    cases = [("PR", pr_box()), ("PM", pm_box()), ("M", mermin_box())] + [
        (f"CH({n})", chain_box(n)) for n in (*range(3, 9), 12, 20, 30, 50)
    ]
    for label, box in cases:
        report = verify_bounds_by_lp(box)
        results.append(
            _check(
                f"beta-bounds/{label}",
                report.ok,
                f"max={report.max_beta} (exp {report.expected_max}) "
                f"min={report.min_beta} (exp {report.expected_min})",
            )
        )
    return results


def equivalence_suite(
    seed: int = 0, samples: int = 20, tol: float = 1e-5
) -> list[CheckResult]:
    """Criterion 4: mutual-information equivalence residuals."""
    results: list[CheckResult] = []
    for label, box in (("PR", pr_box()), ("PM", pm_box()), ("KCBS", kcbs_box())):
        w = ContextWeights.uniform(box.hypergraph.n_contexts)
        eq = verify_equivalence(box, w)
        results.append(
            _check(f"equivalence/{label}", eq.residual <= tol, f"residual={eq.residual:.2e}")
        )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for s in range(samples):
        k = int(rng.integers(4, 7))
        if s % 2 == 0:
            g = random_hypergraph(rng, k, n_contexts=int(rng.integers(3, 7)))
            box = random_consistent_box(g, rng)
        else:
            anchor = chain_box(k)
            box = random_consistent_box(anchor.hypergraph, rng, anchor=anchor)
        w = ContextWeights.uniform(box.hypergraph.n_contexts)
        eq = verify_equivalence(box, w)
        worst = max(worst, eq.residual)
    results.append(
        _check(
            f"equivalence/random[{samples}]",
            worst <= tol,
            f"worst residual={worst:.2e}",
        )
    )
    return results


def direct_sum_suite(tol: float = 2e-5) -> list[CheckResult]:
    """Criterion 5: direct-sum laws and the strict X_u < X_max gap."""
    results: list[CheckResult] = []
    ds = direct_sum(pr_box(), pr_box(alpha=0.5))
    ru = x_u(ds)
    rm = x_max(ds)
    xu_expected = 0.5 * math.log2(4 / 3)
    xmax_expected = math.log2(4 / 3)
    results.append(
        _check(
            "direct-sum/xu",
            abs(ru.value - xu_expected) <= tol,
            f"value={ru.value:.7f} expected={xu_expected:.7f}",
        )
    )
    results.append(
        _check(
            "direct-sum/xmax",
            abs(rm.value - xmax_expected) <= tol,
            f"value={rm.value:.7f} expected={xmax_expected:.7f}",
        )
    )
    results.append(
        _check(
            "direct-sum/strict-gap",
            rm.value - ru.value > 0.5 * math.log2(4 / 3) - 4 * tol,
            f"xmax - xu = {rm.value - ru.value:.7f}",
        )
    )
    pr_weight = float(np.sum(rm.outer_weights.weights[:4]))
    results.append(
        _check(
            "direct-sum/weights-concentrate",
            pr_weight >= 1.0 - 1e-3,
            f"weight on contextual block = {pr_weight:.6f}",
        )
    )
    return results


def additivity_suite(include_pm: bool = True) -> list[CheckResult]:
    """Criterion 6: 2-copy (and 3-copy) additivity of X_u on tensor powers."""
    results: list[CheckResult] = []
    pr2 = tensor(pr_box(), pr_box())
    r = x_u(pr2, tol=2e-4)
    expected = 2 * math.log2(4 / 3)
    results.append(
        _check(
            "additivity/PRxPR",
            abs(r.value - expected) <= 5e-4,
            f"value={r.value:.6f} expected={expected:.6f} gap={r.duality_gap:.1e}",
        )
    )
    pr3 = tensor(pr2, pr_box())
    r = x_u(pr3, tol=4e-4)
    expected = 3 * math.log2(4 / 3)
    results.append(
        _check(
            "additivity/PR^3",
            abs(r.value - expected) <= 1e-3,
            f"value={r.value:.6f} expected={expected:.6f} gap={r.duality_gap:.1e}",
        )
    )
    if include_pm:
        pm2 = tensor(pm_box(), pm_box())
        r = x_u(pm2, tol=2e-4)
        expected = 2 * math.log2(6 / 5)
        results.append(
            _check(
                "additivity/PMxPM",
                abs(r.value - expected) <= 5e-4,
                f"value={r.value:.6f} expected={expected:.6f} gap={r.duality_gap:.1e} "
                f"({r.wall_time_s:.1f}s)",
            )
        )
    return results


def xmax_equals_xu_suite(tol: float = 2e-5) -> list[CheckResult]:
    """Criterion 7: X_max = X_u on isotropic boxes."""
    results: list[CheckResult] = []
    for family in ("PR", "PM", "M"):
        for alpha in (0.85, 0.95, 1.0):
            box = builtin(family, alpha=alpha)
            ru = x_u(box)
            rm = x_max(box)
            diff = abs(rm.value - ru.value)
            results.append(
                _check(
                    f"xmax-xu/{family}@{alpha}",
                    diff <= tol,
                    f"xu={ru.value:.7f} xmax={rm.value:.7f} diff={diff:.2e}",
                )
            )
    return results


def _faithfulness_checks(rng: np.random.Generator, samples: int) -> CheckResult:
    anchor_pool = [pr_box(), chain_box(5), pm_box()]
    failures = []
    for s in range(samples):
        if s % 2 == 0:
            g = anchor_pool[s % len(anchor_pool)].hypergraph
            box = random_noncontextual_box(g, rng)
        else:
            anchor = anchor_pool[s % len(anchor_pool)]
            box = random_consistent_box(
                anchor.hypergraph, rng, anchor=anchor, anchor_weight=float(rng.uniform(0.8, 1.0))
            )
        xu_small = x_u(box, tol=1e-8).value <= 1e-6
        cost_small = contextuality_cost(box).cost <= 1e-6
        member = is_noncontextual(box, tol=1e-6)
        if not (xu_small == cost_small == member):
            failures.append((s, xu_small, cost_small, member))
    return _check(
        f"properties/faithfulness[{samples}]",
        not failures,
        f"{len(failures)} disagreements"
        if failures
        else "xu<=1e-6 iff cost<=1e-6 iff LP membership on all samples",
    )


def _monotonicity_checks(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    worst_x = -np.inf
    worst_c = -np.inf
    for s in range(samples):
        anchor = pr_box() if s % 2 == 0 else chain_box(5)
        box = random_consistent_box(anchor.hypergraph, rng, anchor=anchor)
        channel = random_channel_mixture(box.hypergraph, rng)
        degraded = apply_independent_channels(box, channel)
        worst_x = max(worst_x, x_u(degraded).value - x_u(box).value)
        worst_c = max(
            worst_c, contextuality_cost(degraded).cost - contextuality_cost(box).cost
        )
    return [
        _check(
            f"properties/data-processing-xu[{samples}]",
            worst_x <= 1e-6,
            f"worst increase {worst_x:.2e}",
        ),
        _check(
            f"properties/data-processing-cost[{samples}]",
            worst_c <= 1e-8,
            f"worst increase {worst_c:.2e}",
        ),
    ]


def _twirl_checks(seed: int, samples: int) -> list[CheckResult]:
    results = []
    for name, n in (("PM", None), ("CH", 5), ("KCBS", None)):
        group = builtin_group(name, n)
        check = invariant_set_check(group, samples=samples, seed=seed)
        results.append(
            _check(
                f"properties/invariant-set/{name}",
                check.ok,
                f"idempotence<= {check.max_idempotence_error:.1e}, "
                f"invariance<= {check.max_invariance_error:.1e}",
            )
        )
    return results


def _beta_checks(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    reference = pr_box()
    group = builtin_group("CH", 4)
    worst_linear = 0.0
    worst_twirl = 0.0
    worst_scalar = 0.0
    g = reference.hypergraph
    for _ in range(samples):
        b1 = random_consistent_box(g, rng, anchor=reference)
        b2 = random_consistent_box(g, rng)
        t = float(rng.uniform())
        lin = abs(
            beta(reference, mix(b1, b2, t))
            - (t * beta(reference, b1) + (1 - t) * beta(reference, b2))
        )
        worst_linear = max(worst_linear, lin)
        worst_twirl = max(
            worst_twirl, abs(beta(reference, twirl(group, b1)) - beta(reference, b1))
        )
        worst_scalar = max(worst_scalar, beta_scalar_identity_check(reference, b1))
    return [
        _check(
            f"properties/beta-linearity[{samples}]",
            worst_linear <= 1e-12,
            f"worst {worst_linear:.2e}",
        ),
        _check(
            f"properties/beta-twirl-invariance[{samples}]",
            worst_twirl <= 1e-12,
            f"worst {worst_twirl:.2e}",
        ),
        _check(
            f"properties/beta-scalar-identity[{samples}]",
            worst_scalar <= 1e-12,
            f"worst {worst_scalar:.2e}",
        ),
    ]


def _certificate_checks(rng: np.random.Generator, samples: int) -> CheckResult:
    """Lower-bound soundness: value - gap never exceeds a certified reference."""
    worst = -np.inf
    for s in range(samples):
        n = int(rng.integers(3, 7))
        alpha = float(rng.uniform(0.8, 1.0))
        box = chain_box(n, alpha)
        report = x_u(box)
        expected = closed_form.xu_chain(n, alpha)
        worst = max(worst, (report.value - report.duality_gap) - expected)
    return _check(
        f"properties/certificate-soundness[{samples}]",
        worst <= 1e-12,
        f"worst (value - gap) - truth = {worst:.2e}",
    )


def property_suite(seed: int = 0, samples: int = 50) -> list[CheckResult]:
    """Criterion 8: seeded property checks across the whole stack."""
    rng = np.random.default_rng(seed)
    results = [_faithfulness_checks(rng, samples)]
    results += _monotonicity_checks(rng, samples)
    results += _twirl_checks(seed, samples)
    results += _beta_checks(rng, samples)
    results.append(_certificate_checks(rng, samples))
    return results


def figure_chain_rows(
    n_min: int, n_max: int, variant: str, solver: str
) -> list[tuple[str, int, float, float]]:
    """(variant, n, alpha, xu) rows for the chain-family figure."""
    if not 3 <= n_min <= n_max:
        raise ContextualityError(f"need 3 <= n_min <= n_max, got [{n_min}, {n_max}]")
    variants = ("max", "quantum") if variant == "both" else (variant,)
    rows = []
    for var in variants:
        for n in range(n_min, n_max + 1):
            alpha = 1.0 if var == "max" else closed_form.quantum_chain_alpha(n)
            if solver == "closedform":
                value = closed_form.xu_chain(n, alpha)
            else:
                value = x_u_isotropic_reduced(chain_box(n), alpha)
            rows.append((var, n, alpha, value))
    return rows


def figure_suite() -> list[CheckResult]:
    """Criterion 9: chain figure data (row count, spot values, monotonicity)."""
    rows = figure_chain_rows(3, 50, "both", "closedform")
    results = [_check("figure/row-count", len(rows) == 96, f"{len(rows)} rows")]
    by_variant: dict[str, list[tuple[int, float, float]]] = {"max": [], "quantum": []}
    for variant, n, alpha, xu_val in rows:
        by_variant[variant].append((n, alpha, xu_val))
    spot_max = [r for r in by_variant["max"] if r[0] == 4][0]
    spot_q = [r for r in by_variant["quantum"] if r[0] == 4][0]
    results.append(
        _check(
            "figure/spot-n4-max",
            abs(spot_max[2] - math.log2(4 / 3)) <= 1e-12,
            f"xu={spot_max[2]:.7f}",
        )
    )
    results.append(
        _check(
            "figure/spot-n4-quantum",
            abs(spot_q[2] - closed_form.xu_chain(4, closed_form.quantum_chain_alpha(4))) <= 1e-12,
            f"xu={spot_q[2]:.7f}",
        )
    )
    xs = [r[2] for r in sorted(by_variant["max"])]
    mono = all(a > b for a, b in zip(xs, xs[1:]))
    results.append(_check("figure/monotone-max", mono, "xu strictly decreasing in n"))
    return results


SUITES = {
    "golden": lambda seed, samples: (
        golden_suite() + cost_suite() + bounds_suite() + direct_sum_suite()
        + xmax_equals_xu_suite() + figure_suite()
    ),
    "properties": lambda seed, samples: property_suite(seed=seed, samples=samples),
    "equivalence": lambda seed, samples: equivalence_suite(seed=seed, samples=samples),
    "additivity": lambda seed, samples: additivity_suite(),
}


def run_suite(name: str, seed: int = 0, samples: int = 50) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed, samples)

"""Relative entropy of contextuality: fixed weights, uniform, and maximized.

For a consistent box with context distributions g_c and context weights w_c,
the fixed-weight measure minimizes

    F(p) = sum_c w_c * D(g_c || marginal_c(p))        (bits)

over joint distributions p on the full product alphabet.  F is convex; the
gradient coordinate at lambda is ``-log2(e) * r(lambda)`` with

    r(lambda) = sum_c w_c * g_c(lambda_c) / p_c(lambda_c),

so ``max r`` gives the duality gap ``(max r - 1) * log2(e)`` for free, and
``value - gap`` is a lower bound on the optimum at every iterate.  The solver
takes one kind of step: the multiplicative step ``p <- p * r`` (an EM /
iterative-scaling update that never increases F), over-relaxed adaptively
(Salakhutdinov & Roweis 2003) as ``p <- p * (r / max r)**omega``, with every
coordinate floored at ``eps / joint_dim`` and the result normalized.  The
floor keeps the iterate strictly positive, so no face of the simplex traps
it; EM from a positive point converges to the optimum of this convex problem
(Csiszar & Tusnady 1984).  A trial with omega > 1 is kept only if F falls
strictly, and then omega grows; otherwise the plain step is taken from the
same point and omega resets to 1, so F never increases beyond rounding.  The
reported gap is measured against the best lower bound seen over all iterates.

One evaluation of an iterate is one pass on flat joint vectors: the support
marginals m (a matrix-vector product on small boxes), the value from t / m,
then r and ``max r``, which serves both the gap and the next over-relaxed
step.  Floored iterates have positive marginals, so no marginal is scanned
for zeros; a zero one shows as an infinite value.

The maximized measure sup_w min_p is computed by multiplicative-weights
ascent on the context simplex; the supergradient at w is the vector of
per-context divergences at the inner minimizer.  Each round reweights one
problem; its rows, and so its matrix, come from the box alone.

On an acyclic hypergraph every consistent box is noncontextual, and its
junction-tree joint (``boxes.junction_tree_joint``) has the box's context
marginals (Vorob'ev 1962).  ``x_fixed`` and ``x_u`` start the unchanged loop
from that joint, and ``x_max`` starts its first round there.  The
certificate at the start has a gap of about 1e-15, so the solve stops at its
first check without a step, and ``x_max``'s ascent stops after one round.
Nothing rests on the theorem in floating point: a box consistent only within
``require_consistent``'s tolerance has a larger gap, and the loop steps on
from a near-optimal point.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .boxes import (
    JOINT_DIM_CAP,
    Box,
    Hypergraph,
    JointDistribution,
    check_joint_dim,
    check_tolerance,
    junction_tree_joint,
    require_consistent,
)
from .closed_form import chi
from .errors import InvalidBoxError, NotXorBoxError
from .inequalities import classify_xor, nc_alpha_interval
from .symmetry import apply

LOG2E = math.log2(math.e)
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200_000
# Largest support-restricted incidence matrix (support rows x joint_dim
# entries, 8 MB) the solver keeps dense: below it two matrix-vector products
# beat the incidence's marginal sums and table lift on every box measured, above it the
# gain shrinks and turns into a loss on boxes with many rows per context.
DENSE_ENTRIES_CAP = 2**20
# Adaptive over-relaxation of the multiplicative step: the
# exponent on r grows by this factor after each accepted step, up to the cap,
# and falls back to 1 (plain EM) after a trial that does not lower F.  On the
# benchmark's small-batch solves 1.5 and 16 took fewer iterations than a cap
# of 64 or a factor of 2 (10,392 against 10,616 and 11,252).
OVERRELAX_GROWTH = 1.5
OVERRELAX_CAP = 16.0
# x_max's ascent: the least improvement that counts (and the stopping gap to
# the upper bound), the round cap, and the step scale (round t: eta0/sqrt(t)).
_XMAX_IMPROVE_TOL = 1e-7
_XMAX_MAX_OUTER = 2000
_XMAX_ETA0 = 4.0
# The step's floor is _EPS / joint_dim on every coordinate.
_EPS = np.finfo(float).eps


def relative_entropy(g, p) -> float:
    """D(g || p) in bits, with 0*log(0/x) = 0 and +inf on support mismatch."""
    g = np.asarray(g, dtype=float)
    p = np.asarray(p, dtype=float)
    if g.shape != p.shape:
        raise InvalidBoxError(f"length mismatch: {g.shape} vs {p.shape}")
    mask = g > 0.0
    if np.any(p[mask] <= 0.0):
        return float("inf")
    return float(np.sum(g[mask] * np.log2(g[mask] / p[mask])))


@dataclass(frozen=True)
class ContextWeights:
    """Probability vector over the contexts of a box."""

    weights: np.ndarray

    def __init__(self, weights):
        vec = np.asarray(weights, dtype=float).copy()
        if vec.ndim != 1 or vec.size == 0:
            raise InvalidBoxError("context weights must be a non-empty vector")
        if not np.all(np.isfinite(vec)):
            raise InvalidBoxError("context weights must be finite")
        if np.any(vec < -1e-15):
            raise InvalidBoxError("context weights must be nonnegative")
        vec = np.where(vec < 0.0, 0.0, vec)
        if abs(float(vec.sum()) - 1.0) > 1e-12:
            raise InvalidBoxError(f"context weights sum to {float(vec.sum())!r}")
        vec.flags.writeable = False
        object.__setattr__(self, "weights", vec)

    @classmethod
    def uniform(cls, n: int) -> "ContextWeights":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class MeasureReport:
    """Value plus optimality certificates for one measure evaluation.

    ``value - duality_gap`` is the best lower bound on the true optimum of the
    inner minimization over the iterates of the solve; for maximized runs
    ``outer_gap`` additionally bounds the distance to the supremum over weights
    (it may stay looser than the inner tolerance and is informational).
    """

    value: float
    optimizer: JointDistribution | None
    duality_gap: float
    iterations: int
    wall_time_s: float
    converged: bool
    method: str
    outer_weights: ContextWeights | None = None
    outer_gap: float | None = None
    trace: tuple[tuple[int, float, float], ...] = ()


def _factorize_components(p_tensor: np.ndarray, g: Hypergraph) -> np.ndarray:
    """Replace p by the product of its marginals on hypergraph components.

    Context marginals are unchanged (each context lives in one component), so
    the objective value is preserved while the minimizer factorizes.
    """
    k = g.n_observables
    factors = [
        p_tensor.sum(axis=tuple(a for a in range(k) if a not in comp), keepdims=True)
        for comp in g.components
    ]
    return functools.reduce(np.multiply, factors)


class _FixedWeightProblem:
    """F(p) = sum_c w_c D(g_c || (M p)_c) on the stacked context outcomes.

    Only the support, the positive-target rows, chosen once from the box,
    enters the value, the multiplier field and the divergences: a weight
    scales its rows, and a zero-weight row adds exactly 0 at the solver's
    floored iterates.  When the support rows of M have at most
    ``DENSE_ENTRIES_CAP`` entries they are kept as one dense matrix, so a
    step costs two matrix-vector products; above the cap the operator's
    tensor reductions keep memory O(joint_dim).
    """

    def __init__(self, box: Box, weights: ContextWeights):
        self.g = box.hypergraph
        self.op = self.g.incidence
        self.targets = box.stacked()
        self.support = np.flatnonzero(self.targets > 0.0)
        self.t_s = self.targets[self.support]
        self.dense: np.ndarray | None = None
        if self.support.size * self.g.joint_dim <= DENSE_ENTRIES_CAP:
            self.dense = self.op.columns(support=self.support)
        self.reweight(weights.weights)

    def reweight(self, weights: np.ndarray) -> None:
        """Take new context weights (a probability vector)."""
        self.w_s = np.repeat(weights, self.op.dims)[self.support]
        self.wt_s = self.w_s * self.t_s

    def field(self, p: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Objective value (bits), multiplier field r and its largest entry,
        at a flat joint vector ``p``; r is flat too.

        The solver calls it at floored iterates, whose marginals are all
        positive.  Elsewhere a zero marginal on the support, of a zero-weight
        context too (0 * inf is NaN), makes the value +inf; then r is 0 and
        its largest entry +inf.
        """
        if self.dense is None:
            m = self.op.marginals(p)[self.support]
        else:
            m = self.dense @ p
        ratio = self.t_s / m
        value = float(self.wt_s @ np.log2(ratio))
        if not math.isfinite(value):
            return math.inf, np.zeros(p.size), math.inf
        if self.dense is None:
            y = np.zeros(self.op.dim)
            y[self.support] = ratio * self.w_s
            r = self.op.lift(y).reshape(-1)
        else:
            r = (ratio * self.w_s) @ self.dense
        return value, r, float(r.max())

    @cached_property
    def runs(self) -> list[tuple[int, int]]:
        """Each context's run ``[start, stop)`` of rows within ``support``
        (built on first use: only ``x_max`` reads the divergences)."""
        ends = np.searchsorted(self.support, self.op.offsets).tolist()
        return list(zip(ends, ends[1:]))

    def divergences(self, p: np.ndarray) -> np.ndarray:
        """Per-context D(g_c || p_c) in bits at the given joint (+inf where a
        positive target meets a zero marginal).  The terms of every context
        come from one pass; each context's run is then summed with ``np.sum``,
        so every value is bit-identical to ``relative_entropy``."""
        m = self.op.marginals(p)[self.support]
        with np.errstate(divide="ignore"):
            terms = self.t_s * np.log2(self.t_s / m)
        return np.array([terms[a:b].sum() for a, b in self.runs])


def _gap(r_max: float) -> float:
    """Duality gap (bits) of an iterate whose multiplier field peaks at ``r_max``."""
    return max((r_max - 1.0) * LOG2E, 0.0)


def _floored_step(p: np.ndarray, r: np.ndarray | float, omega: float, r_max: float) -> np.ndarray:
    """The solver's one step: ``p * r`` for omega = 1, else
    ``p * (r / r_max)**omega`` with ``r_max = max r`` (the scaling keeps the
    power at most 1), floored at eps/joint_dim and normalized.

    The floor keeps every coordinate positive, so a multiplicative step can
    always grow it back; it adds at most eps of total mass.
    """
    q = p * r if omega == 1.0 else p * (r / r_max) ** omega
    np.maximum(q, _EPS / q.size, out=q)
    q /= q.sum()
    return q


def _solve_fixed(
    problem: _FixedWeightProblem,
    tol: float,
    max_iters: int,
    init: np.ndarray | None = None,
) -> tuple[float, np.ndarray, float, int, bool, tuple]:
    g = problem.g
    start = np.full(g.joint_dim, 1.0 / g.joint_dim) if init is None else init.reshape(-1)
    p = _floored_step(start, 1.0, 1.0, 1.0)

    trace: list[tuple[int, float, float]] = []
    next_trace = 1
    omega = 1.0
    value, r, r_max = problem.field(p)
    gap = _gap(r_max)
    # Every iterate's value minus its gap bounds the optimum from below; the
    # reported gap is measured against the best of these bounds.
    lower = value - gap
    iteration = 0
    for iteration in range(1, max_iters + 1):
        if gap <= tol:
            break
        trial = _floored_step(p, r, omega, r_max)
        trial_value, trial_r, trial_r_max = problem.field(trial)
        if omega > 1.0 and not trial_value < value:
            # The over-relaxed trial did not lower F: take the plain step instead.
            omega = 1.0
            trial = _floored_step(p, r, omega, r_max)
            trial_value, trial_r, trial_r_max = problem.field(trial)
        elif trial_value < value:
            omega = min(omega * OVERRELAX_GROWTH, OVERRELAX_CAP)
        p, value, r, r_max = trial, trial_value, trial_r, trial_r_max
        lower = max(lower, value - _gap(r_max))
        gap = max(value - lower, 0.0)
        if iteration >= next_trace:
            trace.append((iteration, value, gap))
            next_trace *= 2
    trace.append((iteration, value, gap))

    if len(g.components) > 1:
        # Factorizing across components keeps every context marginal, hence
        # the value; re-evaluate so the value refers to the returned point.
        p = _factorize_components(p.reshape(g.joint_shape), g).reshape(-1)
        value, _, point_r_max = problem.field(p)
        lower = max(lower, value - _gap(point_r_max))
        gap = max(value - lower, 0.0)
    # Rounding can leave F a few ulp below 0; the optimum is >= 0, so the
    # clamped value is still an upper bound and [value - gap, value] still
    # brackets it.
    return max(value, 0.0), p, gap, iteration, gap <= tol + 1e-14, tuple(trace)


def _check_arguments(tol: float, dim_cap: int, **counts: int) -> None:
    """Refuse a tolerance that is not finite and nonnegative, a count that is
    not a nonnegative integer, and a ``dim_cap`` that is not an integer (a
    non-positive one is left to ``check_joint_dim``)."""
    check_tolerance(tol)
    for name, value in {"dim_cap": dim_cap, **counts}.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidBoxError(f"{name} must be an integer, got {value!r}")
        if name in counts and value < 0:
            raise InvalidBoxError(f"{name} must be nonnegative, got {value!r}")


def x_fixed(
    box: Box,
    weights: ContextWeights,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dim_cap: int = JOINT_DIM_CAP,
) -> MeasureReport:
    """Relative entropy of contextuality at fixed context weights.

    Solved from the uniform joint by floored multiplicative steps with
    adaptive over-relaxation, which fall back to the plain step whenever a
    trial does not lower the objective (report method "auto").  The solve
    stops once the value is within ``tol`` of the best lower bound seen, or
    after ``max_iters`` iterations; ``duality_gap`` is that distance.  The
    value is clamped at 0, the optimum's lower bound, so rounding never
    reports a negative divergence; ``[value - duality_gap, value]`` still
    brackets the optimum.
    """
    require_consistent(box)
    _check_arguments(tol, dim_cap, max_iters=max_iters)
    check_joint_dim(box.hypergraph, dim_cap)
    if len(weights) != box.hypergraph.n_contexts:
        raise InvalidBoxError("one weight per context required")
    start = time.perf_counter()
    value, p_flat, gap, iters, converged, trace = _solve_fixed(
        _FixedWeightProblem(box, weights), tol, max_iters, junction_tree_joint(box)
    )
    return MeasureReport(
        value=value,
        optimizer=JointDistribution(box.hypergraph, p_flat),
        duality_gap=gap,
        iterations=iters,
        wall_time_s=time.perf_counter() - start,
        converged=converged,
        method="auto",
        trace=trace,
    )


def x_u(box: Box, tol: float = DEFAULT_TOL, **kwargs) -> MeasureReport:
    """Uniform relative entropy of contextuality (weights 1/n)."""
    return x_fixed(box, ContextWeights.uniform(box.hypergraph.n_contexts), tol=tol, **kwargs)


def i_fixed(box: Box, weights: ContextWeights, tol: float = DEFAULT_TOL, **kwargs) -> MeasureReport:
    """Mutual information of contextuality at fixed weights.

    Computed through the equivalence with the divergence minimization; the
    report's method field records the route.
    """
    report = x_fixed(box, weights, tol=tol, **kwargs)
    return replace(report, method=report.method + "+mutual-information-equivalence")


def x_max(
    box: Box,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dim_cap: int = JOINT_DIM_CAP,
    outer_window: int = 200,
) -> MeasureReport:
    """Weight-maximized relative entropy of contextuality.

    Multiplicative-weights supergradient ascent over the context simplex;
    each inner solve (the ``x_fixed`` policy, warm-started from the previous
    minimizer, with ``tol`` and ``max_iters``) supplies the supergradient
    (the per-context divergence vector) and a candidate upper bound
    ``max_c D_c`` at its minimizer; the ascent stops after ``outer_window``
    rounds without improvement, or once that bound meets the best value.
    The reported value is the best certified inner value found; no claim is
    made that the supremum is attained.
    """
    require_consistent(box)
    _check_arguments(tol, dim_cap, max_iters=max_iters, outer_window=outer_window)
    check_joint_dim(box.hypergraph, dim_cap)
    start = time.perf_counter()
    n = box.hypergraph.n_contexts
    log_w = np.zeros(n)
    best_value = -float("inf")
    best_gap = float("inf")
    best_weights: np.ndarray | None = None
    best_p: np.ndarray | None = None
    upper = float("inf")
    total_inner = 0
    last_improve = 0
    warm = junction_tree_joint(box)
    p_sum = np.zeros(box.hypergraph.joint_dim)
    # One problem, reweighted each round; its rows do not depend on the weights.
    problem = _FixedWeightProblem(box, ContextWeights.uniform(n))
    outer = 0
    for outer in range(1, _XMAX_MAX_OUTER + 1):
        shifted = log_w - log_w.max()
        w_vec = np.exp(shifted)
        w_vec /= w_vec.sum()
        problem.reweight(w_vec)
        value, p_flat, gap, iters, _, _ = _solve_fixed(problem, tol, max_iters, warm)
        total_inner += iters
        warm = p_flat
        p_sum += p_flat
        divergences = problem.divergences(p_flat)
        upper = min(upper, float(divergences.max()))
        if value > best_value + _XMAX_IMPROVE_TOL:
            last_improve = outer
        if value > best_value:
            best_value, best_gap, best_weights, best_p = value, gap, w_vec, p_flat
        if outer - last_improve >= outer_window:
            break
        if upper - best_value <= _XMAX_IMPROVE_TOL:
            break
        eta = _XMAX_ETA0 / math.sqrt(outer)
        log_w = log_w + eta * divergences
    avg = p_sum / p_sum.sum()
    upper = min(upper, float(problem.divergences(avg).max()))
    assert best_weights is not None and best_p is not None
    return MeasureReport(
        value=best_value,
        optimizer=JointDistribution(box.hypergraph, best_p),
        duality_gap=best_gap,
        iterations=total_inner,
        wall_time_s=time.perf_counter() - start,
        converged=best_gap <= tol and outer < _XMAX_MAX_OUTER,
        method="mw-ascent(auto)",
        outer_weights=ContextWeights(best_weights),
        outer_gap=max(0.0, upper - best_value),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    residual: float
    mutual_information: float
    x_value: float
    measure_report: MeasureReport


def verify_equivalence(
    box: Box,
    weights: ContextWeights,
    tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Numerically certify that the mutual-information game value matches X_w.

    Solves ``x_fixed(box, weights, tol=tol)``; from its optimal joint p*
    build the per-context extensions
    ``ext_c(lambda) = p*(lambda'_c | lambda_c) * g_c(lambda_c)`` and evaluate
    the mutual information directly as
    ``sum_c w_c D(ext_c || sum_c' w_c' ext_c')``; the absolute difference
    from the minimized value is the residual.  The solver floors every joint
    entry above 0, so every context marginal of p* is positive.
    """
    report = x_fixed(box, weights, tol=tol)
    g = box.hypergraph
    op = g.incidence
    p_tensor = report.optimizer.probabilities.reshape(g.joint_shape)
    w = weights.weights
    extensions = []
    for ci, ratio in enumerate(op.tables(box.stacked() / op.marginals(p_tensor))):
        if w[ci] <= 0.0:
            continue
        ext = p_tensor * ratio
        extensions.append((w[ci], ext.reshape(-1)))
    mixture = np.zeros(g.joint_dim)
    for wc, ext in extensions:
        mixture += wc * ext
    mutual = 0.0
    for wc, ext in extensions:
        mutual += wc * relative_entropy(ext, mixture)
    return EquivalenceReport(
        residual=abs(mutual - report.value),
        mutual_information=mutual,
        x_value=report.value,
        measure_report=report,
    )


def x_u_isotropic_reduced(
    reference: Box,
    alpha: float,
    group=None,
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

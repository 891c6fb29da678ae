"""Relative entropy of contextuality: fixed weights, uniform, and maximized.

For a consistent box with context distributions g_c and context weights w_c,
the fixed-weight measure minimizes

    F(p) = sum_c w_c * D(g_c || marginal_c(p))        (bits)

over joint distributions p on the full product alphabet.  F is convex; the
gradient coordinate at lambda is ``-log2(e) * r(lambda)`` with

    r(lambda) = sum_c w_c * g_c(lambda_c) / p_c(lambda_c),

so ``max r`` gives the duality gap ``log2(max r)`` for free, and ``value -
gap`` is a lower bound on the optimum at every iterate: with ``a = w t`` on
the stacked rows, ``sum a = 1``, so by Jensen's inequality ``F(p') - F(p) >=
-log2 sum_lambda p'(lambda) r(lambda) >= -log2 max r`` for every joint p'.
This is tighter than the ``(max r - 1) * log2(e)`` of the tangent.  The solver
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

What a solve reads off its box alone is made once and cached, so ``x_u``,
``x_max`` and the cost, run on one box in any order, set it up once and
report the same bits.  On the box, for as long as it lives: the validation
report, the largest shared-marginal distance, and the three joints it
exhibits, the junction-tree joint, the parity mixture and the witness (see
``boxes.Box``).  Once per cardinalities and context list, on the incidence
that equal hypergraphs share (``boxes._incidence``), which holds no box
data: the junction tree, the overlap index of the consistency check, and
the dense M with the index of the projection's closed form
(``ContextIncidence.dense`` and ``least_norm``).  M is floats, held only
where it has at most ``DENSE_ENTRIES_CAP`` entries: 2^20 x 8 bytes = 8 MB.
The cache holds 64 incidences, so 64 x 8 MB = 512 MB of M at the very most,
plus that of any incidence a live hypergraph still holds after its
eviction.  A problem reads M as it is on full support, else copies its
support rows (at most 8 MB).

The maximized measure ``sup_w min_p sum_c w_c D_c(p) = min_p max_c D_c(p)``
is a saddle value (Sion 1958), as channel capacity is (Blahut 1972, Arimoto
1972), and the same loop solves it with one more step: after each step in
p, the context weights take one multiplicative step
``w <- w * 2**(eta (d - max d))``, normalized, with d the per-context
divergences read from the marginals the step has just computed.  For every
joint p and weights w, ``max_c D_c(p) >= sum_c w_c D_c(p) >= phi(w) >=
F_w(p) - gap``, so the least ``max_c D_c`` seen bounds the supremum from
above and the best ``F_w - gap`` seen bounds it from below; the loop stops
once the two are within ``tol``.  The weights step only while the inner gap
is at most half of that bracket, so p has caught up with w, and eta grows
after a weight step that does not widen ``max d - w.d`` and shrinks after
one that does.  Only the weights change, so the loop keeps one problem, its
rows and its matrix.

A direct sum on a cyclic hypergraph is solved one component at a time
(``_parts``).  With s_k the weight on component k, ``X_w = sum_k s_k X(b_k,
w_k / s_k)`` (values and gaps alike), since any tuple of component
marginals is met by their product; a component with s_k = 0 adds 0 and
takes the uniform joint.  Each component's phi is concave and homogeneous
of degree 1, so ``x_max`` is the largest component's.  The optimizer is the
product of the components' joints, and the iterations are their sum: each
component may take the iterations that the ones before it left of
``max_iters``.

On an acyclic hypergraph every consistent box is noncontextual, and its
junction-tree joint (``boxes.junction_tree_joint``) has the box's context
marginals (Vorob'ev 1962).  ``x_fixed``, ``x_u`` and ``x_max`` start the
loop from that joint.  The certificate at the start has a gap of about
1e-15, so the solve stops at its first check without a step.
Nothing rests on the theorem in floating point: a box consistent only within
``require_consistent``'s tolerance has a larger gap, and the loop steps on
from a near-optimal point.

The loop can also stop at three exhibited optimizers, each by the same test,
the value within ``tol`` of the best lower bound, so a poor one can only
fail to stop.  On a cyclic hypergraph, a binary box flat on each context's
parity classes with one heavier-class mass on every context is tried first
at its parity mixture (``boxes.parity_mixture``), which at uniform
weights is the isotropic optimizer of ``symmetry.x_u_isotropic_reduced``; it is kept
only if it certifies, so otherwise the loop starts where it would without
it and takes the same steps.  Then, while the best lower bound is at most
0, a joint with the box's marginals: at iteration 1 the box's witness
(``boxes.projected_joint``, a global section found from the uniform joint
by ``ContextIncidence.fit``; None where the box has a zero entry or M
exceeds ``DENSE_ENTRIES_CAP``), so after the tree joint and the parity
mixture, at any weights; at iterations 2, 4, 8, ... one ``fit`` of the
iterate.  Each stops the loop if its own certificate, counted up to 0,
closes the gap.
And at iterations 2, 4, 8, ... of ``x_fixed``'s loop on a dense problem,
the multiplier field picks a face, the cells where r is at least 0.9 of its
largest entry, and a few Newton steps find the optimizer of F over the
joints on that face (``_FixedWeightProblem.face_joint``, the
mixture-proportion problem that mixSQP solves in a few steps: Kim,
Carbonetto, Stephens & Anitescu 2020).  That joint, zero off the face, is
floored and normalized like any iterate, and stops the loop only if its own
field, over every cell, certifies it.  Most contextual boxes that are not
isotropic stop there at iteration 2, where the loop alone takes tens of
steps, and near the noncontextual boundary tens of thousands.  The face exit
waits while a fit tried at the same iteration misses by less than
``boxes.CONTEXTUAL_MISS`` of negative mass: the box is then about
noncontextual, and the fit is the likelier exit.  A start that certifies
counts 1 iteration, and so does the witness; an exit at iteration k counts
k: the k - 1 steps before it.

``x_max`` has the first two exits, and in place of the face exit, at the
same iterations under the same gate, one of its own: the saddle on a face
(``_FixedWeightProblem.saddle``).  From the face exit's joint at the
current weights, a few Newton steps on a bordered system find a joint x on
the face of cells where that joint's field is at least 0.99 of its largest
entry, weights w and a value V with ``r_w(x) = 1`` on the face and
``D_c(x) = V`` on every context of positive weight: the saddle's
conditions, which are those of channel capacity, on one face.  It stops the
loop only if its own two ends at the floored x, ``max_c D_c`` over every
context and ``F_w - log2 max r_w`` over every cell, are within ``tol``, so
a wrong face or a wrong set of weighted contexts can only fail to stop.
The report then holds x as the optimizer, w as the weights of both ends
and their distance as the gap.  On 384 anchor mixes of PR, KCBS, PM, M,
CH(5) and CH(7) it stops 382 at iteration 2 and the other two by iteration
8, where the ascent alone took 35 to 29,081 iterations.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxes import (
    CONTEXTUAL_MISS,
    Box,
    Hypergraph,
    JointDistribution,
    check_joint_dim,
    check_tolerance,
    junction_tree_joint,
    parity_mixture,
    probability_vector,
    projected_joint,
    require_consistent,
    split_components,
)
from .errors import InvalidBoxError

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200_000
# Adaptive over-relaxation of the multiplicative step: the
# exponent on r grows by this factor after each accepted step, up to the cap,
# and falls back to 1 (plain EM) after a trial that does not lower F.  On the
# benchmark's small-batch solves 1.5 and 16 took fewer iterations than a cap
# of 64 or a factor of 2 (10,392 against 10,616 and 11,252).
OVERRELAX_GROWTH = 1.5
OVERRELAX_CAP = 16.0
# x_max's weight step ``w <- w * 2**(eta (d - max d))``: eta's start, its
# factors after a weight step that does not widen ``max d - w.d`` and after
# one that does, and its clamp.  Without the floor, one of 22 boxes measured
# (12 bridged sums, 6 sparse mixes and 4 anchors) kept a bracket 0.043 wide
# after 40,000 iterations, against 268 iterations with it.
_ETA0 = 2.0
_ETA_GROWTH = 1.1
_ETA_SHRINK = 0.5
_ETA_MIN, _ETA_MAX = 0.05, 64.0
# The step's floor is _EPS / joint_dim on every coordinate.
_EPS = np.finfo(float).eps
# The face exit (``_FixedWeightProblem.face_joint``): the cells whose field
# is at least this share of its largest entry, at most this many Newton steps,
# each stopped there once its decrement is at most _FACE_DECREMENT, and a
# step halved at most _FACE_HALVINGS times to keep the joint nonnegative.  On
# 280 contextual anchor mixes across the noncontextual boundary at tol 1e-9,
# 0.9 stopped 225 within 4 iterations, with 4,316 iterations in all; 0.8 took
# 6,397 and the loop alone 43,551.  A try takes 3-5 steps, and a decrement of
# 1e-10 instead left gaps of up to 5e-9 where 1e-14 leaves 1e-14.
_FACE_SHARE = 0.9
_FACE_STEPS = 8
_FACE_DECREMENT = 1e-14
_FACE_HALVINGS = 10
# The saddle exit (``_FixedWeightProblem.saddle``): the cells whose field at
# the face joint is at least this share of its largest entry, at most this
# many Newton steps, each stopped there after a full step that moves no cell
# by more than _SADDLE_MOVE.
_SADDLE_SHARE = 0.99
_SADDLE_STEPS = 16
_SADDLE_MOVE = 1e-13
# Eigenvalues of a face's Gram matrix below this share of the largest count
# as 0, so a face of dependent cells is solved in its span.
_RANK_RTOL = 1e-10


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
        """Checked as any probability vector (``boxes.probability_vector``)."""
        object.__setattr__(self, "weights", probability_vector(weights, what="context weights"))

    @classmethod
    def uniform(cls, n: int) -> "ContextWeights":
        return cls._of(np.full(n, 1.0 / n))

    @classmethod
    def _of(cls, weights: np.ndarray) -> "ContextWeights":
        """The weights of a nonnegative float vector that sums to 1, taken as is
        and made read-only: for vectors the library made."""
        self = object.__new__(cls)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        return self

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class MeasureReport:
    """Value plus optimality certificates for one measure evaluation.

    ``[value - duality_gap, value]`` brackets the optimum: the inner minimum
    for fixed weights, the supremum over weights for ``x_max``, whose
    ``outer_weights`` are the weights of the lower end; where ``x_max``
    stops at its saddle exit they are the weights of both ends, and the
    lower end is ``F_w - log2 max r_w`` at the optimizer and those weights.
    ``trace`` holds the loop's (iteration, value, gap) at
    iterations 1, 2, 4, ... and the last; a box solved one component at a
    time has an empty trace, and ``iterations`` sums its components'.
    """

    value: float
    optimizer: JointDistribution | None
    duality_gap: float
    iterations: int
    wall_time_s: float
    converged: bool
    outer_weights: ContextWeights | None = None
    trace: tuple[tuple[int, float, float], ...] = ()


class _FixedWeightProblem:
    """F(p) = sum_c w_c D(g_c || (M p)_c) on the stacked context outcomes.

    Only the support, the positive-target rows, chosen once from the box,
    enters the value, the multiplier field and the divergences: a weight
    scales its rows, and a zero-weight row adds exactly 0 at the solver's
    floored iterates.  When the support rows of M have at most
    ``DENSE_ENTRIES_CAP`` entries they are kept as one dense matrix, so a
    step costs two matrix-vector products (``ContextIncidence.dense_rows``:
    from the incidence's M where M fits the cap, else built by ``columns``;
    M itself on full support).  Above the cap the operator's tensor
    reductions keep memory O(joint_dim).
    """

    def __init__(self, box: Box, weights: ContextWeights):
        self.box = box
        self.g = box.hypergraph
        self.op = self.g.incidence
        self.targets = box.stacked()
        self.support = np.flatnonzero(self.targets > 0.0)
        self.t_s = self.targets[self.support]
        # The context of each support row.
        self.context_s = np.repeat(np.arange(self.g.n_contexts), self.op.dims)[self.support]
        self.dense = self.op.dense_rows(self.support)
        self.reweight(weights.weights)

    def reweight(self, weights: np.ndarray) -> None:
        """Take new context weights (a probability vector)."""
        self.weights = weights
        self.w_s = weights[self.context_s]
        self.wt_s = self.w_s * self.t_s

    def field(self, p: np.ndarray | None = None) -> tuple[float, np.ndarray, float]:
        """Objective value (bits), multiplier field r and its largest entry,
        at a flat joint ``p``; r is flat too.  Without ``p``, at the joint of
        the last call and the current weights, with no marginal pass.

        The solver calls it at floored iterates, whose marginals are all
        positive.  Elsewhere a zero marginal on the support, of a zero-weight
        context too (0 * inf is NaN), makes the value +inf; then r is 0 and
        its largest entry +inf.
        """
        if p is not None:
            # The targets' ratios to the support marginals at ``p``, kept for
            # calls without ``p`` and for ``divergences``.
            m = self.op.marginals(p)[self.support] if self.dense is None else self.dense @ p
            self.ratio = self.t_s / m
            self.log_ratio = np.log2(self.ratio)
        value = float(self.wt_s @ self.log_ratio)
        if not math.isfinite(value):
            return math.inf, np.zeros(self.g.joint_dim), math.inf
        if self.dense is None:
            y = np.zeros(self.op.dim)
            y[self.support] = self.ratio * self.w_s
            r = self.op.lift(y).reshape(-1)
        else:
            r = (self.ratio * self.w_s) @ self.dense
        return value, r, float(r.max())

    @cached_property
    def runs(self) -> list[tuple[int, int]]:
        """Each context's run ``[start, stop)`` of rows within ``support``."""
        ends = np.searchsorted(self.support, self.op.offsets).tolist()
        return list(zip(ends, ends[1:]))

    def face_joint(self, p: np.ndarray, r: np.ndarray, r_max: float) -> np.ndarray | None:
        """The optimizer of F over the joints that are zero off the face
        ``A = {r >= _FACE_SHARE * max r}`` the field picks at ``p``, floored
        and normalized as an iterate; None where the face leaves a weighted
        support row without mass, or a step cannot keep the joint
        nonnegative.

        On A, F is ``-sum_i a_i log2 (L_A x)_i`` up to a constant, with
        ``a = w t`` on the rows of positive weight and L_A their columns of
        M.  Newton steps from ``p`` restricted to A keep ``sum x = 1``: each
        lies in the span of the centered rows ``L_A - mean``, whose
        orthonormal basis comes from one ``eigh`` of the smaller of their two
        Gram matrices.  So a face of dependent cells (PM's has 96 of rank
        33) is solved in its span, and the step is the least-norm one.  A
        step is halved until the joint stays nonnegative.
        """
        face = np.flatnonzero(r >= _FACE_SHARE * r_max)
        live = self.wt_s > 0.0
        a = self.wt_s[live]
        rows = (self.dense if a.size == live.size else self.dense[live])[:, face]
        x = p[face] / p[face].sum()
        u = rows @ x
        if not u.min() > 0.0:
            return None
        image, basis = _span(rows)
        root_a = np.sqrt(a)
        for _ in range(_FACE_STEPS):
            # The step ``basis @ c`` moves the marginals by ``image @ c``.
            grad = (a / u) @ image
            scaled = image * (root_a / u)[:, None]
            c = np.linalg.solve(scaled.T @ scaled, grad)
            d = basis @ c
            t = _nonnegative_step(x, d)
            if t is None:
                return None
            x += t * d
            u = rows @ x
            if not u.min() > 0.0:
                return None
            if grad @ c <= _FACE_DECREMENT:
                break
        q = np.zeros(p.size)
        q[face] = x
        return _floored_step(q, 1.0, 1.0, 1.0)

    def saddle(self, p: np.ndarray, r: np.ndarray, r_max: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``x_max``'s saddle on the face its field picks at ``face_joint``'s
        joint: ``(q, w)``, the joint q floored and normalized as an iterate
        and w the context weights; None where ``face_joint`` is None, a live
        row meets no mass, or a step cannot keep the joint nonnegative.

        At the saddle (module docstring) the joint x minimizes F_w, so
        ``r_w = 1`` on its support A, and w maximizes ``w.D(x)``, so
        ``D_c(x) = V`` on the contexts of positive weight: with ``sum x =
        sum w = 1`` a square system in x on A, w and V, the conditions of
        channel capacity (Blahut 1972; Arimoto 1972) restricted to a face.
        A holds the cells where the field at ``face_joint``'s joint is at
        least ``_SADDLE_SHARE`` of its largest entry.  x moves in the span of
        the active contexts' centered rows on A (``_span``), as in
        ``face_joint``, where ``r_w = 1`` on A is ``image^T (w y) = 0`` with
        ``y = t / u`` on the rows.  That gradient is ``B w`` for B the
        rows' image weighted by y and summed per context, and a Newton step
        from x solves, with D in nats,

            [[H, -B, 0], [B^T, 0, 1], [0, 1^T, 0]] [c; w; V] = [0; D; 1]

        for the move ``basis @ c``, the new weights and the value, H the
        Hessian of F_w in c.  With ``c = H^-1 B w`` it reduces to the
        weights and the value, solved by least squares: where the weights
        are not unique, as on a noncontextual box, whose every weight
        vector is a saddle's, they are the least-norm ones.  Every context
        starts active; one whose new weight is not positive is dropped, its
        weight set to 0, and the step is solved again without it.  A move is
        halved until x stays nonnegative, and the steps stop after a full
        one that moves no cell by more than ``_SADDLE_MOVE``.
        """
        q = self.face_joint(p, r, r_max)
        if q is None:
            return None
        _, r, r_max = self.field(q)
        face = np.flatnonzero(r >= _SADDLE_SHARE * r_max)
        x = q[face] / q[face].sum()
        w = self.weights.copy()
        active, set_up = w > 0.0, None
        for _ in range(_SADDLE_STEPS):
            if set_up is None:
                live = active[self.context_s]
                rows = self.dense[live][:, face]
                # Each live row's context among the active ones, as an indicator.
                member = (self.context_s[live][:, None] == np.flatnonzero(active)).astype(float)
                set_up = rows, member, self.t_s[live], *_span(rows)
            rows, member, t, image, basis = set_up
            u = rows @ x
            if not u.min() > 0.0:
                return None
            y = t / u
            wy = (member @ w[active]) * y
            # The Newton system, reduced to the weights and the value by the
            # Schur complement of H.
            cross = image.T @ (member * y[:, None])
            move = np.linalg.solve(image.T @ (image * (wy / u)[:, None]), cross)
            m = cross.shape[1]
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = cross.T @ move
            kkt[m, m] = 0.0
            rhs = np.append((t * np.log(y)) @ member, 1.0)
            solved = np.linalg.lstsq(kkt, rhs, rcond=_RANK_RTOL)[0]
            new_w = solved[:m]
            if not new_w.min() > 0.0:
                kept = new_w > 0.0
                if not kept.any():
                    return None
                dropped = np.flatnonzero(active)[~kept]
                active[dropped] = False
                w[dropped] = 0.0
                w /= w.sum()
                set_up = None
                continue
            w[active] = new_w
            d = basis @ (move @ new_w)
            step = _nonnegative_step(x, d)
            if step is None:
                return None
            x += step * d
            if step == 1.0 and np.abs(d).max() <= _SADDLE_MOVE:
                break
        q = np.zeros(p.size)
        q[face] = x
        return _floored_step(q, 1.0, 1.0, 1.0), w / w.sum()

    def divergences(self, p: np.ndarray | None = None) -> np.ndarray:
        """Per-context D(g_c || p_c) in bits (+inf where a positive target meets
        a zero marginal).  At ``p`` (``x_max``'s value at its optimizer), the
        terms of every context come from one pass and each context's run is
        summed with ``np.sum``, so every value is bit-identical to
        ``relative_entropy``.  Without ``p``, at the joint of the last
        ``field`` call, from its marginals in one ``bincount``: ``x_max``'s
        read at every iteration."""
        if p is None:
            return np.bincount(self.context_s, self.t_s * self.log_ratio, self.g.n_contexts)
        m = self.op.marginals(p)[self.support]
        with np.errstate(divide="ignore"):
            terms = self.t_s * np.log2(self.t_s / m)
        return np.array([terms[a:b].sum() for a, b in self.runs])


def _span(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis of the span of a face's centered rows (each row
    less its mean over the face), from one ``eigh`` of the smaller of their
    two Gram matrices, and its image under the rows: a step ``basis @ c``
    keeps the joint's sum and moves the rows' marginals by ``image @ c``."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    if rows.shape[1] <= rows.shape[0]:
        lam, basis = np.linalg.eigh(centered.T @ centered)
        basis = basis[:, lam > lam[-1] * _RANK_RTOL]
        return centered @ basis, basis
    lam, v = np.linalg.eigh(centered @ centered.T)
    keep = lam > lam[-1] * _RANK_RTOL
    return v[:, keep] * np.sqrt(lam[keep]), centered.T @ (v[:, keep] / np.sqrt(lam[keep]))


def _nonnegative_step(x: np.ndarray, d: np.ndarray) -> float | None:
    """The first of 1, 1/2, 1/4, ... (at most ``_FACE_HALVINGS`` of them)
    that keeps ``x + t d`` nonnegative, or None."""
    t = 1.0
    for _ in range(_FACE_HALVINGS):
        if (x + t * d).min() >= 0.0:
            return t
        t *= 0.5
    return None


def _gap(r_max: float) -> float:
    """Duality gap (bits) of an iterate whose multiplier field peaks at
    ``r_max``: ``log2(r_max)``, by Jensen's inequality (module docstring)."""
    return max(math.log2(r_max), 0.0)


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
    candidate: np.ndarray | None = None,
    ascend: bool = False,
) -> tuple[float, np.ndarray, float, int, bool, tuple]:
    """The solver's loop (see the module docstring): the value, the joint,
    the gap, the iterations, whether the gap met ``tol``, and the trace.
    At iteration 1 it tries the witness of the problem's box
    (``boxes.projected_joint``, cached on the box), whatever the start; at
    2, 4, 8, ... it tries ``ContextIncidence.fit`` of a copy of the iterate.

    With ``ascend`` the loop also steps the context weights (``x_max``): the
    joint is the iterate of the least ``max_c D_c`` seen, the value
    ``max_c D_c`` there, the gap its distance to the best lower bound, and
    the problem is left at the weights of that bound.  Its face exit is then
    the saddle (``_FixedWeightProblem.saddle``): where that certifies, the
    joint, the gap and the weights the problem is left at are the saddle's
    own, both ends read at that joint.
    """
    g = problem.g
    certified = False
    if candidate is not None:
        p = _floored_step(candidate, 1.0, 1.0, 1.0)
        value, r, r_max = problem.field(p)
        certified = _gap(r_max) <= tol
    if not certified:
        start = np.full(g.joint_dim, 1.0 / g.joint_dim) if init is None else init.reshape(-1)
        p = _floored_step(start, 1.0, 1.0, 1.0)
        value, r, r_max = problem.field(p)

    trace: list[tuple[int, float, float]] = []
    next_trace = 1
    omega = 1.0
    gap = _gap(r_max)
    # Every iterate's value minus its gap bounds the optimum from below; the
    # reported gap is measured against the best of these bounds.
    lower = value - gap
    w = lower_w = problem.weights
    if ascend:
        # The upper end and its iterate; the weights as base-2 logarithms,
        # so a weight that underflows to 0 can grow back; eta, and the last
        # weight step's ``max d - w.d``.
        upper, p_upper = float(problem.divergences().max()), p
        log_w = np.log2(w)
        eta, spread = _ETA0, math.inf
        gap = max(upper - lower, 0.0)
    iteration = 0
    for iteration in range(1, max_iters + 1):
        if gap <= tol:
            break
        power = iteration & (iteration - 1) == 0
        # The fit's negative mass where it is tried, else inf.
        q, miss = None, math.inf
        if lower <= 0.0 and power:
            # At iteration 1 the try is the box's witness, made once
            # per box from the uniform joint; later ones start from the
            # iterate.  A positive lower bound certifies the box contextual.
            if iteration == 1:
                q = projected_joint(problem.box)
            else:
                q, miss = problem.op.fit(problem.targets, p.copy())
        if q is not None:
            # A joint with the box's marginals has a value of about 0: stop
            # there if it certifies.  Its own bound counts up to 0, a lower
            # bound on any optimum, so rounding cannot lift the bracket off 0.
            q_value, _, q_r_max = problem.field(q)
            q_lower = max(lower, min(q_value - _gap(q_r_max), 0.0))
            if ascend:
                q_value = float(problem.divergences().max())
            if q_value - q_lower <= tol:
                if q_lower > lower:
                    lower_w = w
                p, value, lower = q, q_value, q_lower
                upper, p_upper = value, p
                gap = max(value - lower, 0.0)
                break
        face_try = iteration > 1 and power and problem.dense is not None and miss >= CONTEXTUAL_MISS
        if face_try and ascend:
            # The saddle on the face the field picks: stop there if its own
            # ends, max_c D_c over every context and F_w less its gap over
            # every cell, are within tol.
            found = problem.saddle(p, r, r_max)
            if found is not None:
                q, q_w = found
                problem.reweight(q_w)
                q_value, _, q_r_max = problem.field(q)
                q_lower, q_upper = q_value - _gap(q_r_max), float(problem.divergences().max())
                if q_upper - q_lower <= tol:
                    p_upper, upper, lower, lower_w = q, q_upper, q_lower, q_w
                    gap = max(upper - lower, 0.0)
                    break
                problem.reweight(w)
        if face_try and not ascend:
            # The optimizer on the face the field picks: stop there if its
            # own field certifies it against every cell.
            q = problem.face_joint(p, r, r_max)
            if q is not None:
                q_value, _, q_r_max = problem.field(q)
                q_lower = max(lower, q_value - _gap(q_r_max))
                if q_value - q_lower <= tol:
                    p, value, lower = q, q_value, q_lower
                    gap = max(value - lower, 0.0)
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
        bound = value - _gap(r_max)
        if bound > lower:
            lower, lower_w = bound, w
        if not ascend:
            gap = max(value - lower, 0.0)
        else:
            d = problem.divergences()
            top = float(d.max())
            if top < upper:
                upper, p_upper = top, p
            gap = max(upper - lower, 0.0)
            if _gap(r_max) <= 0.5 * gap:
                widened = top - float(w @ d)
                if spread < math.inf:
                    factor = _ETA_SHRINK if widened > spread else _ETA_GROWTH
                    eta = min(max(eta * factor, _ETA_MIN), _ETA_MAX)
                spread = widened
                log_w = log_w + eta * (d - top)
                log_w -= log_w.max()
                w = np.exp2(log_w)
                w /= w.sum()
                problem.reweight(w)
                value, r, r_max = problem.field()
        if iteration >= next_trace:
            trace.append((iteration, value, gap))
            next_trace *= 2
    trace.append((iteration, value, gap))

    if ascend:
        problem.reweight(lower_w)
        p, value = p_upper, float(problem.divergences(p_upper).max())
        gap = max(value - lower, 0.0)
    # Rounding can leave F a few ulp below 0; the optimum is >= 0, so the
    # clamped value is still an upper bound and [value - gap, value] still
    # brackets it.
    return max(value, 0.0), p, gap, iteration, gap <= tol + 1e-14, tuple(trace)


def _starts(box: Box) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The exhibited starts of a box: ``(init, candidate)`` for ``_solve_fixed``.

    On an acyclic hypergraph the init is the junction-tree joint.  Otherwise
    the candidate is the parity mixture of a binary box flat on every
    context's parity classes with one heavier-class mass on all contexts
    (``boxes.parity_mixture``), the isotropic optimizer when the weights
    are invariant; the solver keeps it only if it certifies.  The box's
    witness (``boxes.projected_joint``) comes after both, at the loop's first
    iteration.
    """
    joint = junction_tree_joint(box)
    if joint is not None:
        return joint, None
    found = parity_mixture(box)
    if found is None or not found.isotropic:
        return None, None
    candidate = np.zeros(box.hypergraph.joint_dim)
    candidate[found.columns] = found.weights
    return None, candidate


def _parts(box: Box) -> tuple[tuple[Box, tuple[int, ...]], ...]:
    """What ``x_fixed`` and ``x_max`` solve apart: ``split_components`` on a
    cyclic hypergraph of several components, else the box whole."""
    g = box.hypergraph
    split = g.join_tree is None and len(g.components) > 1
    return split_components(box) if split else ((box, tuple(range(g.n_contexts))),)


def _check_arguments(tol: float, **counts: int) -> None:
    """Refuse a tolerance that is not finite and nonnegative, and a count that
    is not a nonnegative integer."""
    check_tolerance(tol)
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidBoxError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise InvalidBoxError(f"{name} must be nonnegative, got {value!r}")


def x_fixed(
    box: Box,
    weights: ContextWeights,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MeasureReport:
    """Relative entropy of contextuality at fixed context weights.

    Solved by the loop of the module docstring from the uniform joint, or the junction-tree joint on an acyclic hypergraph.
    The solve stops once the value is within ``tol`` of the best lower bound
    seen, or after ``max_iters`` iterations; ``duality_gap`` is that
    distance.  It can stop so at three exhibited optimizers: an isotropic
    box's parity mixture, tried before the loop and kept only if it
    certifies; a joint with a noncontextual box's marginals, the box's
    witness (``boxes.projected_joint``) at iteration 1, so after the parity
    mixture and at any weights, and at iterations 2, 4, 8, ... a
    nonnegative fit of the iterate (``ContextIncidence.fit``); and, on a
    dense problem from iteration 2, the optimizer on the face of cells that
    the multiplier field picks, floored like an iterate.  A start or witness that
    certifies counts 1 iteration, and an exit at iteration k counts k.  A
    direct sum on a cyclic hypergraph is solved one component at a time
    (see the module docstring): ``iterations`` is the components' sum, at most
    ``max_iters``, and ``trace`` is empty.  The value is clamped at 0, the
    optimum's lower bound, so rounding never reports a negative divergence;
    ``[value - duality_gap, value]`` still brackets the optimum.
    """
    require_consistent(box)
    _check_arguments(tol, max_iters=max_iters)
    check_joint_dim(box.hypergraph)
    if len(weights) != box.hypergraph.n_contexts:
        raise InvalidBoxError("one weight per context required")
    start = time.perf_counter()
    parts = _parts(box)
    if len(parts) == 1:
        problem = _FixedWeightProblem(box, weights)
        value, p_flat, gap, iters, converged, trace = _solve_fixed(problem, tol, max_iters, *_starts(box))
    else:
        value, gap, iters, joints = 0.0, 0.0, 0, []
        for part, members in parts:
            w, dim = weights.weights[list(members)], part.hypergraph.joint_dim
            share, p = float(w.sum()), np.full(dim, 1.0 / dim)
            if share > 0.0:
                problem = _FixedWeightProblem(part, ContextWeights._of(w / share))
                v, p, part_gap, part_iters, _, _ = _solve_fixed(problem, tol, max_iters - iters, *_starts(part))
                value, gap, iters = value + share * v, gap + share * part_gap, iters + part_iters
            joints.append(p)
        p_flat, converged, trace = _component_product(box.hypergraph, joints), gap <= tol + 1e-14, ()
    return MeasureReport(
        value=value,
        optimizer=JointDistribution._of(box.hypergraph, p_flat),
        duality_gap=gap,
        iterations=iters,
        wall_time_s=time.perf_counter() - start,
        converged=converged,
        trace=trace,
    )


def x_u(box: Box, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> MeasureReport:
    """Uniform relative entropy of contextuality (weights 1/n)."""
    return x_fixed(box, ContextWeights.uniform(box.hypergraph.n_contexts), tol=tol, max_iters=max_iters)


def x_max(
    box: Box,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    outer_window: int = 200,
) -> MeasureReport:
    """Weight-maximized relative entropy of contextuality.

    One loop in the joint and the weights (see the module docstring): the
    ``x_fixed`` loop from the same start, with the same step and its parity,
    witness and fit exits, plus one multiplicative step on the weights per
    iteration.  So a noncontextual box whose witness
    (``boxes.projected_joint``) certifies stops at it, at iteration 1.  The
    value is the least ``max_c D_c`` seen, at the returned optimizer, so it
    bounds the supremum from above as ``x_fixed``'s value bounds its
    optimum; ``duality_gap`` is its distance to the best lower bound
    ``F_w(p) - gap`` seen, whose weights are ``outer_weights``, and
    ``converged`` means that it is at most ``tol``.  The loop stops there,
    or after ``max_iters`` iterations.  In place of ``x_fixed``'s face exit,
    from iteration 2 it can stop at a saddle on a face: a joint and weights
    whose own two ends, ``max_c D_c`` and ``F_w - log2 max r_w`` at that
    joint, are within ``tol``; the report holds that joint, those weights
    and that distance.  ``outer_window`` is checked and
    otherwise unused: the loop has no rounds to count.  A direct sum on a
    cyclic hypergraph is solved one component at a time, within one budget
    of ``max_iters`` iterations, and the report takes the largest upper and
    lower ends, with the latter's weights and zeros on the other contexts.
    """
    require_consistent(box)
    _check_arguments(tol, max_iters=max_iters, outer_window=outer_window)
    g = box.hypergraph
    check_joint_dim(g)
    start = time.perf_counter()
    parts = _parts(box)
    solves, budget = [], max_iters
    for part, _ in parts:
        problem = _FixedWeightProblem(part, ContextWeights.uniform(part.hypergraph.n_contexts))
        value, p, gap, iters, _, _ = _solve_fixed(problem, tol, budget, *_starts(part), ascend=True)
        solves.append((value, value - gap, p, problem.weights, iters))
        budget -= iters
    uppers, lowers, joints, part_weights, iterations = zip(*solves)
    k = lowers.index(max(lowers))
    weights = np.zeros(g.n_contexts)
    weights[list(parts[k][1])] = part_weights[k]
    p = joints[0] if len(parts) == 1 else _component_product(g, list(joints))
    gap = max(max(uppers) - lowers[k], 0.0)
    return MeasureReport(
        value=max(uppers),
        optimizer=JointDistribution._of(g, p),
        duality_gap=gap,
        iterations=sum(iterations),
        wall_time_s=time.perf_counter() - start,
        converged=gap <= tol + 1e-14,
        outer_weights=ContextWeights._of(weights),
    )


def _component_product(g: Hypergraph, parts: list[np.ndarray]) -> np.ndarray:
    """The flat joint on ``g`` that is the product of one joint per component
    of ``g`` (in ``g.components``' order, each laid out in its observables'
    order), so each part is its marginal on its component."""
    shapes = [[card if i in comp else 1 for i, card in enumerate(g.cardinalities)] for comp in g.components]
    return functools.reduce(np.multiply, [part.reshape(s) for part, s in zip(parts, shapes)]).reshape(-1)


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
    from the minimized value is the residual.  Every context marginal of p*
    is positive: the solver floors every joint entry above 0, the face
    exit's joint included, and a fit it stops at has the box's
    marginals, all positive.
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


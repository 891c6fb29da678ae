"""The non-contextual polytope: vertices, LP membership, contextuality cost.

The polytope NC_G is the convex hull of the deterministic boxes of a
hypergraph.  The contextuality cost of a consistent box b solves

    maximize  sum_D w_D   subject to   sum_D w_D * vertexbox_D <= b,  w >= 0

over deterministic assignments D; the cost is 1 minus the optimum, and the
residual (b - sum_D w_D vertexbox_D) / cost is the contextual remainder.
Columns are joint indices.  One column-generation loop solves every box: it
starts from up to 512 evenly spaced columns (all of them for small boxes),
prices every assignment at once as the lifted dual ``M^T y`` (a joint
tensor) and enters the cheapest ones until every assignment scores at least
1.  HiGHS is handed the restricted LP in its dual form,

    minimize  b . y   subject to   score_D(y) = (M^T y)(D) >= 1  for D in the columns,  y >= 0,

whose constraint matrix is the transposed dense block ``M[:, columns]`` of
the hypergraph's context-incidence operator M (built for the current columns
only; pricing never materializes M).  The dual has one variable per stacked
context outcome (tens) where the primal has one per column (hundreds), so
HiGHS needs far fewer simplex iterations; the witness weights w are the
dual's constraint multipliers.  The final pricing bound certifies the lower
end of the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .boxes import Box, DeterministicAssignment, Hypergraph, check_joint_dim, require_consistent
from .errors import CapExceededError, ContextualityError, InvalidBoxError

DENSE_VERTEX_CAP = 2**14  # largest box enumerate_vertices materializes
_LP_TOL = 1e-9


@dataclass(frozen=True)
class NCPolytope:
    """Materialized deterministic vertices (lexicographic order)."""

    hypergraph: Hypergraph
    assignments: np.ndarray  # (vertex_count, k) integer outputs

    @property
    def vertex_count(self) -> int:
        return self.assignments.shape[0]

    def assignment(self, index: int) -> DeterministicAssignment:
        return DeterministicAssignment(self.assignments[index])


def enumerate_vertices(g: Hypergraph) -> NCPolytope:
    """All deterministic assignments of ``g``; refuses above ``DENSE_VERTEX_CAP``."""
    total = g.joint_dim
    if total > DENSE_VERTEX_CAP:
        raise CapExceededError(f"{total} vertices exceed the enumeration cap {DENSE_VERTEX_CAP}")
    grid = np.unravel_index(np.arange(total), g.joint_shape)
    assignments = np.stack(grid, axis=1).astype(np.int64)
    assignments.flags.writeable = False
    return NCPolytope(g, assignments)


@dataclass(frozen=True)
class CostReport:
    """Optimal decomposition data for the contextuality cost LP."""

    cost: float
    interval: tuple[float, float]
    witness_weights: dict[DeterministicAssignment, float]
    lp_status: str
    residual_box: Box | None


def _price_columns(g: Hypergraph, duals: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """Smallest dual score ``sum_c y[row(D, c)]`` over all assignments D.

    Returns the minimum score and the joint indices of up to ``count``
    assignments with the smallest scores (candidate entering columns).
    """
    scores = g.incidence.lift(duals).ravel()
    count = min(count, scores.size)
    picked = np.argpartition(scores, count - 1)[:count]
    return float(scores[picked].min()), picked


def contextuality_cost(box: Box) -> CostReport:
    """Minimal contextual weight in any convex decomposition of ``box``.

    Each column-generation round solves the restricted LP's dual (see the
    module docstring): its solution y prices the columns, and the witness
    weights are the multipliers of its constraints, so the cost ``1 - sum w``
    belongs to the reported witness.  Defined only for consistent boxes;
    inconsistent input is refused rather than given a misleading number.
    """
    require_consistent(box)
    g = box.hypergraph
    check_joint_dim(g)
    stacked = box.stacked()
    columns = np.unique(np.linspace(0, g.joint_dim - 1, 512).astype(np.int64))
    for _ in range(200):
        # -M[:, columns], negated in place; its transpose is the dual's A_ub.
        block = g.incidence.columns(columns)
        np.negative(block, out=block)
        res = linprog(
            c=stacked,
            A_ub=block.T,
            b_ub=-np.ones(columns.size),
            bounds=(0.0, None),
            method="highs",
        )
        if res.status != 0:
            raise ContextualityError(f"cost LP failed: {res.message}")
        duals = res.x
        min_score, candidates = _price_columns(g, duals, count=256)
        if min_score >= 1.0 - 1e-9:
            break
        merged = np.union1d(columns, candidates)
        if merged.size == columns.size:
            break
        columns = merged
    else:
        raise ContextualityError("column generation did not converge in 200 rounds")
    # The pricing bound certifies y / min_score is dual feasible.
    dual_value = float(duals @ stacked) / max(min(1.0, min_score), 1e-12)

    weights = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
    # Both bounds are clamped into [0, 1] and ordered, so rounding in the LP
    # solution cannot invert the bracket.
    cost = min(1.0, max(0.0, 1.0 - float(weights.sum())))
    interval = (min(min(1.0, max(0.0, 1.0 - dual_value)), cost), cost)

    used = np.flatnonzero(weights > 1e-12)
    digits = np.transpose(np.unravel_index(columns[used], g.joint_shape)).tolist()
    witness = {
        DeterministicAssignment(d): w for d, w in zip(digits, weights[used].tolist())
    }
    mass = -(block[:, used] @ weights[used])

    residual = None
    if cost > _LP_TOL:
        res_stacked = np.maximum(stacked - mass, 0.0) / cost
        dists = []
        for vec in g.incidence.split(res_stacked):
            total_mass = vec.sum()
            dists.append(vec / total_mass if total_mass > 0 else vec)
        residual = Box(g, dists)
    return CostReport(
        cost=cost,
        interval=interval,
        witness_weights=witness,
        lp_status="optimal",
        residual_box=residual,
    )


def is_noncontextual(box: Box, tol: float = 1e-8) -> bool:
    """Membership test for the NC polytope via the cost LP."""
    return contextuality_cost(box).cost <= tol


@dataclass(frozen=True)
class LinearOptimum:
    value: float
    argopt: DeterministicAssignment
    direction: str


def optimize_linear(
    g: Hypergraph,
    weights: list[np.ndarray],
    direction: str = "max",
) -> LinearOptimum:
    """Extremum of a per-(context, outcome) linear functional over NC_G.

    The optimum of a linear functional over the polytope is attained at a
    deterministic vertex; all vertex scores at once are the lifted weights
    ``M^T w``, and ties go to the first assignment in lexicographic order.
    """
    if direction not in ("max", "min"):
        raise InvalidBoxError(f"direction must be 'max' or 'min', got {direction!r}")
    check_joint_dim(g)
    scores = g.incidence.lift(g.incidence.stack(weights))
    sign = 1.0 if direction == "max" else -1.0
    best = int(np.argmax(sign * scores))
    return LinearOptimum(
        value=float(scores.flat[best]),
        argopt=DeterministicAssignment(np.unravel_index(best, g.joint_shape)),
        direction=direction,
    )

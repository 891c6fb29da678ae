"""The non-contextual polytope: LP membership, contextuality cost, linear optimization.

The polytope NC_G is the convex hull of the deterministic boxes of a
hypergraph.  The contextuality cost of a consistent box b solves

    maximize  sum_D w_D   subject to   sum_D w_D * vertexbox_D <= b,  w >= 0

over deterministic assignments D; the cost is 1 minus the optimum, and the
residual (b - sum_D w_D vertexbox_D) / cost is the contextual remainder.

A box on a binary n-cycle (PR = CH(4), KCBS, every CH(n)) gets its cost in
closed form, in O(n).  Let ``E_i = P(equal) - P(differ)`` on context i and
``S`` the largest ``sum_i g_i E_i`` over sign vectors g with an odd number
of -1: ``sum |E_i|``, less ``2 min |E_i|`` when an even number of the
``E_i`` are negative.  The chained inequalities ``sum_i g_i E_i <= n - 2``
are the only nontrivial facets of this scenario's noncontextual polytope
(Araujo, Quintino, Budroni, Terra Cunha & Cabello 2013, PRA 88, 022118),
and a consistent box has ``S <= n``.  So the cost is
``max(0, (S - (n - 2)) / 2)``: the maximizing inequality certifies it as a
lower bound, since every noncontextual part scores at most n - 2 on it and
the contextual part at most n, and the facet theorem makes it exact.  The
interval is the closed form at both ends, clamped to [0, 1].  The scenario
is read from the hypergraph alone (``Hypergraph.is_binary_cycle``), and no
HiGHS model or elimination runs; the witness is solved by column
generation when it is first read.

Column generation solves every other box, and every witness, with joint
indices as columns.  Since a witness is held as joint indices, the cost
refuses a joint of 2^63 cells or more up front, for every box.  An optimal
witness needs no more columns than the box has stacked rows
(Caratheodory), so the loop starts from that many: the assignments the box
supports best, which ``ContextIncidence.extremum`` finds by minimizing
``sum_c -log b_c(lambda_c)``.  It then prices every assignment with
``extremum``, takes up to twice that many of the cheapest per round and
appends those that score below 1 - 1e-9 under the current duals, until
every assignment scores at least 1.  Both are exact: a scan of the leading
observables (at most 2^10 cells) and m-best min-sum elimination of the
rest give the best assignments themselves, and build no joint tensor above
2^10 cells, so no joint cap applies: only the plan refuses a box, for a
table above ``JOINT_DIM_CAP`` cells.  On CH(14), CH(16) and CH(18) at alpha
0.99 the start alone is optimal, one HiGHS run; at alpha 0.9 CH(14) takes
one run and CH(16) and CH(18) two, on 192 and 216 rows: every candidate of
their second round is violated.  The
restricted LP is solved in its dual form,

    minimize  b . y   subject to   score_D(y) = (M^T y)(D) >= 1  for D in the columns,  y >= 0,

with one variable per stacked context outcome (tens) where the primal has
one per column (hundreds), so far fewer simplex iterations are needed.  Each
thread keeps one HiGHS model, its options set once; a call clears it
(``clearModel``, which keeps the options) and adds those variables.  On a
2-core Xeon host, clearing took about 1 microsecond, and building a model
and setting its options about 100.  Every round appends only the entering
assignments as rows (row D holds a 1 at each of D's ``n_contexts`` stacked
rows of the context-incidence operator M, so M is never materialized), and
HiGHS's dual simplex re-optimizes from the previous basis.  The witness
weights w are the rows' duals, and the final pricing bound certifies the
lower end of the bracket.  The report keeps the witness as the LP left it,
joint indices and weights, and decodes the assignments and the residual box
only when they are read.

A box on an acyclic hypergraph needs no LP.  Its junction-tree joint
(``boxes.junction_tree_joint``) has the box's context marginals, so the box is
noncontextual (Vorob'ev 1962).  The witness is the joint's positive cells,
scaled by the largest ``s <= 1`` that keeps it within the box on every row.
The cost is ``1 - s * sum``, about 1e-15, and the interval is ``(0, cost)``:
0 is a lower bound of every cost.  A box consistent only within
``require_consistent``'s tolerance can get a closed-form cost above 1e-9,
and a joint above ``JOINT_DIM_CAP`` cells is not built; column generation
then solves the box as any other.

HiGHS runs with presolve off.  These LPs have tens of variables and at most
a few hundred rows per round, and presolve cost more than it saved: on the
48 boxes of ``tests/test_polytope.py::seeded_boxes(rounds=6)`` (2 cores,
3 interleaved runs, best of 5 passes each), the whole pass fell from 194-239
to 139-158 ms with it off, and HiGHS's own ``run`` time from 145-181 to
90-102 ms, every cost still matching the all-columns primal LP.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy

from .boxes import (
    Box,
    DeterministicAssignment,
    Hypergraph,
    check_joint_index,
    check_tolerance,
    junction_tree_joint,
    require_consistent,
)
from .errors import ContextualityError, InvalidBoxError

DENSE_VERTEX_CAP = 2**14  # read only by perfbench, which tags cost runs this small "dense"
_LP_TOL = 1e-9
# HiGHS's smallest feasibility tolerances.  At its default of 1e-7, boxes with
# entries near 1e-7 got witnesses that over-spend the box by up to 2e-7 and
# costs up to 8e-7 off, outside their own zero-width bracket.
_HIGHS_TOL = 1e-10


def _load_highs_core():
    """scipy's compiled HiGHS binding, loaded without running ``scipy.optimize``.

    Importing the binding by its dotted name first runs all of
    ``scipy.optimize/__init__`` (linalg, sparse, special, fft, spatial): in a
    fresh interpreter ``import contextuality`` then took 0.59-0.89 s and left
    the process at 78 MB, and with the extension module loaded alone it takes
    0.17-0.25 s and 34 MB (5 runs each, 2-core Xeon host).  The module is
    registered under its canonical name, so scipy.optimize, imported before or
    after, shares the same module, ``_Highs`` class and HiGHS library.
    """
    name = "scipy.optimize._highspy._core"
    module = sys.modules.get(name)
    if module is not None:
        return module
    path = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [path])
    if spec is None:
        raise ImportError(
            f"contextuality needs scipy's HiGHS binding {name} (scipy>=1.17), "
            f"but scipy {scipy.__version__} has none in {path}"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


# Unlike linprog, a model built on scipy's own HiGHS binding (verified on
# scipy 1.17) keeps its basis when rows are appended and re-solved.
_highs_core = _load_highs_core()
HighsModelStatus = _highs_core.HighsModelStatus
_Highs = _highs_core._Highs


@dataclass(frozen=True, eq=False)
class CostReport:
    """Optimal decomposition data for the contextuality cost LP.

    ``witness_weights`` (the deterministic assignments of the decomposition
    with their weights) and ``residual_box`` (the contextual remainder, None
    when the cost is within 1e-9 of 0) are decoded from the LP's solution on
    first access and then cached; most callers read only ``cost`` and
    ``interval``.  A binary n-cycle's cost and interval come from the
    closed form (see the module docstring), and column generation solves its
    witness only when one of the two is first read.
    """

    cost: float
    interval: tuple[float, float]
    _box: Box = field(repr=False)
    # The witness as LP data: its joint indices and their weights, all
    # positive; None while a closed-form report's witness is unsolved.
    _solved: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def _witness(self) -> tuple[np.ndarray, np.ndarray]:
        if self._solved is not None:
            return self._solved
        return _column_generation(self._box)._solved

    @cached_property
    def witness_weights(self) -> dict[DeterministicAssignment, float]:
        columns, weights = self._witness
        digits = np.transpose(np.unravel_index(columns, self._box.hypergraph.joint_shape))
        keys = map(DeterministicAssignment._of, map(tuple, digits.tolist()))
        return dict(zip(keys, weights.tolist()))

    @cached_property
    def residual_box(self) -> Box | None:
        if self.cost <= _LP_TOL:
            return None
        g = self._box.hypergraph
        stacked = self._box.stacked()
        columns, weights = self._witness
        mass = np.bincount(
            g.incidence.rows(columns).ravel(),
            weights=np.repeat(weights, g.n_contexts),
            minlength=stacked.size,
        )
        res_stacked = np.maximum(stacked - mass, 0.0) / self.cost
        dists = []
        for vec in g.incidence.split(res_stacked):
            total_mass = vec.sum()
            dists.append(vec / total_mass if total_mass > 0 else vec)
        return Box(g, dists)


_local = threading.local()


def _cost_lp() -> _Highs:
    """This thread's HiGHS model for the cost LP, empty, with its options set.

    One model per thread is kept and cleared for each call (``clearModel``
    keeps the options); ``measure --workers N`` solves on N threads.  A model
    of another class than ``_Highs`` (as when a test replaces ``_Highs``)
    is replaced by a new one.
    """
    lp = getattr(_local, "lp", None)
    if type(lp) is _Highs:
        lp.clearModel()
        return lp
    lp = _local.lp = _Highs()
    lp.setOptionValue("output_flag", False)
    lp.setOptionValue("primal_feasibility_tolerance", _HIGHS_TOL)
    lp.setOptionValue("dual_feasibility_tolerance", _HIGHS_TOL)
    # Presolve costs more than it saves on LPs this small (see the module docstring).
    lp.setOptionValue("presolve", "off")
    return lp


def contextuality_cost(box: Box) -> CostReport:
    """Minimal contextual weight in any convex decomposition of ``box``.

    A binary n-cycle gets its cost in closed form, and a box on an acyclic
    hypergraph from its junction-tree joint; column generation solves every
    other box (see the module docstring).  Defined only for consistent
    boxes; inconsistent input is refused rather than given a misleading
    number.  Refuses a joint of 2^63 cells or more, since a witness is held
    as joint indices, and column generation refuses a box whose elimination
    needs a table above ``JOINT_DIM_CAP`` cells.
    """
    require_consistent(box)
    g = box.hypergraph
    check_joint_index(g.joint_dim)
    if g.is_binary_cycle:
        return _binary_cycle_cost(box)
    joint = junction_tree_joint(box)
    if joint is not None:
        report = _junction_tree_cost(box, joint)
        if report.cost <= _LP_TOL:
            return report
    return _column_generation(box)


# P(equal) - P(differ) from a pair's outcomes 00, 01, 10, 11.
_CORRELATOR = np.array([1.0, -1.0, -1.0, 1.0])


def _binary_cycle_cost(box: Box) -> CostReport:
    """The cost of a box on a binary n-cycle, from its chained inequalities.

    With ``E_i`` the correlator of context i, the largest ``sum_i g_i E_i``
    over sign vectors g with an odd number of -1 is ``S = sum |E_i|``, less
    ``2 min |E_i|`` when an even number of the ``E_i`` are negative, and the
    cost is ``max(0, (S - (n - 2)) / 2)``, clamped to [0, 1].  The witness is
    solved on first read.
    """
    n = box.hypergraph.n_contexts
    correlators = box.stacked().reshape(n, 4) @ _CORRELATOR
    sizes = np.abs(correlators)
    best = float(sizes.sum())
    if np.count_nonzero(correlators < 0.0) % 2 == 0:
        best -= 2.0 * float(sizes.min())
    cost = min(1.0, max(0.0, (best - (n - 2)) / 2.0))
    return CostReport(cost, (cost, cost), box)


def _column_generation(box: Box) -> CostReport:
    """The cost LP of a consistent box, solved by column generation, with its witness.

    Each round re-solves the restricted LP's dual (see the module docstring)
    after appending the entering columns as rows: its solution y prices the
    columns, and the witness weights are the rows' duals, so the cost
    ``1 - sum w`` belongs to the reported witness.
    """
    g = box.hypergraph
    stacked = box.stacked()
    n_contexts = g.n_contexts
    lp = _cost_lp()
    # Variable y_r for each stacked row r: cost b_r, bounds [0, inf), no entries yet.
    lp.addCols(
        stacked.size, stacked, np.zeros(stacked.size), np.full(stacked.size, np.inf),
        0, np.zeros(stacked.size, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0),
    )
    # Start from the stacked.size assignments the box supports best (see the
    # module docstring), by the sum of -log b over their rows.  A zero row
    # scores above any all-positive assignment's total, but finitely, so no
    # inf or NaN enters the kernel.
    positive = stacked > 0
    fit = np.empty(stacked.size)
    fit[positive] = -np.log(stacked[positive])
    fit[~positive] = n_contexts * fit[positive].max() + 1.0
    _, entering = g.incidence.extremum(fit, "min", count=stacked.size)
    new_rows = g.incidence.rows(entering)
    # LP row i is assignment columns[i]: rows are appended in round order.
    columns = np.empty(0, dtype=np.int64)
    for _ in range(200):
        lp.addRows(
            entering.size, np.ones(entering.size), np.full(entering.size, np.inf),
            new_rows.size, np.arange(0, new_rows.size, n_contexts, dtype=np.int32),
            new_rows.ravel().astype(np.int32), np.ones(new_rows.size),
        )
        columns = np.concatenate([columns, entering])
        lp.run()
        status = lp.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise ContextualityError(f"cost LP failed: {lp.modelStatusToString(status)}")
        solution = lp.getSolution()
        duals = np.asarray(solution.col_value)
        min_score, candidates = g.incidence.extremum(duals, "min", count=2 * stacked.size)
        if min_score >= 1.0 - 1e-9:
            break
        # Only the candidates these duals violate enter.  A column already in
        # the LP scores at least 1 within HiGHS's tolerance, so none enters twice.
        candidate_rows = g.incidence.rows(candidates)
        violated = duals[candidate_rows].sum(axis=1) < 1.0 - 1e-9
        entering, new_rows = candidates[violated], candidate_rows[violated]
        if entering.size == 0:
            break
    else:
        raise ContextualityError("column generation did not converge in 200 rounds")
    # The pricing bound certifies y / min_score is dual feasible.
    dual_value = float(duals @ stacked) / max(min(1.0, min_score), 1e-12)

    weights = np.maximum(np.asarray(solution.row_dual), 0.0)
    # Both bounds are clamped into [0, 1] and ordered, so rounding in the LP
    # solution cannot invert the bracket.
    cost = min(1.0, max(0.0, 1.0 - float(weights.sum())))
    interval = (min(min(1.0, max(0.0, 1.0 - dual_value)), cost), cost)
    used = np.flatnonzero(weights > 1e-12)
    return CostReport(cost, interval, box, (columns[used], weights[used]))


def _junction_tree_cost(box: Box, joint: np.ndarray) -> CostReport:
    """The cost certified by the junction-tree joint of a box on an acyclic hypergraph.

    The witness is the joint's positive cells, scaled by the largest
    ``s <= 1`` that keeps its box within ``b`` on every row, so it spends no
    more than the box, to rounding, even where the box is consistent only
    within ``require_consistent``'s tolerance.  The cost ``1 - s * sum(joint)``
    is then an upper bound, and 0 a lower one.
    """
    columns = np.flatnonzero(joint > 0.0)
    weights = joint[columns]
    mass = box.hypergraph.incidence.marginals(joint)
    spent = mass > 0.0
    scale = min(1.0, float((box.stacked()[spent] / mass[spent]).min()))
    weights *= scale
    cost = min(1.0, max(0.0, 1.0 - float(weights.sum())))
    return CostReport(cost, (0.0, cost), box, (columns, weights))


def is_noncontextual(box: Box, tol: float = 1e-8) -> bool:
    """Membership test for the NC polytope via the cost LP, at a finite ``tol >= 0``."""
    check_tolerance(tol)
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
    deterministic vertex, and ``ContextIncidence.extremum`` finds the first
    optimal assignment in lexicographic order without scanning every vertex.
    The value is the argopt's score, added in context order.  Refuses
    non-finite weights, and a hypergraph whose elimination needs a table
    above ``JOINT_DIM_CAP`` cells.
    """
    stacked = g.incidence.stack(weights)
    if not np.all(np.isfinite(stacked)):
        raise InvalidBoxError("linear weights contain non-finite entries")
    _, (best,) = g.incidence.extremum(stacked, direction)
    value = 0.0
    for term in stacked[g.incidence.rows(best)].tolist():
        value += term
    return LinearOptimum(
        value=value,
        argopt=DeterministicAssignment(np.unravel_index(best, g.joint_shape)),
        direction=direction,
    )

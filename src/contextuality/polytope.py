"""The non-contextual polytope: LP membership, contextuality cost, linear optimization.

The polytope NC_G is the convex hull of the deterministic boxes of a
hypergraph.  The contextuality cost of a consistent box b solves

    maximize  sum_D w_D   subject to   sum_D w_D * vertexbox_D <= b,  w >= 0

over deterministic assignments D; the cost is 1 minus the optimum, and the
residual (b - sum_D w_D vertexbox_D) / cost is the contextual remainder.

Four kinds of box need no LP.  A box on a binary n-cycle (PR = CH(4),
KCBS, every CH(n); ``Hypergraph.is_binary_cycle``) gets its cost in closed
form from its chained inequalities (``_binary_cycle_cost``), and a box on
an acyclic hypergraph from its junction-tree joint (``_joint_cost``).  A
binary box within the 2^10-cell scan whose contexts are each flat on their
two parity classes (isotropic PM and M, and the twirls onto them) gets it
from its parity inequality and a symmetric witness (``_parity_cost``), kept
only when the two ends meet within 1e-12.  That took the cost of PM(0.9)
and M(0.9) from 0.73 and 1.05 ms by the LP then used within the scan to
0.25 and 0.27 ms (best of 30, a fresh box each call, 2-core Xeon host).
And a noncontextual box whose every entry is positive, and whose incidence
matrix M fits ``boxes.DENSE_ENTRIES_CAP``, gets it from its witness
(``boxes.projected_joint``: a joint with its marginals from at most 16
sweeps of iterative proportional fitting, each followed by a projection
try, made once per box, cached on it beside the junction-tree joint and
the parity mixture, and read by ``x_u`` and ``x_max`` too), a global
section of the box (Abramsky & Brandenburger 2011) that ``_joint_cost``
certifies as it does the junction-tree joint.  A joint is kept only at a
cost of at most 1e-9, so one that misses leaves the box to the LP.  Every
other box is solved by the junction-tree LP, and so is a binary cycle's
witness when it is first read.  A witness is held as the digits of its
assignments, so no joint index bounds the joint.

The junction-tree LP (``boxes.JunctionTree``, on a min-fill order) has the
clique tables as variables: maximize the root's mass subject to agreement
on every separator and to each stacked row's mass, summed from a clique
that holds its context, being at most b.  Nonnegative tables that agree are
the clique marginals of a measure on the joint (Lauritzen & Spiegelhalter
1988), so this is exactly the cost LP, of the size of the clique tables,
solved in one HiGHS run by primal simplex.  The cost is 1 less the root's
mass, and the witness is peeled from the tables when first read
(``JunctionTree.peel``).  No joint tensor is built: a box is refused only
for more than 64 observables, or for an LP whose variables and matrix
entries come to more than ``JOINT_DIM_CAP``.  On
M + PM + CH(14, 0.95) (2^33 cells) it took 9 ms, where an LP that priced
assignments in rounds took 3.2 s (README.md).  The tree of a context list
is built once, on its shared incidence (``boxes._incidence``), so within
the scan the LP is nearly as fast as those rounds were: on 32 boxes of one perfbench
small-batch pass (joints of 16 to 1024 cells) it took 26 ms, against
23-24 ms, and was slower only on the four 1024-cell Mermin mixes (14
against 8 ms; best of 7, trees and models warm, 2-core Xeon host).  Of
those 32 boxes, 28 now take the witness route, and 4, contextual anchored
mixes, reach the LP.  On hypergraphs of 4 or 5 observables under many
contexts the route misses more often: 2 of 303 seeded noncontextual
Dirichlet boxes there reach the LP (README.md).

Dividing the duals y of the box's rows by the least score of any
assignment under them, from a min-sum pass over the same tree's cliques
(``JunctionTree.min_score``), makes them dual feasible, which certifies
the lower end ``1 - b.y / min score``; that score is 1 up to rounding,
since the agreement terms cancel along the tree.  Each thread
keeps one HiGHS model, its options set once, and clears it for each call
(``clearModel``, about 1 microsecond on a 2-core Xeon host, against about
100 to build a model).  HiGHS runs with presolve off, which cost more than
it saved: the LP took 1.7 against 2.2 ms on M + PR and 4.7 against 5.6 ms
on M + PM + CH(14, 0.95) (best of 5, tree built).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy

from .boxes import (
    PARITY_FLAT_TOL,
    Box,
    DeterministicAssignment,
    Hypergraph,
    check_tolerance,
    junction_tree_joint,
    parity_mixture,
    projected_joint,
    require_consistent,
)
from .errors import ContextualityError, InvalidBoxError

DENSE_VERTEX_CAP = 2**14  # read only by perfbench, which tags cost runs this small "dense"
_LP_TOL = 1e-9
# HiGHS's smallest feasibility tolerances.  At its default of 1e-7, boxes with
# entries near 1e-7 got witnesses that over-spend the box by up to 2e-7 and
# costs up to 8e-7 off, outside their own zero-width bracket.
_HIGHS_TOL = 1e-10
# HiGHS's primal simplex, for the junction-tree LP: with the tree built, a call
# took 2.2 ms on M + PR (2^14 cells) and 4.0 ms on M + PM (2^19), against 5.1
# and 8.5 ms with the default dual simplex (best of 5, 2-core Xeon host).
_PRIMAL_SIMPLEX = 4


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
    when the cost is within 1e-9 of 0) are decoded on first access and then
    cached, the junction-tree LP's tables peeled into assignments then; most
    callers read only ``cost`` and ``interval``.  A binary n-cycle's cost
    and interval come from the closed form (see the module docstring), and
    its witness is solved by the junction-tree LP only when one of the two
    is first read.
    """

    cost: float
    interval: tuple[float, float]
    _box: Box = field(repr=False)
    # Decodes the witness as LP data, its assignments' digits and their
    # weights, all positive; None while a closed-form report's witness is unsolved.
    _decode: Callable[[], tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False)

    @cached_property
    def _witness(self) -> tuple[np.ndarray, np.ndarray]:
        if self._decode is None:
            return _tree_lp(self._box)._witness
        return self._decode()

    @cached_property
    def witness_weights(self) -> dict[DeterministicAssignment, float]:
        digits, weights = self._witness
        keys = map(DeterministicAssignment._of, map(tuple, digits.tolist()))
        return dict(zip(keys, weights.tolist()))

    @cached_property
    def residual_box(self) -> Box | None:
        if self.cost <= _LP_TOL:
            return None
        g = self._box.hypergraph
        stacked = self._box.stacked()
        res_stacked = np.maximum(stacked - _mass(g, *self._witness), 0.0) / self.cost
        dists = []
        for vec in g.incidence.split(res_stacked):
            total_mass = vec.sum()
            dists.append(vec / total_mass if total_mass > 0 else vec)
        return Box(g, dists)


def _mass(g: Hypergraph, digits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A witness's mass on each stacked row."""
    return np.bincount(
        g.incidence.digit_rows(digits).ravel(),
        weights=np.repeat(weights, g.n_contexts),
        minlength=g.incidence.dim,
    )


def _within(box: Box, mass: np.ndarray) -> float:
    """The largest ``s <= 1`` that keeps ``s * mass`` within the box on every row."""
    spent = mass > 0.0
    return min(1.0, float(np.min(box.stacked()[spent] / mass[spent], initial=1.0)))


_local = threading.local()
# Every model runs silent, at ``_HIGHS_TOL``, by primal simplex, with presolve
# off (see the module docstring).
_HIGHS_OPTIONS = {"output_flag": False, "primal_feasibility_tolerance": _HIGHS_TOL,
                  "dual_feasibility_tolerance": _HIGHS_TOL, "presolve": "off",
                  "simplex_strategy": _PRIMAL_SIMPLEX}


def _highs(costs: np.ndarray) -> _Highs:
    """This thread's HiGHS model, with one variable in [0, inf) per entry of
    ``costs``, to be minimized, and no rows.

    One model per thread is kept, its options set once, and cleared for each
    call (``clearModel`` keeps the options); ``measure --workers N`` solves
    on N threads.  A model of another class than ``_Highs`` (as when a test
    replaces ``_Highs``) is replaced by a new one.
    """
    lp = getattr(_local, "lp", None)
    if type(lp) is _Highs:
        lp.clearModel()
    else:
        lp = _local.lp = _Highs()
        for option, value in _HIGHS_OPTIONS.items():
            lp.setOptionValue(option, value)
    n = costs.size
    lp.addCols(n, costs, np.zeros(n), np.full(n, np.inf), 0, np.zeros(n, dtype=np.int32),
               np.empty(0, dtype=np.int32), np.empty(0))
    return lp


def _solution(lp: _Highs):
    """Run ``lp`` and return its optimal solution; refuse any other outcome."""
    lp.run()
    status = lp.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise ContextualityError(f"cost LP failed: {lp.modelStatusToString(status)}")
    return lp.getSolution()


def contextuality_cost(box: Box) -> CostReport:
    """Minimal contextual weight in any convex decomposition of ``box``.

    A binary n-cycle gets its cost in closed form, a box on an acyclic
    hypergraph from its junction-tree joint, a binary box within the
    2^10-cell scan that is flat on every context's parity classes from its
    parity inequality and a symmetric witness, when the two meet, and a
    noncontextual box of full support within the dense caps from its
    witness, a joint with its marginals (``boxes.projected_joint``), when
    16 sweeps find one; every other box is solved by the junction-tree LP
    (see the module docstring).  Defined only for consistent boxes; inconsistent
    input is refused rather than given a misleading number.  Refuses a box
    of more than ``boxes.MAX_OBSERVABLES`` observables, and one whose
    junction-tree LP has more variables and matrix entries than
    ``JOINT_DIM_CAP``.
    """
    require_consistent(box)
    if box.hypergraph.is_binary_cycle:
        return _binary_cycle_cost(box)
    return (_joint_cost(box, junction_tree_joint(box)) or _parity_cost(box)
            or _joint_cost(box, projected_joint(box)) or _tree_lp(box))


# P(equal) - P(differ) from a pair's outcomes 00, 01, 10, 11.
_CORRELATOR = np.array([1.0, -1.0, -1.0, 1.0])


def _binary_cycle_cost(box: Box) -> CostReport:
    """The cost of a box on a binary n-cycle, from its chained inequalities.

    With ``E_i = P(equal) - P(differ)`` on context i, the largest
    ``sum_i g_i E_i`` over sign vectors g with an odd number of -1 is
    ``S = sum |E_i|``, less ``2 min |E_i|`` when an even number of the
    ``E_i`` are negative.  The chained inequalities ``sum_i g_i E_i <= n - 2``
    are the only nontrivial facets of this scenario's noncontextual polytope
    (Araujo, Quintino, Budroni, Terra Cunha & Cabello 2013, PRA 88, 022118),
    and a consistent box has ``S <= n``, so the cost is
    ``max(0, (S - (n - 2)) / 2)``: the maximizing inequality certifies it as
    a lower bound, and the facet theorem makes it exact.  The interval is
    the cost at both ends, clamped to [0, 1]; no HiGHS model or elimination
    runs, and the witness is solved on first read.
    """
    n = box.hypergraph.n_contexts
    correlators = box.stacked().reshape(n, 4) @ _CORRELATOR
    sizes = np.abs(correlators)
    best = float(sizes.sum())
    if np.count_nonzero(correlators < 0.0) % 2 == 0:
        best -= 2.0 * float(sizes.min())
    cost = min(1.0, max(0.0, (best - (n - 2)) / 2.0))
    return CostReport(cost, (cost, cost), box)


def _parity_cost(box: Box) -> CostReport | None:
    """The cost of a binary box that is flat on each context's parity classes, from
    its parity inequality and a symmetric witness; None if the two do not meet.

    Only boxes whose joint the mixture may lift whole (``scans_whole_joint``:
    at most 2^10 cells) qualify, and only those that ``parity_mixture``
    classifies; ``best_outcome`` plays no part.  The lighter classes' indicator,
    divided by ``n - max beta``, scores every assignment at least 1, so it
    is dual feasible and certifies the lower end
    ``1 - b.(1 - y) / (n - max beta)`` (0 when max beta = n); on these boxes
    it is the LP's own optimal dual (Abramsky, Barbosa & Mansfield 2017).
    The witness is the parity mixture, scaled by ``_within`` to fit the
    box; its cost is the upper end.  The report is kept only if the two
    ends are within ``PARITY_FLAT_TOL``, so the value rests on both
    certificates, never on the box being isotropic.
    """
    g = box.hypergraph
    if not g.incidence.scans_whole_joint:
        return None
    found = parity_mixture(box)
    if found is None:
        return None
    y, n = found.heavier, g.n_contexts
    digits = np.transpose(np.unravel_index(found.columns, g.joint_shape))
    weights = found.weights * _within(box, _mass(g, digits, found.weights))
    cost = 1.0 - float(weights.sum())
    # A report's witness weights are positive: drop a part of share 0, and
    # every part if the box leaves a row empty that the witness spends.
    used = weights > 0.0
    witness = (digits[used], weights[used])
    if found.top < n:
        report = _report(box, cost, (1.0 - y) / (n - found.top), 1.0, lambda: witness)
    else:
        cost = min(1.0, max(0.0, cost))
        report = CostReport(cost, (0.0, cost), box, lambda: witness)
    lo, hi = report.interval
    return report if hi - lo <= PARITY_FLAT_TOL else None


def _report(
    box: Box, cost: float, y: np.ndarray, min_score: float,
    decode: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> CostReport:
    """An LP's report: ``cost``, and the lower end ``1 - b.y / min_score`` that the
    duals ``y`` certify (see the module docstring).  Both ends are clamped into
    [0, 1] and ordered, so rounding in the LP solution cannot invert the bracket."""
    cost = min(1.0, max(0.0, cost))
    dual_value = float(y @ box.stacked()) / max(min(1.0, min_score), 1e-12)
    return CostReport(cost, (min(min(1.0, max(0.0, 1.0 - dual_value)), cost), cost), box, decode)


def _tree_lp(box: Box) -> CostReport:
    """The cost LP of a consistent box on its junction tree, in one HiGHS run
    (see the module docstring)."""
    tree = box.hypergraph.junction_tree
    starts, indices, values = tree.matrix  # first, to refuse an LP over the cap
    stacked = box.stacked()
    agreements, root = tree.n_agreements, tree.offsets[1]
    # Minimize minus the root's mass.
    costs = np.where(np.arange(tree.offsets[-1]) < root, -1.0, 0.0)
    lp = _highs(costs)
    lp.addRows(
        starts.size, np.concatenate([np.zeros(agreements), np.full(stacked.size, -np.inf)]),
        np.concatenate([np.zeros(agreements), stacked]), indices.size, starts, indices, values,
    )
    solution = _solution(lp)
    tables = np.asarray(solution.col_value)
    # HiGHS minimizes -mass, so the b rows' duals are <= 0.
    y = np.maximum(-np.asarray(solution.row_dual)[agreements:], 0.0)
    mass = float(tables[:root].sum())
    return _report(box, 1.0 - mass, y, tree.min_score(y), lambda: _peeled(box, tables))


def _peeled(box: Box, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The assignments peeled from the junction-tree LP's tables, scaled to fit the box."""
    digits, weights = box.hypergraph.junction_tree.peel(tables)
    return digits, weights * _within(box, _mass(box.hypergraph, digits, weights))


def _joint_cost(box: Box, joint: np.ndarray | None) -> CostReport | None:
    """The cost certified by a joint with the box's context marginals: the
    junction-tree joint of a box on an acyclic hypergraph (Vorob'ev 1962), or
    the entropy solver's projection onto a noncontextual box's marginals.

    The witness is the joint's positive cells, scaled by the largest
    ``s <= 1`` that keeps its box within ``b`` on every row, so it spends no
    more than the box, to rounding, even where the joint's marginals, or the
    box's consistency, hold only approximately.  The cost
    ``1 - s * sum(joint)``, about 1e-15, is then an upper bound, and 0 a
    lower one.  None, which leaves the box to the next route, when there is
    no joint, or its cost is above 1e-9.
    """
    if joint is None:
        return None
    positive = joint.reshape(box.hypergraph.joint_shape) > 0.0
    weights = joint[positive.ravel()] * _within(box, box.hypergraph.incidence.marginals(joint))
    cost = min(1.0, max(0.0, 1.0 - float(weights.sum())))
    if cost > _LP_TOL:
        return None
    return CostReport(cost, (0.0, cost), box, lambda: (np.argwhere(positive), weights))


def is_noncontextual(box: Box, tol: float = 1e-8) -> bool:
    """Membership test for the NC polytope, at a finite ``tol >= 0``: whether
    ``contextuality_cost``, by the LP or a route that needs none, is at most ``tol``."""
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
    deterministic vertex, and ``ContextIncidence.best_outcome`` finds the
    digits of the first optimal assignment in lexicographic order without
    scanning every vertex; the argopt and its rows are read from them.  The
    value is the argopt's score, added in context order.  Refuses
    non-finite weights, and a hypergraph whose elimination needs a table
    above ``JOINT_DIM_CAP`` cells.
    """
    stacked = g.incidence.stack(weights)
    if not np.all(np.isfinite(stacked)):
        raise InvalidBoxError("linear weights contain non-finite entries")
    _, digits = g.incidence.best_outcome(stacked, direction)
    value = 0.0
    for term in stacked[g.incidence.digit_rows(digits)].tolist():
        value += term
    return LinearOptimum(
        value=value,
        argopt=DeterministicAssignment._of(digits),
        direction=direction,
    )

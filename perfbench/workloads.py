"""The three benchmark workloads, their seeded inputs and their checks.

Inputs come from ``builders``/``sampling`` and references from
``closed_form``, all built before timing starts; the library only receives
the generated boxes.  Every library call goes through :class:`Checker`,
which times it (via the :class:`~tracing.Recorder`) and checks its result;
between jobs the checker probes the host's speed (see :mod:`hostclock`).
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import contextuality as cx
import hostclock
from contextuality.closed_form import cost_closed_form, nc_interval, xu_chain, xu_isotropic
from contextuality.polytope import DENSE_VERTEX_CAP
from contextuality.sampling import random_consistent_box, random_hypergraph

# A failed operation whose only fault is a cost interval that is inverted or
# leaves [0, 1]: the known defect of ROADMAP item 4.  It counts as failed but
# does not make the run incorrect, because the cost value itself is checked.
BRACKET = "bracket"

# Operations timed as solves (the population of solve_ms_p50 / solve_ms_tail).
SOLVES = frozenset({
    "measures.x_u", "measures.x_max", "polytope.contextuality_cost",
    "polytope.optimize_linear", "inequalities.verify_bounds_by_lp",
})

try:
    _malloc_trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
except (OSError, AttributeError, TypeError):  # not glibc
    _malloc_trim = None


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS.

    Done after each job of at least ``RELEASE_AFTER_S``, outside its
    timing, so that peak_rss_mb follows what one job holds at once rather
    than how earlier jobs left the heap fragmented: without it, the same run
    of cost-colgen peaked anywhere between 162 and 191 MB.  Shorter jobs
    allocate little, and a collection (about 13 ms) after each would double
    a small-batch pass.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


RELEASE_AFTER_S = 0.1
XMAX_OUTER_WINDOW = 40  # as in the acceptance suite's X_max = X_u criterion
XU_REF_TOL = 1e-5       # golden-value tolerance of the acceptance suite
COST_REF_TOL = 1e-7     # cost-grid tolerance of the acceptance suite


@dataclass
class Op:
    """One checked library call."""

    name: str
    case: str
    seconds: float
    ok: bool = True
    reason: str = ""
    abs_err: float | None = None
    host: float = 1.0  # host slowdown while the call ran (see hostclock)

    @property
    def solve(self) -> bool:
        return self.name in SOLVES


@dataclass
class Job:
    """One timed job of one pass, and the checked calls it made."""

    case: str
    start: float
    end: float
    ops: list
    host: float = 1.0  # host slowdown while the job ran (see hostclock)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Checker:
    """Runs library calls through a recorder and checks what they return.

    ``perturb`` names a case whose reference value is shifted by 1e-3; the
    self-test uses it to show that a wrong reference registers as a failure.
    ``probe`` names the host probe (see hostclock) stamped between jobs.
    """

    def __init__(self, rec, perturb: str | None = None, probe: str = "small"):
        self.rec = rec
        self.perturb = perturb
        self.probe = probe
        self.ops: list[Op] = []
        self.jobs: list[Job] = []
        self._stamps: list[tuple[float, float]] = []
        self._pass_jobs: list[Job] = []

    def start_pass(self) -> None:
        self._stamps, self._pass_jobs = [], []

    def _stamp(self, always: bool) -> None:
        if always or time.perf_counter() - self._stamps[-1][0] >= hostclock.EVERY_S:
            self._stamps.append(hostclock.stamp(self.probe))

    def end_pass(self) -> None:
        """Set the host slowdown of each job of the pass and of its calls."""
        self._stamp(always=True)
        for job in self._pass_jobs:
            job.host = hostclock.factor(self.probe, self._stamps, job.start, job.end)
            for op in job.ops:
                op.host = job.host

    @contextmanager
    def job(self, p: int, case: str):
        """Time one job of pass ``p``; ``case`` names the same job in every pass.

        The host is probed between jobs, outside their spans, whenever the
        last probe is ``hostclock.EVERY_S`` old, and at the start and end of
        each pass.
        """
        self._stamp(always=not self._stamps)
        first_op = len(self.ops)
        start = time.perf_counter()
        with self.rec.span("bench.job", request=f"{p}:{case}"):
            yield
        job = Job(case, start, time.perf_counter(), self.ops[first_op:])
        if job.seconds >= RELEASE_AFTER_S:
            release_memory()
        self._stamp(always=False)
        self._pass_jobs.append(job)
        self.jobs.append(job)

    def call(self, name: str, case: str, fn, *args, **kwargs):
        """Return ``(result, op)``; ``result`` is None if the call raised."""
        try:
            result, seconds = self.rec.call(name, fn, *args, **kwargs)
        except (cx.ContextualityError, ValueError, FloatingPointError) as exc:
            result, op = None, Op(name, case, math.inf, False,
                                  f"raised {type(exc).__name__}: {exc}")
        else:
            op = Op(name, case, seconds)
        self.rec.annotate(case=case)
        self.ops.append(op)
        return result, op

    @staticmethod
    def fail(op: Op, reason: str) -> None:
        if op.ok:
            op.ok, op.reason = False, reason

    def against(self, op: Op, value: float, ref: float, tol: float) -> None:
        value = float(value)
        if self.perturb == op.case:
            ref += 1e-3
        op.abs_err = abs(value - ref)
        if not op.abs_err <= tol:
            self.fail(op, f"|{value!r} - {ref!r}| = {op.abs_err:.3g} > {tol:g}")

    def validate(self, case: str, box: cx.Box) -> None:
        report, op = self.call("boxes.validate_box", case, cx.validate_box, box)
        if report is not None and not report.ok:
            self.fail(op, f"invalid box: {report.issues}")
        report, op = self.call("boxes.check_consistency", case, cx.check_consistency, box)
        if report is not None and not report.consistent:
            self.fail(op, f"inconsistent box: max deviation {report.max_deviation:.3g}")

    def x_u(self, case: str, box: cx.Box, ref: float | None = None,
            ref_tol: float = XU_REF_TOL, **kwargs):
        report, op = self.call("measures.x_u", case, cx.x_u, box, **kwargs)
        if report is None:
            return None
        self.rec.annotate(iterations=report.iterations, joint_dim=box.hypergraph.joint_dim,
                          gap=report.duality_gap, converged=report.converged)
        if not report.converged:
            self.fail(op, f"not converged: gap {report.duality_gap:.3g}")
        if not report.value >= -1e-12 or not report.duality_gap >= 0.0:
            self.fail(op, f"bad bracket [{report.value - report.duality_gap!r}, {report.value!r}]")
        if ref is not None:
            self.against(op, report.value, ref, ref_tol)
        return report

    def x_max(self, case: str, box: cx.Box, xu_report) -> None:
        report, op = self.call("measures.x_max", case, cx.x_max, box,
                               outer_window=XMAX_OUTER_WINDOW)
        if report is None:
            return
        self.rec.annotate(iterations=report.iterations, joint_dim=box.hypergraph.joint_dim,
                          gap=report.duality_gap, converged=report.converged)
        if not report.converged:
            self.fail(op, f"not converged: gap {report.duality_gap:.3g}")
        # Uniform weights are one candidate, so X_max >= X_u's lower bound.
        if xu_report is not None:
            floor = xu_report.value - xu_report.duality_gap - 1e-9
            if not report.value >= floor:
                self.fail(op, f"x_max {report.value!r} below x_u bracket {floor!r}")

    def cost(self, case: str, box: cx.Box, ref: float | None = None):
        report, op = self.call("polytope.contextuality_cost", case, cx.contextuality_cost, box)
        if report is None:
            return None
        lo, hi = report.interval
        dense = box.hypergraph.joint_dim <= DENSE_VERTEX_CAP
        self.rec.annotate(lo=lo, hi=hi, dense=dense, joint_dim=box.hypergraph.joint_dim)
        if ref is not None:
            self.against(op, report.cost, ref, COST_REF_TOL)
        if not 0.0 <= lo <= hi <= 1.0:
            self.fail(op, f"{BRACKET}: interval ({lo!r}, {hi!r})")
        return report

    def faithful(self, case: str, xu_report, cost_report) -> None:
        """x_u = 0 iff cost = 0, checked only where both sides are decided."""
        if xu_report is None or cost_report is None:
            return
        op = Op("bench.faithfulness", case, 0.0)
        self.ops.append(op)
        xu, gap, cost = xu_report.value, xu_report.duality_gap, cost_report.cost
        if cost <= 1e-9 and xu > 1e-6:
            self.fail(op, f"cost {cost!r} ~ 0 but x_u {xu!r} > 0")
        elif cost >= 1e-3 and not xu > 1e-12:
            self.fail(op, f"cost {cost!r} > 0 but x_u {xu!r} ~ 0")
        elif xu - gap > 1e-6 and not cost > 1e-9:
            self.fail(op, f"x_u >= {xu - gap!r} > 0 but cost {cost!r} ~ 0")


def chain_scan_reference(n: int, weights: list[np.ndarray]) -> float:
    """Exact max of sum_c w_c[x_c, x_{c+1}] over binary cycles, by dynamic programming."""
    tables = [np.asarray(w, dtype=float).reshape(2, 2) for w in weights]
    best = -np.inf
    for x0 in (0, 1):
        f = tables[0][x0].copy()
        for t in tables[1 : n - 1]:
            f = (f[:, None] + t).max(axis=0)
        best = max(best, float((f + tables[n - 1][:, x0]).max()))
    return best


@dataclass
class State:
    """What one set-up builds: inputs, references and set-up measurements."""

    passes: list = field(default_factory=list)
    closure_s: float = 0.0
    group_order: int = 0
    extra: dict = field(default_factory=dict)


class XuLarge:
    """A few large joint solves: marginalization traffic dominates."""

    name = "xu-large"
    probe = "large"
    nominal_pass_s = 4.3

    def __init__(self, tiny: bool):
        self.tiny = tiny

    def build(self, rng: np.random.Generator, passes: int) -> State:
        pr, pm = cx.pr_box(), cx.pm_box()
        pr2 = cx.tensor(pr, pr)
        chains = (5, 6) if self.tiny else (12, 14, 16)
        cases = [(f"CH{n}", cx.chain_box(n), {}, xu_chain(n), XU_REF_TOL) for n in chains]
        cases.append(("PRxPR", pr2, {"tol": 2e-4}, 2 * math.log2(4 / 3), 5e-4))
        if not self.tiny:
            cases.append(("PRxPRxPR", cx.tensor(pr2, pr), {"tol": 4e-4},
                          3 * math.log2(4 / 3), 1e-3))
            cases.append(("PMxPM", cx.tensor(pm, pm), {"tol": 2e-4},
                          2 * math.log2(6 / 5), 5e-4))
        # The seed fixes the call order of each pass; the boxes are fixed.
        return State(passes=[[cases[i] for i in rng.permutation(len(cases))]
                             for _ in range(passes)])

    def warm_up(self, state: State, chk: Checker) -> None:
        box = cx.pr_box()
        chk.validate("warm", box)
        chk.x_u("warm", box)

    def run_pass(self, state: State, p: int, chk: Checker) -> None:
        for case, box, kwargs, ref, ref_tol in state.passes[p]:
            with chk.job(p, case):
                chk.validate(case, box)
                chk.x_u(case, box, ref=ref, ref_tol=ref_tol, **kwargs)


class CostColgen:
    """Cost LP in dense and column-generation mode, KS bounds and a linear scan."""

    name = "cost-colgen"
    probe = "large"
    nominal_pass_s = 5.2
    alphas = (0.9, 0.99)

    def __init__(self, tiny: bool):
        self.tiny = tiny

    def build(self, rng: np.random.Generator, passes: int) -> State:
        chains, bounds, scan_n = ((8, 15), (10,), 12) if self.tiny else ((14, 16, 18), (16, 18), 20)
        costs = [(f"CH{n}@{a}", cx.chain_box(n, a), cost_closed_form("CH", a, n))
                 for n in chains for a in self.alphas]
        refs = [(f"CH{n}", cx.chain_box(n)) for n in bounds]
        scan_g = cx.chain_box(scan_n).hypergraph
        weights = [rng.normal(size=4) for _ in range(scan_n)]
        return State(extra={"costs": costs, "bounds": refs, "scan_g": scan_g,
                            "scan": (weights, chain_scan_reference(scan_n, weights))})

    def warm_up(self, state: State, chk: Checker) -> None:
        box = cx.pr_box(0.9)
        chk.validate("warm", box)
        chk.cost("warm", box)
        chk.cost("warm", cx.chain_box(15, 0.99))  # smallest column-generation case
        chk.call("polytope.optimize_linear", "warm", cx.optimize_linear,
                 box.hypergraph, [np.ones(4)] * 4)

    def run_pass(self, state: State, p: int, chk: Checker) -> None:
        for case, box, ref in state.extra["costs"]:
            with chk.job(p, case):
                chk.validate(case, box)
                chk.cost(case, box, ref=ref)
        for case, box in state.extra["bounds"]:
            with chk.job(p, f"bounds-{case}"):
                report, op = chk.call("inequalities.verify_bounds_by_lp", f"bounds-{case}",
                                      cx.verify_bounds_by_lp, box)
                if report is not None and not report.ok:
                    chk.fail(op, f"beta extrema ({report.min_beta!r}, {report.max_beta!r}) != "
                                 f"({report.expected_min!r}, {report.expected_max!r})")
        g = state.extra["scan_g"]
        weights, ref = state.extra["scan"]
        case = f"scan-CH{g.n_contexts}"
        with chk.job(p, case):
            result, op = chk.call("polytope.optimize_linear", case, cx.optimize_linear,
                                  g, weights, "max")
            chk.rec.annotate(assignments=g.joint_dim)
            if result is not None:
                chk.against(op, result.value, ref, 1e-9 * (1.0 + abs(ref)))
                bits = result.argopt.outputs
                score = sum(float(w[2 * bits[i] + bits[(i + 1) % len(bits)]])
                            for i, w in enumerate(weights))
                if not abs(score - result.value) <= 1e-9 * (1.0 + abs(ref)):
                    chk.fail(op, f"argopt scores {score!r}, reported {result.value!r}")


class SmallBatch:
    """Many small boxes: per-call overhead and long iteration tails.

    Box ``i`` is random binary, ternary or anchored by ``i % 3``; the j-th
    box of a kind fixes its size (random kinds) or its anchor family and the
    side of the NC boundary it lies on (anchored kind).  The pool of boxes is
    drawn from a fixed stream, so every seed solves the same problems: the
    seed relabels each box by a symmetry (an outcome relabeling, or an element
    of the anchor's group), which leaves every value and nearly every
    iteration count unchanged, and it orders the jobs of each pass.  Every
    pass solves the same boxes, built afresh for each pass.
    """

    name = "small-batch"
    probe = "small"
    nominal_pass_s = 3.6
    families = ("CH4", "CH5", "CH6", "CH7", "PM", "M")
    fixed = (("PM", 0.9), ("PM", 0.99), ("M", 0.9), ("M", 0.99))
    boundary_offsets = (0.035, 0.045)  # |alpha - NC boundary| of the twirled box
    pool_seed = 1  # the stream the box pool is drawn from, whatever the workload seed

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.boxes_per_pass = 6 if tiny else 72

    def _anchor(self, family: str):
        if family.startswith("CH"):
            n = int(family[2:])
            return cx.chain_box(n), ("CH", n)
        return cx.builtin(family), (family, None)

    def _anchored_box(self, rng: np.random.Generator, j: int, anchor: cx.Box) -> cx.Box:
        """Mix a Dirichlet-joint box with ``anchor`` so the twirl lands near the boundary."""
        nc = cx.box_of_joint(cx.JointDistribution(
            anchor.hypergraph, rng.dirichlet(np.ones(anchor.hypergraph.joint_dim))))
        n = anchor.hypergraph.n_contexts
        # The anchor's support mass, i.e. n * alpha of the twirled box (anchor: n).
        alpha0 = sum(float(d[a > 1e-12].sum())
                     for a, d in zip(anchor.distributions, nc.distributions)) / n
        side = 1.0 if (j // len(self.families)) % 2 == 0 else -1.0
        target = nc_interval(n)[1] + side * float(rng.uniform(*self.boundary_offsets))
        weight = min(1.0, max(0.0, (target - alpha0) / (1.0 - alpha0)))
        return cx.mix(anchor, nc, weight)

    def _stream_box(self, rng: np.random.Generator, i: int, anchors: dict):
        kind, j = i % 3, i // 3
        if kind == 2:
            family = self.families[j % len(self.families)]
            return f"{family}-mix", self._anchored_box(rng, j, anchors[family][0]), family
        k = 4 + j % 4
        g = random_hypergraph(rng, k, n_contexts=3 + (j // 4) % 4)
        if kind == 1:
            ternary = set(rng.choice(k, size=1 + j % 2, replace=False).tolist())
            g = cx.Hypergraph([(f"O{t}", 3 if t in ternary else 2) for t in range(k)],
                              g.contexts)
        return ("random" if kind == 0 else "ternary"), random_consistent_box(g, rng), None

    def build(self, rng: np.random.Generator, passes: int) -> State:
        state = State()
        anchors = {}
        for family in self.families:
            box, (base, n) = self._anchor(family)
            start = time.perf_counter()
            group = cx.builtin_group(base, n)
            state.closure_s += time.perf_counter() - start
            state.group_order += group.order
            anchors[family] = (box, group, base, n)
        state.extra["anchors"] = anchors
        fixed = self.fixed[::2] if self.tiny else self.fixed
        fixed_jobs = [
            (f"{fam}@{a}", cx.apply(self._symmetry(rng, box, anchors[fam][1]), box), None,
             False, xu_isotropic(box.hypergraph.n_contexts, a), cost_closed_form(fam, a))
            for fam, a in fixed
            for box in (cx.builtin(fam, alpha=a),)
        ]
        relabel_seeds = rng.integers(2**63, size=self.boxes_per_pass)
        for _ in range(passes):
            stream = np.random.default_rng(self.pool_seed)
            jobs = list(fixed_jobs)
            for i in range(self.boxes_per_pass):
                label, box, family = self._stream_box(stream, i, anchors)
                group = anchors[family][1] if family is not None else None
                element = self._symmetry(np.random.default_rng(relabel_seeds[i]), box, group)
                jobs.append((f"{label}-{i}", cx.apply(element, box), family, i % 4 == 3,
                             None, None))
            state.passes.append([jobs[k] for k in rng.permutation(len(jobs))])
        return state

    @staticmethod
    def _symmetry(rng: np.random.Generator, box: cx.Box, group) -> cx.GroupElement:
        """A random element of ``group``, or a random outcome relabeling if it is None."""
        if group is not None:
            return group.elements[int(rng.integers(group.order))]
        g = box.hypergraph
        return cx.GroupElement(g, range(g.n_observables),
                               [rng.permutation(d) for d in g.cardinalities])

    def warm_up(self, state: State, chk: Checker) -> None:
        # Fills each group's cached transfer matrix, so twirls are timed warm.
        for family, (anchor, group, _, _) in state.extra["anchors"].items():
            chk.call("symmetry.twirl", "warm", cx.twirl, group, anchor)
        box = cx.pr_box(0.9)
        chk.validate("warm", box)
        xu = chk.x_u("warm", box)
        chk.cost("warm", box)
        chk.x_max("warm", box, xu)

    def _solve_box(self, chk: Checker, case: str, box: cx.Box, xu_ref=None, cost_ref=None):
        chk.validate(case, box)
        xu = chk.x_u(case, box, ref=xu_ref)
        cost = chk.cost(case, box, ref=cost_ref)
        chk.faithful(case, xu, cost)
        return xu

    def run_pass(self, state: State, p: int, chk: Checker) -> None:
        anchors = state.extra["anchors"]
        for case, box, family, with_xmax, xu_ref, cost_ref in state.passes[p]:
            with chk.job(p, case):
                xu = self._solve_box(chk, case, box, xu_ref, cost_ref)
                if with_xmax:
                    chk.x_max(case, box, xu)
                if family is not None:
                    self._twirled(chk, case, box, anchors[family])

    def _twirled(self, chk: Checker, case: str, box: cx.Box, anchor_entry) -> None:
        anchor, group, base, n = anchor_entry
        case = f"{case}-twirl"
        tw, _ = chk.call("symmetry.twirl", case, cx.twirl, group, box)
        if tw is None:
            return
        alpha, op = chk.call("symmetry.isotropic_parameter", case,
                             cx.isotropic_parameter, tw, anchor, group)
        beta, beta_op = chk.call("inequalities.beta", case, cx.beta, anchor, tw)
        if alpha is None or beta is None:
            return
        n_contexts = anchor.hypergraph.n_contexts
        if not abs(beta / n_contexts - alpha) <= 1e-12:
            chk.fail(beta_op, f"beta/n {beta / n_contexts!r} != alpha {alpha!r}")
        if not 0.0 <= alpha <= 1.0:
            chk.fail(op, f"alpha {alpha!r} outside [0, 1]")
            return
        self._solve_box(chk, case, tw, xu_isotropic(n_contexts, alpha),
                        cost_closed_form(base, alpha, n))


WORKLOADS = {w.name: w for w in (XuLarge, CostColgen, SmallBatch)}

"""The cost LP, solved by HiGHS on junction-tree clique tables, against the all-columns primal LP."""

import contextlib
import functools
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from test_dense_solver import ANCHORS, shuffled, sparse_box
from test_polytope import dense_reference_cost, seeded_boxes, ternary_cycle_box

import contextuality as cx
from contextuality import boxes, polytope
from contextuality.boxes import JOINT_DIM_CAP, JunctionTree, junction_tree_joint
from contextuality.cli import main
from contextuality.closed_form import cost_closed_form, nc_interval
from contextuality.sampling import random_consistent_box, random_hypergraph, random_noncontextual_box


@pytest.fixture
def highs_log():
    """Runs of the cost LP's HiGHS model, and the rows each ``addRows`` appends."""
    log = {"runs": 0, "rows": []}

    class Spy(polytope._Highs):
        def run(self):
            log["runs"] += 1
            return super().run()

        def addRows(self, n_rows, *args):
            log["rows"].append(n_rows)
            return super().addRows(n_rows, *args)

    with mock.patch.object(polytope, "_Highs", Spy):
        yield log


@seed(20261102)
@settings(max_examples=60, deadline=None)
@given(
    anchor=st.sampled_from(ANCHORS),
    anchor_weight=st.floats(0.0, 1.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_anchored_mix_cost_matches_primal_and_rebuilds_box(anchor, anchor_weight, draw_seed):
    rng = np.random.default_rng(draw_seed)
    box = shuffled(cx.mix(anchor, sparse_box(anchor.hypergraph, rng), anchor_weight), rng)
    check_report(box, cx.contextuality_cost(box))


def check_report(box, report):
    """Cost against the all-columns primal LP, an ordered bracket, and the box rebuilt."""
    g = box.hypergraph
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9
    lo, hi = report.interval
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert all(w > 0.0 for w in report.witness_weights.values())
    # sum_D w_D * vertexbox_D + cost * residual rebuilds the box.
    rebuilt = np.zeros(g.incidence.dim)
    for assignment, w in report.witness_weights.items():
        rebuilt += w * cx.deterministic_box(assignment, g).stacked()
    if report.residual_box is not None:
        rebuilt += report.cost * report.residual_box.stacked()
    assert np.max(np.abs(rebuilt - box.stacked())) <= 1e-9


def sum_mod_box(g, rng):
    """Each context's outputs sum to a random residue mod d; uniform where that would clash.

    A context whose observables all have d outputs gets the uniform
    distribution on the outcomes whose sum is a random residue mod d, unless
    it lies inside another context; every other context is uniform.  Each
    context then has uniform marginals on every proper subset, so the box is
    consistent, and the residues usually contradict each other, so it is
    contextual.
    """
    dists = []
    for ctx in g.contexts:
        shape = tuple(g.cardinalities[i] for i in ctx)
        hit = np.ones(shape, dtype=bool)
        if len(set(shape)) == 1 and not any(set(ctx) < set(other) for other in g.contexts):
            hit = np.indices(shape).sum(axis=0) % shape[0] == rng.integers(shape[0])
        dists.append(hit.ravel() / hit.sum())
    return cx.Box(g, dists)


@st.composite
def wide_hypergraphs(draw):
    """Hypergraphs with more than 512 joint outcomes, several times the stacked rows.

    Their joints lie on both sides of the 2^10-cell scan.

    10 or 11 binary observables, or 6 or 7 observables of which 5 to 7 are
    ternary; contexts have 2 or 3 observables.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n_ternary = draw(st.sampled_from([(10, 0), (11, 0), (6, 6), (7, 5), (7, 6), (7, 7)]))
    g = random_hypergraph(rng, k, draw(st.integers(k, 2 * k)))
    ternary = set(rng.choice(k, size=n_ternary, replace=False).tolist())
    cards = [3 if i in ternary else 2 for i in range(k)]
    return cx.Hypergraph([(f"O{i}", d) for i, d in enumerate(cards)], g.contexts)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(
    g=wide_hypergraphs(),
    anchor_weight=st.floats(0.5, 1.0),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_wide_hypergraph_cost_matches_primal(g, anchor_weight, draw_seed):
    rng = np.random.default_rng(draw_seed)
    anchor = sum_mod_box(g, rng)
    box = shuffled(random_consistent_box(g, rng, anchor=anchor, anchor_weight=anchor_weight), rng)
    assert box.hypergraph.joint_dim > 512
    check_report(box, cx.contextuality_cost(box))


@st.composite
def start_boxes(draw):
    """Binary and ternary boxes: noncontextual or not, with or without zero entries.

    4 to 9 observables, up to 7 of them ternary, with at most 2187 joint
    outcomes, so the all-columns LP stays small.  The box is a Dirichlet
    joint's marginals, a sparse joint's (zeros), a sum-mod box (zeros,
    usually contextual), or a sum-mod box mixed with a sparse joint's.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(4, 9))
    n_ternary = draw(st.integers(0, max(t for t in range(k + 1) if 3**t * 2 ** (k - t) <= 2187)))
    g = random_hypergraph(rng, k, draw(st.integers(k // 2 + 1, 2 * k)))
    ternary = set(rng.choice(k, size=n_ternary, replace=False).tolist())
    g = cx.Hypergraph([(f"O{i}", 3 if i in ternary else 2) for i in range(k)], g.contexts)
    kind = draw(st.sampled_from(["noncontextual", "sparse", "sum-mod", "mixed"]))
    if kind == "noncontextual":
        box = random_noncontextual_box(g, rng)
    elif kind == "sparse":
        box = sparse_box(g, rng)
    elif kind == "sum-mod":
        box = sum_mod_box(g, rng)
    else:
        box = cx.mix(sum_mod_box(g, rng), sparse_box(g, rng), draw(st.floats(0.0, 1.0)))
    return shuffled(box, rng)


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(box=start_boxes())
def test_cost_matches_primal_with_no_float_error(box):
    """The cost reaches the all-columns optimum, inside its bracket, with no
    floating-point error raised, on zero rows too."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        report = cx.contextuality_cost(box)
    check_report(box, report)
    lo, hi = report.interval
    reference = dense_reference_cost(box)
    assert lo - 1e-9 <= reference <= hi + 1e-9, (lo, reference, hi)


@pytest.mark.parametrize("alpha", [0.9, 0.99])
@pytest.mark.parametrize("n", [16, 18])
def test_eliminated_chain_start(n, alpha, highs_log):
    """Above the 2^10-cell scan the junction-tree LP solves the chain in one
    HiGHS run on one block of rows, and the tree's min-sum pass prices its
    duals for the lower end."""
    box = cx.chain_box(n, alpha=alpha)
    assert not box.hypergraph.incidence.scans_whole_joint
    report = polytope._tree_lp(box)
    assert highs_log["runs"] == 1 and len(highs_log["rows"]) == 1
    assert abs(report.cost - cost_closed_form("CH", alpha, n)) <= 1e-7
    lo, hi = report.interval
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert hi - lo <= 1e-9


def test_witness_keys_are_public_assignments():
    """The witness keys, built unconverted, equal and hash as the public constructor's."""
    ternary = ternary_cycle_box(4)
    noise = random_noncontextual_box(ternary.hypergraph, np.random.default_rng(7))
    for box in (cx.mermin_box(0.9), cx.mix(ternary, noise, 0.8)):
        report = cx.contextuality_cost(box)
        assert report.witness_weights
        for key, weight in report.witness_weights.items():
            public = cx.DeterministicAssignment(tuple(key.outputs))
            assert type(key) is cx.DeterministicAssignment
            assert all(type(v) is int for v in key.outputs)
            assert key == public and hash(key) == hash(public)
            assert report.witness_weights[public] == weight
            key.validate_for(box.hypergraph)


def test_tree_lp_cost_is_silent(capfd, highs_log):
    """The LP's HiGHS run, and the witness peeled from it, print nothing."""
    capfd.readouterr()
    report = polytope._tree_lp(cx.mermin_box(0.9))
    assert report.witness_weights
    assert highs_log["runs"] == 1
    assert report.cost > 0.0
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("scan_cells", [1, 16])
def test_eliminated_pricing_matches_primal(scan_cells):
    """The junction-tree LP, its lower end priced by the tree's min-sum pass,
    on joints small enough for the all-columns LP. The LP reads no scan size,
    so both patched scan sizes must give the same checked reports."""
    with mock.patch.object(boxes, "_SCAN_CELLS", scan_cells):
        # The scan size is read at each call, so every call in the block reads the patched one.
        for box in seeded_boxes(rounds=2):
            check_report(box, polytope._tree_lp(box))


@seed(20261027)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("scan_cells", [1, 16])
@given(box=start_boxes())
def test_tree_lp_matches_primal(scan_cells, box):
    """The junction-tree LP on binary and ternary joints the all-columns LP can
    enumerate, with the scan patched down so that they are above it: the cost,
    an ordered bracket, a peeled witness within the box and worth 1 - cost,
    and the same fields from two threads solving at once."""
    with mock.patch.object(boxes, "_SCAN_CELLS", scan_cells):
        # The scan size is read at each call, so every call in the block reads the patched one.
        assume(not box.hypergraph.incidence.scans_whole_joint)
        report = polytope._tree_lp(box)
        fields = cost_fields(report)
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda b: cost_fields(polytope._tree_lp(b)), [box, box]))
    assert threaded == [fields, fields]
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9
    lo, hi = report.interval
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert np.all(witness_mass(box, report) <= box.stacked() + 1e-9)
    weights = np.fromiter(report.witness_weights.values(), dtype=float)
    assert abs(weights.sum() - (1.0 - report.cost)) <= 1e-9


class PresolveOn(polytope._Highs):
    """HiGHS with its default presolve, as the cost LP used to run it."""

    def setOptionValue(self, name, value):
        if name != "presolve":
            return super().setOptionValue(name, value)


def test_presolve_off_matches_presolve_on():
    for box in seeded_boxes(rounds=2):
        report = polytope._tree_lp(box)
        with mock.patch.object(polytope, "_Highs", PresolveOn):
            oracle = polytope._tree_lp(box)
        assert abs(report.cost - oracle.cost) <= 1e-9
        assert np.allclose(report.interval, oracle.interval, rtol=0.0, atol=1e-9)


def cost_fields(report):
    """Everything a cost report holds, the witness and residual decoded."""
    residual = report.residual_box
    return (report.cost, report.interval, report.witness_weights,
            None if residual is None else [d.tobytes() for d in residual.distributions])


@pytest.mark.parametrize("workers", [2, 4])
def test_threaded_costs_match_sequential(workers):
    """Worker threads, each with its own HiGHS model, reproduce the
    sequential results exactly; thread switches are made frequent, so calls
    on different threads interleave."""
    cases = seeded_boxes(rounds=2)
    sequential = [cost_fields(cx.contextuality_cost(box)) for box in cases]
    models = {}

    def solve(box):
        fields = cost_fields(cx.contextuality_cost(box))
        model = getattr(polytope._local, "lp", None)
        if model is not None:
            # A thread whose boxes all took a route without an LP has no model.
            models.setdefault(threading.get_ident(), set()).add(id(model))
        return fields

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(solve, box) for box in cases]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
    # One model per thread, never shared between threads.
    assert all(len(ids) == 1 for ids in models.values())
    assert len(set().union(*models.values())) == len(models)


def test_call_after_a_failed_call():
    """A call that raises after HiGHS has solved leaves rows in the thread's
    model; the next call clears them and gives the same report as before."""
    box = cx.mermin_box(0.9)
    expected = cost_fields(polytope._tree_lp(box))
    model = polytope._local.lp
    calls = []

    def fail_pricing(self, y):
        # Pricing HiGHS's solution for the lower end, after the run.
        calls.append(model.getNumRow())
        raise RuntimeError("pricing failed")

    with mock.patch.object(JunctionTree, "min_score", fail_pricing):
        with pytest.raises(RuntimeError, match="pricing failed"):
            polytope._tree_lp(box)
    assert len(calls) == 1 and calls[0] > 0
    assert polytope._local.lp is model and model.getNumRow() > 0
    assert cost_fields(polytope._tree_lp(box)) == expected
    assert polytope._local.lp is model


class IterationLimited(polytope._Highs):
    """A model that stops before its first simplex iteration, so its status
    is not optimal."""

    def run(self):
        self.setOptionValue("simplex_iteration_limit", 0)
        return super().run()


def test_non_optimal_lp_refused(tmp_path, capsys):
    """A contextual Mermin mix reaches the tree LP; a HiGHS run that ends
    short of optimal is refused, and the CLI exits with code 2."""
    box = anchored_mix(cx.mermin_box(), 2)
    path = tmp_path / "m.json"
    cx.emit_box(box, path)
    with mock.patch.object(polytope, "_Highs", IterationLimited):
        with pytest.raises(cx.ContextualityError, match="cost LP failed: "):
            cx.contextuality_cost(box)
        assert main(["measure", str(path), "cost"]) == 2
    assert "cost LP failed: " in capsys.readouterr().err
    # A fresh model, with the library's options, solves it again.
    assert abs(cx.contextuality_cost(box).cost - dense_reference_cost(box)) <= 1e-9


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's library."""
    src = str(Path(cx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("module", ["contextuality", "contextuality.cli"])
def test_import_loads_only_the_highs_binding(module):
    """The library loads scipy's compiled HiGHS module, not scipy.optimize."""
    code = f"import sys, {module}\nprint(*(m for m in sys.modules if 'scipy.optimize' in m))"
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "scipy.optimize._highspy._core" in loaded
    assert all(m.startswith("scipy.optimize._highspy._core") for m in loaded), loaded


@pytest.mark.parametrize("scipy_first", [False, True])
def test_highs_binding_is_shared_with_scipy(scipy_first):
    """In either import order the library and linprog share one binding
    module, the one loaded first, and both solve."""
    library = "from contextuality import builtin, polytope"
    scipy_optimize = "from scipy.optimize import linprog"
    code = "\n".join([
        "import sys",
        scipy_optimize if scipy_first else library,
        "core = sys.modules['scipy.optimize._highspy._core']",
        library if scipy_first else scipy_optimize,
        "import scipy.optimize._highspy._core as imported",
        "from contextuality.closed_form import cost_closed_form",
        "assert imported is core and sys.modules['scipy.optimize._highspy._core'] is core",
        "assert polytope._Highs is core._Highs",
        "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method='highs')",
        "assert res.status == 0 and abs(res.fun - 1.0) <= 1e-12, res",
        "cost = polytope._tree_lp(builtin('M', alpha=0.9)).cost",
        "assert abs(cost - cost_closed_form('M', 0.9)) <= 1e-12, cost",
    ])
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr


def test_missing_highs_binding_raises_import_error(tmp_path):
    """A scipy without the binding where the library looks for it fails the
    import loudly, naming scipy's version and the version the library needs."""
    code = "\n".join([
        "import sys, scipy",
        "name = 'scipy.optimize._highspy._core'",
        "assert name not in sys.modules",
        "scipy.__path__ = [sys.argv[1]]",
        "try:",
        "    import contextuality.polytope",
        "except ImportError as exc:",
        "    assert name not in sys.modules",
        "    print(scipy.__version__)",
        "    print(exc)",
        "else:",
        "    sys.exit('imported without the HiGHS binding')",
    ])
    done = run_fresh(code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    version, message = done.stdout.splitlines()
    assert f"scipy {version}" in message and "scipy>=1.17" in message, message


def test_lp_cost_is_one_run_on_one_block(highs_log):
    """Every cost the LP solves, its witness read too, is one HiGHS run on one
    block of rows, on boxes within the 2^10-cell scan: an M mix, a PM mix, and
    sum-mod boxes on 6 ternary observables (729 cells)."""
    rng = np.random.default_rng(20261019)
    cases = [anchored_mix(cx.mermin_box(), 3), anchored_mix(cx.pm_box(), 4)]
    for _ in range(2):
        g = random_hypergraph(rng, 6, 12)
        g = cx.Hypergraph([(f"O{i}", 3) for i in range(6)], g.contexts)
        cases.append(random_consistent_box(g, rng, anchor=sum_mod_box(g, rng), anchor_weight=0.6))
    for box in cases:
        assert box.hypergraph.incidence.scans_whole_joint
        highs_log["runs"], highs_log["rows"] = 0, []
        report = cx.contextuality_cost(box)
        assert report.witness_weights
        assert highs_log["runs"] == 1 and len(highs_log["rows"]) == 1, highs_log
        lo, hi = report.interval
        assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)


def test_tree_lp_cost_leaves_numpy_ma_unloaded():
    """The LP's solve of an M mix, and the witness peeled from it, load no
    numpy.ma, which a set difference (np.unique) would import."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from contextuality import mermin_box, polytope",
        "from contextuality.sampling import random_consistent_box",
        "runs = []",
        "class Counting(polytope._Highs):",
        "    def run(self):",
        "        runs.append(1)",
        "        return super().run()",
        "polytope._Highs = Counting",
        "m = mermin_box()",
        "box = random_consistent_box(m.hypergraph, np.random.default_rng(1), anchor=m, anchor_weight=0.9)",
        "before = 'numpy.ma' in sys.modules",
        "assert polytope._tree_lp(box).witness_weights",
        "print(len(runs), before, 'numpy.ma' in sys.modules)",
    ])
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    runs, before, after = done.stdout.split()
    assert int(runs) == 1
    assert (before, after) == ("False", "False")


# Above the joint cap.  The cost builds no joint tensor, so only its junction-tree
# LP can refuse a box (tests/test_polytope.py); these boxes all pass it.


def witness_mass(box, report):
    """The witness's mass on each stacked row of ``box``."""
    g = box.hypergraph
    outputs = np.array([key.outputs for key in report.witness_weights], dtype=np.int64)
    outputs = outputs.reshape(-1, g.n_observables)  # an empty witness too, at cost 1
    weights = np.fromiter(report.witness_weights.values(), dtype=float)
    return np.bincount(
        g.incidence.digit_rows(outputs).ravel(),
        weights=np.repeat(weights, g.n_contexts),
        minlength=g.incidence.dim,
    )


def check_above_cap(box, expected):
    """The cost within 1e-7 of ``expected``, an ordered bracket, a witness within
    the box, and less memory than a joint of ``JOINT_DIM_CAP`` cells would take."""
    assert box.hypergraph.joint_dim > JOINT_DIM_CAP
    tracemalloc.start()
    try:
        report = cx.contextuality_cost(box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(report.cost - expected) <= 1e-7, (report.cost, expected)
    lo, hi = report.interval
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert np.all(witness_mass(box, report) <= box.stacked() + 1e-9)
    return report


@pytest.mark.parametrize("alpha", [0.9, 0.99])
@pytest.mark.parametrize("n", [23, 24, 30, 50, 62])
def test_chain_cost_above_the_joint_cap(n, alpha):
    box = cx.chain_box(n, alpha)
    check_above_cap(box, cost_closed_form("CH", alpha, n))


@seed(20261023)
@settings(max_examples=30, deadline=None)
@given(
    anchors=st.tuples(st.sampled_from(ANCHORS), st.sampled_from(ANCHORS)),
    anchor_weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_direct_sum_costs_the_larger_component(anchors, anchor_weights, draw_seed):
    """cost(b1 + b2) = max(cost b1, cost b2), on binary and ternary anchored boxes."""
    rng = np.random.default_rng(draw_seed)
    b1, b2 = (
        cx.mix(anchor, sparse_box(anchor.hypergraph, rng), w)
        for anchor, w in zip(anchors, anchor_weights)
    )
    report = cx.contextuality_cost(shuffled(cx.direct_sum(b1, b2), rng))
    expected = max(cx.contextuality_cost(b1).cost, cx.contextuality_cost(b2).cost)
    assert abs(report.cost - expected) <= 1e-7, (report.cost, expected)


def noisy_ternary_cycle():
    box = ternary_cycle_box(6)
    return cx.mix(box, random_noncontextual_box(box.hypergraph, np.random.default_rng(7)), 0.6)


@pytest.mark.parametrize(
    "parts",
    [
        (cx.kcbs_box(), cx.chain_box(8, 0.95), cx.chain_box(16, 0.9)),
        (cx.chain_box(12, 0.99), cx.chain_box(12, 0.95)),
        (noisy_ternary_cycle(), cx.chain_box(16, 0.95)),
    ],
    ids=["KCBS+CH8+CH16", "CH12+CH12", "ternary6+CH16"],
)
def test_direct_sum_above_the_joint_cap(parts):
    box = parts[0]
    for part in parts[1:]:
        box = cx.direct_sum(box, part)
    expected = max(cx.contextuality_cost(part).cost for part in parts)
    check_above_cap(box, expected)


def test_acyclic_box_above_the_joint_cap(highs_log):
    """A path of 23 binary observables: no junction-tree joint above the cap, so
    the junction-tree LP solves it, to 0, without a joint-sized array."""
    rng = np.random.default_rng(20261023)
    n = 23
    g = cx.Hypergraph([(f"O{i}", 2) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    # A Markov chain's pair marginals: the box of a joint, so consistent and noncontextual.
    marginal, dists = rng.dirichlet(np.ones(2)), []
    for _ in g.contexts:
        pair = marginal[:, None] * rng.dirichlet(np.ones(2), size=2)
        dists.append(pair.ravel())
        marginal = pair.sum(axis=0)
    box = cx.Box(g, dists)
    assert g.join_tree is not None
    assert junction_tree_joint(box) is None
    assert check_above_cap(box, 0.0).cost <= 1e-9
    assert highs_log["runs"] >= 1


def deterministic_mix(g, rng, m=5):
    """A mix of m deterministic boxes of random assignments, at Dirichlet weights."""
    assignments = rng.integers(0, g.cardinalities, size=(m, g.n_observables))
    weights = rng.dirichlet(np.ones(m))
    stacked = sum(w * cx.deterministic_box(cx.DeterministicAssignment(a), g).stacked()
                  for w, a in zip(weights, assignments))
    return cx.Box(g, g.incidence.split(stacked))


def test_cost_on_sixty_observables():
    """A random hypergraph of 60 binary observables: the tree LP's duals are priced
    on its min-fill cliques (at most 9 observables), where an index-order
    elimination would need a table of 2^23 cells."""
    g = random_hypergraph(np.random.default_rng(0), 60, n_contexts=56)
    assert max(map(len, g.junction_tree.cliques)) <= 9
    check_above_cap(deterministic_mix(g, np.random.default_rng(3)), 0.0)


# Binary n-cycles: the cost in closed form, the witness by an LP on first read.


def relabeled(box, rng):
    """The same box with the two outputs of a random set of observables swapped."""
    g = box.hypergraph
    flip = rng.uniform(size=g.n_observables) < 0.5
    return cx.Box(g, [
        np.flip(box.context_tensor(ci), axis=[a for a, i in enumerate(ctx) if flip[i]]).ravel()
        for ci, ctx in enumerate(g.contexts)
    ])


def renamed(box, rng):
    """The same box with its observables listed in a random order."""
    g = box.hypergraph
    order = rng.permutation(g.n_observables)
    position = np.argsort(order)
    return cx.Box(
        cx.Hypergraph([g.observables[i] for i in order],
                      [tuple(int(position[i]) for i in ctx) for ctx in g.contexts]),
        box.distributions,
    )


def exclusive_box(n, s):
    """Exclusive events around an n-cycle, each of probability s <= 1/2: KCBS for
    n = 5 and s = 1/sqrt(5).  Marginals (1 - s, s) and a zero cell on every context."""
    return cx.Box(cx.chain_box(n).hypergraph, [np.array([1.0 - 2.0 * s, s, s, 0.0])] * n)


@st.composite
def binary_cycle_boxes(draw):
    """Binary n-cycles, n = 3..12: an anchor (a chain box, exclusive events, or a
    mixture of both, outcome-relabeled) mixed with a sparse joint's box, which
    brings nonuniform marginals and zero cells; then the observables permuted,
    and the contexts reordered and their pairs reversed at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["chain", "exclusive", "both"]))
    chain = relabeled(cx.chain_box(n), rng)
    exclusive = relabeled(exclusive_box(n, draw(st.floats(0.0, 0.5))), rng)
    anchor = {"chain": chain, "exclusive": exclusive,
              "both": cx.mix(chain, exclusive, draw(st.floats(0.0, 1.0)))}[kind]
    box = cx.mix(anchor, sparse_box(anchor.hypergraph, rng), draw(st.floats(0.6, 1.0)))
    return shuffled(renamed(box, rng), rng)


@contextlib.contextmanager
def solver_calls():
    """Calls of the cost LP's HiGHS ``run`` and of its pricing, ``JunctionTree.min_score``."""
    calls = []
    min_score = JunctionTree.min_score

    class Spy(polytope._Highs):
        def run(self):
            calls.append("run")
            return super().run()

    def pricing(real):
        def spy(self, *args, **kwargs):
            calls.append("pricing")
            return real(self, *args, **kwargs)
        return spy

    with mock.patch.object(polytope, "_Highs", Spy), \
            mock.patch.object(JunctionTree, "min_score", pricing(min_score)):
        yield calls


@seed(20261026)
@settings(max_examples=80, deadline=None)
@given(box=binary_cycle_boxes())
def test_binary_cycle_cost_in_closed_form(box):
    """The formula against the all-columns LP, with no LP run until the witness is read."""
    with solver_calls() as calls:
        report = cx.contextuality_cost(box)
        lo, hi = report.interval
        assert box.hypergraph.is_binary_cycle
        assert calls == []
        weights = np.fromiter(report.witness_weights.values(), dtype=float)
        assert "run" in calls and "pricing" in calls
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-12
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert np.all(witness_mass(box, report) <= box.stacked() + 1e-9)
    assert abs(1.0 - weights.sum() - report.cost) <= 1e-9


def test_binary_cycle_witness_rebuilds_the_box():
    for box in (cx.kcbs_box(), cx.pr_box(0.9), cx.chain_box(7, 0.97), cx.chain_box(3, 0.2)):
        check_report(box, cx.contextuality_cost(box))


def chord_box():
    """PR(0.9) with a chord from its first observable to its third, uniform there, as
    every marginal of PR is."""
    pr = cx.pr_box(0.9)
    g = cx.Hypergraph(pr.hypergraph.observables, pr.hypergraph.contexts + ((0, 2),))
    return cx.Box(g, [*pr.distributions, np.full(4, 0.25)])


def path_box():
    """An open path of five binary observables: acyclic, so noncontextual."""
    g = cx.Hypergraph([(f"A{i}", 2) for i in range(5)], [(i, i + 1) for i in range(4)])
    return random_noncontextual_box(g, np.random.default_rng(20261026))


@pytest.mark.parametrize(
    "box",
    [ternary_cycle_box(4), cx.pm_box(0.9), cx.mermin_box(0.9),
     cx.direct_sum(cx.pr_box(0.9), cx.pr_box(0.9)), chord_box(), path_box()],
    ids=["ternary-4-cycle", "PM", "M", "PR+PR", "chord", "path"],
)
def test_other_boxes_skip_the_cycle_formula(box):
    assert not box.hypergraph.is_binary_cycle
    with mock.patch.object(polytope, "_binary_cycle_cost", side_effect=AssertionError):
        report = cx.contextuality_cost(box)
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9


# Binary boxes flat on their contexts' parity classes: the parity inequality's
# lower end and a symmetric witness's upper end, with no LP.

PARITY_FAMILIES = [("PR", None), ("PM", None), ("M", None)] + [("CH", n) for n in range(3, 9)]


@functools.lru_cache(maxsize=None)
def family_group(family, n):
    return cx.builtin_group("CH", 4) if family == "PR" else cx.builtin_group(family, n)


def alpha_grid(n_contexts):
    """21 points over [0, 1], and both ends of the noncontextual interval."""
    return sorted({*np.linspace(0.0, 1.0, 21).tolist(), *nc_interval(n_contexts)})


@st.composite
def isotropic_boxes(draw):
    """An isotropic box of PR, CH(3..8), PM or M, with its alpha and its alpha = 1
    and alpha = 0 boxes.

    The box is the family's on an alpha grid, or the twirl of an anchored
    mix with a sparse joint's box, relabeled by a random element of the
    family's group.  Then all three boxes get the same outcome flips and
    the same reordering of contexts and observables, so the anchor's
    support on a context can be either of its parity classes.
    """
    family, n = draw(st.sampled_from(PARITY_FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchor = cx.builtin(family, n=n)
    g = anchor.hypergraph
    group = family_group(family, n)
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(alpha_grid(g.n_contexts)))
        box = cx.builtin(family, n=n, alpha=alpha)
    else:
        box = cx.twirl(group, cx.mix(anchor, sparse_box(g, rng), draw(st.floats(0.0, 1.0))))
        alpha = cx.beta(anchor, box) / g.n_contexts
    box = cx.apply(group.elements[int(rng.integers(group.order))], box)
    flips, order = rng.integers(2**32, size=2)

    def moved(b):
        return shuffled(relabeled(b, np.random.default_rng(flips)), np.random.default_rng(order))

    return moved(box), alpha, moved(anchor), moved(cx.opposite(anchor))


@seed(20261028)
@settings(max_examples=80, deadline=None)
@given(case=isotropic_boxes())
def test_parity_cost_certifies_isotropic_boxes(case):
    """The route's report against the all-columns LP: an ordered bracket, a witness
    within the box and worth 1 - cost, and off the noncontextual interval the
    residual of the alpha = 1 box above it and of the alpha = 0 box below."""
    box, alpha, top, bottom = case
    report = polytope._parity_cost(box)
    assert report is not None
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9
    lo, hi = report.interval
    assert 0.0 <= lo <= report.cost <= hi <= 1.0, (lo, report.cost, hi)
    assert np.all(witness_mass(box, report) <= box.stacked() + 1e-12)
    weights = np.fromiter(report.witness_weights.values(), dtype=float)
    assert abs(weights.sum() - (1.0 - report.cost)) <= 1e-12
    # Far enough off the interval that rounding, divided by the cost, stays below 1e-9.
    if report.cost > 1e-6:
        low, high = nc_interval(box.hypergraph.n_contexts)
        assert alpha > high or alpha < low
        assert report.residual_box.allclose(top if alpha > high else bottom, atol=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.8, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("family", ["PM", "M"])
def test_isotropic_pm_and_m_run_no_lp(family, alpha, highs_log):
    """The public call, its witness and residual read, with no HiGHS run, on
    isotropic PM and M and on their twirls."""
    box = cx.builtin(family, alpha=alpha)
    noise = random_noncontextual_box(box.hypergraph, np.random.default_rng(20261028))
    twirled = cx.twirl(family_group(family, None), cx.mix(box, noise, 0.9))
    for case in (box, twirled):
        report = cx.contextuality_cost(case)
        assert sum(report.witness_weights.values()) == pytest.approx(1.0 - report.cost, abs=1e-12)
        assert (report.residual_box is None) == (report.cost <= 1e-9)
    assert highs_log["runs"] == 0
    assert abs(cx.contextuality_cost(box).cost - cost_closed_form(family, alpha)) <= 1e-12


def pm_per_context_box(top, bottom):
    """PM with alpha from ``top`` down to ``bottom`` in equal steps on its six
    contexts.  It is consistent, since every two bits of a context are
    uniform on both parity classes, and flat on each class, but not
    isotropic.  It is noncontextual when the alphas add up to at most 5."""
    pm = cx.pm_box()
    parts = zip(np.linspace(top, bottom, 6), pm.distributions, cx.opposite(pm).distributions)
    return cx.Box(pm.hypergraph, [a * d + (1.0 - a) * e for a, d, e in parts])


def anchored_mix(anchor, seed):
    return random_consistent_box(anchor.hypergraph, np.random.default_rng(seed), anchor=anchor,
                                 anchor_weight=0.9)


@pytest.mark.parametrize(
    "box",
    [anchored_mix(cx.pm_box(), 1), anchored_mix(cx.mermin_box(), 2), ternary_cycle_box(4),
     cx.direct_sum(cx.mermin_box(0.9), cx.pr_box(0.9)), pm_per_context_box(0.95, 0.85)],
    ids=["PM-mix", "M-mix", "ternary-4-cycle", "M+PR", "PM-per-context"],
)
def test_other_boxes_reach_the_lp(box, highs_log):
    assert cx.check_consistency(box).consistent
    assert polytope._parity_cost(box) is None
    report = cx.contextuality_cost(box)
    assert highs_log["runs"] > 0
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9


def test_noncontextual_pm_per_context_takes_the_projection(highs_log):
    """Alphas 0.95 down to 0.7, which add up to 4.95: noncontextual, with no
    zero entry, so its cost of 0 comes from its witness, with no HiGHS
    run."""
    box = pm_per_context_box(0.95, 0.7)
    assert polytope._parity_cost(box) is None
    report = cx.contextuality_cost(box)
    assert highs_log["runs"] == 0
    assert abs(report.cost - dense_reference_cost(box)) <= 1e-9


# Noncontextual boxes of full support: their witness, a joint with their
# marginals (``boxes.projected_joint``), certifies a cost of 0 with no LP.

PROJECTION_ANCHORS = (cx.pm_box(), cx.mermin_box(), ternary_cycle_box(4))


def boundary_weight(anchor, noise):
    """The largest weight of ``anchor`` in a mix with ``noise`` whose LP cost is at
    most 1e-9, bisected to 2^-16."""
    lo, hi = 0.0, 1.0
    for _ in range(16):
        mid = (lo + hi) / 2.0
        if polytope._tree_lp(cx.mix(anchor, noise, mid)).cost > 1e-9:
            hi = mid
        else:
            lo = mid
    return lo


@st.composite
def full_support_boxes(draw):
    """A binary or ternary box with no zero entry, and whether it is noncontextual.

    Either a Dirichlet joint's box on a cyclic ``random_hypergraph`` draw of
    6 to 9 observables, any of them ternary within 1024 joint cells, with k
    to 2k contexts: noncontextual.  Smaller joints under many contexts
    leave little room: on 4 and 5 observables, up to two of them ternary,
    with k/2 + 1 to 2k contexts, 2 of 303 seeded such boxes found no
    witness within 16 sweeps, and went to the LP (23 when the entropy
    solver's first 16 steps looked for one).  Or an anchor of
    ``PROJECTION_ANCHORS`` mixed with a Dirichlet joint's box, either at up
    to 3/4 of the boundary weight w*, so noncontextual, or above w* by 1/20
    to 19/20 of the distance to 1, so contextual.  Near w* the route can
    miss as well.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(6, 9))
        n_ternary = draw(st.integers(0, max(t for t in range(k + 1) if 3**t * 2 ** (k - t) <= 1024)))
        g = random_hypergraph(rng, k, draw(st.integers(k, 2 * k)))
        ternary = set(rng.choice(k, size=n_ternary, replace=False).tolist())
        g = cx.Hypergraph([(f"O{i}", 3 if i in ternary else 2) for i in range(k)], g.contexts)
        assume(g.join_tree is None)
        return shuffled(random_noncontextual_box(g, rng), rng), True
    anchor = draw(st.sampled_from(PROJECTION_ANCHORS))
    noise = random_noncontextual_box(anchor.hypergraph, rng)
    edge = boundary_weight(anchor, noise)
    noncontextual = draw(st.booleans())
    if noncontextual:
        weight = edge * draw(st.floats(0.0, 0.75))
    else:
        weight = edge + (1.0 - edge) * draw(st.floats(0.05, 0.95))
    return shuffled(cx.mix(anchor, noise, weight), rng), noncontextual


@seed(20261104)
@settings(max_examples=40, deadline=None)
@given(case=full_support_boxes())
def test_full_support_boxes_reach_the_lp_only_when_contextual(case):
    """A noncontextual box of full support gets its cost from the projection, with
    no HiGHS run: a zero-width bracket at most 1e-9, a witness that rebuilds
    the box, and the LP's cost.  A contextual one runs the LP once, and its
    report is the LP's."""
    box, noncontextual = case
    assert box.stacked().min() > 0.0
    assert polytope._parity_cost(box) is None
    with solver_calls() as calls:
        report = cx.contextuality_cost(box)
    lp = polytope._tree_lp(box)
    if noncontextual:
        assert "run" not in calls
        lo, hi = report.interval
        assert 0.0 <= lo <= hi <= 1e-9, (lo, hi)
        check_report(box, report)
        assert abs(report.cost - lp.cost) <= 1e-9
    else:
        assert lp.cost > 1e-9
        assert calls.count("run") == 1
        assert cost_fields(report) == cost_fields(lp)


def zero_target_box():
    """The box of a joint on 20 of the 1024 cells of Mermin's hypergraph:
    noncontextual, with zero entries."""
    g = cx.mermin_box().hypergraph
    rng = np.random.default_rng(3)
    p = np.zeros(g.joint_dim)
    p[rng.choice(g.joint_dim, size=20, replace=False)] = rng.dirichlet(np.ones(20))
    return cx.box_of_joint(cx.JointDistribution(g, p))


@pytest.mark.parametrize(
    "box",
    [ternary_cycle_box(4), zero_target_box(), cx.direct_sum(cx.mermin_box(0.9), cx.pr_box(0.9))],
    ids=["ternary-4-cycle", "sparse-M", "M+PR"],
)
def test_boxes_without_a_projection_build_no_matrix(box):
    """A box with a zero entry, or whose incidence matrix exceeds
    ``DENSE_ENTRIES_CAP`` (M + PR: 96 rows of 2^14 cells), is refused the
    projection before any matrix is built, and gets the LP's report."""
    g = box.hypergraph
    assert box.stacked().min() == 0.0 or g.incidence.dim * g.joint_dim > boxes.DENSE_ENTRIES_CAP
    expected = cost_fields(polytope._tree_lp(box))
    columns = boxes.ContextIncidence.columns
    with mock.patch.object(boxes.ContextIncidence, "columns", autospec=True, side_effect=columns) as spy:
        fields = cost_fields(cx.contextuality_cost(box))
    assert spy.call_count == 0
    assert fields == expected

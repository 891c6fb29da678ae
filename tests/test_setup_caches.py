"""What is made once per box or per hypergraph: the one-pass validation, and
measures that read the same whatever ran before them on the box."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from test_cost_lp import pm_per_context_box
from test_incidence import hypergraphs
from test_polytope import ternary_cycle_box

import contextuality as cx
from contextuality import boxes, polytope
from contextuality.boxes import ContextIncidence
from contextuality.sampling import random_consistent_box, random_hypergraph, random_joint


def reference_issues(box):
    """``(context, kind, detail)`` of each issue, each context's vector read on its own."""
    out = []
    for ci, vec in enumerate(box.distributions):
        expected = box.hypergraph.context_dim(ci)
        if vec.ndim != 1 or vec.size != expected:
            out.append((ci, "shape", f"length {vec.size}, expected {expected}"))
            continue
        if not np.all(np.isfinite(vec)):
            out.append((ci, "nan", "non-finite entries"))
            continue
        if np.any(vec < boxes.NEGATIVE_TOL):
            out.append((ci, "negative", f"min entry {float(vec.min())!r} below {boxes.NEGATIVE_TOL}"))
        with np.errstate(over="ignore"):
            total = float(vec.sum())
        if abs(total - 1.0) > boxes.NORMALIZATION_TOL:
            out.append((ci, "normalization", f"sums to {total!r}"))
    return out


def malformed(vec, kind, rng):
    """``vec`` broken in one way (or kept, for "valid")."""
    vec = vec.copy()
    at = int(rng.integers(vec.size))
    if kind == "nan":
        vec[at] = np.nan
    elif kind in ("inf", "-inf"):
        vec[at] = np.inf if kind == "inf" else -np.inf
    elif kind == "both-infs":
        vec[at], vec[(at + 1) % vec.size] = np.inf, -np.inf
    elif kind == "negative":
        vec[at] = -1e-6
    elif kind == "tiny-negative":
        # Above NEGATIVE_TOL, so only the sum, off by at most 1e-13 more, is read.
        vec[at] = -1e-13
    elif kind == "scaled":
        vec *= float(rng.choice([0.5, 1.0 + 1e-6, 2.0]))
    elif kind == "near-tolerance":
        # Off by about the tolerance, on either side: decided by vec.sum().
        vec *= 1.0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.4, 1.6)) * boxes.NORMALIZATION_TOL
    elif kind == "huge":
        vec[:] = 1e308
    elif kind == "short":
        vec = vec[:-1]
    elif kind == "long":
        vec = np.append(vec, 0.0)
    elif kind == "2-D":
        vec = vec.reshape(1, -1)
    return vec


KINDS = ["valid", "nan", "inf", "-inf", "both-infs", "negative", "tiny-negative", "scaled",
         "near-tolerance", "huge", "short", "long", "2-D"]


@seed(20261120)
@settings(max_examples=150, deadline=None)
@given(g=hypergraphs(), draw_seed=st.integers(0, 2**32 - 1), broken=st.floats(0.0, 1.0))
def test_validation_matches_per_context_reference(g, draw_seed, broken):
    """``validate_box`` reads a box's minima and sums in one pass; its issues,
    their contexts, kinds, order and wording, match a loop over the contexts.
    Each context is broken in one of the ``KINDS`` with probability ``broken``."""
    rng = np.random.default_rng(draw_seed)
    box = random_consistent_box(g, rng)
    dists = [malformed(vec, str(rng.choice(KINDS[1:])), rng) if rng.uniform() < broken else vec
             for vec in box.distributions]
    box = cx.Box(g, dists)
    report = cx.validate_box(box)
    expected = reference_issues(box)
    assert [(i.context, i.kind, i.detail) for i in report.issues] == expected
    assert report.ok == (not expected)


@pytest.mark.parametrize("kind", KINDS)
def test_each_malformation_reported_as_the_reference(kind, mermin):
    """Each kind of break on one context of Mermin's box, every other context valid."""
    rng = np.random.default_rng(7)
    dists = list(mermin.distributions)
    dists[2] = malformed(dists[2], kind, rng)
    box = cx.Box(mermin.hypergraph, dists)
    issues = [(i.context, i.kind, i.detail) for i in cx.validate_box(box).issues]
    assert issues == reference_issues(box)
    if kind not in ("tiny-negative", "near-tolerance"):  # either may leave the box valid
        assert bool(issues) == (kind != "valid")


def fresh(box):
    """An equal box on an equal, newly built hypergraph: nothing cached."""
    g = box.hypergraph
    return cx.Box(cx.Hypergraph(g.observables, g.contexts), [d.copy() for d in box.distributions])


def acyclic_box(rng):
    """A path A - B - C, A ternary, with the context {A} inside {A, B}."""
    g = cx.Hypergraph([("A", 3), ("B", 2), ("C", 2)], [(0, 1), (1, 2), (0,)])
    return random_consistent_box(g, rng)


def uniform_box(g):
    return cx.Box(g, [np.full(g.context_dim(ci), 1.0 / g.context_dim(ci)) for ci in range(g.n_contexts)])


# The sweep at which the witness route (``projected_joint``) finds a joint
# with the box's marginals on each of ``projection_route_boxes``, or None
# where it finds none.
PROJECTION_STOPS = {
    "mermin-step-1": 1,
    "mermin-step-4": 2,
    "mermin-step-8": 2,
    "mermin-step-16": 5,
    "mermin-miss": None,
    "ternary-uniform": 1,
    "ternary-step-1": 1,
    "ternary-step-2": 2,
    "ternary-step-4": 2,
    "ternary-step-8": 2,
    "ternary-step-16": 5,
    "ternary-contextual": None,
}


def projection_route_boxes():
    """Mermin's box and the ternary 4-cycle mixed with a Dirichlet joint's box
    (seed 0 unless given), or with the uniform box, at the given weight:
    full-support cyclic boxes on which the cost takes the witness route.
    ``PROJECTION_STOPS`` gives the sweep at which the route finds a joint.
    Each name gives the step at which the entropy solver's loop, at uniform
    weights, found one before the route: each weight lies inside a band of
    weights that stopped at the same step, at least 0.0015 from either end.
    "mermin-miss" is noncontextual (its boundary weight is about 0.6005),
    and the route finds no joint with its marginals within 16 sweeps;
    "ternary-contextual" is contextual, and its route gives up at its
    second sweep."""

    def mixed(anchor, weight, base_seed=0):
        g = anchor.hypergraph
        return cx.mix(anchor, cx.box_of_joint(random_joint(g, np.random.default_rng(base_seed))), weight)

    mermin, ternary = cx.mermin_box(), ternary_cycle_box(4)
    return {
        "mermin-step-1": mixed(mermin, 0.0),
        "mermin-step-4": mixed(mermin, 0.547, base_seed=2),
        "mermin-step-8": mixed(mermin, 0.575),
        "mermin-step-16": mixed(mermin, 0.591),
        "mermin-miss": mixed(mermin, 0.5975),
        "ternary-uniform": uniform_box(ternary.hypergraph),  # the iterate at step 1: x_u = 0
        "ternary-step-1": cx.mix(ternary, uniform_box(ternary.hypergraph), 0.02),
        "ternary-step-2": mixed(ternary, 0.347, base_seed=1),
        "ternary-step-4": mixed(ternary, 0.366),
        "ternary-step-8": mixed(ternary, 0.4),
        "ternary-step-16": mixed(ternary, 0.44),
        "ternary-contextual": mixed(ternary, 0.7),
    }


def seeded_boxes():
    """Binary and ternary boxes: contextual mixes (cyclic, with and without
    zeros), noncontextual full-support boxes, an acyclic one, parity-flat ones
    (isotropic PM and a chain), a direct sum of two cyclic parts, the
    ``projection_route_boxes``, and two noncontextual boxes whose witness
    takes 6 and 5 sweeps: PM with a different alpha on each context, and a
    Mermin anchor mix whose projections miss by 1.4e-3, then 7e-6, 5.6e-7
    and 3.8e-7."""
    rng = np.random.default_rng(2026)

    def mixed(anchor, weight):
        return cx.mix(anchor, cx.box_of_joint(random_joint(anchor.hypergraph, rng)), weight)

    return {
        "pr-mix": mixed(cx.pr_box(), 0.8),
        "kcbs-mix": mixed(cx.kcbs_box(), 0.9),
        "ternary-mix": mixed(ternary_cycle_box(4), 0.7),
        "mermin-noncontextual": cx.box_of_joint(random_joint(cx.mermin_box().hypergraph, rng)),
        "random-binary": random_consistent_box(random_hypergraph(rng, 5, n_contexts=4), rng),
        "acyclic": acyclic_box(rng),
        "pm-flat": cx.pm_box(0.9),
        "chain-flat": cx.chain_box(5, 0.95),
        "sum": cx.direct_sum(mixed(cx.pr_box(), 0.9), mixed(ternary_cycle_box(3), 0.8)),
        **projection_route_boxes(),
        "pm-per-context": pm_per_context_box(0.95, 0.7),
        "mermin-anchor-30": mermin_anchor_mix(30),
    }


def mermin_anchor_mix(draw):
    """Mermin's box mixed with a Dirichlet joint's box (``default_rng(draw)``)
    at a weight from ``default_rng(100 + draw).uniform(0.3, 0.9)``."""
    mermin = cx.mermin_box()
    weight = float(np.random.default_rng(100 + draw).uniform(0.3, 0.9))
    return random_consistent_box(mermin.hypergraph, np.random.default_rng(draw), anchor=mermin,
                                 anchor_weight=weight)


def xu_fields(report):
    return (report.value, report.duality_gap, report.iterations, report.converged, report.trace,
            report.optimizer.probabilities.tobytes())


def xmax_fields(report):
    return xu_fields(report) + (report.outer_weights.weights.tobytes(),)


def cost_fields(report):
    return (report.cost, report.interval, sorted(
        (key.outputs, weight) for key, weight in report.witness_weights.items()))


MEASURES = {
    "xu": (lambda box: cx.x_u(box, max_iters=3000), xu_fields),
    "xmax": (lambda box: cx.x_max(box, max_iters=2000), xmax_fields),
    "cost": (cx.contextuality_cost, cost_fields),
}


@pytest.mark.parametrize("name", list(seeded_boxes()))
@pytest.mark.parametrize("measure", list(MEASURES))
def test_reports_are_history_free(name, measure):
    """Each measure reports bit for bit the same on a fresh box as on an equal
    box on which the other two measures ran before it, in either order."""
    box = seeded_boxes()[name]
    solve, fields = MEASURES[measure]
    expected = fields(solve(fresh(box)))
    others = [m for m in MEASURES if m != measure]
    for order in (others, others[::-1]):
        used = fresh(box)
        for other in order:
            MEASURES[other][0](used)
        assert fields(solve(used)) == expected, order


def cached_arrays(box):
    """Every array cached on the box, its hypergraph and their shared tables."""
    g = box.hypergraph
    out = {"stacked": box.stacked()}
    joint = boxes.junction_tree_joint(box)
    if joint is not None:
        out["tree joint"] = joint
    mixture = boxes.parity_mixture(box)
    if mixture is not None:
        out.update({"heavier": mixture.heavier, "columns": mixture.columns, "weights": mixture.weights})
    if g.incidence.dense is not None:
        out["dense"] = g.incidence.dense
        if box.stacked().min() > 0.0:
            out.update(least_norm_arrays(g.incidence))
    if vars(box).get("projected_joint") is not None:
        out["witness"] = vars(box)["projected_joint"]
    if g.incidence._overlaps:
        for k, index in enumerate(g.incidence._overlap_index):
            if isinstance(index, np.ndarray):
                out[f"overlap index {k}"] = index
    return out


@pytest.mark.parametrize("name", list(seeded_boxes()))
def test_cached_arrays_are_read_only(name):
    box = fresh(seeded_boxes()[name])
    for solve, _ in MEASURES.values():
        solve(box)
    cx.check_consistency(box)
    arrays = cached_arrays(box)
    assert "stacked" in arrays
    for what, array in arrays.items():
        assert not array.flags.writeable, what
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]


def test_parity_mixture_and_tree_joint_made_once():
    """The tree joint, the parity mixture and the witness are cached on the
    box: every read is the same object, the one the box holds."""
    flat, acyclic = fresh(cx.pm_box(0.9)), acyclic_box(np.random.default_rng(3))
    assert boxes.parity_mixture(flat) is boxes.parity_mixture(flat) is not None
    assert boxes.junction_tree_joint(acyclic) is boxes.junction_tree_joint(acyclic) is not None
    assert boxes.junction_tree_joint(flat) is None and boxes.parity_mixture(acyclic) is None
    section = fresh(projection_route_boxes()["mermin-step-1"])
    assert "projected_joint" not in vars(section)
    assert boxes.projected_joint(section) is boxes.projected_joint(section) is not None
    assert vars(section)["projected_joint"] is boxes.projected_joint(section)


def test_no_full_dense_matrix_above_the_cap():
    """PM x PM has 2,304 stacked rows and 2^18 joint cells: its dense M would
    exceed ``DENSE_ENTRIES_CAP``, so x_u solves it without building one."""
    box = cx.tensor(cx.pm_box(), cx.pm_box())
    op = box.hypergraph.incidence
    assert op.dim * box.hypergraph.joint_dim > boxes.DENSE_ENTRIES_CAP
    cx.x_u(box, tol=2e-4)
    assert vars(op).get("dense") is None
    assert op.dense is None


def test_dense_matrix_is_the_incidence():
    """The cached dense M has the columns of every stacked row, as read-only floats."""
    for box in seeded_boxes().values():
        op = box.hypergraph.incidence
        assert op.dense is not None and op.dense.dtype == np.float64
        assert not op.dense.flags.writeable
        assert np.array_equal(op.dense, op.columns(np.arange(op.dim)))


@pytest.mark.parametrize("cards", [(2, 2, 2, 2), (3, 2, 3, 2), (3, 3, 3)])
def test_overlap_index_is_linear_in_the_pairs(cards):
    """The index arrays hold each pair's shared cells twice and each
    context's rows once per marginal it gives, never more than the pairs'
    context rows."""
    k = len(cards)
    contexts = tuple(itertools.combinations(range(k), 2)) + (tuple(range(k)),)
    op = ContextIncidence(cards, contexts)
    rows, cells, size, left, right, starts = op._overlap_index
    pairs = op._overlaps
    dims = [int(np.prod([cards[i] for i in c])) for c in contexts]
    shared = sum(int(np.prod([cards[i] for i in s])) for _, _, s in pairs)
    assert left.size == right.size == shared and starts.size == len(pairs)
    assert rows.size == cells.size <= sum(dims[a] + dims[b] for a, b, _ in pairs)
    assert cells.max() < size and max(left.max(), right.max()) < size


def least_norm_arrays(op):
    """The index arrays of ``least_norm``'s closed form."""
    return {f"least-norm index {k}": a for k, a in enumerate(op._least_norm_index) if isinstance(a, np.ndarray)}


def incidence_arrays(op):
    """Every array an incidence holds, once each is made."""
    out = {"dense": op.dense, "sorted rows": op._sorted_rows,
           "parity classes": op.parity_classes, "context strides": op._context_strides}
    out.update(least_norm_arrays(op))
    out.update((f"overlap index {k}", a) for k, a in enumerate(op._overlap_index) if isinstance(a, np.ndarray))
    out.update((f"tree matrix {k}", a) for k, a in enumerate(op.junction_tree.matrix))
    return out


def test_equal_hypergraphs_share_one_incidence():
    """Hypergraphs with one cardinalities and context list, whatever their
    observables' names, share one incidence, and with it one dense M, one
    index of ``least_norm`` and one junction tree, whichever of them made each.
    Every array it holds is read-only.  Once the shared incidences are
    cleared, a fresh hypergraph gets a new incidence, equal by value."""
    for g in dict.fromkeys(box.hypergraph for box in projection_route_boxes().values()):
        renamed = [(f"{name}'", card) for name, card in g.observables]
        first, second = (cx.Hypergraph(obs, g.contexts).incidence for obs in (g.observables, renamed))
        assert first is second
        assert first.dense is second.dense is not None
        assert second._least_norm_index is first._least_norm_index is not None
        assert second.junction_tree is first.junction_tree
        arrays = incidence_arrays(first)
        for what, array in arrays.items():
            assert not array.flags.writeable, what
        boxes._incidence.cache_clear()
        fresh = cx.Hypergraph(g.observables, g.contexts).incidence
        assert fresh is not first
        again = incidence_arrays(fresh)
        assert again.keys() == arrays.keys()
        for what, array in again.items():
            assert array is not arrays[what] and np.array_equal(array, arrays[what]), what


def route_sweeps(box):
    """The witness route's outcome on ``box`` and the sweeps it took: one per
    ``ContextIncidence.fit``."""
    with mock.patch.object(boxes.ContextIncidence, "fit", autospec=True,
                           side_effect=boxes.ContextIncidence.fit) as fit:
        joint = boxes.projected_joint(box)
    return joint, fit.call_count


def assert_witness(box, joint):
    """``joint`` is read-only, nonnegative and has the box's marginals."""
    assert not joint.flags.writeable
    assert joint.min() >= 0.0
    assert np.abs(box.hypergraph.incidence.marginals(joint) - box.stacked()).max() <= 1e-12


@pytest.mark.parametrize("name", list(PROJECTION_STOPS))
def test_projection_route_stops_where_expected(name):
    """The witness route finds a joint at the sweep ``PROJECTION_STOPS``
    gives, or finds none; an equal fresh box gets the same joint bit for
    bit, and the next read of either is the same object, with no sweep."""
    box = fresh(projection_route_boxes()[name])
    joint, sweeps = route_sweeps(box)
    if PROJECTION_STOPS[name] is None:
        assert joint is None
    else:
        assert sweeps == PROJECTION_STOPS[name]
        assert_witness(box, joint)
        assert np.array_equal(boxes.projected_joint(fresh(box)), joint)
    assert route_sweeps(box) == (joint, 0)


@st.composite
def witness_boxes(draw):
    """Binary and ternary boxes with no zero entry: the box of a Dirichlet
    joint on a cyclic hypergraph of 4 or 5 observables, up to two of them
    ternary, under k/2 + 1 to 2k contexts (noncontextual); or PM's,
    Mermin's or the ternary 4-cycle's box mixed with a Dirichlet joint's box
    at a weight in [0, 1), so on either side of the noncontextual
    boundary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["small-joint", "pm", "mermin", "ternary-4"]))
    if kind == "small-joint":
        k = draw(st.integers(4, 5))
        cards = [3] * draw(st.integers(0, 2)) + [2] * k
        g = random_hypergraph(rng, k, draw(st.integers(k // 2 + 1, 2 * k)))
        g = cx.Hypergraph([(f"O{i}", cards[i]) for i in range(k)], g.contexts)
        assume(g.join_tree is None)
        return cx.box_of_joint(random_joint(g, rng))
    anchor = {"pm": cx.pm_box, "mermin": cx.mermin_box, "ternary-4": lambda: ternary_cycle_box(4)}[kind]()
    return cx.mix(anchor, cx.box_of_joint(random_joint(anchor.hypergraph, rng)), draw(st.floats(0.0, 0.99)))


@seed(20261120)
@settings(max_examples=40, deadline=None)
@given(box=witness_boxes(), order=st.permutations(list(MEASURES)))
def test_every_measure_reads_one_witness(box, order):
    """The route runs once per box, whichever measure comes first, and every
    measure reads its joint: ``x_u`` and ``x_max`` stop at it, at their first
    iteration, and the cost certifies 0 from it with no LP.  A joint it
    returns is nonnegative, read-only and has the box's marginals within
    1e-12, and it returns None on every box the junction-tree LP finds
    contextual."""
    box = fresh(box)
    build = boxes.projected_joint.__wrapped__
    with mock.patch.object(boxes.projected_joint, "__wrapped__", side_effect=build) as route:
        reports = {name: MEASURES[name][0](box) for name in order}
        joint = boxes.projected_joint(box)
    assert route.call_count == 1
    if polytope._tree_lp(box).cost > 1e-9:
        assert joint is None
    if joint is not None:
        assert_witness(box, joint)
        for name in ("xu", "xmax"):
            assert reports[name].optimizer.probabilities is joint and reports[name].iterations == 1
        assert reports["cost"].interval == (0.0, reports["cost"].cost) and reports["cost"].cost <= 1e-9

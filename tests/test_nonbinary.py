"""Mixed-cardinality hypergraphs: the data model is not binary-only.

A qutrit observable embedded in a 3-cycle whose distributions only use two
levels behaves exactly like the binary 3-chain: assignments using the extra
level are forced to zero weight by the support constraints, so the cost and
the entropy measure match the binary closed forms.
"""

import numpy as np
import pytest

import contextuality as cx
from contextuality.sampling import random_channel_mixture, random_joint

LOG2_3_2 = 0.5849625007211562


@pytest.fixture
def qutrit_triangle():
    g = cx.Hypergraph(
        [("A", 3), ("B", 2), ("C", 2)],
        [(0, 1), (1, 2), (2, 0)],
    )
    corr_ab = np.array([0.5, 0, 0, 0.5, 0, 0])        # (A,B): A msb over {0,1,2}
    corr_bc = np.array([0.5, 0, 0, 0.5])              # (B,C)
    anti_ca = np.array([0, 0.5, 0, 0.5, 0, 0])        # (C,A): C msb, A in {0,1,2}
    return cx.Box(g, [corr_ab, corr_bc, anti_ca])


def test_embedded_cycle_is_valid_and_consistent(qutrit_triangle):
    assert cx.validate_box(qutrit_triangle).ok
    assert cx.check_consistency(qutrit_triangle, 1e-12).consistent


def test_embedded_cycle_costs_one(qutrit_triangle):
    # Vertices that use A=2 hit zero-probability outcomes, so the LP sees
    # exactly the binary 3-chain, whose cost at alpha=1 is 1.
    assert cx.contextuality_cost(qutrit_triangle).cost == pytest.approx(1.0, abs=1e-8)


def test_embedded_cycle_xu_matches_binary_chain(qutrit_triangle):
    report = cx.x_u(qutrit_triangle)
    assert report.value == pytest.approx(LOG2_3_2, abs=1e-5)
    assert report.converged


def test_joint_box_machinery(rng, qutrit_triangle):
    g = qutrit_triangle.hypergraph
    j = random_joint(g, rng)
    box = cx.box_of_joint(j)
    assert cx.check_consistency(box, 1e-12).consistent
    assert cx.is_noncontextual(box)
    assert cx.x_u(box).value <= 1e-7
    assert np.allclose(cx.marginal(j, [0]), box.distributions[0].reshape(3, 2).sum(axis=1))


def test_qutrit_marginal_ordering(qutrit_triangle):
    g = qutrit_triangle.hypergraph
    vec = np.zeros(12)
    vec[np.ravel_multi_index((2, 1, 0), (3, 2, 2))] = 1.0
    j = cx.JointDistribution(g, vec)
    assert np.allclose(cx.marginal(j, [0]), [0, 0, 1])
    assert np.allclose(cx.marginal(j, [1, 0]), [0, 0, 0, 0, 0, 1])


def test_qutrit_relabeling_element(qutrit_triangle):
    g = qutrit_triangle.hypergraph
    # Cycle the qutrit alphabet 0 -> 1 -> 2 -> 0; identity elsewhere.
    element = cx.GroupElement(g, (0, 1, 2), ((1, 2, 0), (0, 1), (0, 1)))
    moved = cx.apply(element, qutrit_triangle)
    assert cx.validate_box(moved).ok
    # (A,B) mass at (0,0) moves to (1,0).
    assert moved.distributions[0][np.ravel_multi_index((1, 0), (3, 2))] == 0.5
    assert cx.generate_group([element]).order == 3
    # The element has order 3; applying it twice more returns the original.
    twice = cx.apply(element, cx.apply(element, moved))
    assert twice.allclose(qutrit_triangle)


def test_qutrit_channels(rng, qutrit_triangle):
    channel = random_channel_mixture(qutrit_triangle.hypergraph, rng)
    degraded = cx.apply_independent_channels(qutrit_triangle, channel)
    assert cx.check_consistency(degraded, 1e-9).consistent
    assert (
        cx.contextuality_cost(degraded).cost
        <= cx.contextuality_cost(qutrit_triangle).cost + 1e-8
    )


def test_file_round_trip(tmp_path, qutrit_triangle):
    path = tmp_path / "qutrit.json"
    cx.emit_box(qutrit_triangle, path)
    assert cx.parse_box(path).allclose(qutrit_triangle)


def test_parity_builders_stay_binary(qutrit_triangle):
    with pytest.raises(cx.NotXorBoxError):
        cx.opposite(qutrit_triangle)
    assert cx.classify_xor(qutrit_triangle) is None

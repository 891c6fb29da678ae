"""Builders: exact distributions of the named boxes and the URI dispatcher."""

import math

import numpy as np
import pytest

import contextuality as cx

EVEN2 = [0.5, 0, 0, 0.5]
ODD2 = [0, 0.5, 0.5, 0]


def test_pr_distributions():
    pr = cx.builtin("PR")
    for d in pr.distributions[:3]:
        assert np.allclose(d, EVEN2)
    assert np.allclose(pr.distributions[3], ODD2)


def test_pr_is_chain4():
    assert cx.builtin("PR").allclose(cx.builtin("CH", n=4))


def test_kcbs_distributions():
    k = cx.builtin("KCBS")
    s = 1 / math.sqrt(5)
    assert k.hypergraph.n_contexts == 5
    for d in k.distributions:
        assert np.allclose(d, [1 - 2 * s, s, s, 0.0])


def test_pm_distributions():
    pm = cx.builtin("PM")
    assert pm.hypergraph.n_contexts == 6
    assert all(d.size == 8 for d in pm.distributions)
    even3 = cx.parity_distribution(3, 0)
    odd3 = cx.parity_distribution(3, 1)
    for d in pm.distributions[:5]:
        assert np.allclose(d, even3)
    assert np.allclose(pm.distributions[5], odd3)


def test_mermin_distributions():
    m = cx.builtin("M")
    assert m.hypergraph.n_contexts == 5
    assert all(len(c) == 4 for c in m.hypergraph.contexts)
    odd4 = cx.parity_distribution(4, 1)
    assert np.allclose(m.distributions[4], odd4)


def test_all_builders_valid_and_consistent():
    boxes = [
        cx.builtin("PR"),
        cx.builtin("PR'"),
        cx.builtin("PM", alpha=0.7),
        cx.builtin("M'"),
        cx.builtin("CH", n=9),
        cx.builtin("KCBS"),
    ]
    for box in boxes:
        assert cx.validate_box(box).ok
        assert cx.check_consistency(box, 1e-9).consistent


def test_isotropic_alpha_mixture():
    box = cx.builtin("PR", alpha=0.8)
    assert box.allclose(cx.mix(cx.pr_box(), cx.opposite(cx.pr_box()), 0.8))


def test_unknown_name_rejected():
    with pytest.raises(cx.InvalidBoxError):
        cx.builtin("GHZ")


def test_chain_needs_three_contexts():
    with pytest.raises(cx.InvalidBoxError):
        cx.builtin("CH", n=2)


def test_kcbs_takes_no_parameters():
    with pytest.raises(cx.InvalidBoxError):
        cx.builtin("KCBS", alpha=0.5)


class TestBuiltinURI:
    def test_plain(self):
        assert cx.parse_builtin_uri("builtin:PR").allclose(cx.pr_box())

    def test_chain_with_positional_n(self):
        assert cx.parse_builtin_uri("builtin:CH:7").allclose(cx.chain_box(7))

    def test_chain_with_alpha(self):
        box = cx.parse_builtin_uri("builtin:CH:7:alpha=0.95")
        assert box.allclose(cx.chain_box(7, 0.95))

    def test_primed(self):
        assert cx.parse_builtin_uri("builtin:PM'").allclose(cx.opposite(cx.pm_box()))

    def test_bad_parameter(self):
        with pytest.raises(cx.InvalidBoxError):
            cx.parse_builtin_uri("builtin:PR:gamma=1")

    def test_chain_with_n_key(self):
        box = cx.parse_builtin_uri("builtin:CH:n=7:alpha=0.95")
        assert box.allclose(cx.chain_box(7, 0.95))


@pytest.mark.parametrize(
    "call,fragment",
    [
        pytest.param(lambda: cx.builtin("CH"), "CH requires the number of contexts",
                     id="chain-without-n"),
        pytest.param(lambda: cx.builtin("PR", n=4), "takes no context-count parameter",
                     id="pr-with-n"),
        pytest.param(lambda: cx.builtin("PR", alpha=1.5), "outside", id="alpha-above-one"),
        pytest.param(lambda: cx.builtin("PR", alpha=-0.1), "outside", id="alpha-negative"),
        pytest.param(lambda: cx.parse_builtin_uri("file:PR"), "not a builtin URI", id="uri-scheme"),
        pytest.param(lambda: cx.parse_builtin_uri("builtin"), "not a builtin URI",
                     id="uri-without-name"),
        pytest.param(lambda: cx.parse_builtin_uri("builtin:CH:5:6"),
                     "repeated positional parameter", id="uri-repeated-positional"),
        pytest.param(lambda: cx.parse_builtin_uri("builtin:CH:n=5:6"),
                     "repeated positional parameter", id="uri-positional-after-n-key"),
    ],
)
def test_refusals(call, fragment):
    with pytest.raises(cx.InvalidBoxError, match=fragment):
        call()

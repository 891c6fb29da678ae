"""Box spec files: exact round trips and strict schema rejection."""

import json

import numpy as np
import pytest

import contextuality as cx
from contextuality.boxfile import box_from_document, box_to_document


@pytest.mark.parametrize("box_fn", [cx.pr_box, cx.kcbs_box, cx.pm_box, cx.mermin_box])
def test_round_trip_is_exact(tmp_path, box_fn):
    box = box_fn()
    path = tmp_path / "box.json"
    cx.emit_box(box, path)
    back = cx.parse_box(path)
    assert back.hypergraph == box.hypergraph
    for a, b in zip(back.distributions, box.distributions):
        assert np.array_equal(a, b)


def test_round_trip_survives_awkward_floats(tmp_path):
    g = cx.Hypergraph([("A", 2), ("B", 2)], [(0, 1)])
    vec = np.array([1 / 3, 1 / 7, 1 / 11, 1 - 1 / 3 - 1 / 7 - 1 / 11])
    box = cx.Box(g, [vec])
    path = tmp_path / "box.json"
    cx.emit_box(box, path)
    assert np.array_equal(cx.parse_box(path).distributions[0], vec)


def _pr_doc():
    return box_to_document(cx.pr_box())


def test_negative_probability_rejected():
    doc = _pr_doc()
    doc["distributions"][0][0] = -0.25
    doc["distributions"][0][3] = 0.75
    with pytest.raises(cx.BoxFileError, match="negative"):
        box_from_document(doc)


def test_unknown_top_level_key_rejected():
    doc = _pr_doc()
    doc["comment"] = "hello"
    with pytest.raises(cx.BoxFileError, match="unknown keys"):
        box_from_document(doc)


def test_unknown_observable_key_rejected():
    doc = _pr_doc()
    doc["observables"][0]["dim"] = 2
    with pytest.raises(cx.BoxFileError, match="unknown keys"):
        box_from_document(doc)


def test_unknown_observable_in_context_rejected():
    doc = _pr_doc()
    doc["contexts"][0] = ["A1", "Z9"]
    with pytest.raises(cx.BoxFileError, match="Z9"):
        box_from_document(doc)


def test_wrong_distribution_length_rejected():
    doc = _pr_doc()
    doc["distributions"][1] = [0.5, 0.5]
    with pytest.raises(cx.BoxFileError, match="entries"):
        box_from_document(doc)


def test_unnormalized_distribution_rejected():
    doc = _pr_doc()
    doc["distributions"][0] = [0.5, 0.0, 0.0, 0.6]
    with pytest.raises(cx.BoxFileError, match="sums to"):
        box_from_document(doc)


def test_duplicate_observable_names_rejected():
    doc = _pr_doc()
    doc["observables"][1]["name"] = "A1"
    with pytest.raises(cx.BoxFileError, match="duplicate"):
        box_from_document(doc)


def test_missing_section_rejected():
    doc = _pr_doc()
    del doc["contexts"]
    with pytest.raises(cx.BoxFileError, match="missing section"):
        box_from_document(doc)


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "observables": [,]\n}\n')
    with pytest.raises(cx.BoxFileError, match=r"line 2, column"):
        cx.parse_box(path)


def test_boolean_cardinality_rejected():
    doc = _pr_doc()
    doc["observables"][0]["cardinality"] = True
    with pytest.raises(cx.BoxFileError):
        box_from_document(doc)


def test_emitted_document_is_plain_json(tmp_path):
    path = tmp_path / "box.json"
    cx.emit_box(cx.kcbs_box(), path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"observables", "contexts", "distributions"}


def _overflow_doc():
    """One context over cardinalities 2^62+1 and 4: 2^64+4 outcomes, 4 in int64."""
    return {
        "observables": [{"name": "A", "cardinality": 2**62 + 1},
                        {"name": "B", "cardinality": 4}],
        "contexts": [["A", "B"]],
        "distributions": [[0.25, 0.25, 0.25, 0.25]],
    }


def test_context_dimension_past_int64_rejected():
    with pytest.raises(cx.BoxFileError, match="expected 18446744073709551620"):
        box_from_document(_overflow_doc())

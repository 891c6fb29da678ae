"""CLI: measure rows, figure data, verify suites, exit-code contract."""

import csv
import io
import json

import pytest

import contextuality as cx
from contextuality.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INVALID_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    MEASURES,
    figure_chain_rows,
    main,
)
from contextuality.closed_form import cost_closed_form
from contextuality.verification import run_suite

LOG2_4_3 = 0.41503749927884376


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestMeasure:
    def test_pr_xu(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:PR", "xu")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["value"]) - LOG2_4_3) <= 1e-5
        assert float(rows[0]["certificate"]) <= 1e-7

    def test_kcbs_xu(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:KCBS", "xu")
        assert code == EXIT_OK
        assert abs(float(parse_csv(out)[0]["value"]) - 0.0466576) <= 1e-5

    def test_pm_cost(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:PM", "cost")
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.0, abs=1e-8)

    def test_batch_preserves_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "builtin:PR", "builtin:PM", "builtin:M", "cost",
            "--workers", "3",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["box"] for r in rows] == ["builtin:PR", "builtin:PM", "builtin:M"]

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "pr.json"
        cx.emit_box(cx.pr_box(), path)
        code, out, _ = run_cli(capsys, "measure", str(path), "consistency")
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) <= 1e-12

    def test_beta_with_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "builtin:PR:alpha=0.5", "beta", "--reference", "builtin:PR"
        )
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(2.0, abs=1e-9)

    def test_beta_defaults_to_self(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:PR", "beta")
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(4.0, abs=1e-12)

    def test_weights_file(self, capsys, tmp_path):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([0.25, 0.25, 0.25, 0.25]))
        code, out, _ = run_cli(
            capsys, "measure", "builtin:PR", "xu", "--weights", str(weights)
        )
        assert code == EXIT_OK
        assert abs(float(parse_csv(out)[0]["value"]) - LOG2_4_3) <= 1e-5

    def test_weights_optimize_routes_to_xmax(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:PR:alpha=0.95", "xmax")
        assert code == EXIT_OK
        assert parse_csv(out)[0]["measure"] == "xmax"

    def test_plain_format(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:PR", "xu", "--format", "plain")
        assert code == EXIT_OK
        assert "xu = 0.415" in out

    def test_csv_header_and_provenance(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "builtin:PR", "xu", "--tol", "1e-6")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# tol=1e-06")
        assert "box,measure,value,certificate,iterations,seconds" in lines

    def test_cost_prints_only_its_csv(self, capfd):
        # capfd sees what native code writes to the process's file descriptors.
        code = main(["measure", "builtin:M:alpha=0.9", "cost"])
        out, err = capfd.readouterr()
        assert code == EXIT_OK
        assert err == ""
        lines = out.splitlines()
        assert [line[0] for line in lines[:-2]] == ["#", "#"]
        assert lines[-2] == "box,measure,value,certificate,iterations,seconds"
        assert lines[-1].startswith("builtin:M:alpha=0.9,cost,0.5")


class TestExitCodes:
    def test_unknown_measure(self, capsys):
        code, _, err = run_cli(capsys, "measure", "builtin:PR", "entropy")
        assert code == EXIT_INVALID_INPUT

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "measure", "no/such/box.json", "xu")
        assert code == EXIT_INVALID_INPUT
        assert "error" in err

    def test_bad_builtin(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "builtin:GHZ", "xu")
        assert code == EXIT_INVALID_INPUT

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "measure", str(path), "xu")
        assert code == EXIT_INVALID_INPUT

    def test_non_convergence(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "builtin:KCBS", "xu", "--max-iters", "2"
        )
        assert code == EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("measure", ["xu", "xmax"])
    def test_split_box_counts_at_most_max_iters(self, capsys, tmp_path, measure):
        """KCBS + CH(8, 0.95) is solved one component at a time; the
        components share the budget, so the row reports at most 3 iterations,
        too few for either measure to converge."""
        path = tmp_path / "kcbsch.json"
        cx.emit_box(cx.direct_sum(cx.kcbs_box(), cx.chain_box(8, 0.95)), str(path))
        code, out, _ = run_cli(capsys, "measure", str(path), measure, "--max-iters", "3")
        (row,) = parse_csv(out)
        assert code == EXIT_NO_CONVERGENCE
        assert int(row["iterations"]) == 3

    def test_negative_tolerance(self, capsys):
        code, _, err = run_cli(capsys, "measure", "builtin:PR", "xu", "--tol", "-1")
        assert code == EXIT_INVALID_INPUT
        assert "tolerance" in err

    @pytest.mark.parametrize("measure", ["xu", "xmax"])
    def test_negative_max_iters(self, capsys, measure):
        code, out, err = run_cli(capsys, "measure", "builtin:PR", measure, "--max-iters", "-1")
        assert code == EXIT_INVALID_INPUT
        assert "max_iters" in err
        assert out == ""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize(
        "flag,value,fragment",
        [
            ("--tol", "nan", "tolerance"),
            ("--tol", "-5", "tolerance"),
            ("--max-iters", "-3", "max_iters"),
        ],
    )
    def test_bad_tol_or_max_iters_refused_before_loading(
        self, capsys, measure, flag, value, fragment
    ):
        # The source does not exist: the arguments are refused before it is read.
        code, out, err = run_cli(capsys, "measure", "missing.json", measure, flag, value)
        assert code == EXIT_INVALID_INPUT
        assert fragment in err
        assert out == ""

    def test_no_box_source(self, capsys):
        code, out, err = run_cli(capsys, "measure", "xu")
        assert code == EXIT_INVALID_INPUT
        assert "at least one box source" in err
        assert out == ""

    def test_nan_weights_file(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[NaN, NaN, NaN, NaN]")
        code, out, err = run_cli(capsys, "measure", "builtin:PR", "xu", "--weights", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("measure", ["xmax", "cost", "beta", "consistency"])
    def test_weights_file_with_xmax(self, capsys, tmp_path, measure):
        """Only xu reads a weights file; every other measure refuses one."""
        path = tmp_path / "w.json"
        path.write_text("[NaN, NaN, NaN, NaN]")
        code, out, err = run_cli(capsys, "measure", "builtin:PR", measure, "--weights", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "--weights" in err
        assert out == ""

    @pytest.mark.parametrize("measure", ["xu", "xmax", "cost", "consistency"])
    def test_reference_with_other_measures(self, capsys, measure):
        """Only beta reads a reference box; every other measure refuses one."""
        code, out, err = run_cli(capsys, "measure", "builtin:PR", measure, "--reference", "builtin:PM")
        assert code == EXIT_INVALID_INPUT
        assert "--reference" in err
        assert out == ""

    @pytest.mark.parametrize("content", ['{"a": 1}', "[true, false, false, false]"])
    def test_weights_file_not_a_list_of_numbers(self, capsys, tmp_path, content):
        path = tmp_path / "w.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "measure", "builtin:PR", "xu", "--weights", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "--weights" in err
        assert out == ""

    def test_workers_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXTUALITY_WORKERS", "3")
        code, out, _ = run_cli(capsys, "measure", "builtin:PR", "builtin:PM", "cost")
        assert code == EXIT_OK
        assert "# workers=3" in out.splitlines()
        monkeypatch.setenv("CONTEXTUALITY_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["measure", "builtin:PR", "xu"])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "--workers" in capsys.readouterr().err
        code, _, _ = run_cli(capsys, "measure", "builtin:PR", "xu", "--workers", "1")
        assert code == EXIT_OK

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "measure", "builtin:CH:30", "xu")
        assert code == EXIT_CAP_EXCEEDED

    @pytest.mark.parametrize("measure", ["consistency", "cost"])
    def test_more_than_64_observables(self, capsys, measure):
        # Tables of 65 axes are past numpy's limit: refused as a cap, in the library's words.
        code, out, err = run_cli(capsys, "measure", "builtin:CH:65:alpha=0.9", measure)
        assert code == EXIT_CAP_EXCEEDED
        assert "65 observables" in err and "ndarray" not in err
        assert out == ""

    def test_cost_above_the_joint_cap(self, capsys):
        # x_u refuses CH(30) above, but the cost builds no joint and solves it.
        code, out, _ = run_cli(capsys, "measure", "builtin:CH:30:alpha=0.9", "cost")
        assert code == EXIT_OK
        value = float(parse_csv(out)[0]["value"])
        assert abs(value - cost_closed_form("CH", 0.9, 30)) <= 1e-7

    @pytest.mark.parametrize("measure", ["beta", "consistency"])
    def test_context_dimension_past_int64_is_invalid_input(self, capsys, tmp_path, measure):
        doc = {
            "observables": [{"name": "A", "cardinality": 2**62 + 1},
                            {"name": "B", "cardinality": 4}],
            "contexts": [["A", "B"]],
            "distributions": [[0.25, 0.25, 0.25, 0.25]],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "measure", str(path), measure)
        assert code == EXIT_INVALID_INPUT
        assert out == ""

    def test_inconsistent_file_is_invalid_input(self, capsys, tmp_path):
        from contextuality.boxfile import box_to_document

        doc = box_to_document(cx.pr_box())
        doc["distributions"][0] = [1.0, 0.0, 0.0, 0.0]
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "measure", str(path), "cost")
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_consistency_tolerance_not_finite_and_nonnegative(self, capsys, tmp_path, tol):
        from contextuality.boxfile import box_to_document

        doc = box_to_document(cx.pr_box())
        doc["distributions"][0] = [1.0, 0.0, 0.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "measure", str(path), "consistency", "--tol", tol)
        assert code == EXIT_INVALID_INPUT
        assert "tolerance" in err
        assert out == ""


class TestFigureChain:
    def test_row_count_full_range_both_variants(self):
        rows = figure_chain_rows(3, 50, "both", "closedform")
        assert len(rows) == 96

    def test_spot_values_n4(self):
        rows = {(v, n): (a, x) for v, n, a, x in figure_chain_rows(3, 50, "both", "closedform")}
        alpha, xu = rows[("max", 4)]
        assert alpha == 1.0 and xu == pytest.approx(LOG2_4_3, abs=1e-12)
        alpha, xu = rows[("quantum", 4)]
        assert alpha == pytest.approx(0.8535533905932737, abs=1e-12)
        assert xu == pytest.approx(0.046273846853407075, abs=1e-12)

    def test_solvers_agree(self):
        closed = figure_chain_rows(3, 12, "both", "closedform")
        reduced = figure_chain_rows(3, 12, "both", "reduced")
        for (v1, n1, a1, x1), (v2, n2, a2, x2) in zip(closed, reduced):
            assert (v1, n1) == (v2, n2)
            assert x1 == pytest.approx(x2, abs=1e-9)

    def test_monotone_decreasing_for_max_variant(self):
        xs = [x for _, _, _, x in figure_chain_rows(3, 50, "max", "closedform")]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_cli_output_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure-chain", "--n-min", "3", "--n-max", "5", "--variant", "max"
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["3", "4", "5"]

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "figure-chain", "--n-min", "2", "--n-max", "5")
        assert code == EXIT_INVALID_INPUT


class TestVerify:
    def test_equivalence_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "equivalence", "--samples", "4", "--seed", "1"
        )
        assert code == EXIT_OK
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_output_is_machine_readable(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "equivalence", "--samples", "2"
        )
        assert code == EXIT_OK
        statuses = {line.split("]")[0].strip("[") for line in out.splitlines() if line.startswith("[")}
        assert statuses == {"PASS"}

    def test_unknown_suite_refused(self):
        with pytest.raises(KeyError, match="unknown suite 'nope'"):
            run_suite("nope")


class TestEmit:
    def test_emit_then_measure(self, capsys, tmp_path):
        path = tmp_path / "ch7.json"
        code, _, _ = run_cli(capsys, "emit", "builtin:CH:7:alpha=0.95", str(path))
        assert code == EXIT_OK
        assert cx.parse_box(path).allclose(cx.chain_box(7, 0.95))


def test_csv_deterministic_modulo_timing(capsys):
    def rows_without_seconds():
        code, out, _ = run_cli(
            capsys, "measure", "builtin:PR", "builtin:KCBS", "xu"
        )
        assert code == EXIT_OK
        return [r.rsplit(",", 1)[0] for r in out.splitlines() if not r.startswith("#")]

    assert rows_without_seconds() == rows_without_seconds()

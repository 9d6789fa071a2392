import csv
import json
import pathlib

import pytest

from vpa.cli import EXIT_INPUT, EXIT_OK, EXIT_OPERATION, main

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
LIGHT = {
    "radius_factor": 10.0, "radius_count": 4, "weights_per_radius": 2,
    "weight_grid": 3, "starts_per_weight": 2, "section_budget": 8,
}


def run(args):
    return main([str(a) for a in args])


def report(outdir, command):
    return json.loads((pathlib.Path(outdir) / f"{command}_report.json").read_text())


@pytest.fixture()
def light_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LIGHT))
    return path


class TestPointwiseCommands:
    def test_eval(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["eval", "--problem", PROBLEMS / "motzkin.json",
                  "--at", "1,1", "--out", out])
        assert rc == EXIT_OK
        rep = report(out, "eval")
        assert rep["status"] == "ok"
        assert rep["result"]["f"] == [0.0, 0.0]
        assert rep["result"]["feasibility"]["feasible"] is True
        assert rep["config_hash"]

    def test_rabier_closed_form(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["rabier", "--problem", PROBLEMS / "degenerate_line.json",
                  "--at", "0,0,5", "--out", out])
        assert rc == EXIT_OK
        value = report(out, "rabier")["result"]["rabier"]["value"]
        assert value == pytest.approx(5 * 2 ** 0.5 / 2, rel=1e-9)

    def test_mfcq_boundary(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["mfcq", "--problem", PROBLEMS / "motzkin.json",
                  "--at", "0,3", "--out", out])
        assert rc == EXIT_OK
        rep = report(out, "mfcq")["result"]["mfcq"]
        assert rep["holds"] is True and rep["margin"] == pytest.approx(1.0)

    def test_tangency(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["tangency", "--problem", PROBLEMS / "degenerate_line.json",
                  "--at", "0,0,7", "--out", out])
        assert rc == EXIT_OK
        assert report(out, "tangency")["result"]["tangency"]["is_member"] is True

    def test_missing_at_is_input_error(self, tmp_path):
        rc = run(["rabier", "--problem", PROBLEMS / "motzkin.json",
                  "--out", tmp_path / "out"])
        assert rc == EXIT_INPUT

    def test_wrong_dimension_is_input_error(self, tmp_path):
        rc = run(["rabier", "--problem", PROBLEMS / "motzkin.json",
                  "--at", "1,2,3", "--out", tmp_path / "out"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("at", ["nan,1", "inf,0", "-inf,2", "1,NaN"])
    def test_non_finite_point_is_input_error(self, tmp_path, at):
        out = tmp_path / "out"
        rc = run(["eval", "--problem", PROBLEMS / "motzkin.json",
                  f"--at={at}", "--out", out])
        assert rc == EXIT_INPUT
        assert not (out / "eval_report.json").exists()

    def test_infeasible_point_is_operation_error(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["rabier", "--problem", PROBLEMS / "motzkin.json",
                  "--at=-5,0", "--out", out])
        assert rc == EXIT_OPERATION
        rep = report(out, "rabier")
        assert rep["status"] == "error"
        assert rep["error"]["type"] == "InfeasiblePointError"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflow_is_operation_error(self, tmp_path):
        problem = tmp_path / "overflow.json"
        problem.write_text(json.dumps({"n": 1, "objectives": ["x1^400", "x1"]}))
        out = tmp_path / "out"
        rc = run(["rabier", "--problem", problem, "--at", "10", "--out", out])
        assert rc == EXIT_OPERATION
        rep = report(out, "rabier")
        assert rep["status"] == "error"
        assert rep["error"]["type"] == "NonFiniteError"


class TestInputValidation:
    def test_malformed_expression_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "objectives": ["x1 + * x2"]}))
        rc = run(["eval", "--problem", bad, "--at", "1,1",
                  "--out", tmp_path / "out"])
        assert rc == EXIT_INPUT
        assert "position 5" in capsys.readouterr().err

    def test_oversized_expansion_is_input_error(self, tmp_path, capsys):
        terms = "+".join(f"x{i}" for i in range(1, 11))
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"n": 10, "objectives": [f"({terms})^30"]}))
        out = tmp_path / "out"
        rc = run(["verdict", "--problem", bad, "--out", out])
        assert rc == EXIT_INPUT
        assert "more than the limit" in capsys.readouterr().err
        assert not (out / "verdict_report.json").exists()

    def test_unknown_command(self, tmp_path):
        assert run(["frobnicate", "--problem", PROBLEMS / "motzkin.json",
                    "--out", tmp_path / "out"]) == EXIT_INPUT

    def test_missing_problem_file(self, tmp_path):
        assert run(["eval", "--problem", tmp_path / "nope.json",
                    "--at", "1,1", "--out", tmp_path / "out"]) == EXIT_INPUT

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tol_feas": -1}))
        assert run(["eval", "--problem", PROBLEMS / "motzkin.json",
                    "--config", cfg, "--at", "1,1",
                    "--out", tmp_path / "out"]) == EXIT_INPUT

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tol_fees": 1e-8}))
        assert run(["eval", "--problem", PROBLEMS / "motzkin.json",
                    "--config", cfg, "--at", "1,1",
                    "--out", tmp_path / "out"]) == EXIT_INPUT

    def test_ybar_override(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["eval", "--problem", PROBLEMS / "motzkin.json",
                  "--at", "1,1", "--ybar", "+inf,+inf", "--out", out])
        assert rc == EXIT_OK
        assert report(out, "eval")["inputs"]["ybar"] == ["+inf", "+inf"]


class TestPipelineCommands:
    def test_trace_writes_csv(self, tmp_path, light_config_file):
        out = tmp_path / "out"
        rc = run(["trace", "--problem", PROBLEMS / "degenerate_line.json",
                  "--config", light_config_file, "--out", out])
        assert rc == EXIT_OK
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["radius", "x_1", "x_2", "x_3", "f_1"]
        assert rows[0][-4:] == ["rabier", "scaled_rabier", "in_tangency",
                                "below_ybar"]
        assert len(rows) > 1

    def test_section_command(self, tmp_path, light_config_file):
        out = tmp_path / "out"
        rc = run(["section", "--problem", PROBLEMS / "hyperbola.json",
                  "--config", light_config_file, "--out", out])
        assert rc == EXIT_OK
        rep = report(out, "section")["result"]["section"]
        assert rep["bounded_evidence"] is True

    def test_solve_writes_archive(self, tmp_path, light_config_file):
        out = tmp_path / "out"
        rc = run(["solve", "--problem", PROBLEMS / "motzkin.json",
                  "--config", light_config_file, "--ybar", "+inf,+inf",
                  "--out", out])
        assert rc == EXIT_OK
        archive = json.loads((out / "archive.json").read_text())
        assert archive
        entry = archive[0]
        assert set(entry) == {"x", "f", "weights", "rabier_residual"}
        with open(out / "front.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["f_1", "f_2"]

    def test_classify_command(self, tmp_path, light_config_file):
        out = tmp_path / "out"
        rc = run(["classify", "--problem", PROBLEMS / "degenerate_line.json",
                  "--config", light_config_file, "--out", out])
        assert rc == EXIT_OK
        verdicts = report(out, "classify")["result"]["verdicts"]
        assert verdicts["m_tame"]["status"] == "fails_witness"
        assert verdicts["palais_smale"]["status"] == "holds_evidence"

    def test_pointwise_report_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["rabier", "--problem", PROBLEMS / "degenerate_line.json",
                        "--at", "0,0,5", "--out", out]) == EXIT_OK
            outs.append((out / "rabier_report.json").read_bytes())
        assert outs[0] == outs[1]

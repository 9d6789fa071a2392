import csv
import json
import math
import os
import pathlib
import stat

import pytest

from conftest import LIGHT_CONFIG, assert_reports_reencode
from test_problem import MALFORMED
from vpa import RunConfig, load_problem
from vpa.asymptotics import flatten_records, trace_csv, trace_tangency
from vpa.cli import COMMANDS, EXIT_INPUT, EXIT_OK, EXIT_OPERATION, PARSER, _json_text, main
from vpa.pareto import classify_evidence, existence_verdict, section_probe

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
LIGHT = {
    "radius_factor": 10.0, "radius_count": 4, "weights_per_radius": 2,
    "weight_grid": 3, "starts_per_weight": 2, "section_budget": 8,
}


def run(args):
    return main([str(a) for a in args])


def report(outdir, command):
    return json.loads((pathlib.Path(outdir) / f"{command}_report.json").read_text())


@pytest.fixture(autouse=True)
def reports_reencode(tmp_path):
    """Checked after every test: the files a test wrote re-encode to their
    own bytes."""
    yield
    assert_reports_reencode(tmp_path)


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

    @pytest.mark.parametrize("command, fixture, at", [
        ("rabier", "hyperbola", "10,0.1,-1"), ("tangency", "degenerate_line", "0,0,7"),
        ("mfcq", "motzkin", "0,3")])
    def test_a_certificate_reads_no_config(self, tmp_path, command, fixture, at):
        # a certificate is a function of (problem, point): the same result
        # under the default config and under another one
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LIGHT_CONFIG.replace(seed=5).to_dict()))
        results = []
        for tag, options in (("default", []), ("light", ["--config", config])):
            out = tmp_path / tag
            assert run([command, "--problem", PROBLEMS / f"{fixture}.json",
                        "--at", at, *options, "--out", out]) == EXIT_OK
            results.append(report(out, command))
        assert results[0]["config_hash"] != results[1]["config_hash"]
        assert results[0]["result"] == results[1]["result"]

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
        for command in ("rabier", "eval"):
            out = tmp_path / command
            rc = run([command, "--problem", problem, "--at", "10", "--out", out])
            assert rc == EXIT_OPERATION
            rep = report(out, command)
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
        for expr in (f"({terms})^30", "x1^99999999999999999999"):
            bad = tmp_path / "huge.json"
            bad.write_text(json.dumps({"n": 10, "objectives": [expr]}))
            out = tmp_path / "out"
            rc = run(["verdict", "--problem", bad, "--out", out])
            assert rc == EXIT_INPUT
            assert "more than the limit" in capsys.readouterr().err
            assert not (out / "verdict_report.json").exists()

    @pytest.mark.parametrize("expr, n", [
        pytest.param("10^400*x1", 1, id="power-overflows"),
        pytest.param("2^99999999999999999999*x1", 1, id="exponent-literal"),
        pytest.param("1" * 401 + "*x1", 1, id="literal-overflows"),
        pytest.param("x1^" + "9" * 5000, 1, id="exponent-beyond-int-limit"),
        pytest.param("x" + "1" * 5000, 1, id="variable-index-beyond-int-limit"),
        pytest.param("x1", 0, id="no-variables"),
    ])
    def test_unusable_expression_is_input_error(self, tmp_path, capsys,
                                                expr, n):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": n, "objectives": [expr]}))
        out = tmp_path / "out"
        rc = run(["eval", "--problem", bad, "--at", "1", "--out", out])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("vpa: input error: bad problem file")
        assert "position" in err or n == 0
        assert not out.exists()

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_problem_file_is_input_error(self, tmp_path, capsys, name):
        content, reason = MALFORMED[name]
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert run(["eval", "--problem", bad, "--at", "1", "--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"vpa: input error: bad problem file {bad}: ")
        assert reason in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fixture, ybar", [
        ("degenerate_line", None),        # the file's ybar is +inf, +inf
        ("hyperbola", "+inf,+inf"),
        ("motzkin", "inf,+inf"),
    ])
    def test_section_needs_a_finite_ybar(self, tmp_path, capsys, fixture, ybar):
        out = tmp_path / "out"
        argv = ["section", "--problem", PROBLEMS / f"{fixture}.json",
                "--out", out]
        if ybar is not None:
            argv.append(f"--ybar={ybar}")
        assert run(argv) == EXIT_INPUT
        assert "finite ybar" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ybar", ["nan,-inf", "-inf,-inf", "1,nan"])
    def test_nan_or_minus_inf_ybar_is_input_error(self, tmp_path, capsys, ybar):
        out = tmp_path / "out"
        rc = run(["verdict", "--problem", PROBLEMS / "hyperbola.json",
                  f"--ybar={ybar}", "--out", out])
        assert rc == EXIT_INPUT
        assert "NaN or -inf" in capsys.readouterr().err
        assert not out.exists()

    def test_problem_file_with_minus_inf_ybar_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "objectives": ["x1"],
                                   "ybar": [-math.inf]}))
        out = tmp_path / "out"
        rc = run(["eval", "--problem", bad, "--at", "1", "--out", out])
        assert rc == EXIT_INPUT
        assert "NaN or -inf" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command(self, tmp_path, capsys):
        out = tmp_path / "out"
        problem = ["--problem", PROBLEMS / "motzkin.json"]
        for argv in (["frobnicate", *problem, "--out", out], [],
                     ["eval", "--out", out], ["eval", *problem]):
            assert run(argv) == EXIT_INPUT
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["verdict", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert run(argv) == EXIT_OK
        assert "--problem" in capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_takes_the_five_options(self, command):
        args = PARSER.parse_args([command, "--problem", "p.json",
                                  "--config", "c.json", "--at", "1,2",
                                  "--ybar", "+inf,0", "--out", "o"])
        assert vars(args) == {"command": command, "problem": "p.json",
                              "config": "c.json", "at": "1,2",
                              "ybar": "+inf,0", "out": "o"}

    def test_missing_problem_file(self, tmp_path):
        assert run(["eval", "--problem", tmp_path / "nope.json",
                    "--at", "1,1", "--out", tmp_path / "out"]) == EXIT_INPUT

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"radius_factor": -1}))
        assert run(["eval", "--problem", PROBLEMS / "motzkin.json",
                    "--config", cfg, "--at", "1,1",
                    "--out", tmp_path / "out"]) == EXIT_INPUT

    # the tolerances, the norm cap, the projection's iteration count and the
    # schedule's first radius are constants, not config fields: a config that
    # names one is refused as an unknown key, whatever its value
    @pytest.mark.parametrize("data, field", [
        pytest.param({"divergence_cap": -1.0}, "unknown config keys: divergence_cap",
                     id="negative-cap"),
        pytest.param({"divergence_cap": 0.0}, "unknown config keys: divergence_cap",
                     id="zero-cap"),
        pytest.param({"divergence_cap": math.nan}, "unknown config keys: divergence_cap",
                     id="nan-cap"),
        pytest.param({"tol_feas": math.nan}, "unknown config keys: tol_feas",
                     id="nan-tolerance"),
        pytest.param({"radius_factor": math.nan}, "radius schedule", id="nan-factor"),
        pytest.param({"tol_feas": math.inf}, "unknown config keys: tol_feas",
                     id="inf-tolerance"),
        pytest.param({"divergence_cap": math.inf}, "unknown config keys: divergence_cap",
                     id="inf-cap"),
        pytest.param({"radius_base": math.inf}, "unknown config keys: radius_base",
                     id="inf-base"),
        pytest.param({"radius_factor": math.inf}, "radius_factor must be finite",
                     id="inf-factor"),
        pytest.param({"tol_margin": 10 ** 400}, "unknown config keys: tol_margin",
                     id="integer-tolerance-overflows"),
        pytest.param({"radius_base": 10 ** 400}, "unknown config keys: radius_base",
                     id="integer-base-overflows"),
        pytest.param({"radius_factor": 10 ** 400}, "radius_factor must be finite",
                     id="integer-factor-overflows"),
        pytest.param({"radius_factor": 1e300}, "radius schedule overflows",
                     id="schedule-overflows"),
        # 5e102 ** 3 is finite; times RADIUS_BASE it rounds to inf
        pytest.param({"radius_factor": 5e102, "radius_count": 4}, "radius schedule overflows",
                     id="schedule-overflows-to-inf"),
        pytest.param({"radius_factor": 2, "radius_count": 10 ** 12},
                     "radius schedule overflows", id="integer-schedule-overflows"),
        pytest.param({"radius_factor": 2, "radius_count": 10 ** 400},
                     "radius schedule overflows", id="integer-count-overflows"),
        pytest.param({"radius_factor": 1.000001, "radius_count": 10 ** 8},
                     "radius schedule has more than 100 radii", id="too-many-radii"),
        # the largest radius, 1e181, is finite; its square is not
        pytest.param({"radius_factor": 1e60, "radius_count": 4},
                     "radius schedule overflows: the square", id="square-overflows"),
        pytest.param({"seed": -1}, "seed", id="negative-seed"),
        pytest.param({"projection_restarts": -3}, "unknown config keys: projection_restarts",
                     id="negative-restarts"),
        pytest.param({"projection_max_iter": 0}, "unknown config keys: projection_max_iter",
                     id="no-iterations"),
        pytest.param({"section_budget": 0}, "budgets", id="no-section-budget"),
    ])
    def test_nan_or_nonpositive_config_value_rejected(self, tmp_path, capsys,
                                                      data, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))     # NaN and inf: the tokens NaN, Infinity
        out = tmp_path / "out"
        assert run(["solve", "--problem", PROBLEMS / "motzkin.json",
                    "--config", cfg, "--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("vpa: input error: bad config file") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        pytest.param({"tol_feas": "x"}, "unknown config keys: tol_feas",
                     id="string-tolerance"),
        pytest.param({"divergence_cap": None}, "unknown config keys: divergence_cap",
                     id="null-cap"),
        pytest.param({"radius_base": "x"}, "unknown config keys: radius_base",
                     id="string-base"),
        pytest.param({"radius_factor": None}, "radius_factor must be a number",
                     id="null-factor"),
        pytest.param({"radius_count": 4.5}, "radius_count must be an integer",
                     id="fractional-count"),
        pytest.param({"section_budget": "8"}, "section_budget must be an integer",
                     id="string-count"),
        pytest.param({"seed": True}, "seed must be an integer", id="boolean-seed"),
        pytest.param([1, 2], "one JSON object", id="not-an-object"),
    ])
    def test_config_value_of_the_wrong_type_rejected(self, tmp_path, capsys,
                                                     data, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert run(["eval", "--problem", PROBLEMS / "motzkin.json", "--at", "1,1",
                    "--config", cfg, "--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("vpa: input error: bad config file") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        pytest.param('{"radius_factor": 1e999}', id="number-overflows"),
        pytest.param("[" * 100_000, id="nested-too-deeply"),
    ])
    def test_malformed_config_file_is_input_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["eval", "--problem", PROBLEMS / "motzkin.json", "--at", "1,1",
                    "--config", cfg, "--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("vpa: input error: bad config file") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tol_fees": 1e-8}))
        assert run(["eval", "--problem", PROBLEMS / "motzkin.json",
                    "--config", cfg, "--at", "1,1",
                    "--out", tmp_path / "out"]) == EXIT_INPUT

    @pytest.mark.parametrize("key, value", [
        ("tol_feas", 1e-8), ("tol_active", 1e-6), ("tol_membership", 1e-7),
        ("tol_stationary", 1e-6), ("tol_limit", 1e-4), ("tol_cluster", 1e-3),
        ("tol_rank", 1e-10), ("tol_margin", 1e-9), ("projection_max_iter", 200),
        ("divergence_cap", 1e6)])
    def test_a_constant_is_no_config_key(self, tmp_path, capsys, key, value):
        # each at its constant's value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run(["rabier", "--problem", PROBLEMS / "motzkin.json", "--at", "1,1",
                    "--config", cfg, "--out", out]) == EXIT_INPUT
        assert f"unknown config keys: {key}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-a-file"])
    def test_unusable_output_directory_is_input_error(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken.joinpath(*below)
        rc = run(["eval", "--problem", PROBLEMS / "motzkin.json", "--at", "1,1",
                  "--out", out])
        assert rc == EXIT_INPUT
        assert f"input error: cannot create output directory {out}: " in capsys.readouterr().err
        assert taken.read_text() == "keep"

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

    @pytest.mark.parametrize("fixture", ["motzkin", "hyperbola", "degenerate_line"])
    def test_classify_reports_the_verdicts_evidence(self, tmp_path, fixture):
        # `classify_evidence` and `existence_verdict` each compose the MFCQ
        # evidence and the classification; both must write the same bytes
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LIGHT_CONFIG.to_dict()))
        problem = PROBLEMS / f"{fixture}.json"
        out = tmp_path / "out"
        assert run(["classify", "--problem", problem, "--config", config,
                    "--out", out]) == EXIT_OK
        result = report(out, "classify")["result"]
        verdict = existence_verdict(*load_problem(problem), LIGHT_CONFIG)
        assert _json_text(result["mfcq_evidence"]) == _json_text(verdict.mfcq)
        assert _json_text(result["verdicts"]) == _json_text(verdict.verdicts)

    @pytest.mark.parametrize("fixture", ["motzkin", "hyperbola"])
    def test_section_reports_the_verdicts_section(self, tmp_path, fixture):
        # `section_probe` and `existence_verdict` each compose the descents
        # and the chains into the section evidence; both must write the same
        # bytes
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LIGHT_CONFIG.to_dict()))
        problem = PROBLEMS / f"{fixture}.json"
        out = tmp_path / "out"
        assert run(["section", "--problem", problem, "--config", config,
                    "--out", out]) == EXIT_OK
        result = report(out, "section")["result"]
        verdict = existence_verdict(*load_problem(problem), LIGHT_CONFIG)
        assert _json_text(result["section"]) == _json_text(verdict.section)

    def test_report_config_reproduces_the_evidence(self, tmp_path):
        # the config a report embeds is the whole input of its evidence: the
        # library, given that config alone, gathers the same evidence
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**LIGHT, "seed": 5, "radius_factor": 8.0}))
        problem = PROBLEMS / "hyperbola.json"
        prob, ybar = load_problem(problem)
        reports = {}
        for command in ("trace", "classify", "section"):
            out = tmp_path / command
            assert run([command, "--problem", problem, "--config", config,
                        "--out", out]) == EXIT_OK
            reports[command] = report(out, command)

        cfg = RunConfig.from_dict(reports["trace"]["config"])
        text = trace_csv(flatten_records(trace_tangency(prob, ybar, cfg)), prob.n, prob.p)
        assert text.encode() == (tmp_path / "trace" / "trace.csv").read_bytes()

        cfg = RunConfig.from_dict(reports["classify"]["config"])
        evidence, verdicts = classify_evidence(prob, ybar, cfg)
        result = json.loads(_json_text({"mfcq_evidence": evidence, "verdicts": verdicts}))
        assert result == reports["classify"]["result"]

        cfg = RunConfig.from_dict(reports["section"]["config"])
        section = json.loads(_json_text(section_probe(prob, ybar, cfg)))
        assert section == reports["section"]["result"]["section"]

    def test_pointwise_report_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["rabier", "--problem", PROBLEMS / "degenerate_line.json",
                        "--at", "0,0,5", "--out", out]) == EXIT_OK
            outs.append((out / "rabier_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_existing_output_is_overwritten_in_place(self, tmp_path):
        # written over a longer file with a second link and its own mode, a
        # report keeps the inode, the link and the mode, and has the bytes
        # of a report written afresh
        argv = ["eval", "--problem", PROBLEMS / "motzkin.json", "--at", "1,1"]
        out = tmp_path / "out"
        out.mkdir()
        path = out / "eval_report.json"
        path.write_text("x" * 100_000)
        path.chmod(0o640)
        link = tmp_path / "link.json"
        os.link(path, link)
        inode = path.stat().st_ino
        assert run(argv + ["--out", out]) == EXIT_OK
        assert run(argv + ["--out", tmp_path / "fresh"]) == EXIT_OK
        fresh = (tmp_path / "fresh" / "eval_report.json").read_bytes()
        assert path.read_bytes() == fresh and link.read_bytes() == fresh
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

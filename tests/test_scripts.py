"""The README's scripts: an input error ends in a usage message with exit
status 2, and a failed verdict fails the fixture run."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args", [["--decades", "2"], ["--chains", "0"],
                                  ["--ybar=-1,x"], ["--ybar=nan,2"], ["--ybar=-1"]])
def test_profile_input_error_is_a_usage_error(monkeypatch, capsys, args):
    script = load_script("rabier_radius_profile")
    monkeypatch.setattr(sys, "argv", ["rabier_radius_profile.py",
                                      str(ROOT / "problems" / "hyperbola.json"), *args])
    with pytest.raises(SystemExit) as info:
        script.main()
    assert info.value.code == 2
    assert f"error: {args[0].split('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("failing", [(), ("hyperbola",)])
def test_fixture_reports_exit_status(monkeypatch, tmp_path, failing):
    script = load_script("run_fixture_reports")

    def verdict(argv):
        outdir = pathlib.Path(argv[argv.index("--out") + 1])
        outdir.mkdir(parents=True)
        (outdir / "verdict_report.json").write_text(json.dumps({"status": "ok"}))
        return 1 if pathlib.Path(argv[2]).stem in failing else 0
    monkeypatch.setattr(script, "vpa_main", verdict)
    monkeypatch.setattr(sys, "argv", ["run_fixture_reports.py", "--out", str(tmp_path)])
    assert script.main() == (1 if failing else 0)

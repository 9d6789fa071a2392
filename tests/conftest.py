import json
import pathlib

import hypothesis
import pytest

from vpa import DEFAULT_CONFIG, load_problem

hypothesis.settings.register_profile("suite", deadline=None, max_examples=50)
hypothesis.settings.load_profile("suite")

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

# schedule spanning four radius decades at modest cost (tests only)
LIGHT_CONFIG = DEFAULT_CONFIG.replace(radius_factor=10.0, radius_count=5,
                                      weights_per_radius=4, weight_grid=5,
                                      starts_per_weight=4, section_budget=16)

# the verdict budgets of the benchmark's workloads (perfbench/workloads.py),
# restated at its schedule and config seed: one tangency chain per verdict,
# so single in_tangency flags decide three hyperbola conditions
BENCHMARK_CONFIGS = {
    fixture: DEFAULT_CONFIG.replace(seed=0, radius_factor=10.0, radius_count=5,
                                    weights_per_radius=1, weight_grid=grid,
                                    starts_per_weight=starts, section_budget=8)
    for fixture, grid, starts in (("motzkin", 2, 2), ("hyperbola", 3, 3),
                                  ("degenerate_line", 1, 1))}


@pytest.fixture(scope="session")
def motzkin():
    return load_problem(PROBLEMS / "motzkin.json")


@pytest.fixture(scope="session")
def hyperbola():
    return load_problem(PROBLEMS / "hyperbola.json")


@pytest.fixture(scope="session")
def degenerate_line():
    return load_problem(PROBLEMS / "degenerate_line.json")


@pytest.fixture(scope="session")
def light_config():
    return LIGHT_CONFIG


def assert_reports_reencode(root):
    """Every report and archive.json under `root` is the report format's own
    re-encoding: indent 2, sorted keys, ASCII escapes; reports end in a
    newline, archives do not."""
    root = pathlib.Path(root)
    for path in [*root.rglob("*_report.json"), *root.rglob("archive.json")]:
        text = path.read_text()
        tail = "\n" if path.name.endswith("_report.json") else ""
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + tail, path

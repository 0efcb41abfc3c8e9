"""The benchmark's tracer finds every name it wraps and restores each one.

`perfbench/spans.py` looks its functions up by name, so a rename in
`coarseiv` would break a traced benchmark run while the rest of the suite
still passed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from coarseiv import cli, response

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
OWNERS = spans._MODULES + tuple({cls for cls, *_ in spans._METHODS})


def test_install_wraps_every_name_and_uninstall_restores_it():
    before = [dict(vars(owner)) for owner in OWNERS]
    originals = [getattr(owner, attr) for owner, attr, *_ in spans._FUNCTIONS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, *_), original in zip(spans._FUNCTIONS, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
        for cls, attr, *_ in spans._METHODS:
            assert hasattr(vars(cls)[attr], "__wrapped__"), attr
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before


def test_oracle_and_closed_form_spans_fire_through_the_cli(capsys):
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["verify", "--preset", "peanut-ternary", "--suite", "validity",
                      "--trials", "2", "--seed", "1"]),
            cli.main(["verify", "--preset", "peanut-risk", "--suite", "tightness",
                      "--trials", "2", "--seed", "1"]),
            cli.main(["bounds", "--preset", "peanut-risk"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    names = {span[spans.NAME] for span in tracer.take()}
    assert {
        "cli.main",
        "oracle.check_validity",
        "oracle.check_tightness",
        "bounds.closed_form_ternary_contrast",
        "bounds.closed_form_classic",
        "bounds.closed_form_single_level",
        "bounds.solve_b",
        "exactlp.resolve_b",
    } <= names


def test_every_resample_span_fires_through_the_cli(capsys, monkeypatch):
    # The `resample` workload's commands at few replicates: a bootstrap that
    # bypassed a wrapped entry point would fail its traced benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports point_inputs
    workloads = _load("workloads")
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["ci", "--preset", preset, "--method", method,
                      "--bootstrap", "30", "--seed", "1"])
            for method, preset, *_ in workloads.CI_RUNS
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert "multinomial" in [method for method, *_ in workloads.CI_RUNS]
    names = {span[spans.NAME] for span in tracer.take()}
    assert set(workloads.EXPECTED_SPANS["resample"]) <= names


def test_every_point_span_fires_through_the_cli(capsys, monkeypatch, tmp_path):
    # The first `point` case of seed 1 is an incompatible table, so one call
    # runs the slack projection as well as the LP construction.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load("workloads")
    case = _load("point_inputs").generate(1, str(tmp_path))[0]
    assert case.incompatible
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["bounds", "--scenario", case.scenario_path,
                         "--summary", case.summary_path, "--slack"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    taken = tracer.take()
    assert set(workloads.EXPECTED_SPANS["point"]) <= {span[spans.NAME] for span in taken}
    counts, _ = spans.layer_metrics(taken)
    # 4^3 exposure maps x 2^4 clean bits, and their distinct columns.
    assert counts["response.types"] == 1024
    assert counts["bounds.merged_columns"] == 344


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds",),
        ("ci", "--method", "percentile", "--bootstrap", "20", "--seed", "1"),
        ("derive", "--format", "json"),
    ],
)
def test_engine_paths_enumerate_no_response_type(capsys, monkeypatch, argv):
    def unreachable(scenario):
        raise AssertionError("enumerated a response type")

    monkeypatch.setattr(response, "enumerate_exposure_types", unreachable)
    monkeypatch.setattr(response, "enumerate_outcome_types", unreachable)
    code = cli.main([argv[0], "--preset", "homocysteine-4", *argv[1:]])
    _, err = capsys.readouterr()
    assert code == 0, err

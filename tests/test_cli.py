"""Command-line interface: output schema, exit codes, determinism."""

import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarseiv import cli, oracle, response
from coarseiv.bounds import BoundsSolver, InfeasibleDistribution
from coarseiv.cli import build_parser, main
from coarseiv.datasets import PRESET_NAMES
from coarseiv.exactlp import ExactSimplex
from coarseiv.inference import BootstrapSpec

PEANUT_LOWER = "-5073/31720"
PEANUT_UPPER = "10/61"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


# -- bounds ---------------------------------------------------------------------------


def test_bounds_peanut_document(capsys):
    doc = run_json(capsys, "bounds", "--preset", "peanut-ternary")
    assert doc["schema"] == "coarseiv/run/1"
    assert doc["config_echo"]["subcommand"] == "bounds"
    assert doc["config_echo"]["preset"] == "peanut-ternary"
    lp = doc["results"]["lp"]
    assert lp["lower"]["exact"] == PEANUT_LOWER
    assert lp["upper"]["exact"] == PEANUT_UPPER
    assert lp["lower"]["display"] == "-0.16"
    assert lp["upper"]["display"] == "0.16"
    cf = doc["results"]["closed_form"]
    assert cf["form"] == "ten-term"
    assert cf["expected_tight"] is True
    assert doc["results"]["agreement"] is True


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coarseiv", "bounds", "--preset", "peanut-ternary"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lp = json.loads(proc.stdout)["results"]["lp"]
    assert (lp["lower"]["exact"], lp["upper"]["exact"]) == (PEANUT_LOWER, PEANUT_UPPER)


def test_bounds_homocysteine_display(capsys):
    doc = run_json(capsys, "bounds", "--preset", "homocysteine-3")
    lp = doc["results"]["lp"]
    assert lp["lower"]["display"] == "-0.62"
    assert lp["upper"]["display"] == "0.81"


def test_bounds_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bounds", "--preset", "peanut-ternary")
    _, second, _ = run_cli(capsys, "bounds", "--preset", "peanut-ternary")
    assert first == second


def test_bounds_estimand_override(capsys):
    doc = run_json(
        capsys,
        "bounds",
        "--preset",
        "peanut-ternary",
        "--estimand",
        "counterfactual_risk",
        "--x",
        "<0.2g",
    )
    assert doc["results"]["estimand"] == "P(Y(<0.2g)=1)"


# -- file inputs ----------------------------------------------------------------------


SCENARIO_AB = """\
schema: coarseiv/scenario/1
instrument_levels: [z0, z1]
levels:
  - {label: lo}
  - {label: hi}
estimand: {kind: risk_difference, x: lo, x_prime: hi}
"""

RECORDS_NUMERIC = """\
z,x_star,y
z0,1.0,0
z0,1.5,0
z0,2.0,1
z0,7.0,1
z1,1.0,0
z1,7.0,0
z1,8.0,1
z1,9.0,1
"""

COARSEN_AT_FIVE = """\
schema: coarseiv/coarsening/1
kind: interval
entries:
  - {label: lo, upper: 5}
  - {label: hi, lower: 5}
"""

INFEASIBLE_SUMMARY = """\
schema: coarseiv/summary/1
instrument_levels: [z0, z1]
exposure_levels: [lo, hi]
counts:
  - {z: z0, x: lo, y: 0, n: 10}
  - {z: z1, x: lo, y: 1, n: 10}
"""


@pytest.fixture
def input_files(tmp_path):
    paths = {}
    for name, text in [
        ("scenario.yaml", SCENARIO_AB),
        ("records.csv", RECORDS_NUMERIC),
        ("coarsen.yaml", COARSEN_AT_FIVE),
        ("bad_summary.yaml", INFEASIBLE_SUMMARY),
    ]:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def test_bounds_from_records_with_coarsening(capsys, input_files):
    doc = run_json(
        capsys,
        "bounds",
        "--scenario",
        input_files["scenario.yaml"],
        "--records",
        input_files["records.csv"],
        "--coarsening",
        input_files["coarsen.yaml"],
    )
    assert doc["results"]["closed_form"]["form"] == "eight-term"
    assert doc["results"]["agreement"] is True
    echo = doc["config_echo"]
    assert len(echo["records_file"]["sha256"]) == 64
    assert len(echo["scenario_file"]["sha256"]) == 64
    lp = doc["results"]["lp"]
    assert lp["lower"]["exact"] != lp["upper"]["exact"]


def test_infeasible_summary_exits_3_with_certificate(capsys, input_files):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--scenario",
        input_files["scenario.yaml"],
        "--summary",
        input_files["bad_summary.yaml"],
    )
    assert code == 3
    assert "infeasibility certificate" in err


def test_slack_flag_rescues_infeasible_summary(capsys, input_files):
    doc = run_json(
        capsys,
        "bounds",
        "--scenario",
        input_files["scenario.yaml"],
        "--summary",
        input_files["bad_summary.yaml"],
        "--slack",
    )
    notes = doc["results"]["lp"]["notes"]
    assert any("SLACK PROJECTION APPLIED" in n for n in notes)


def _point_cases(tmp_path, count):
    """The first `count` generated `point` benchmark cases, written under tmp_path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "point_inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_point_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.generate(1, str(tmp_path))[:count]


def _bounds_runs(capsys, argvs):
    """Per command: its document without pivot counts, and its slack projections.

    A projection is (system, b, projected b, L1 adjustment).
    """
    project = BoundsSolver.project_slack
    projections = []

    def recording(self, b):
        projected, total = project(self, b)
        projections.append((self.system, list(b), projected, total))
        return projected, total

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BoundsSolver, "project_slack", recording)
        for argv in argvs:
            projections.clear()
            doc = run_json(capsys, *argv)
            del doc["diagnostics"]["pivots_lower"], doc["diagnostics"]["pivots_upper"]
            runs.append((doc, list(projections)))
    return runs


def _check_slack_bounds(doc, projection):
    # The document's LP interval is the exact interval at its projection,
    # which is an L1-nearest compatible table.
    system, b, projected, total = projection
    assert sum(abs(p - v) for p, v in zip(projected, b)) == total
    fresh = BoundsSolver(system).solve_b(projected)
    lp = doc["results"]["lp"]
    assert (lp["lower"]["exact"], lp["upper"]["exact"]) == (str(fresh.lower), str(fresh.upper))


def test_the_crash_moves_only_pivot_counts_and_ties_among_nearest_tables(
    capsys, monkeypatch, tmp_path, input_files
):
    # With the crash a no-op, every cold solve takes the all-artificial
    # Dantzig phase 1 it took before the crash.  A bound at a table is the
    # unique LP optimum, so every document is the same apart from its pivot
    # counts, except where the slack projection moved: an incompatible table
    # can have several L1-nearest compatible tables, and the slack LP's
    # optimal vertex, which picks one, depends on the path.  There the
    # adjustment and the infeasibility certificate stay, and each run's
    # interval is the exact one at its own projection.
    argvs = [("bounds", "--preset", name, "--slack") for name in PRESET_NAMES]
    argvs += [
        ("bounds", "--scenario", case.scenario_path, "--summary", case.summary_path, "--slack")
        for case in _point_cases(tmp_path, 30)
    ]
    argvs.append(
        ("bounds", "--scenario", input_files["scenario.yaml"],
         "--summary", input_files["bad_summary.yaml"], "--slack")
    )
    crashed = _bounds_runs(capsys, argvs)
    monkeypatch.setattr(ExactSimplex, "_crash", lambda self: None)
    plain = _bounds_runs(capsys, argvs)
    for (doc, projections), (want, want_projections) in zip(crashed, plain):
        assert len(projections) == len(want_projections) <= 1
        if [p[2] for p in projections] == [p[2] for p in want_projections]:
            assert doc == want
            continue
        _check_slack_bounds(doc, projections[0])
        _check_slack_bounds(want, want_projections[0])
        for d in (doc, want):
            del d["results"]["lp"]["lower"], d["results"]["lp"]["upper"], d["results"]["agreement"]
        assert doc == want
    assert sum(bool(p) for _, p in crashed) >= 5


# SHA-256 of cold-path `bounds` documents.  They carry
# `diagnostics.pivots_lower/pivots_upper`, so a faster pricing that moved a
# pivot would fail here.
COLD_BOUNDS_SHA256 = {
    "homocysteine-4": "62f1e5296293bcabf0a6aaca3b72161b58a162a05102ec8947c45d0c7735c0e0",
    "peanut-ternary": "385d2a66aebb48b52490ffcace5a36c3a5e40f9ee0cf23da5eedda037af4e638",
}


@pytest.mark.parametrize("preset", sorted(COLD_BOUNDS_SHA256))
def test_cold_bounds_documents_are_byte_identical(capsys, preset):
    code, out, err = run_cli(capsys, "bounds", "--preset", preset)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == COLD_BOUNDS_SHA256[preset]


def test_cold_slack_document_is_pinned(capsys, input_files):
    # The config echo names the temporary input paths; everything else,
    # results and pivot diagnostics included, is hashed.
    doc = run_json(
        capsys,
        "bounds",
        "--scenario",
        input_files["scenario.yaml"],
        "--summary",
        input_files["bad_summary.yaml"],
        "--slack",
    )
    del doc["config_echo"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "bf882392951c68ac79f9c7a6976bba240595d83a97bd91d4eed36792ff5df493"


# -- exit codes ------------------------------------------------------------------------


def test_conflicting_inputs_exit_2(capsys, input_files):
    code, _, err = run_cli(
        capsys,
        "bounds",
        "--preset",
        "peanut-ternary",
        "--scenario",
        input_files["scenario.yaml"],
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--preset", "peanut-ternary"),
        ("bounds", "--scenario", "scenario.yaml", "--summary", "bad_summary.yaml"),
        ("ci", "--preset", "peanut-ternary", "--method", "percentile",
         "--bootstrap", "10", "--seed", "1"),
        ("derive", "--scenario", "scenario.yaml"),
        ("verify", "--scenario", "scenario.yaml", "--suite", "collapse", "--seed", "1"),
        ("dump-lp", "--scenario", "scenario.yaml"),
    ],
)
def test_coarsening_without_records_exits_2(capsys, input_files, argv):
    argv = [input_files.get(arg, arg) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--coarsening", input_files["coarsen.yaml"])
    assert code == 2
    assert out == ""
    assert "--coarsening applies only to --records" in err


def test_missing_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "need --preset or --scenario" in err


@pytest.mark.parametrize("level", ["nan", "inf", "1e400"])
def test_non_finite_level_exits_2(capsys, level):
    code, out, err = run_cli(
        capsys, "ci", "--preset", "peanut-ternary", "--method", "percentile",
        "--bootstrap", "5", "--seed", "1", "--level", level,
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: confidence level must be in (0,1), got {float(level)}"]


@pytest.mark.parametrize(
    "argv",
    [
        ("ci", "--method", "percentile", "--bootstrap", "5"),
        ("ci", "--method", "mn", "--force", "--bootstrap", "5"),
        ("ci", "--method", "multinomial", "--bootstrap", "5"),
        ("verify", "--suite", "validity", "--trials", "2"),
        ("verify", "--suite", "tightness", "--trials", "2"),
        ("verify", "--suite", "equivalences", "--trials", "2"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_negative_seed_exits_2(capsys, argv):
    # numpy seeds only from non-negative integers; exit 1 means "verification
    # failed", so a bad seed must not reach it as a ValueError traceback.
    code, out, err = run_cli(
        capsys, *argv, "--preset", "peanut-ternary", "--seed", "-1"
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: seed must be non-negative, got -1"]


def test_m_out_of_n_on_a_contrast_names_the_force_flag(capsys):
    # A CLI user cannot pass force=True; the message has to name --force.
    code, out, err = run_cli(
        capsys, "ci", "--preset", "peanut-ternary", "--method", "mn",
        "--bootstrap", "5", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: m-out-of-n bootstrap targets single counterfactual risks")
    assert "--force" in line


def test_cap_exit_4(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--preset", "peanut-ternary", "--max-variables", "1"
    )
    assert code == 4
    assert "exceed" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--max-variables=-1"), "the response-type cap must be at least 1, got -1"),
        (("bounds", "--max-rows=0"), "the row cap must be at least 1, got 0"),
        (("derive", "--max-variables=0"), "the response-type cap must be at least 1, got 0"),
        (("derive", "--max-rows=0"), "the row cap must be at least 1, got 0"),
    ],
)
def test_cap_below_one_exits_2(capsys, argv, message):
    # A cap below 1 is a malformed argument, not a scenario too large for it.
    code, out, err = run_cli(capsys, argv[0], "--preset", "peanut-ternary", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv", [("derive",), ("dump-lp",), ("verify", "--seed", "1")]
)
def test_caps_refuse_a_huge_scenario_before_enumerating(capsys, monkeypatch, tmp_path, argv):
    # An 8-level exposure under a 5-arm instrument has 8^5 * 2^8 = 8,388,608
    # response types, too many to enumerate in memory.
    def unreachable(scenario):
        raise AssertionError("enumerated past a cap")

    monkeypatch.setattr(response, "enumerate_exposure_types", unreachable)
    monkeypatch.setattr(response, "enumerate_outcome_types", unreachable)
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "schema: coarseiv/scenario/1\n"
        "instrument_levels: [z0, z1, z2, z3, z4]\n"
        "levels: [" + ", ".join(f"{{label: x{i}}}" for i in range(8)) + "]\n"
        "estimand: {kind: risk_difference, x: x0, x_prime: x7}\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--scenario", str(path), *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert err == "error: 8388608 response-type variables exceed cap 4096\n"


@pytest.mark.parametrize(
    "error",
    [RuntimeError("pivot limit exceeded"), AssertionError("LP returned crossed bounds")],
)
def test_broken_engine_invariant_exits_5(capsys, monkeypatch, error):
    from coarseiv.exactlp import ExactSimplex

    def broken(self, b, scale=None):
        raise error

    monkeypatch.setattr(ExactSimplex, "resolve_b", broken)
    code, out, err = run_cli(capsys, "bounds", "--preset", "peanut-ternary")
    assert code == 5
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "bounds" in lines[0] and "peanut-ternary" in lines[0]
    assert str(error) in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("ci", "--preset", "peanut-ternary", "--method", "percentile",
         "--bootstrap", "20", "--seed", "17"),
        ("verify", "--preset", "peanut-ternary", "--suite", "validity",
         "--trials", "2", "--seed", "17"),
    ],
)
def test_exit_5_diagnostic_names_the_seed(capsys, monkeypatch, argv):
    from coarseiv.exactlp import ExactSimplex

    def broken(self, b, scale=None, start=None):
        raise RuntimeError("zero pivot")

    monkeypatch.setattr(ExactSimplex, "resolve_b", broken)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == (
        f"internal error in {argv[0]} (preset peanut-ternary, seed 17): "
        "RuntimeError: zero pivot"
    )


def test_exit_5_from_inside_the_batch_names_the_seed(capsys, monkeypatch):
    # The point bounds solve first; the replicate batch's screen then fails.
    from coarseiv.exactlp import ExactSimplex

    def broken(self, *args):
        raise RuntimeError("zero pivot")

    monkeypatch.setattr(ExactSimplex, "screen", broken)
    code, out, err = run_cli(
        capsys, "ci", "--preset", "homocysteine-3", "--method", "multinomial",
        "--bootstrap", "20", "--seed", "17",
    )
    assert code == 5
    assert out == ""
    assert err == (
        "internal error in ci (preset homocysteine-3, seed 17): "
        "RuntimeError: zero pivot\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_exits_quietly(capsys, monkeypatch, tmp_path, fmt):
    # Like `coarseiv derive ... | head -c 100`: a write into a pipe whose
    # reader has gone raises BrokenPipeError.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        code = main(["derive", "--preset", "peanut-risk", "--format", fmt])
    finally:
        os.close(fd)
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_end_to_end():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # About 1 MB of JSON, far more than a pipe buffer holds.
    proc = subprocess.Popen(
        [sys.executable, "-m", "coarseiv", "derive", "--preset", "homocysteine-3",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once it has exited
    assert proc.returncode == 141
    assert err == b""


def test_ci_requires_seed_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ci", "--preset", "peanut-ternary", "--method", "percentile"])
    assert exc.value.code == 2


def test_unknown_reproduce_example_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "lipids"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "coarseiv" in capsys.readouterr().out


# -- ci -------------------------------------------------------------------------------


def test_ci_percentile_document_and_determinism(capsys):
    argv = (
        "ci", "--preset", "peanut-ternary", "--method", "percentile",
        "--bootstrap", "25", "--seed", "31",
    )
    doc = run_json(capsys, *argv)
    res = doc["results"]
    assert res["method"] == "percentile"
    assert res["point"]["lower"]["exact"] == PEANUT_LOWER
    assert res["point"]["upper"]["exact"] == PEANUT_UPPER
    assert res["replicates"] == 25
    assert res["seed"] == 31
    assert res["tail_mode"] == "pointwise"
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_ci_m_out_of_n_reports_resample_size(capsys):
    doc = run_json(
        capsys,
        "ci", "--preset", "peanut-risk", "--method", "mn",
        "--bootstrap", "20", "--seed", "8",
    )
    res = doc["results"]
    assert res["method"] == "m-out-of-n"
    assert res["m"] == 128
    assert res["m_per_stratum"] == {"avoid": 64, "consume": 64}


def test_ci_multinomial_on_summary_preset(capsys):
    doc = run_json(
        capsys,
        "ci", "--preset", "homocysteine-3", "--method", "multinomial",
        "--bootstrap", "20", "--seed", "9",
    )
    assert doc["results"]["method"] == "parametric-multinomial"


# -- derive ---------------------------------------------------------------------------


def test_derive_text_latex_json(capsys):
    code, out, _ = run_cli(capsys, "derive", "--preset", "peanut-ternary")
    assert code == 0
    assert out.startswith("lower bound = max of 10 terms:")
    assert "min of 10 terms" in out

    code, out, _ = run_cli(
        capsys, "derive", "--preset", "peanut-ternary", "--format", "latex"
    )
    assert code == 0
    assert "\\cdot" in out

    doc = run_json(
        capsys, "derive", "--preset", "peanut-ternary", "--format", "json"
    )
    lower = doc["results"]["lower"]["terms"]
    assert len(lower) == 10
    assert {"constant", "cells", "rendered"} <= set(lower[0])


# SHA-256 of `dump-lp --preset P` stdout.  The per-type columns and objective
# it prints are enumerated apart from the engine's LP, so they must not move.
DUMP_LP_SHA256 = {
    "homocysteine-3": "bfac6dfd2ce482b1647393e366cc14ed35f6e3cea0ea10fb81011d2a02668cf2",
    "peanut-ternary": "223482aee65bd182a2acecedcd653f0a6f809e26abda0e3b0c33260b8d18e9db",
}


@pytest.mark.parametrize("preset", sorted(DUMP_LP_SHA256))
def test_dump_lp_is_byte_identical(capsys, preset):
    code, out, err = run_cli(capsys, "dump-lp", "--preset", preset)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_LP_SHA256[preset]


# SHA-256 of `derive --preset P --format json` stdout: the enumeration may get
# faster, but the terms, facts and their order must not change.
DERIVE_JSON_SHA256 = {
    "homocysteine-3": "3a7b8c2cc9f4b5352fa614132029b920659a5ee22368a20d1e4b2d5a18202248",
    "homocysteine-4": "f82cd582303dc1fb2f3bb2005b87e4063b08331416362dc785b6e9c4c6647be7",
    "peanut-ternary": "8246dba76143fa1e0707e2cc74b696d2cfb267b82a464d67728ec068619aea0c",
    "peanut-risk": "27df78a955be6cb85307a919bd06ece34119a7684263d1db5a40d3ad71e55284",
}


@pytest.mark.parametrize("preset", sorted(DERIVE_JSON_SHA256))
def test_derive_json_is_byte_identical(capsys, preset):
    code, out, err = run_cli(capsys, "derive", "--preset", preset, "--format", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_JSON_SHA256[preset]


# -- verify ---------------------------------------------------------------------------


def test_verify_validity_suite_quick(capsys):
    doc = run_json(
        capsys,
        "verify", "--preset", "peanut-ternary", "--suite", "validity",
        "--trials", "5", "--seed", "14",
    )
    assert doc["results"]["validity"]["passed"] is True
    assert doc["results"]["passed"] is True


def test_verify_collapse_suite(capsys):
    doc = run_json(
        capsys,
        "verify", "--preset", "peanut-ternary", "--suite", "collapse",
        "--trials", "1", "--seed", "1",
    )
    rows = doc["results"]["collapse"]["rows"]
    assert rows[-1]["ternary"]["lower"]["exact"] == "0/1"
    assert rows[-1]["ternary"]["upper"]["exact"] == "0/1"
    assert doc["results"]["passed"] is True


def test_verify_tightness_suite_reports_certificate_counts(capsys):
    doc = run_json(
        capsys,
        "verify", "--preset", "peanut-risk", "--suite", "tightness",
        "--trials", "3", "--seed", "7",
    )
    tightness = doc["results"]["tightness"]
    assert set(tightness) == {
        "trials", "seed", "n_certificates", "n_certificate_failures",
        "failures", "passed",
    }
    assert tightness["n_certificates"] == 12
    assert tightness["n_certificate_failures"] == 0
    assert tightness["passed"] is True


# SHA-256 of stdout for commands whose warm re-solves miss the basis cache and
# run the dual simplex: its start may change the pivots, never the document.
WARM_MISS_SHA256 = {
    "verify --preset homocysteine-3 --suite validity --trials 20 --seed 1":
        "f4484c3b03199a9ea61422b820aab617ad9c4c63250d71bdcd313971a30bbae5",
    "verify --preset homocysteine-3 --suite equivalences --trials 3 --seed 1":
        "7b37b617de2e47e8a5f41830df0ed03b581a10cb4dadb148b11570c055895529",
    "ci --preset homocysteine-3 --method multinomial --bootstrap 200 --seed 1":
        "10913f3650d3a95886ae649559438bd56d3676f31b5ff8c80e0a4fd1f299f8c2",
}


@pytest.mark.parametrize("command", sorted(WARM_MISS_SHA256))
def test_warm_resolve_documents_are_byte_identical(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == WARM_MISS_SHA256[command]


# SHA-256 of `ci` stdout for every bootstrap method: the order in which the
# replicate tables are solved may change, never the document.
CI_SHA256 = {
    "ci --preset peanut-ternary --method percentile --bootstrap 300 --seed 3":
        "01d7030af15ff4a4aac990515d5dcca0dcdae96e6c6c37f9f47744c190146394",
    "ci --preset peanut-risk --method mn --bootstrap 300 --seed 4":
        "6eb1b03130e3cdba7fe2c8d85091d548446ed2b66a36f6baad6079c637f1d89e",
    "ci --preset peanut-risk --method mn --m-rule grid --bootstrap 300 --seed 5":
        "ac9c18cd41b40dd9857f52d47887e1c94adf50d7681a12cf3affcaa055bb1fc8",
    "ci --preset homocysteine-4 --method multinomial --bootstrap 300 --seed 2":
        "11a71844d81e9d5786c2641c620ceb85cfc125aa6d6a879b6e4c0c53dccb74fe",
}


@pytest.mark.parametrize("command", sorted(CI_SHA256))
def test_ci_documents_are_byte_identical(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CI_SHA256[command]


# SHA-256 of `reproduce` stdout: the published-number comparison, with its
# three bootstrap CIs at 2000 replicates, is promised byte for byte.
REPRODUCE_SHA256 = {
    "reproduce peanut":
        "68942caa4bd1c45b9e9161e68f100a423fb62dd4d0178b066fb74ac39da6bc5a",
    "reproduce homocysteine":
        "12a964e20830188a99322a44034a1ecfc33164802223adebd8557d250f7d558d",
}


@pytest.mark.parametrize("command", sorted(REPRODUCE_SHA256))
def test_reproduce_documents_are_byte_identical(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_SHA256[command]


# Records whose every resample nearly always violates the instrument
# inequalities (as INCOMPATIBLE_RECORDS in test_inference.py).
INCOMPATIBLE_CSV = "z,x_star,y\n" + "z0,a,0\n" * 8 + "z1,a,1\nz1,a,1\nz1,b,0\nz1,b,0\n"
SCENARIO_A_B = SCENARIO_AB.replace("lo", "a").replace("hi", "b")


def test_ci_document_with_slack_rescues_is_pinned(capsys, monkeypatch, tmp_path):
    # The CLI aborts past 10% rescued replicates; lift the threshold so the
    # document, its rescue count and its slack warning are all hashed.
    monkeypatch.setattr(
        cli, "BootstrapSpec", functools.partial(BootstrapSpec, max_infeasible_fraction=1.0)
    )
    records, scenario = tmp_path / "records.csv", tmp_path / "scenario.yaml"
    records.write_text(INCOMPATIBLE_CSV, encoding="utf-8")
    scenario.write_text(SCENARIO_A_B, encoding="utf-8")
    doc = run_json(
        capsys, "ci", "--records", str(records), "--scenario", str(scenario),
        "--method", "percentile", "--bootstrap", "300", "--seed", "7",
    )
    assert doc["results"]["n_infeasible"] == 276
    assert any("SLACK PROJECTION APPLIED" in w for w in doc["results"]["warnings"])
    del doc["config_echo"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "ccce712a07a68623695c836e8d10a1713119e86fb813357b137cb8e8dc288b05"


# SHA-256 of stdout for `verify` runs over every suite: each trial's draw, and
# so each document, depends only on the seed and the trial index.
VERIFY_SHA256 = {
    "verify --preset homocysteine-3 --suite all --trials 20 --seed 1":
        "4d7999164ce7394e5cd8a4528454501a169213d9acf6e3413bafb50ed93235bc",
    "verify --preset peanut-ternary --suite all --trials 30 --seed 5":
        "eadf12402a791d16d3ad9331b765c46ba986099b6d9f00528388a9167287cd88",
    "verify --preset peanut-risk --suite all --trials 30 --seed 6":
        "92317fa7109446269ef38b2729e0248026d2aeafc117103ba857da57566105ba",
    "verify --preset homocysteine-3 --suite tightness --trials 8 --seed 1":
        "e81eb8bc07e00c6b2a18530151288f163335cd57e28cec23e2c8de13d7685ae6",
}


@pytest.mark.parametrize("command", sorted(VERIFY_SHA256))
def test_verify_documents_are_byte_identical(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[command]


def _shift_lower(monkeypatch, shift=Fraction(1, 720)):
    # Validity and the equivalences read the batch, tightness reads solve_b.
    solve_b, solve_batch = BoundsSolver.solve_b, BoundsSolver.solve_batch

    def shifted(self, *args, **kwargs):
        res = solve_b(self, *args, **kwargs)
        return dataclasses.replace(res, lower=res.lower + shift)

    def shifted_batch(self, B, scale):
        lowers, uppers, rescued = solve_batch(self, B, scale)
        return [v + shift for v in lowers], uppers, rescued

    monkeypatch.setattr(BoundsSolver, "solve_b", shifted)
    monkeypatch.setattr(BoundsSolver, "solve_batch", shifted_batch)


def test_verify_document_with_a_shifted_bound_is_pinned(capsys, monkeypatch):
    # Its failure records carry the trial and the values drawn for it.
    _shift_lower(monkeypatch)
    code, out, err = run_cli(
        capsys, *"verify --preset homocysteine-3 --suite all --trials 6 --seed 4".split()
    )
    assert code == 1, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "432a55a3998ab9653a46cbaa929cb98e959074ff46b3afc3723ff9960bcb6b01"
    )


def test_verify_failure_records_do_not_depend_on_the_trial_count(capsys, monkeypatch):
    # Trial t draws the same model whatever the number of trials.
    _shift_lower(monkeypatch)
    monkeypatch.setattr(oracle, "_MAX_FAILURES", 100)

    def failures(trials):
        code, out, err = run_cli(
            capsys, "verify", "--preset", "homocysteine-3", "--suite", "all",
            "--trials", str(trials), "--seed", "4",
        )
        assert code == 1, err
        res = json.loads(out)["results"]
        sections = [res["validity"], res["tightness"], *res["equivalences"]["families"]]
        return [[f for f in s["failures"] if f["trial"] < 5] for s in sections]

    short = failures(5)
    assert sum(map(len, short)) >= 10
    assert failures(12) == short


def test_verify_tightness_fails_on_an_engine_infeasibility(capsys, monkeypatch):
    # A sampled table is feasible by construction: an infeasibility verdict
    # on it is a failed audit (exit 1), not infeasible data (exit 3).  The
    # batch hands the faulty rows back as rescued and solve_b raises on them.
    solve_b, solve_batch = BoundsSolver.solve_b, BoundsSolver.solve_batch

    def faulty(self, b, *args, **kwargs):
        if b[0] % 2:
            raise InfeasibleDistribution({"normalization": Fraction(1)}, Fraction(1))
        return solve_b(self, b, *args, **kwargs)

    def faulty_batch(self, B, scale):
        lowers, uppers, rescued = solve_batch(self, B, scale)
        return lowers, uppers, [r or bool(b0 % 2) for r, b0 in zip(rescued, B[:, 0].tolist())]

    monkeypatch.setattr(BoundsSolver, "solve_b", faulty)
    monkeypatch.setattr(BoundsSolver, "solve_batch", faulty_batch)
    for suite in ("validity", "tightness"):
        code, out, err = run_cli(
            capsys, "verify", "--preset", "homocysteine-3", "--suite", suite,
            "--trials", "6", "--seed", "1",
        )
        assert code == 1, err
        section = json.loads(out)["results"][suite]
        assert section["passed"] is False
        assert {"trial", "error", "q_parts"} <= set(section["failures"][0])


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


# -- dump-lp --------------------------------------------------------------------------


def test_dump_lp_document(capsys):
    doc = run_json(capsys, "dump-lp", "--preset", "peanut-ternary")
    lp = doc["results"]["lp"]
    assert lp["rows"][-1] == "normalization"
    assert doc["diagnostics"]["n_rows"] == 13
    assert doc["results"]["rhs"] is not None
    assert len(doc["results"]["rhs"]) == 13


# -- the JSON emitter -----------------------------------------------------------------


def _emitted(doc) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(doc)
    return out.getvalue()


_EMIT_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16])
_EMIT_INTS = st.integers() | st.integers(2**64, 2**90) | st.integers(-(2**90), -(2**64))
_EMIT_TEXT = st.text() | st.text(st.characters(max_codepoint=0x1F) | st.sampled_from("\"\\é€😀"))
_EMIT_LEAVES = st.none() | st.booleans() | _EMIT_INTS | _EMIT_FLOATS | _EMIT_TEXT
# The keys of one dict are of one kind, or json.dumps cannot sort them.
_EMIT_KEYS = st.sampled_from(
    [_EMIT_TEXT, _EMIT_INTS | _EMIT_FLOATS | st.booleans(), st.none()]
)


# A leaf: a non-empty dict whose values are all scalars.
_EMIT_LEAF_DICTS = _EMIT_KEYS.flatmap(
    lambda keys: st.dictionaries(keys, _EMIT_LEAVES, min_size=1, max_size=4)
)


def _emit_containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | _EMIT_KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4))
        # One sub-document shared by several parents.
        | st.tuples(children, st.integers(2, 3)).map(lambda t: {str(k): t[0] for k in range(t[1])})
        # One leaf dict object at two depths and twice in one list.
        | st.tuples(_EMIT_LEAF_DICTS, children).map(
            lambda t: {"a": t[0], "b": [t[0], t[1], t[0]], "c": {"d": t[0]}}
        )
    )


_EMIT_EDGES = {
    "empty": [{}, [], (), ""],
    "text": ["é€\U0001F600", "\x00\x1f\t\n\"\\"],
    "floats": [math.nan, math.inf, -math.inf, -0.0, 1e16, 0.1],
    "ints": [2**64 + 1, -(2**70)],
    "true next to one": [True, 1, 1.0, False, 0, None],
    "keys": [{1: "a", 2.5: "b", True: "c"}, {None: 0}, {False: 1, -3: 2, math.inf: 3}],
}


@settings(max_examples=200, deadline=None)
@given(st.recursive(_EMIT_LEAVES, _emit_containers, max_leaves=30))
@example(_EMIT_EDGES)
@example({"a": _EMIT_EDGES["keys"], "b": [_EMIT_EDGES["keys"]] * 2})
def test_emit_matches_json_dumps(doc):
    assert _emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_emit_reuses_a_leaf_at_each_depth():
    # The way a derive document shares one number dict among its terms.
    leaf = {"exact": "1/2", "float": 0.5, "display": "0.50"}
    doc = {"a": leaf, "b": [leaf, {"c": leaf, "d": [leaf, leaf, leaf]}, leaf], "e": {"f": leaf}}
    assert _emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # The texts are kept for one call only.
    leaf["float"] = 0.25
    assert _emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc", [{"a": {1, 2}}, {"a": [Fraction(1, 2)]}, Fraction(1), {(1, 2): 0}],
    ids=["set", "fraction", "top-level", "tuple key"],
)
def test_emit_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _emitted(doc)


def test_emit_streams_a_large_document():
    doc = {"rows": [{"k": k, "v": "x" * 40} for k in range(12_000)]}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(text) > 10**6

    class Writes(io.StringIO):
        def write(self, s):
            sizes.append(len(s))
            return super().write(s)

    sizes: list[int] = []
    with contextlib.redirect_stdout(Writes()) as out:
        cli._emit(doc)
    assert out.getvalue() == text
    assert len(sizes) > 1
    assert max(sizes) < len(text) // 4

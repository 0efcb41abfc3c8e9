"""The benchmark's workloads: seeded command lists and their output checks.

Four workloads exercise the CLI: `resample` (bootstrap CIs), `audit` (the
verification oracle), `point` (one-shot bounds) and `derive` (symbolic
derivation); see README.md for why each was chosen.

A command's `check` receives the parsed JSON document the command printed,
raises `CheckFailed` when the document is wrong, and returns the units of
work the command completed: a bootstrap replicate on `resample`, an oracle
trial on `audit`, a `bounds` call on `point`, and a derived term or
feasibility fact on `derive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from coarseiv.bounds import single_level_term_sets, ternary_term_sets
from coarseiv.datasets import (
    PEANUT_INSTRUMENTS,
    PEANUT_LEVELS,
    PEANUT_RISK_LEVELS,
    REPORTED,
    scenario_preset,
)
from coarseiv.symbolic import SymbolicBoundSet, Term, term_sets_equal

import point_inputs


class CheckFailed(Exception):
    """A command printed a wrong result."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[dict], int]


# Exact LP bounds at the embedded presets (peanut-ternary is the paper's
# -0.16, 0.16 and homocysteine-3 its -0.62, 0.81).
POINT_BOUNDS = {
    "peanut-ternary": (Fraction(-5073, 31720), Fraction(10, 61)),
    "peanut-risk": (Fraction(48, 319), Fraction(64, 319)),
    "homocysteine-3": (Fraction(-70877, 114380), Fraction(28753, 35604)),
}

REPLICATES = 2000
# (--method, preset, published CI, tolerance `reproduce` allows around it)
CI_RUNS = (
    ("multinomial", "homocysteine-3", REPORTED["homocysteine"]["multinomial_ci"], Fraction(2, 100)),
    ("percentile", "peanut-ternary", REPORTED["peanut"]["percentile_ci"], Fraction(2, 100)),
    ("mn", "peanut-risk", REPORTED["peanut"]["risk_mn_ci"], Fraction(3, 100)),
)

DERIVE_PRESETS = ("peanut-ternary", "peanut-risk", "homocysteine-3")
HOMOCYSTEINE_3_TERMS = 165  # per direction

AUDIT_PRESET = "homocysteine-3"
AUDIT_SUITES = (("validity", 200), ("tightness", 8), ("equivalences", 10))  # (suite, trials)

SLACK_NOTE = "SLACK PROJECTION APPLIED"

# Spans the traced run must record on each workload (span names as in spans.py).
EXPECTED_SPANS = {
    "resample": (
        "exactlp.resolve_b",
        "bounds.solve_b",
        "inference.parametric_multinomial_ci",
        "inference.percentile_ci",
        "inference.m_out_of_n_ci",
        "data.tabulate",
        "data.expand_records",
    ),
    "audit": (
        "exactlp.resolve_b",
        "exactlp.solve",
        "oracle.check_validity",
        "oracle.check_tightness",
        "oracle.check_equivalences",
    ),
    "point": (
        "data.load_summary",
        "data.load_scenario",
        "response.build_constraint_system",
        "bounds.merge_columns",
        "bounds.numeric_bounds",
        "bounds.project_slack",
        "exactlp.solve",
    ),
    "derive": ("symbolic.derive_symbolic",),
}


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _interval(doc: dict) -> tuple[Fraction, Fraction]:
    return Fraction(doc["lower"]["exact"]), Fraction(doc["upper"]["exact"])


# -- resample -----------------------------------------------------------------------


def _check_ci(preset: str, published, tolerance: Fraction, doc: dict) -> int:
    res = doc["results"]
    _expect(
        _interval(res["point"]) == POINT_BOUNDS[preset],
        f"{preset}: point bounds {_interval(res['point'])} != {POINT_BOUNDS[preset]}",
    )
    ci = _interval(res["ci"])
    _expect(
        all(abs(c - p) <= tolerance for c, p in zip(ci, published)),
        f"{preset}: CI {ci} outside {tolerance} of the published {published}",
    )
    _expect(res["replicates"] == REPLICATES, f"{preset}: {res['replicates']} replicates")
    return res["replicates"]


def resample(seed: int, workdir: str) -> list[Command]:
    return [
        Command(
            ("ci", "--preset", preset, "--method", method,
             "--bootstrap", str(REPLICATES), "--seed", str(seed)),
            partial(_check_ci, preset, published, tolerance),
        )
        for method, preset, published, tolerance in CI_RUNS
    ]


# -- derive -------------------------------------------------------------------------


def _bound_set(doc: dict, direction: str, scenario) -> SymbolicBoundSet:
    terms = tuple(
        Term(
            constant=Fraction(t["constant"]["exact"]),
            coeffs=tuple(
                ((c["z"], c["x"], c["y"]), Fraction(c["coefficient"]["exact"]))
                for c in t["cells"]
            ),
        )
        for t in doc["results"][direction]["terms"]
    )
    return SymbolicBoundSet(
        direction=direction,
        terms=terms,
        provenance="derived",
        instrument_levels=scenario.instrument_levels,
        exposure_levels=scenario.level_labels(),
        estimand=scenario.estimand,
    )


def _transcribed(preset: str):
    if preset == "peanut-ternary":
        return ternary_term_sets(
            PEANUT_INSTRUMENTS, ">=6g", "<0.2g", "0.2-6g", levels=PEANUT_LEVELS
        )
    if preset == "peanut-risk":
        return single_level_term_sets(PEANUT_INSTRUMENTS, "<0.2g", levels=PEANUT_RISK_LEVELS)
    return None


def _check_derive(preset: str, doc: dict) -> int:
    dist, scenario = scenario_preset(preset)
    lower = _bound_set(doc, "lower", scenario)
    upper = _bound_set(doc, "upper", scenario)
    transcribed = _transcribed(preset)
    if transcribed is not None:
        _expect(
            term_sets_equal(lower, transcribed[0]) and term_sets_equal(upper, transcribed[1]),
            f"{preset}: derived term sets differ from the transcribed closed form",
        )
    else:
        counts = (len(lower.terms), len(upper.terms))
        _expect(
            counts == (HOMOCYSTEINE_3_TERMS, HOMOCYSTEINE_3_TERMS),
            f"{preset}: {counts} terms, expected {HOMOCYSTEINE_3_TERMS} each",
        )
    bounds = (lower.evaluate(dist), upper.evaluate(dist))
    _expect(
        bounds == POINT_BOUNDS[preset],
        f"{preset}: derived terms evaluate to {bounds}, not {POINT_BOUNDS[preset]}",
    )
    res = doc["results"]
    return sum(len(res[d][k]) for d in ("lower", "upper") for k in ("terms", "feasibility_facts"))


def derive(seed: int, workdir: str) -> list[Command]:
    """Deterministic: the seed has no effect."""
    return [
        Command(("derive", "--preset", preset, "--format", "json"), partial(_check_derive, preset))
        for preset in DERIVE_PRESETS
    ]


# -- audit --------------------------------------------------------------------------


def _check_verify(suite: str, trials: int, doc: dict) -> int:
    res = doc["results"]
    _expect(res[suite]["passed"] is True and res["passed"] is True, f"verify {suite} failed")
    _expect(res[suite]["trials"] == trials, f"verify {suite}: {res[suite]['trials']} trials")
    return trials


def audit(seed: int, workdir: str) -> list[Command]:
    return [
        Command(
            ("verify", "--preset", AUDIT_PRESET, "--suite", suite,
             "--trials", str(trials), "--seed", str(seed)),
            partial(_check_verify, suite, trials),
        )
        for suite, trials in AUDIT_SUITES
    ]


# -- point --------------------------------------------------------------------------


def _check_point(case: point_inputs.PointCase, doc: dict) -> int:
    res = doc["results"]
    lower, upper = _interval(res["lp"])
    where = case.scenario_path
    _expect(lower <= upper, f"{where}: crossed bounds {lower} > {upper}")
    slack = any(note.startswith(SLACK_NOTE) for note in res["lp"]["notes"])
    _expect(slack == case.incompatible, f"{where}: slack applied {slack}, expected {case.incompatible}")
    if case.incompatible:
        return 1
    _expect(
        lower <= case.true_value <= upper,
        f"{where}: generating value {case.true_value} outside [{lower}, {upper}]",
    )
    cf = res["closed_form"]
    if cf is not None:
        if cf["expected_tight"]:
            _expect(res["agreement"] is True, f"{where}: {cf['form']} closed form disagrees with the LP")
        else:
            cf_lower, cf_upper = _interval(cf)
            _expect(
                cf_lower <= lower and upper <= cf_upper,
                f"{where}: LP interval not inside the {cf['form']} closed form",
            )
    return 1


def point(seed: int, workdir: str) -> list[Command]:
    return [
        Command(
            ("bounds", "--scenario", case.scenario_path, "--summary", case.summary_path, "--slack"),
            partial(_check_point, case),
        )
        for case in point_inputs.generate(seed, workdir)
    ]


WORKLOADS = {"resample": resample, "audit": audit, "point": point, "derive": derive}

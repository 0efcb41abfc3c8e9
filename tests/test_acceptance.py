"""End-to-end acceptance checks: one test per shipped guarantee.

Each test either pins a published example value at a fixed tolerance or
replays a large randomized audit against the independent oracle, and
asserts a wall-clock budget so the suite stays runnable.  The expensive
randomized reports are computed once per module (module-scoped fixtures)
and shared by every test that consumes them; the runtime budget of a
shared report is charged to the test that states it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from coarseiv import datasets
from coarseiv.bounds import (
    classic_term_sets,
    numeric_bounds,
    single_level_term_sets,
    ternary_term_sets,
)
from coarseiv.data import Estimand, ExposureLevel, Scenario
from coarseiv.inference import (
    BootstrapSpec,
    m_out_of_n_ci,
    parametric_multinomial_ci,
    percentile_ci,
)
from coarseiv.oracle import (
    check_equivalences,
    check_tightness,
    check_validity,
    contamination_collapse,
)
from coarseiv.response import build_constraint_system
from coarseiv.symbolic import derive_symbolic, term_sets_equal

Z2 = ("z0", "z1")

# Published targets and the tolerances at which this package promises them.
BOUND_TOL = Fraction(1, 200)  # +/- 0.005 on exact point bounds
PEANUT_CI_TOL = Fraction(2, 100)  # +/- 0.02 on the percentile CI
RISK_CI_TOL = Fraction(3, 100)  # +/- 0.03 on the m-out-of-n CI
HOMO_CI_TOL = Fraction(2, 100)  # +/- 0.02 on the multinomial CI

PEANUT_TARGET = (Fraction("-0.16"), Fraction("0.16"))
PEANUT_RISK_TARGET = (Fraction("0.15"), Fraction("0.20"))
PEANUT_PCTL_TARGET = (Fraction("-0.20"), Fraction("0.21"))
PEANUT_MN_TARGET = (Fraction("0.05"), Fraction("0.29"))
HOMO_TARGET = (Fraction("-0.62"), Fraction("0.81"))
HOMO_CI_TARGET = (Fraction("-0.67"), Fraction("0.83"))

ORACLE_TRIALS = 1000
REPLICATES = 2000


def _assert_close(pair, target, tol) -> None:
    lower, upper = pair
    t_lower, t_upper = target
    assert abs(lower - t_lower) <= tol, f"lower {float(lower):.4f} vs {float(t_lower):.2f}"
    assert abs(upper - t_upper) <= tol, f"upper {float(upper):.4f} vs {float(t_upper):.2f}"


def _bounds(dist, scenario, **caps):
    result = numeric_bounds(build_constraint_system(scenario), dist, **caps)
    return result.lower, result.upper


def _two_clean_risk_scenario() -> Scenario:
    """Two clean levels with a single-risk estimand.

    Here the two-term closed form is conservative, so its audit exercises
    strict containment of the sharp LP interval rather than equality.
    """
    return Scenario(
        instrument_levels=Z2,
        levels=(ExposureLevel("x"), ExposureLevel("xp")),
        estimand=Estimand(kind="counterfactual_risk", x="x"),
    )


BATTERY = (
    ("peanut-ternary", datasets.peanut_scenario("clean")),
    ("peanut-risk", datasets.peanut_risk_scenario()),
    ("two-clean-risk", _two_clean_risk_scenario()),
    ("homocysteine-3", datasets.homocysteine_scenario(3)),
)


@pytest.fixture(scope="module")
def validity_reports():
    out = {}
    for i, (name, scenario) in enumerate(BATTERY):
        start = time.monotonic()
        report = check_validity(scenario, trials=ORACLE_TRIALS, seed=52000 + i)
        out[name] = (report, time.monotonic() - start)
    return out


@pytest.fixture(scope="module")
def tightness_reports():
    out = {}
    for i, (name, scenario) in enumerate(BATTERY):
        start = time.monotonic()
        report = check_tightness(scenario, trials=ORACLE_TRIALS, seed=62000 + i)
        out[name] = (report, time.monotonic() - start)
    return out


@pytest.fixture(scope="module")
def equivalence_report():
    start = time.monotonic()
    report = check_equivalences(ORACLE_TRIALS, seed=72001)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def collapse_report():
    start = time.monotonic()
    return contamination_collapse(), time.monotonic() - start


@pytest.fixture(scope="module")
def peanut_cis():
    start = time.monotonic()
    pct = percentile_ci(
        datasets.peanut_records(),
        datasets.peanut_scenario("clean"),
        BootstrapSpec(replicates=REPLICATES, seed=datasets.REPRODUCE_SEED),
    )
    mn = m_out_of_n_ci(
        datasets.peanut_risk_records(),
        datasets.peanut_risk_scenario(),
        BootstrapSpec(replicates=REPLICATES, seed=datasets.REPRODUCE_SEED),
    )
    return pct, mn, time.monotonic() - start


def test_criterion_1_peanut_contrast_bounds_for_every_scenario_reading():
    start = time.monotonic()
    dist = datasets.peanut_distribution()
    intervals = [
        _bounds(dist, datasets.peanut_scenario(variant))
        for variant in ("clean", "ill-defining", "contaminated")
    ]
    for interval in intervals:
        _assert_close(interval, PEANUT_TARGET, BOUND_TOL)
    # The three readings of the middle dose agree to the exact rational.
    assert intervals[0] == intervals[1] == intervals[2]
    assert time.monotonic() - start < 1.0


def test_criterion_2_peanut_counterfactual_risk_bounds():
    start = time.monotonic()
    interval = _bounds(datasets.peanut_risk_distribution(), datasets.peanut_risk_scenario())
    _assert_close(interval, PEANUT_RISK_TARGET, BOUND_TOL)
    assert time.monotonic() - start < 1.0


def test_criterion_3_peanut_bootstrap_confidence_intervals(peanut_cis):
    pct, mn, elapsed = peanut_cis
    assert pct.replicates >= 2000 and mn.replicates >= 2000
    _assert_close((pct.ci_lower, pct.ci_upper), PEANUT_PCTL_TARGET, PEANUT_CI_TOL)
    _assert_close((mn.ci_lower, mn.ci_upper), PEANUT_MN_TARGET, RISK_CI_TOL)
    assert elapsed < 120.0


def test_criterion_4_homocysteine_bounds_and_confidence_interval():
    start = time.monotonic()
    three = _bounds(datasets.homocysteine_distribution(3), datasets.homocysteine_scenario(3))
    four = _bounds(datasets.homocysteine_distribution(4), datasets.homocysteine_scenario(4))
    _assert_close(three, HOMO_TARGET, BOUND_TOL)
    assert three == four  # coarsening-invariance of the exact interval
    ci = parametric_multinomial_ci(
        datasets.homocysteine_distribution(3),
        datasets.homocysteine_scenario(3),
        BootstrapSpec(replicates=REPLICATES, seed=datasets.REPRODUCE_SEED),
    )
    assert ci.replicates >= 2000
    _assert_close((ci.ci_lower, ci.ci_upper), HOMO_CI_TARGET, HOMO_CI_TOL)
    assert time.monotonic() - start < 120.0


def test_criterion_5_closed_forms_equal_lp_on_random_distributions(
    validity_reports, equivalence_report
):
    # Ten-term contrast form: audited as exactly equal to the LP on every
    # random draw inside the all-clean three-level validity run.
    ternary_report, ternary_elapsed = validity_reports["peanut-ternary"]
    assert "closed-form:classic-contains-ternary" in ternary_report.audits
    assert ternary_report.trials >= 1000
    assert ternary_report.n_closed_form_violations == 0

    # Two-term single-risk form: exactly equal to the LP when the companion
    # level is instrument-dependent (the scenario where it is sharp).
    risk_report, risk_elapsed = validity_reports["peanut-risk"]
    assert "closed-form:single-level-contains-lp" in risk_report.audits
    assert risk_report.trials >= 1000
    assert risk_report.n_closed_form_violations == 0

    # Eight-term contrast form and two-term form again, compared to the LP
    # per-trial inside the scenario-family audit (exact equality required).
    equiv, equiv_elapsed = equivalence_report
    by_name = {f.name: f for f in equiv.families}
    for name in ("two-level-IV contrast", "two-level-IV single risk"):
        family = by_name[name]
        assert family.trials >= 1000
        assert family.n_mismatches == 0

    assert ternary_elapsed + risk_elapsed + equiv_elapsed < 300.0


def test_criterion_6_symbolic_rederivation_matches_transcribed_forms():
    start = time.monotonic()

    all_clean_ternary = Scenario(
        instrument_levels=Z2,
        levels=(ExposureLevel("x"), ExposureLevel("xp"), ExposureLevel("xo")),
        estimand=Estimand(kind="risk_difference", x="x", x_prime="xp"),
    )
    lower, upper = derive_symbolic(build_constraint_system(all_clean_ternary))
    t_lower, t_upper = ternary_term_sets(Z2, "x", "xp", "xo", levels=("x", "xp", "xo"))
    assert term_sets_equal(lower, t_lower) and term_sets_equal(upper, t_upper)

    classic = Scenario(
        instrument_levels=Z2,
        levels=(ExposureLevel("x"), ExposureLevel("xp")),
        estimand=Estimand(kind="risk_difference", x="x", x_prime="xp"),
    )
    lower, upper = derive_symbolic(build_constraint_system(classic))
    t_lower, t_upper = classic_term_sets(Z2, "x", "xp")
    assert term_sets_equal(lower, t_lower) and term_sets_equal(upper, t_upper)

    single = Scenario(
        instrument_levels=Z2,
        levels=(
            ExposureLevel("x"),
            ExposureLevel("m", well_defining=False, z_dependent=True),
        ),
        estimand=Estimand(kind="counterfactual_risk", x="x"),
    )
    lower, upper = derive_symbolic(build_constraint_system(single))
    t_lower, t_upper = single_level_term_sets(Z2, "x", levels=("x", "m"))
    assert term_sets_equal(lower, t_lower) and term_sets_equal(upper, t_upper)

    assert time.monotonic() - start < 300.0


def test_criterion_7_scenario_family_equivalences(equivalence_report):
    equiv, elapsed = equivalence_report
    assert equiv.trials >= 1000
    names = [f.name for f in equiv.families]
    assert names == [
        "two-level-IV contrast",
        "two-level-IV single risk",
        "three-level-IV two clean levels",
        "three-level-IV three clean levels",
    ]
    for family in equiv.families:
        # Identical constraint payloads for the two readings of the extra level.
        assert family.bit_identical, family.name
        # Exact numeric agreement across the family on every random draw.
        assert family.n_mismatches == 0, family.name
        assert family.failures == (), family.name
    # Term-set agreement is derivable only under a two-valued instrument.
    by_name = {f.name: f for f in equiv.families}
    assert by_name["two-level-IV contrast"].symbolic_equal is True
    assert by_name["two-level-IV single risk"].symbolic_equal is True
    assert equiv.passed
    assert elapsed < 600.0


def test_criterion_8_validity_tightness_and_collapse_oracle(
    validity_reports, tightness_reports, collapse_report
):
    total = 0.0
    for name, _ in BATTERY:
        validity, v_elapsed = validity_reports[name]
        assert validity.trials >= 1000
        assert validity.n_validity_violations == 0, (name, validity.failures[:2])
        assert validity.n_nesting_violations == 0, (name, validity.failures[:2])
        assert validity.passed, name

        tightness, t_elapsed = tightness_reports[name]
        assert tightness.trials >= 1000
        # Primal and dual on both sides: by weak duality the four prove the
        # interval sharp, so no feasible model can leave it.
        assert tightness.n_certificates == 4 * tightness.trials, name
        assert tightness.n_certificate_failures == 0, (name, tightness.failures[:2])
        assert tightness.passed, name
        total += v_elapsed + t_elapsed

    collapse, c_elapsed = collapse_report
    assert collapse["passed"]
    final = next(r for r in collapse["rows"] if r["epsilon"] == 0)
    # Full contamination: the misspecified ten-term interval pinches to a
    # point while the eight-term interval stays wide.
    assert final["ternary"] == (Fraction(0), Fraction(0))
    assert final["classic"][1] - final["classic"][0] >= Fraction(1, 2)
    assert total + c_elapsed < 600.0


def test_criterion_9_interval_containment_ordering(validity_reports):
    # Eight-term intervals contain ten-term intervals: audited per trial in
    # the all-clean three-level validity run.
    ternary_report, _ = validity_reports["peanut-ternary"]
    assert "closed-form:classic-contains-ternary" in ternary_report.audits
    assert ternary_report.n_closed_form_violations == 0

    # Two-term single-risk intervals contain the sharp two-clean-level LP
    # intervals: audited per trial in the two-clean-risk validity run.
    containment_report, _ = validity_reports["two-clean-risk"]
    assert "closed-form:single-level-contains-lp" in containment_report.audits
    assert containment_report.trials >= 1000
    assert containment_report.n_closed_form_violations == 0

"""Verification oracle: SCM sampling, audits, equivalences, collapse family."""

import dataclasses
from fractions import Fraction

import pytest

from coarseiv.bounds import BoundsSolver, InfeasibleDistribution, numeric_bounds
from coarseiv.data import Estimand, ExposureLevel, InputError, Scenario
from coarseiv.datasets import (
    homocysteine_scenario,
    peanut_distribution,
    peanut_risk_scenario,
    peanut_scenario,
)
from coarseiv.oracle import (
    SIMPLEX_DENOMINATOR,
    _certificate_ok,
    _dual_ok,
    check_equivalences,
    check_tightness,
    check_validity,
    sample_scm,
    contamination_collapse,
)
from coarseiv.response import build_constraint_system


# -- SCM sampling --------------------------------------------------------------------


def test_sample_scm_is_exact_and_deterministic():
    scn = peanut_scenario("clean")
    a = sample_scm(scn, 123)
    b = sample_scm(scn, 123)
    assert a.q == b.q
    assert a.true_value == b.true_value
    assert a.dist.probs == b.dist.probs
    assert sum(a.q) == 1
    assert all(qi.denominator <= SIMPLEX_DENOMINATOR for qi in a.q)
    assert -1 <= a.true_value <= 1
    assert sample_scm(scn, 124).q != a.q


def test_sample_scm_rejects_a_negative_seed():
    with pytest.raises(InputError, match="seed must be non-negative, got -1"):
        sample_scm(peanut_scenario("clean"), -1)


def test_sample_scm_point_mass_hits_a_vertex():
    scn = peanut_scenario("clean")
    scm = sample_scm(scn, 5, point_mass=True)
    assert sorted(scm.q, reverse=True)[0] == 1
    assert sum(1 for qi in scm.q if qi != 0) == 1


def test_sample_scm_truth_is_inside_its_own_bounds():
    scn = peanut_risk_scenario()
    for seed in range(6):
        scm = sample_scm(scn, seed)
        res = numeric_bounds(build_constraint_system(scn), scm.dist)
        assert res.lower <= scm.true_value <= res.upper


# -- validity audit ------------------------------------------------------------------


def test_check_validity_passes_on_the_all_clean_contrast():
    report = check_validity(peanut_scenario("clean"), trials=25, seed=42)
    assert report.passed
    assert report.trials == 25
    assert "matching" in report.audits
    assert "demoted:0.2-6g" in report.audits
    assert "closed-form:classic-contains-ternary" in report.audits
    assert report.failures == ()


def test_check_validity_runs_the_single_risk_audit():
    report = check_validity(peanut_risk_scenario(), trials=25, seed=43)
    assert report.passed
    assert "closed-form:single-level-contains-lp" in report.audits


EIGHT_TERM_LEVEL_SETS = {
    "two levels": (ExposureLevel("x"), ExposureLevel("xp")),
    "ill-defining m": (
        ExposureLevel("x"),
        ExposureLevel("xp"),
        ExposureLevel("m", well_defining=False, z_dependent=True),
    ),
    "instrument-affected m": (
        ExposureLevel("x"),
        ExposureLevel("xp"),
        ExposureLevel("m", well_defining=True, z_dependent=True),
    ),
}


def _eight_term_scenario(levels) -> Scenario:
    return Scenario(
        instrument_levels=("z0", "z1"),
        levels=levels,
        estimand=Estimand(kind="risk_difference", x="x", x_prime="xp"),
    )


@pytest.mark.parametrize("levels", sorted(EIGHT_TERM_LEVEL_SETS))
def test_check_validity_runs_the_eight_term_audit(levels):
    report = check_validity(_eight_term_scenario(EIGHT_TERM_LEVEL_SETS[levels]), 200, seed=44)
    assert "closed-form:classic-equals-lp" in report.audits
    assert report.passed
    assert report.n_closed_form_violations == 0


def _shift_bound(monkeypatch, side, shift=Fraction(1, 720)):
    solve_b = BoundsSolver.solve_b

    def shifted(self, *args, **kwargs):
        res = solve_b(self, *args, **kwargs)
        return dataclasses.replace(res, **{side: getattr(res, side) + shift})

    monkeypatch.setattr(BoundsSolver, "solve_b", shifted)


@pytest.mark.parametrize("levels", sorted(EIGHT_TERM_LEVEL_SETS))
def test_the_eight_term_audit_fails_a_shifted_bound(monkeypatch, levels):
    # The form is sharp here, so an LP bound 1/720 off it is a violation.
    _shift_bound(monkeypatch, "upper", -Fraction(1, 720))
    report = check_validity(_eight_term_scenario(EIGHT_TERM_LEVEL_SETS[levels]), 6, seed=44)
    assert report.passed is False
    assert report.n_closed_form_violations == 6
    record = next(f for f in report.failures if f["audit"] == "closed-form")
    assert set(record) == {"trial", "audit", "kind", "closed_form", "lp", "true"}
    assert record["kind"] == "eight-term"
    assert record["lp"][1] == record["closed_form"][1] - Fraction(1, 720)


def test_the_ten_term_failure_record_carries_the_classic_interval(monkeypatch):
    _shift_bound(monkeypatch, "lower")
    report = check_validity(peanut_scenario("clean"), 3, seed=42)
    assert report.n_closed_form_violations == 3
    record = next(f for f in report.failures if f["audit"] == "closed-form")
    assert record["kind"] == "ten-term"
    assert set(record) == {"trial", "audit", "kind", "closed_form", "lp", "true", "classic"}
    classic = record["classic"]
    assert classic[0] <= record["closed_form"][0] <= record["closed_form"][1] <= classic[1]


def test_check_validity_input_errors():
    with pytest.raises(InputError):
        check_validity(peanut_scenario("clean"), trials=0, seed=1)
    bare = Scenario(
        instrument_levels=("z0", "z1"),
        levels=(ExposureLevel("x"), ExposureLevel("xp")),
    )
    with pytest.raises(InputError):
        check_validity(bare, trials=5, seed=1)


# -- tightness audit -----------------------------------------------------------------


def test_check_tightness_verifies_four_certificates_per_trial():
    report = check_tightness(peanut_scenario("clean"), trials=8, seed=77)
    assert report.passed
    assert report.n_certificates == 32
    assert report.n_certificate_failures == 0
    assert report.failures == ()


@pytest.mark.parametrize("shift", [Fraction(1, 720), Fraction(-1, 720)])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_check_tightness_fails_a_bound_off_the_optimum(monkeypatch, side, shift):
    # A bound moved off the LP optimum breaks both its primal certificate
    # (which no longer attains it) and its dual one (y.b no longer equals it).
    _shift_bound(monkeypatch, side, shift)
    report = check_tightness(homocysteine_scenario(3), trials=8, seed=1)
    assert report.passed is False
    assert report.n_certificates == 32
    assert report.n_certificate_failures == 2 * report.trials
    assert {f["side"] for f in report.failures} == {side}


def _infeasible_on_odd_tables(monkeypatch):
    # Every sampled table is feasible, so an infeasibility verdict is an
    # engine fault.  It fires on tables whose first cell count is odd.
    solve_b = BoundsSolver.solve_b

    def faulty(self, b, *args, **kwargs):
        if b[0] % 2:
            raise InfeasibleDistribution({"normalization": Fraction(1)}, Fraction(1))
        return solve_b(self, b, *args, **kwargs)

    monkeypatch.setattr(BoundsSolver, "solve_b", faulty)


def test_check_tightness_records_an_engine_infeasibility(monkeypatch):
    _infeasible_on_odd_tables(monkeypatch)
    report = check_tightness(homocysteine_scenario(3), trials=6, seed=1)
    assert report.passed is False
    assert report.n_certificates == 24
    assert [f["trial"] for f in report.failures] == [1, 2, 3, 5]
    for f in report.failures:
        assert set(f) == {"trial", "error", "q_parts"}
        assert "incompatible" in f["error"]
        assert sum(f["q_parts"]) == SIMPLEX_DENOMINATOR
    # A faulty trial has no certificates, so all four fail; the rest pass.
    assert report.n_certificate_failures == 16
    # Validity solves the same tables and records the same faults.
    validity = check_validity(homocysteine_scenario(3), trials=6, seed=1)
    matching = [f for f in validity.failures if f["audit"] == "matching"]
    assert [(f["trial"], f["q_parts"]) for f in matching] == [
        (f["trial"], f["q_parts"]) for f in report.failures
    ]


def test_certificate_checker_rejects_tampering():
    scn = peanut_scenario("clean")
    system = build_constraint_system(scn)
    from coarseiv.datasets import peanut_distribution

    dist = peanut_distribution()
    res = numeric_bounds(system, dist)
    b = system.rhs(dist)
    assert _certificate_ok(system, res.lower_certificate, b, res.lower, 1)
    assert _certificate_ok(system, res.upper_certificate, b, res.upper, 1)
    assert not _certificate_ok(
        system, res.lower_certificate, b, res.lower + Fraction(1, 1000), 1
    )
    j0 = next(iter(res.lower_certificate))
    tampered = dict(res.lower_certificate)
    tampered[j0] = tampered[j0] + Fraction(1, 1000)
    assert not _certificate_ok(system, tampered, b, res.lower, 1)
    negative = dict(res.lower_certificate)
    negative[j0] = -negative[j0]
    assert not _certificate_ok(system, negative, b, res.lower, 1)


def test_dual_checker_rejects_tampering():
    scn = peanut_scenario("clean")
    system = build_constraint_system(scn)
    res = numeric_bounds(system, peanut_distribution())
    b = system.rhs(peanut_distribution())
    (lo, _), (hi, _) = res.lp_optima
    assert _dual_ok(system, lo.dual, b, 1, 1, res.lower)
    assert _dual_ok(system, hi.dual, b, 1, -1, res.upper)
    assert not _dual_ok(system, lo.dual, b, 1, 1, res.lower + Fraction(1, 1000))
    # The other side's dual prices b at -upper, not at the lower bound.
    assert not _dual_ok(system, hi.dual, b, 1, 1, res.lower)
    # Shifting the normalization price by 1 moves y.b to lower + 1 but
    # lowers every reduced cost by 1, so the basic columns go negative.
    norm = system.row_keys.index("normalization")
    shifted = list(lo.dual)
    shifted[norm] += 1
    assert not _dual_ok(system, shifted, b, 1, 1, res.lower + 1)


# -- equivalence families ------------------------------------------------------------


def test_check_equivalences_all_families_pass():
    report = check_equivalences(trials=3, seed=99)
    assert report.passed
    names = [f.name for f in report.families]
    assert names == [
        "two-level-IV contrast",
        "two-level-IV single risk",
        "three-level-IV two clean levels",
        "three-level-IV three clean levels",
    ]
    for fam in report.families:
        assert fam.bit_identical
        assert fam.n_mismatches == 0
    # Symbolic comparison only runs under two-level instruments.
    assert report.families[0].symbolic_equal is True
    assert report.families[1].symbolic_equal is True
    assert report.families[2].symbolic_equal is None
    assert report.families[3].symbolic_equal is None


def test_check_equivalences_rejects_zero_trials():
    with pytest.raises(InputError):
        check_equivalences(trials=0, seed=1)


# -- collapse family -----------------------------------------------------------------


def test_collapse_family_pinches_to_a_point():
    out = contamination_collapse()
    assert out["passed"]
    assert out["widths_monotone"]
    by_eps = {row["epsilon"]: row for row in out["rows"]}
    for eps, row in by_eps.items():
        # Bounds that wrongly treat the dominant level as clean pinch onto
        # the true value 0 at rate 2*eps while the correctly specified LP
        # and the two-level formulas stay honest.
        assert row["ternary"] == (0, 2 * eps)
        assert row["lp_contaminated"][0] <= 0 <= row["lp_contaminated"][1]
        assert row["classic"][1] - row["classic"][0] >= Fraction(1, 2)
    final = by_eps[Fraction(0)]
    assert final["ternary"] == (0, 0)
    # The misspecified all-clean scenario is detectably incompatible with the
    # data for every eps < 1/2 (its instrument inequality needs 2 - 2*eps <= 1),
    # yet the ternary formulas above still return a non-crossed interval: the
    # violated constraints live in the feasibility facts, not the bound terms.
    assert all(not row["clean_scenario_feasible"] for row in by_eps.values())
    boundary = contamination_collapse(epsilons=(Fraction(1, 2),))["rows"][0]
    assert boundary["clean_scenario_feasible"]
    assert boundary["ternary"] == (0, 1)

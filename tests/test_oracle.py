"""Verification oracle: SCM sampling, audits, equivalences, collapse family."""

import dataclasses
import json
from fractions import Fraction

import pytest

from coarseiv.bounds import BoundsSolver, InfeasibleDistribution, numeric_bounds
from coarseiv.data import Estimand, ExposureLevel, InputError, Scenario
from coarseiv import oracle
from coarseiv.cli import main
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
    # Both ways a bound leaves the solver: validity and the equivalences
    # read the batch, tightness reads solve_b.
    solve_b, solve_batch = BoundsSolver.solve_b, BoundsSolver.solve_batch

    def shifted(self, *args, **kwargs):
        res = solve_b(self, *args, **kwargs)
        return dataclasses.replace(res, **{side: getattr(res, side) + shift})

    def shifted_batch(self, B, scale):
        lowers, uppers, rescued = solve_batch(self, B, scale)
        if side == "lower":
            lowers = [v + shift for v in lowers]
        else:
            uppers = [v + shift for v in uppers]
        return lowers, uppers, rescued

    monkeypatch.setattr(BoundsSolver, "solve_b", shifted)
    monkeypatch.setattr(BoundsSolver, "solve_batch", shifted_batch)


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


def _infeasible_on_odd_tables(monkeypatch, faulty_system=lambda system: True):
    # Every sampled table is feasible, so an infeasibility verdict is an
    # engine fault.  It fires on tables whose first cell count, over
    # SIMPLEX_DENOMINATOR, is odd, in the solvers of the systems
    # `faulty_system` picks: the batch hands such a row back as rescued, and
    # solve_b raises on it.  The exception carries the table it fired on.
    solve_b, solve_batch = BoundsSolver.solve_b, BoundsSolver.solve_batch

    def odd(b0, scale):
        return bool(b0 * SIMPLEX_DENOMINATOR // scale % 2)

    def faulty(self, b, *args, **kwargs):
        scale = kwargs.get("scale", SIMPLEX_DENOMINATOR)
        if faulty_system(self.system) and odd(b[0], scale):
            exc = InfeasibleDistribution({"normalization": Fraction(1)}, Fraction(1))
            exc.table = [Fraction(v, scale) for v in b]
            raise exc
        return solve_b(self, b, *args, **kwargs)

    def faulty_batch(self, B, scale):
        lowers, uppers, rescued = solve_batch(self, B, scale)
        if faulty_system(self.system):
            rescued = [r or odd(b0, scale) for r, b0 in zip(rescued, B[:, 0].tolist())]
        return lowers, uppers, rescued

    monkeypatch.setattr(BoundsSolver, "solve_b", faulty)
    monkeypatch.setattr(BoundsSolver, "solve_batch", faulty_batch)


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


def _odd_table_records(scenario, trials, seed, audits):
    # The records the per-trial path wrote under the odd-table fault: each
    # trial whose table's first cell count is odd fails each audit named.
    forward = oracle._forward(build_constraint_system(scenario))
    error = str(InfeasibleDistribution({"normalization": Fraction(1)}, Fraction(1)))
    records = []
    for t in range(trials):
        parts, acc, _ = oracle._draw(forward, oracle._rng(seed, t))
        if acc[0] % 2:
            records += [
                {"trial": t, "audit": a, "error": error, "q_parts": parts} for a in audits
            ]
    return records


def test_a_rescued_matching_row_keeps_its_failure_record(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_FAILURES", 100)
    _infeasible_on_odd_tables(monkeypatch)
    scenario = homocysteine_scenario(3)
    report = check_validity(scenario, 12, seed=1)
    expected = _odd_table_records(scenario, 12, 1, ["matching"])
    assert 0 < len(expected) < 12
    # A faulty matching row skips its demoted audits, as the per-trial path did.
    assert list(report.failures) == expected
    assert report.n_validity_violations == len(expected)
    assert report.n_nesting_violations == report.n_closed_form_violations == 0


def test_rescued_demoted_rows_keep_their_failure_records(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_FAILURES", 100)
    scenario = homocysteine_scenario(4)
    _infeasible_on_odd_tables(
        monkeypatch, lambda system: system.scenario.levels != scenario.levels
    )
    report = check_validity(scenario, 12, seed=1)
    demoted = [a for a in report.audits if a.startswith("demoted:")]
    assert len(demoted) == 2
    expected = _odd_table_records(scenario, 12, 1, demoted)
    assert 0 < len(expected) < 24
    assert list(report.failures) == expected
    assert report.n_validity_violations == len(expected)


def test_a_rescued_family_row_is_recorded_as_an_infeasible_mismatch(monkeypatch, capsys):
    # Every sampled table is feasible, so an infeasibility verdict on a
    # family's row is a mismatch that names the row, not an exit 3.  A
    # scrambled row is faulty with its plain one, a padded row with its base
    # one, and no comparison is made with a faulty row.
    monkeypatch.setattr(oracle, "_MAX_FAILURES", 100)
    _infeasible_on_odd_tables(monkeypatch)
    error = str(InfeasibleDistribution({"normalization": Fraction(1)}, Fraction(1)))
    report = check_equivalences(trials=8, seed=0)
    for i, (family, (_, base, _)) in enumerate(zip(report.families, oracle._families())):
        ill = build_constraint_system(oracle._with_extra(base, False))
        plain_forward = oracle._forward(ill)
        base_forward = oracle._forward(build_constraint_system(base))
        expected = []
        for t in range(8):
            rng = oracle._rng(0, i, t)
            _, acc, _ = oracle._draw(plain_forward, rng)
            oracle._scrambled_rhs(ill, acc, "m", rng)
            _, acc2, _ = oracle._draw(base_forward, rng)
            rows = ("plain", "scrambled") * (acc[0] % 2) + ("base", "zero-pad") * (acc2[0] % 2)
            expected += [{"trial": t, "kind": "infeasible", "row": r, "error": error} for r in rows]
        assert 0 < len(expected) < 32
        assert list(family.failures) == expected
        assert family.n_mismatches == len(expected)
        assert not family.passed
    argv = ["verify", "--preset", "homocysteine-3", "--suite", "equivalences"]
    code = main([*argv, "--trials", "8", "--seed", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["n_mismatches"] for f in doc["results"]["equivalences"]["families"]] == [
        f.n_mismatches for f in report.families
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

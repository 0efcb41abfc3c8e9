"""Brute-force verification laboratory.

Samples random structural models directly in response-type space (the joint
distribution q over (exposure-type, outcome-type) pairs is the canonical
sufficient parameterization), pushes them forward to observable cell
probabilities, and audits:

* validity — the true estimand value always lies inside the computed bounds,
  under the matching scenario and under every weaker scenario obtained by
  demoting a non-contrast level to z-dependent (zero violations required: the
  sampled model satisfies the scenario by construction, so any violation is
  an engine bug, not sampling noise);
* tightness — both bounds carry a primal certificate that attains them by
  direct substitution and a dual certificate, checked against every
  unmerged response type, that proves them optimal; together they prove the
  LP interval sharp;
* the cross-scenario equivalences — ill-defining vs instrument-affected
  levels produce bit-identical constraint systems, adding such a level never
  changes the bounds, and the two-level-instrument term sets coincide with
  the transcribed closed forms.

Sampling is exact-rational: uniform lattice points on the simplex (a random
composition of a fixed denominator D) stand in for the continuous uniform
(symmetric Dirichlet) law, because every downstream identity check needs the
push-forward p = A q to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .bounds import (
    BoundsSolver,
    InfeasibleDistribution,
    classic_term_sets,
    closed_form_classic,
    closed_form_for,
    closed_form_ternary_contrast,
    single_level_term_sets,
)
from .data import (
    Estimand,
    ExposureLevel,
    InputError,
    ObservedDistribution,
    Scenario,
)
from .response import ConstraintSystem, build_constraint_system
from .symbolic import derive_symbolic, term_sets_equal

__all__ = [
    "EquivalenceReport",
    "RandomScm",
    "TightnessReport",
    "ValidityReport",
    "check_equivalences",
    "check_tightness",
    "check_validity",
    "sample_scm",
    "contamination_collapse",
]

SIMPLEX_DENOMINATOR = 3600
_MAX_FAILURES = 5  # failure details retained per report


@dataclass(frozen=True, eq=False)
class RandomScm:
    """A sampled structural model: exact type weights and their observables."""

    scenario: Scenario
    q: tuple[Fraction, ...]
    dist: ObservedDistribution
    true_value: Fraction


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of the SeedSequence child ``key`` of ``seed``.

    ``_rng(seed, t)`` is seeded as the t-th child that ``SeedSequence(seed)``
    spawns, so trial t draws the same model whatever the number of trials.
    """
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def _compose(rng: np.random.Generator, k: int, denominator: int) -> list[int]:
    """Uniform random composition: k nonnegative integers summing to denominator."""
    if k == 1:
        return [denominator]
    cuts = np.sort(rng.choice(denominator + k - 1, size=k - 1, replace=False)) + 1
    parts = np.diff(np.concatenate(([0], cuts, [denominator + k]))) - 1
    return [int(v) for v in parts]


def _push_forward(
    system: ConstraintSystem, weights: Iterable[tuple[int, Any]]
) -> tuple[list, Any]:
    """A q over the system's rows and c.q, for q given as (type, weight) pairs."""
    columns, objective = system.columns, system.objective
    acc = [0] * system.n_rows
    value = 0
    for j, w in weights:
        if w:
            for r, coef in columns[j]:
                acc[r] += coef * w
            value += objective[j] * w
    return acc, value


def _draw(
    system: ConstraintSystem, rng: np.random.Generator, point_mass: bool = False
) -> tuple[list[int], list[int], Fraction]:
    """One model: its type weights and table A q, both integers over
    `SIMPLEX_DENOMINATOR`, and its true estimand value.

    Every column carries the normalization row, so the table is the integer
    right-hand side over the denominator.
    """
    k = system.n_variables
    if point_mass:
        parts = [0] * k
        parts[int(rng.integers(k))] = SIMPLEX_DENOMINATOR
    else:
        parts = _compose(rng, k, SIMPLEX_DENOMINATOR)
    acc, value = _push_forward(system, enumerate(parts))
    return parts, acc, Fraction(value, SIMPLEX_DENOMINATOR)


def sample_scm(scenario: Scenario, seed: int, *, point_mass: bool = False) -> RandomScm:
    """Sample q uniformly on the response-type simplex; exact rationals."""
    _check_seed(seed)
    system = build_constraint_system(scenario)
    parts, acc, true = _draw(system, _rng(seed), point_mass)
    return RandomScm(
        scenario=scenario,
        q=tuple(Fraction(p, SIMPLEX_DENOMINATOR) for p in parts),
        dist=system.distribution(acc, SIMPLEX_DENOMINATOR),
        true_value=true,
    )


def _note(failures: list[dict], **detail) -> None:
    """Record a failure; a report keeps the first `_MAX_FAILURES`."""
    if len(failures) < _MAX_FAILURES:
        failures.append(detail)


def _check_seed(seed: int) -> None:
    """numpy seeds only from non-negative integers."""
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")


def _check_run(trials: int, seed: int) -> None:
    """An audit needs a trial and a seed numpy accepts."""
    if trials < 1:
        raise InputError("need at least one trial")
    _check_seed(seed)


def _trials(
    scenario: Scenario, trials: int, seed: int
) -> tuple[ConstraintSystem, Iterator[tuple]]:
    """The scenario's system and, lazily, each trial solved under it.

    Yields ``(t, parts, table, true value, result)`` per trial, where the
    result is the matching LP's `BoundResult` or the `InfeasibleDistribution`
    it raised.  A sampled table is feasible by construction, so the latter is
    an engine fault that the caller records.
    """
    _check_run(trials, seed)
    if scenario.estimand is None:
        raise InputError("scenario carries no estimand")
    system = build_constraint_system(scenario)
    solver = BoundsSolver(system)

    def solved():
        for t in range(trials):
            parts, acc, true = _draw(system, _rng(seed, t))
            try:
                res = solver.solve_b(acc, scale=SIMPLEX_DENOMINATOR)
            except InfeasibleDistribution as exc:
                res = exc
            yield t, parts, acc, true, res

    return system, solved()


# -- validity --------------------------------------------------------------------


# The closed-form audit of each form `closed_form_for` can pick.
_CLOSED_FORM_AUDITS = {
    "ten-term": "closed-form:classic-contains-ternary",
    "eight-term": "closed-form:classic-equals-lp",
    "two-term": "closed-form:single-level-contains-lp",
}


@dataclass(frozen=True, eq=False)
class ValidityReport:
    scenario: Scenario
    trials: int
    seed: int
    audits: tuple[str, ...]
    n_validity_violations: int
    n_nesting_violations: int
    n_closed_form_violations: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return (
            self.n_validity_violations
            == self.n_nesting_violations
            == self.n_closed_form_violations
            == 0
        )


def check_validity(scenario: Scenario, trials: int, seed: int) -> ValidityReport:
    """Ground-truth containment audit; every violation is an engine bug.

    The closed form that `bounds` reports for the scenario, if any, must
    contain the LP interval and the true value, and must equal the LP when
    it is expected to be tight.  The eight-term form must also contain the
    ten-term one.
    """
    system, solved = _trials(scenario, trials, seed)
    est = scenario.estimand
    referenced = set(est.referenced())
    weaker = []
    for lv in scenario.levels:
        if lv.clean and lv.label not in referenced:
            wsys = build_constraint_system(scenario.demote(lv.label))
            weaker.append((lv.label, wsys, BoundsSolver(wsys)))
    closed = closed_form_for(scenario)

    audits = ["matching"] + [f"demoted:{label}" for label, _, _ in weaker]
    if closed is not None:
        audits.append(_CLOSED_FORM_AUDITS[closed[0]])

    n_validity = n_nesting = n_closed = 0
    failures: list[dict] = []
    for t, parts, acc, true, res in solved:
        if isinstance(res, InfeasibleDistribution):
            n_validity += 1
            _note(failures, trial=t, audit="matching", error=str(res), q_parts=parts)
            continue
        if not res.lower <= true <= res.upper:
            n_validity += 1
            _note(failures, trial=t, audit="matching", lower=res.lower, upper=res.upper,
                  true=true, q_parts=parts)

        acc_of = dict(zip(system.row_keys, acc))
        for label, wsys, wsolver in weaker:
            try:
                wres = wsolver.solve_b(
                    [acc_of[key] for key in wsys.row_keys], scale=SIMPLEX_DENOMINATOR
                )
            except InfeasibleDistribution as exc:
                n_validity += 1
                _note(failures, trial=t, audit=f"demoted:{label}", error=str(exc),
                      q_parts=parts)
                continue
            if not wres.lower <= true <= wres.upper:
                n_validity += 1
                _note(failures, trial=t, audit=f"demoted:{label}", lower=wres.lower,
                      upper=wres.upper, true=true, q_parts=parts)
            if wres.lower > res.lower or wres.upper < res.upper:
                n_nesting += 1
                _note(failures, trial=t, audit=f"demoted:{label}", kind="nesting",
                      strong=(res.lower, res.upper), weak=(wres.lower, wres.upper))

        if closed is not None:
            form, evaluate, expected_tight = closed
            dist = system.distribution(acc, SIMPLEX_DENOMINATOR)
            cf = evaluate(dist)
            ok = (
                cf.lower <= res.lower
                and res.upper <= cf.upper
                and cf.lower <= true <= cf.upper
            )
            if expected_tight:
                ok = ok and (cf.lower, cf.upper) == (res.lower, res.upper)
            detail = {}
            if form == "ten-term":
                classic = closed_form_classic(dist, est.x, est.x_prime)
                ok = ok and classic.lower <= cf.lower and cf.upper <= classic.upper
                detail["classic"] = (classic.lower, classic.upper)
            if not ok:
                n_closed += 1
                _note(failures, trial=t, audit="closed-form", kind=form,
                      closed_form=(cf.lower, cf.upper), lp=(res.lower, res.upper),
                      true=true, **detail)

    return ValidityReport(
        scenario=scenario,
        trials=trials,
        seed=seed,
        audits=tuple(audits),
        n_validity_violations=n_validity,
        n_nesting_violations=n_nesting,
        n_closed_form_violations=n_closed,
        failures=tuple(failures),
    )


# -- tightness -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TightnessReport:
    scenario: Scenario
    trials: int
    seed: int
    n_certificates: int  # primal and dual, both sides: four per trial
    n_certificate_failures: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.n_certificate_failures == 0


def _certificate_ok(
    system: ConstraintSystem,
    certificate: dict[int, Fraction],
    b: Sequence,
    target: Fraction,
    scale: int,
) -> bool:
    """Primal certificate: weights q >= 0 with A q == b / scale and c.q == target."""
    if any(v < 0 for v in certificate.values()):
        return False
    acc, value = _push_forward(system, certificate.items())
    return [v * scale for v in acc] == list(b) and value == target


def _dual_ok(
    system: ConstraintSystem,
    dual: Sequence[Fraction],
    b: Sequence[int],
    scale: int,
    sign: int,
    target: Fraction,
) -> bool:
    """Dual certificate on the unmerged system, for min sign * c.q.

    Checks sign * c_j - y.A_j >= 0 for every response type j and
    y.b == sign * target (b = b~ / scale), in integers over the lcm of y's
    denominators.  With the primal certificate this proves the bound sharp.
    """
    den = lcm(*(v.denominator for v in dual))
    y = [v.numerator * (den // v.denominator) for v in dual]
    if Fraction(sum(map(mul, y, b)), den * scale) != sign * target:
        return False
    return all(
        sign * den * c >= sum(coef * y[r] for r, coef in col)
        for col, c in zip(system.columns, system.objective)
    )


def check_tightness(scenario: Scenario, trials: int, seed: int) -> TightnessReport:
    """Verify each trial's LP certificates: together they prove the interval sharp.

    Per trial, both bounds must carry a primal certificate that attains them
    and a dual certificate that proves them optimal for every unmerged
    response type.  By weak duality no feasible model leaves the interval,
    so these four checks are the whole audit.  A trial whose LP wrongly
    reports its table infeasible has no certificates: all four fail.
    """
    system, solved = _trials(scenario, trials, seed)
    n_checked = n_failed = 0
    failures: list[dict] = []
    for t, parts, acc, _, res in solved:
        n_checked += 4
        if isinstance(res, InfeasibleDistribution):
            n_failed += 4
            _note(failures, trial=t, error=str(res), q_parts=parts)
            continue
        sides = (
            ("lower", 1, res.lower, res.lower_certificate),
            ("upper", -1, res.upper, res.upper_certificate),
        )
        for (side, sign, target, cert), (optimum, _) in zip(sides, res.lp_optima):
            if not _certificate_ok(system, cert, acc, target, SIMPLEX_DENOMINATOR):
                n_failed += 1
                _note(failures, trial=t, side=side, kind="certificate", target=target)
            if not _dual_ok(system, optimum.dual, acc, SIMPLEX_DENOMINATOR, sign, target):
                n_failed += 1
                _note(failures, trial=t, side=side, kind="dual-certificate", target=target)

    return TightnessReport(
        scenario=scenario,
        trials=trials,
        seed=seed,
        n_certificates=n_checked,
        n_certificate_failures=n_failed,
        failures=tuple(failures),
    )


# -- cross-scenario equivalences ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class FamilyReport:
    name: str
    bit_identical: bool
    symbolic_equal: bool | None
    trials: int
    n_mismatches: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return (
            self.bit_identical
            and self.n_mismatches == 0
            and self.symbolic_equal is not False
        )


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    trials: int
    seed: int
    families: tuple[FamilyReport, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)


def _clean_scenario(instruments, labels, estimand) -> Scenario:
    return Scenario(instruments, tuple(ExposureLevel(l) for l in labels), estimand)


def _with_extra(base: Scenario, well_defining: bool) -> Scenario:
    """The base plus a z-dependent level: instrument-affected or ill-defining."""
    extra = ExposureLevel("m", well_defining=well_defining, z_dependent=True)
    return Scenario(base.instrument_levels, base.levels + (extra,), base.estimand)


def _scrambled_rhs(
    system: ConstraintSystem,
    b: list[int],
    label: str,
    rng: np.random.Generator,
) -> list[int]:
    """Redistribute the z-dependent level's outcome mass within each stratum.

    Takes and returns integers; the result is over 720 times b's scale.
    """
    out = [v * 720 for v in b]
    idx = {key: i for i, key in enumerate(system.row_keys)}
    for z in system.scenario.instrument_levels:
        i0, i1 = idx[(z, label, 0)], idx[(z, label, 1)]
        total = b[i0] + b[i1]
        out[i1] = int(rng.integers(0, 721)) * total
        out[i0] = 720 * total - out[i1]
    return out


def _run_family(
    name: str,
    base: Scenario,
    transcribed,  # (lower, upper) SymbolicBoundSets or None
    trials: int,
    seed: int,
    index: int,
) -> FamilyReport:
    """One family's audit; its trial t draws from the child (index, t) of seed."""
    ill, con = _with_extra(base, False), _with_extra(base, True)
    base_sys = build_constraint_system(base)
    ill_sys = build_constraint_system(ill)
    con_sys = build_constraint_system(con)
    bit_identical = ill_sys.lp_payload() == con_sys.lp_payload()

    symbolic_equal: bool | None = None
    if base.instrument_arity == 2:
        i_lo, i_hi = derive_symbolic(ill_sys)
        symbolic_equal = True
        if len(base.levels) > 1:
            # A degenerate single-level base has a non-pointed dual
            # polyhedron, so derivation only runs on two-plus-level bases.
            b_lo, b_hi = derive_symbolic(base_sys)
            symbolic_equal = term_sets_equal(b_lo, i_lo) and term_sets_equal(
                b_hi, i_hi
            )
        if transcribed is not None:
            t_lo, t_hi = transcribed
            symbolic_equal = (
                symbolic_equal
                and term_sets_equal(i_lo, t_lo)
                and term_sets_equal(i_hi, t_hi)
            )

    base_solver = BoundsSolver(base_sys)
    ill_solver = BoundsSolver(ill_sys)
    extra_label = ill.level_labels()[-1]
    closed = closed_form_for(ill)
    n_mismatch = 0
    failures: list[dict] = []
    for t in range(trials):
        rng = _rng(seed, index, t)
        # (a) weakest-scenario sample: scramble invariance + closed form.
        _, acc, _ = _draw(ill_sys, rng)
        res = ill_solver.solve_b(acc, scale=SIMPLEX_DENOMINATOR)
        b_scr = _scrambled_rhs(ill_sys, acc, extra_label, rng)
        res_scr = ill_solver.solve_b(b_scr, scale=SIMPLEX_DENOMINATOR * 720)
        if (res.lower, res.upper) != (res_scr.lower, res_scr.upper):
            n_mismatch += 1
            _note(failures, trial=t, kind="scramble", plain=(res.lower, res.upper),
                  scrambled=(res_scr.lower, res_scr.upper))
        if closed is not None:
            # Every family's closed form is sharp under its weakest scenario.
            cf = closed[1](ill_sys.distribution(acc, SIMPLEX_DENOMINATOR))
            if (cf.lower, cf.upper) != (res.lower, res.upper):
                n_mismatch += 1
                _note(failures, trial=t, kind="closed-form", lp=(res.lower, res.upper),
                      cf=(cf.lower, cf.upper))
        # (b) without-extra-level sample, zero-padded.
        _, acc2, _ = _draw(base_sys, rng)
        res2 = base_solver.solve_b(acc2, scale=SIMPLEX_DENOMINATOR)
        acc2_of = dict(zip(base_sys.row_keys, acc2))
        b_pad = [acc2_of.get(key, 0) for key in ill_sys.row_keys]
        res_pad = ill_solver.solve_b(b_pad, scale=SIMPLEX_DENOMINATOR)
        if (res2.lower, res2.upper) != (res_pad.lower, res_pad.upper):
            n_mismatch += 1
            _note(failures, trial=t, kind="zero-pad", base=(res2.lower, res2.upper),
                  padded=(res_pad.lower, res_pad.upper))

    return FamilyReport(
        name=name,
        bit_identical=bit_identical,
        symbolic_equal=symbolic_equal,
        trials=trials,
        n_mismatches=n_mismatch,
        failures=tuple(failures),
    )


def check_equivalences(trials: int, seed: int) -> EquivalenceReport:
    """Audit the scenario-family equivalences with exact comparisons.

    For each family: the ill-defining and instrument-affected variants must
    be bit-identical; random distributions generated under the weakest
    scenario must give identical bounds whether or not the extra level's
    within-stratum outcome split is scrambled, and must equal the closed form
    that applies, if any; zero-padding a distribution from the
    without-extra-level scenario must reproduce its bounds; under a
    two-level instrument the derived term sets must also equal the
    transcribed closed forms, term by term.
    """
    _check_run(trials, seed)
    z2 = ("z0", "z1")
    z3 = ("z0", "z1", "z2")
    contrast = Estimand(kind="risk_difference", x="x", x_prime="xp")
    risk = Estimand(kind="counterfactual_risk", x="x")
    families = (
        ("two-level-IV contrast", _clean_scenario(z2, ("x", "xp"), contrast),
         classic_term_sets(z2, "x", "xp")),
        ("two-level-IV single risk", _clean_scenario(z2, ("x",), risk),
         single_level_term_sets(z2, "x")),
        ("three-level-IV two clean levels", _clean_scenario(z3, ("x", "xp"), contrast), None),
        ("three-level-IV three clean levels",
         _clean_scenario(z3, ("x", "xp", "xpp"), contrast), None),
    )
    return EquivalenceReport(
        trials=trials,
        seed=seed,
        families=tuple(
            _run_family(name, base, transcribed, trials, seed, i)
            for i, (name, base, transcribed) in enumerate(families)
        ),
    )


# -- the identification-by-assumption construction ---------------------------------


def contamination_collapse(
    epsilons: Sequence[Fraction] = (
        Fraction(1, 4),
        Fraction(1, 16),
        Fraction(1, 64),
        Fraction(0),
    ),
) -> dict:
    """Family of models where the three-clean-level bounds collapse to a point.

    The generating model routes everyone to the third level with an
    instrument-dependent outcome there (an exclusion violation) and equal
    counterfactual outcomes at the contrast levels, so the true contrast is
    exactly 0.  As the contamination mass grows to 1, the ten-term bounds —
    which assume the third level is clean — pinch to [0, 0], while the
    eight-term bounds stay wide and the correctly specified model's LP stays
    valid.  At the limit point the all-clean scenario is infeasible.
    """
    z2 = ("z0", "z1")
    levels = ("x", "xp", "xpp")
    estimand = Estimand(kind="risk_difference", x="x", x_prime="xp")
    contaminated = Scenario(
        instrument_levels=z2,
        levels=(
            ExposureLevel("x"),
            ExposureLevel("xp"),
            ExposureLevel("xpp", well_defining=True, z_dependent=True),
        ),
        estimand=estimand,
    )
    clean = Scenario(
        instrument_levels=z2,
        levels=tuple(ExposureLevel(l) for l in levels),
        estimand=estimand,
    )
    con_solver = BoundsSolver(build_constraint_system(contaminated))
    con_sys = con_solver.system
    clean_solver = BoundsSolver(build_constraint_system(clean))
    clean_sys = clean_solver.system

    rows = []
    for eps in epsilons:
        # mass 1-eps: always take xpp, outcome there 1 under z0 and 0 under z1;
        # mass eps: always take x with outcome 0 (and equal counterfactuals at
        # x and xp, so the true contrast stays exactly 0).
        probs = {
            ("z0", "xpp", 1): 1 - eps,
            ("z1", "xpp", 0): 1 - eps,
            ("z0", "x", 0): eps,
            ("z1", "x", 0): eps,
        }
        dist = ObservedDistribution.from_probs(z2, levels, probs)
        tern = closed_form_ternary_contrast(dist, "x", "xp", "xpp")
        classic = closed_form_classic(dist, "x", "xp")
        lp = con_solver.solve_b(con_sys.rhs(dist))
        clean_feasible = True
        try:
            clean_solver.solve_b(clean_sys.rhs(dist))
        except InfeasibleDistribution:
            clean_feasible = False
        rows.append(
            {
                "epsilon": eps,
                "ternary": (tern.lower, tern.upper),
                "ternary_width": tern.upper - tern.lower,
                "classic": (classic.lower, classic.upper),
                "true_value": Fraction(0),
                "lp_contaminated": (lp.lower, lp.upper),
                "clean_scenario_feasible": clean_feasible,
            }
        )

    widths = [r["ternary_width"] for r in rows]
    ordered = sorted(range(len(rows)), key=lambda i: epsilons[i], reverse=True)
    monotone = all(
        widths[ordered[i]] >= widths[ordered[i + 1]] for i in range(len(ordered) - 1)
    )
    final = next((r for r, e in zip(rows, epsilons) if e == 0), None)
    passed = (
        monotone
        and all(r["ternary"][0] <= 0 <= r["ternary"][1] for r in rows)
        and all(
            r["lp_contaminated"][0] <= 0 <= r["lp_contaminated"][1] for r in rows
        )
        and all(
            r["classic"][1] - r["classic"][0] >= Fraction(1, 2) for r in rows
        )
        and (final is None or (final["ternary"] == (0, 0) and not final["clean_scenario_feasible"]))
    )
    return {"rows": rows, "widths_monotone": monotone, "passed": passed}

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

Every audit draws all its trial tables before it solves any, and the
validity and equivalence audits solve each system's tables in one
`BoundsSolver.solve_batch`; the tightness audit reads each trial's LP
optima and so solves one table at a time.

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
from typing import Iterator, Sequence

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
from .inference import pcg64_generator, spawn_states
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

    ``_rng(seed, t)`` is seeded as the t-th child that the seed's
    ``SeedSequence`` spawns, so trial t draws the same model whatever the
    number of trials.  ``_rng(seed)`` is the seed's own sequence.  The
    seeding words come from `inference.spawn_states`, as for `_rngs`.
    """
    return pcg64_generator(spawn_states(seed, key)[0])


def _rngs(
    seed: int, prefix: tuple[int, ...], count: int
) -> Iterator[np.random.Generator]:
    """``_rng(seed, *prefix, t)`` for t < count, seeded from one
    `inference.spawn_states` batch."""
    return map(pcg64_generator, spawn_states(seed, prefix, 0, count))


def _compose(rng: np.random.Generator, k: int, denominator: int) -> np.ndarray:
    """Uniform random composition: k nonnegative integers summing to denominator."""
    if k == 1:
        return np.array([denominator])
    cuts = np.sort(rng.choice(denominator + k - 1, size=k - 1, replace=False)) + 1
    return np.diff(np.concatenate(([0], cuts, [denominator + k]))) - 1


def _forward(system: ConstraintSystem) -> np.ndarray:
    """[A^T | c] (types x rows + 1): weights q times it give A q and then c.q."""
    return np.column_stack([system.type_matrix, system.objective])


def _draw(
    forward: np.ndarray, rng: np.random.Generator, point_mass: bool = False
) -> tuple[list[int], list[int], Fraction]:
    """One model of the system whose `_forward` matrix is given: its type
    weights and table A q, both integers over `SIMPLEX_DENOMINATOR`, and its
    true estimand value.

    Every column carries the normalization row, so the table is the integer
    right-hand side over the denominator.  The push-forward is one integer
    product, exact in int64: the weights sum to the denominator and every
    coefficient is -1, 0 or 1.
    """
    k = len(forward)
    if point_mass:
        parts = np.zeros(k, dtype=np.int64)
        parts[int(rng.integers(k))] = SIMPLEX_DENOMINATOR
    else:
        parts = _compose(rng, k, SIMPLEX_DENOMINATOR)
    *acc, value = (parts @ forward).tolist()
    return parts.tolist(), acc, Fraction(value, SIMPLEX_DENOMINATOR)


def sample_scm(scenario: Scenario, seed: int, *, point_mass: bool = False) -> RandomScm:
    """Sample q uniformly on the response-type simplex; exact rationals."""
    _check_seed(seed)
    system = build_constraint_system(scenario)
    parts, acc, true = _draw(_forward(system), _rng(seed), point_mass)
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
) -> tuple[ConstraintSystem, np.ndarray, np.ndarray, list[Fraction]]:
    """The scenario's system and every trial's draw, trial t from its own
    generator ``_rng(seed, t)``, as `_draw` makes it: the type weights and
    the tables, one row per trial, and the true values.

    The weights are kept only for failure records: they sum to
    `SIMPLEX_DENOMINATOR`, so int16 holds them.
    """
    _check_run(trials, seed)
    if scenario.estimand is None:
        raise InputError("scenario carries no estimand")
    system = build_constraint_system(scenario)
    forward = _forward(system)
    parts = np.empty((trials, len(forward)), dtype=np.int16)
    acc = np.empty((trials, forward.shape[1]), dtype=np.int64)
    for t, rng in enumerate(_rngs(seed, (), trials)):
        parts[t] = weights = _compose(rng, len(forward), SIMPLEX_DENOMINATOR)
        acc[t] = weights @ forward
    truths = [Fraction(v, SIMPLEX_DENOMINATOR) for v in acc[:, -1].tolist()]
    return system, parts, acc[:, :-1], truths


def _solve_rows(solver: BoundsSolver, B: np.ndarray, scale: int) -> list:
    """The bounds at each row of B, integers over `scale`, from one `solve_batch`.

    Each entry is ``(lower, upper)``, or the `InfeasibleDistribution` that
    `solve_b` raises on the row.  A sampled table is feasible by
    construction, so a row the batch had to rescue is an engine fault: it
    goes once more through `solve_b`, whose verdict stands.
    """
    lowers, uppers, rescued = solver.solve_batch(B, scale)
    out: list = list(zip(lowers, uppers))
    for i in np.flatnonzero(rescued).tolist():
        try:
            out[i] = solver.solve_b(B[i].tolist(), scale=scale).interval
        except InfeasibleDistribution as exc:
            out[i] = exc
    return out


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
    system, parts, B, truths = _trials(scenario, trials, seed)
    est = scenario.estimand
    referenced = set(est.referenced())
    solved = _solve_rows(BoundsSolver(system), B, SIMPLEX_DENOMINATOR)
    weaker = []
    for lv in scenario.levels:
        if lv.clean and lv.label not in referenced:
            wsys = build_constraint_system(scenario.demote(lv.label))
            cols = [system.row_keys.index(key) for key in wsys.row_keys]
            wsolved = _solve_rows(BoundsSolver(wsys), B[:, cols], SIMPLEX_DENOMINATOR)
            weaker.append((lv.label, wsolved))
    closed = closed_form_for(scenario)
    if closed is not None and closed[0] == "ten-term":
        classic_sets = classic_term_sets(
            scenario.instrument_levels, est.x, est.x_prime, levels=scenario.level_labels()
        )

    audits = ["matching"] + [f"demoted:{label}" for label, _ in weaker]
    if closed is not None:
        audits.append(_CLOSED_FORM_AUDITS[closed[0]])

    n_validity = n_nesting = n_closed = 0
    failures: list[dict] = []
    for t, (true, res) in enumerate(zip(truths, solved)):
        if isinstance(res, InfeasibleDistribution):
            n_validity += 1
            _note(failures, trial=t, audit="matching", error=str(res),
                  q_parts=parts[t].tolist())
            continue
        lower, upper = res
        if not lower <= true <= upper:
            n_validity += 1
            _note(failures, trial=t, audit="matching", lower=lower, upper=upper,
                  true=true, q_parts=parts[t].tolist())

        for label, wsolved in weaker:
            wres = wsolved[t]
            if isinstance(wres, InfeasibleDistribution):
                n_validity += 1
                _note(failures, trial=t, audit=f"demoted:{label}", error=str(wres),
                      q_parts=parts[t].tolist())
                continue
            wlower, wupper = wres
            if not wlower <= true <= wupper:
                n_validity += 1
                _note(failures, trial=t, audit=f"demoted:{label}", lower=wlower,
                      upper=wupper, true=true, q_parts=parts[t].tolist())
            if wlower > lower or wupper < upper:
                n_nesting += 1
                _note(failures, trial=t, audit=f"demoted:{label}", kind="nesting",
                      strong=res, weak=wres)

        if closed is not None:
            form, evaluate, expected_tight = closed
            dist = system.distribution(B[t].tolist(), SIMPLEX_DENOMINATOR)
            cf = evaluate(dist)
            ok = cf.lower <= lower and upper <= cf.upper and cf.lower <= true <= cf.upper
            if expected_tight:
                ok = ok and cf.interval == res
            detail = {}
            if form == "ten-term":
                classic = closed_form_classic(dist, est.x, est.x_prime, term_sets=classic_sets)
                ok = ok and classic.lower <= cf.lower and cf.upper <= classic.upper
                detail["classic"] = classic.interval
            if not ok:
                n_closed += 1
                _note(failures, trial=t, audit="closed-form", kind=form,
                      closed_form=cf.interval, lp=res, true=true, **detail)

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
    """Primal certificate: weights q >= 0 with A q == b / scale and c.q == target.

    A q is checked in integers over the lcm of q's denominators.
    """
    if any(v < 0 for v in certificate.values()):
        return False
    weights = certificate.values()
    den = lcm(*(v.denominator for v in weights))
    q = np.array([v.numerator * (den // v.denominator) for v in weights], dtype=object)
    acc = (q @ system.type_matrix[list(certificate)]).tolist()
    value = sum(system.objective[j] * w for j, w in certificate.items())
    return [v * scale for v in acc] == [v * den for v in b] and value == target


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
    prices = system.type_matrix @ np.array(y, dtype=object)
    return bool((sign * den * np.array(system.objective, dtype=object) >= prices).all())


def check_tightness(scenario: Scenario, trials: int, seed: int) -> TightnessReport:
    """Verify each trial's LP certificates: together they prove the interval sharp.

    Per trial, both bounds must carry a primal certificate that attains them
    and a dual certificate that proves them optimal for every unmerged
    response type.  By weak duality no feasible model leaves the interval,
    so these four checks are the whole audit.  A trial whose LP wrongly
    reports its table infeasible has no certificates: all four fail.
    """
    system, parts, B, _ = _trials(scenario, trials, seed)
    solver = BoundsSolver(system)
    n_checked = n_failed = 0
    failures: list[dict] = []
    for t, acc in enumerate(B.tolist()):
        n_checked += 4
        try:
            res = solver.solve_b(acc, scale=SIMPLEX_DENOMINATOR)
        except InfeasibleDistribution as exc:
            n_failed += 4
            _note(failures, trial=t, error=str(exc), q_parts=parts[t].tolist())
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

    extra_label = ill.level_labels()[-1]
    closed = closed_form_for(ill)
    ill_forward, base_forward = _forward(ill_sys), _forward(base_sys)
    pad = [base_sys.row_keys.index(key) if key in base_sys.row_keys else None
           for key in ill_sys.row_keys]
    plain, scrambled, padded, unpadded = [], [], [], []
    for rng in _rngs(seed, (index,), trials):
        # (a) a weakest-scenario sample, plain and with the extra level's
        # outcome mass scrambled; (b) a without-extra-level sample, also
        # zero-padded to the weakest scenario's rows.
        _, acc, _ = _draw(ill_forward, rng)
        plain.append(acc)
        scrambled.append(_scrambled_rhs(ill_sys, acc, extra_label, rng))
        _, acc2, _ = _draw(base_forward, rng)
        unpadded.append(acc2)
        padded.append([0 if r is None else acc2[r] for r in pad])
    # The scrambled rows are over 720 times the others' scale: one batch
    # takes all three kinds at that common scale.
    ill_rows = np.array(plain + scrambled + padded, dtype=np.int64)
    ill_rows[:trials] *= 720
    ill_rows[2 * trials:] *= 720
    ill_solved = _solve_rows(BoundsSolver(ill_sys), ill_rows, SIMPLEX_DENOMINATOR * 720)
    base_solved = _solve_rows(
        BoundsSolver(base_sys), np.array(unpadded, dtype=np.int64), SIMPLEX_DENOMINATOR
    )
    n_mismatch = 0
    failures: list[dict] = []
    for t, acc in enumerate(plain):
        solved = {
            "plain": ill_solved[t],
            "scrambled": ill_solved[trials + t],
            "base": base_solved[t],
            "zero-pad": ill_solved[2 * trials + t],
        }
        # Every sampled table is feasible: an infeasibility verdict is a
        # mismatch, and no comparison is made with that row.
        feasible = set()
        for row, res in solved.items():
            if isinstance(res, InfeasibleDistribution):
                n_mismatch += 1
                _note(failures, trial=t, kind="infeasible", row=row, error=str(res))
            else:
                feasible.add(row)
        res, res_scr = solved["plain"], solved["scrambled"]
        if {"plain", "scrambled"} <= feasible and res != res_scr:
            n_mismatch += 1
            _note(failures, trial=t, kind="scramble", plain=res, scrambled=res_scr)
        if closed is not None and "plain" in feasible:
            # Every family's closed form is sharp under its weakest scenario.
            cf = closed[1](ill_sys.distribution(acc, SIMPLEX_DENOMINATOR))
            if cf.interval != res:
                n_mismatch += 1
                _note(failures, trial=t, kind="closed-form", lp=res, cf=cf.interval)
        res2, res_pad = solved["base"], solved["zero-pad"]
        if {"base", "zero-pad"} <= feasible and res2 != res_pad:
            n_mismatch += 1
            _note(failures, trial=t, kind="zero-pad", base=res2, padded=res_pad)

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
    transcribed closed forms, term by term.  Every sampled distribution is
    feasible, so an infeasibility verdict on one is recorded as a mismatch
    (``kind: "infeasible"``) that names its row.
    """
    _check_run(trials, seed)
    return EquivalenceReport(
        trials=trials,
        seed=seed,
        families=tuple(
            _run_family(name, base, transcribed, trials, seed, i)
            for i, (name, base, transcribed) in enumerate(_families())
        ),
    )


def _families() -> tuple:
    """The audited families: (name, all-clean base scenario, transcribed term
    sets or None).  Each adds a z-dependent level to its base."""
    z2 = ("z0", "z1")
    z3 = ("z0", "z1", "z2")
    contrast = Estimand(kind="risk_difference", x="x", x_prime="xp")
    risk = Estimand(kind="counterfactual_risk", x="x")
    return (
        ("two-level-IV contrast", _clean_scenario(z2, ("x", "xp"), contrast),
         classic_term_sets(z2, "x", "xp")),
        ("two-level-IV single risk", _clean_scenario(z2, ("x",), risk),
         single_level_term_sets(z2, "x")),
        ("three-level-IV two clean levels", _clean_scenario(z3, ("x", "xp"), contrast), None),
        ("three-level-IV three clean levels",
         _clean_scenario(z3, ("x", "xp", "xpp"), contrast), None),
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

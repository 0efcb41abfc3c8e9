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
  unmerged response type, that proves them optimal; a projection-based
  random inner search, run in integers over one common scale, never escapes
  the LP interval while approaching its endpoints;
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
from math import gcd, lcm
from operator import mul
from typing import Sequence

import numpy as np

from .bounds import (
    BoundsSolver,
    InfeasibleDistribution,
    MergedSystem,
    classic_term_sets,
    closed_form_classic,
    closed_form_single_level,
    closed_form_ternary_contrast,
    single_level_term_sets,
    ternary_term_sets,
)
from .data import (
    Estimand,
    ExposureLevel,
    InputError,
    ObservedDistribution,
    Scenario,
)
from .exactlp import column_dot, independent_rows
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
_RESTART_DENOMINATOR = 720  # lattice of the tightness search's random points
_MAX_FAILURES = 5  # failure details retained per report


@dataclass(frozen=True, eq=False)
class RandomScm:
    """A sampled structural model: exact type weights and their observables."""

    scenario: Scenario
    q: tuple[Fraction, ...]
    dist: ObservedDistribution
    true_value: Fraction


def _compose(rng: np.random.Generator, k: int, denominator: int) -> list[int]:
    """Uniform random composition: k nonnegative integers summing to denominator."""
    if k == 1:
        return [denominator]
    cuts = np.sort(rng.choice(denominator + k - 1, size=k - 1, replace=False)) + 1
    parts = np.diff(np.concatenate(([0], cuts, [denominator + k]))) - 1
    return [int(v) for v in parts]


def _sample_parts(
    rng: np.random.Generator,
    system: ConstraintSystem,
    denominator: int,
    point_mass: bool,
) -> list[int]:
    k = system.n_variables
    if point_mass:
        parts = [0] * k
        parts[int(rng.integers(k))] = denominator
        return parts
    return _compose(rng, k, denominator)


def _push_forward(system: ConstraintSystem, parts: Sequence[int]) -> list[int]:
    """Integer numerators of A q over the system's rows (denominator implied)."""
    acc = [0] * system.n_rows
    for j, col in enumerate(system.columns):
        pj = parts[j]
        if pj:
            for r, coef in col:
                acc[r] += coef * pj
    return acc


def _true_value(system: ConstraintSystem, parts: Sequence[int], denominator: int) -> Fraction:
    return Fraction(
        sum(c * p for c, p in zip(system.objective, parts) if c), denominator
    )


def sample_scm(
    scenario: Scenario,
    seed: int,
    *,
    point_mass: bool = False,
    denominator: int = SIMPLEX_DENOMINATOR,
) -> RandomScm:
    """Sample q uniformly on the response-type simplex; exact rationals."""
    system = build_constraint_system(scenario)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    parts = _sample_parts(rng, system, denominator, point_mass)
    acc = _push_forward(system, parts)
    probs = {
        key: Fraction(acc[i], denominator)
        for i, key in enumerate(system.row_keys)
        if key != "normalization"
    }
    dist = ObservedDistribution.from_probs(
        scenario.instrument_levels, scenario.level_labels(), probs
    )
    return RandomScm(
        scenario=scenario,
        q=tuple(Fraction(p, denominator) for p in parts),
        dist=dist,
        true_value=_true_value(system, parts, denominator),
    )


# -- validity --------------------------------------------------------------------


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
    """Ground-truth containment audit; every violation is an engine bug."""
    if trials < 1:
        raise InputError("need at least one trial")
    if scenario.estimand is None:
        raise InputError("scenario carries no estimand")
    system = build_constraint_system(scenario)
    solver = BoundsSolver(system)
    referenced = set(scenario.estimand.referenced())
    demotable = [
        lv.label for lv in scenario.levels if lv.clean and lv.label not in referenced
    ]
    weaker = []
    for label in demotable:
        wsys = build_constraint_system(scenario.demote(label))
        weaker.append((label, wsys, BoundsSolver(wsys)))

    two_iv = scenario.instrument_arity == 2
    labels = scenario.level_labels()
    est = scenario.estimand
    ternary_audit = (
        two_iv
        and est.kind == "risk_difference"
        and len(labels) == 3
        and all(lv.clean for lv in scenario.levels)
    )
    risk_audit = two_iv and est.kind == "counterfactual_risk" and len(labels) == 2

    audits = ["matching"] + [f"demoted:{label}" for label, _, _ in weaker]
    if ternary_audit:
        audits.append("closed-form:classic-contains-ternary")
    if risk_audit:
        audits.append("closed-form:single-level-contains-lp")

    n_validity = n_nesting = n_closed = 0
    failures: list[dict] = []

    def fail(**detail) -> None:
        if len(failures) < _MAX_FAILURES:
            failures.append(detail)

    children = np.random.SeedSequence(seed).spawn(trials)
    for t, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        parts = _sample_parts(rng, system, SIMPLEX_DENOMINATOR, point_mass=False)
        # Every column carries the normalization row, so acc is A q scaled
        # by the denominator: the integer right-hand side over it.
        acc = _push_forward(system, parts)
        true = _true_value(system, parts, SIMPLEX_DENOMINATOR)
        try:
            res = solver.solve_b(acc, scale=SIMPLEX_DENOMINATOR)
        except InfeasibleDistribution as exc:
            n_validity += 1
            fail(trial=t, audit="matching", error=str(exc), q_parts=parts)
            continue
        if not res.lower <= true <= res.upper:
            n_validity += 1
            fail(trial=t, audit="matching", lower=res.lower, upper=res.upper,
                 true=true, q_parts=parts)

        acc_of = dict(zip(system.row_keys, acc))
        for label, wsys, wsolver in weaker:
            try:
                wres = wsolver.solve_b(
                    [acc_of[key] for key in wsys.row_keys], scale=SIMPLEX_DENOMINATOR
                )
            except InfeasibleDistribution as exc:
                n_validity += 1
                fail(trial=t, audit=f"demoted:{label}", error=str(exc), q_parts=parts)
                continue
            if not wres.lower <= true <= wres.upper:
                n_validity += 1
                fail(trial=t, audit=f"demoted:{label}", lower=wres.lower,
                     upper=wres.upper, true=true, q_parts=parts)
            if wres.lower > res.lower or wres.upper < res.upper:
                n_nesting += 1
                fail(trial=t, audit=f"demoted:{label}", kind="nesting",
                     strong=(res.lower, res.upper), weak=(wres.lower, wres.upper))

        if ternary_audit or risk_audit:
            probs = {
                key: Fraction(v, SIMPLEX_DENOMINATOR)
                for key, v in acc_of.items()
                if key != "normalization"
            }
            dist = ObservedDistribution.from_probs(
                scenario.instrument_levels, labels, probs
            )
            if ternary_audit:
                x, xp = est.x, est.x_prime
                xo = next(l for l in labels if l not in (x, xp))
                tern = closed_form_ternary_contrast(dist, x, xp, xo)
                classic = closed_form_classic(dist, x, xp)
                # The ten-term closed form must equal the LP exactly; the
                # eight-term form must contain it.
                ok = (
                    (tern.lower, tern.upper) == (res.lower, res.upper)
                    and classic.lower <= tern.lower
                    and tern.upper <= classic.upper
                    and tern.lower <= true <= tern.upper
                )
                if not ok:
                    n_closed += 1
                    fail(trial=t, audit="closed-form", kind="classic-vs-ternary",
                         ternary=(tern.lower, tern.upper),
                         classic=(classic.lower, classic.upper),
                         lp=(res.lower, res.upper), true=true)
            if risk_audit:
                wide = closed_form_single_level(dist, est.x)
                other_clean = next(
                    lv.clean for lv in scenario.levels if lv.label != est.x
                )
                ok = (
                    wide.lower <= res.lower
                    and res.upper <= wide.upper
                    and wide.lower <= true <= wide.upper
                )
                if not other_clean:
                    # With the companion level z-dependent the two-term form
                    # is tight, so containment sharpens to exact equality.
                    ok = ok and (wide.lower, wide.upper) == (res.lower, res.upper)
                if not ok:
                    n_closed += 1
                    fail(trial=t, audit="closed-form", kind="single-level-vs-lp",
                         single=(wide.lower, wide.upper),
                         lp=(res.lower, res.upper), true=true)

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
    restarts: int
    n_certificate_failures: int  # primal and dual, both sides
    n_inner_violations: int
    worst_lower_gap: Fraction
    worst_upper_gap: Fraction
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.n_certificate_failures == 0 and self.n_inner_violations == 0


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
    acc = [Fraction(0)] * system.n_rows
    value = Fraction(0)
    for j, v in certificate.items():
        for r, coef in system.columns[j]:
            acc[r] += coef * v
        c = system.objective[j]
        if c:
            value += c * v
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
        sign * den * c >= column_dot(col, y)
        for col, c in zip(system.columns, system.objective)
    )


class _Projector:
    """Exact orthogonal projection onto {A_merged q = p}, in integers.

    Projects through a full-rank row subset of the merged matrix and the
    inverse of its Gram matrix, held as gram_inv / det.  `project` takes q0
    and p as integers over a common scale L and returns integers over det * L.
    """

    def __init__(self, merged: MergedSystem, n_rows: int):
        n_groups = len(merged.columns)
        dense = [[0] * n_groups for _ in range(n_rows)]
        for g, col in enumerate(merged.columns):
            for r, coef in col:
                dense[r][g] = coef
        self.rows, _, _ = independent_rows(dense)
        self.sparse_rows = [
            tuple((g, c) for g, c in enumerate(dense[i]) if c) for i in self.rows
        ]
        maps = [dict(row) for row in self.sparse_rows]
        gram = [
            [sum(c * mj.get(g, 0) for g, c in row) for mj in maps]
            for row in self.sparse_rows
        ]
        _, inv, det = independent_rows(gram)
        common = gcd(det, *(v for row in inv for v in row))
        self.gram_inv = [[v // common for v in row] for row in inv]
        self.det = det // common

    def project(self, q0: Sequence[int], p: Sequence[int]) -> list[int]:
        resid = [
            sum(c * q0[g] for g, c in row) - p[i]
            for i, row in zip(self.rows, self.sparse_rows)
        ]
        out = [self.det * v for v in q0]
        for inv_row, row in zip(self.gram_inv, self.sparse_rows):
            w = sum(map(mul, inv_row, resid))
            if w:
                for g, c in row:
                    out[g] -= c * w
        return out


def check_tightness(
    scenario: Scenario, trials: int, seed: int, *, restarts: int | None = None
) -> TightnessReport:
    """Verify LP certificates and squeeze the interval from the inside.

    Per trial, both bounds must carry a primal certificate that attains them
    and a dual certificate that proves them optimal for every response type.
    Then `restarts` random points are projected onto the trial's observables
    and, where the projection leaves the simplex, pulled back towards the
    generating model until feasible: none may escape the LP interval.  The
    search runs in integers over one common scale.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    if scenario.estimand is None:
        raise InputError("scenario carries no estimand")
    system = build_constraint_system(scenario)
    solver = BoundsSolver(system)
    merged = solver.merged
    projector = _Projector(merged, system.n_rows)
    n_groups = len(merged.columns)
    if restarts is None:
        restarts = max(6, min(24, 4000 // max(1, n_groups)))
    group_of = {}
    for g, js in enumerate(merged.members):
        for j in js:
            group_of[j] = g
    # Observables and restart points share the scale L; projections and the
    # generating model live over det * L.
    L = lcm(SIMPLEX_DENOMINATOR, _RESTART_DENOMINATOR)
    b_up, q0_up = L // SIMPLEX_DENOMINATOR, L // _RESTART_DENOMINATOR
    q_scale = projector.det * L

    n_cert = n_inner = 0
    worst_lower_gap = Fraction(0)
    worst_upper_gap = Fraction(0)
    failures: list[dict] = []

    def fail(**detail) -> None:
        if len(failures) < _MAX_FAILURES:
            failures.append(detail)

    children = np.random.SeedSequence(seed).spawn(trials)
    for t, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        parts = _sample_parts(rng, system, SIMPLEX_DENOMINATOR, point_mass=False)
        acc = _push_forward(system, parts)
        res = solver.solve_b(acc, scale=SIMPLEX_DENOMINATOR)
        sides = (
            ("lower", 1, res.lower, res.lower_certificate),
            ("upper", -1, res.upper, res.upper_certificate),
        )
        for (side, sign, target, cert), (optimum, _) in zip(sides, res.lp_optima):
            if not _certificate_ok(system, cert, acc, target, SIMPLEX_DENOMINATOR):
                n_cert += 1
                fail(trial=t, side=side, kind="certificate", target=target)
            if not _dual_ok(system, optimum.dual, acc, SIMPLEX_DENOMINATOR, sign, target):
                n_cert += 1
                fail(trial=t, side=side, kind="dual-certificate", target=target)

        # Inner approximation: feasible points can only tighten the record,
        # never escape the interval.
        q_true = [0] * n_groups
        for j, pj in enumerate(parts):
            if pj:
                q_true[group_of[j]] += pj
        q_true = [v * b_up * projector.det for v in q_true]
        b = [v * b_up for v in acc]
        true_min = sum(map(mul, q_true, merged.min_costs))
        true_max = sum(map(mul, q_true, merged.max_costs))
        best_min = best_max = None
        for _ in range(restarts):
            raw = _compose(rng, n_groups, _RESTART_DENOMINATOR)
            q_proj = projector.project([v * q0_up for v in raw], b)
            # Largest step tn / td <= 1 from q_true towards q_proj that stays
            # nonnegative; a nonnegative projection is taken whole.
            tn = td = 1
            for qt, qp in zip(q_true, q_proj):
                if qp < qt and qt * td < tn * (qt - qp):
                    tn, td = qt, qt - qp
            # The objective is linear along the step.
            proj_min = sum(map(mul, q_proj, merged.min_costs))
            proj_max = sum(map(mul, q_proj, merged.max_costs))
            vmin = Fraction(true_min * td + tn * (proj_min - true_min), q_scale * td)
            vmax = Fraction(true_max * td + tn * (proj_max - true_max), q_scale * td)
            best_min = vmin if best_min is None else min(best_min, vmin)
            best_max = vmax if best_max is None else max(best_max, vmax)
        if best_min < res.lower or best_max > res.upper:
            n_inner += 1
            fail(trial=t, kind="inner-escape", best=(best_min, best_max),
                 interval=(res.lower, res.upper))
        else:
            worst_lower_gap = max(worst_lower_gap, best_min - res.lower)
            worst_upper_gap = max(worst_upper_gap, res.upper - best_max)

    return TightnessReport(
        scenario=scenario,
        trials=trials,
        seed=seed,
        restarts=restarts,
        n_certificate_failures=n_cert,
        n_inner_violations=n_inner,
        worst_lower_gap=worst_lower_gap,
        worst_upper_gap=worst_upper_gap,
        failures=tuple(failures),
    )


# -- cross-scenario equivalences ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class FamilyReport:
    name: str
    scenario_labels: tuple[str, ...]
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


def _two_level_scenario(instruments, estimand=None) -> Scenario:
    return Scenario(
        instrument_levels=instruments,
        levels=(ExposureLevel("x"), ExposureLevel("xp")),
        estimand=estimand or Estimand(kind="risk_difference", x="x", x_prime="xp"),
    )


def _with_extra(base: Scenario, variant: str, label: str = "m") -> Scenario:
    extra = (
        ExposureLevel(label, well_defining=False, z_dependent=True)
        if variant == "ill"
        else ExposureLevel(label, well_defining=True, z_dependent=True)
    )
    return Scenario(
        instrument_levels=base.instrument_levels,
        levels=base.levels + (extra,),
        estimand=base.estimand,
    )


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


def check_equivalences(trials: int, seed: int) -> EquivalenceReport:
    """Audit the scenario-family equivalences with exact comparisons.

    For each family: the ill-defining and instrument-affected variants must
    be bit-identical; random distributions generated under the weakest
    scenario must give identical bounds whether or not the extra level's
    within-stratum outcome split is scrambled; zero-padding a distribution
    from the without-extra-level scenario must reproduce its bounds; under a
    two-level instrument the derived term sets must also equal the
    transcribed closed forms, term by term.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    families: list[FamilyReport] = []
    master = np.random.SeedSequence(seed)

    def run_family(
        name: str,
        base: Scenario,
        ill: Scenario,
        con: Scenario,
        transcribed,  # (lower, upper) SymbolicBoundSets or None
        closed_form_eval,  # callable(dist) -> BoundResult or None
        family_seed,
        derive_base: bool = True,
    ) -> FamilyReport:
        base_sys = build_constraint_system(base)
        ill_sys = build_constraint_system(ill)
        con_sys = build_constraint_system(con)
        bit_identical = ill_sys.lp_payload() == con_sys.lp_payload()

        symbolic_equal: bool | None = None
        if base.instrument_arity == 2:
            i_lo, i_hi = derive_symbolic(ill_sys)
            symbolic_equal = True
            if derive_base:
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
        n_mismatch = 0
        failures: list[dict] = []

        def fail(**detail) -> None:
            if len(failures) < _MAX_FAILURES:
                failures.append(detail)

        children = family_seed.spawn(trials)
        for t, child in enumerate(children):
            rng = np.random.Generator(np.random.PCG64(child))
            # (a) weakest-scenario sample: scramble invariance + closed form.
            parts = _sample_parts(rng, ill_sys, SIMPLEX_DENOMINATOR, point_mass=False)
            acc = _push_forward(ill_sys, parts)
            res = ill_solver.solve_b(acc, scale=SIMPLEX_DENOMINATOR)
            b_scr = _scrambled_rhs(ill_sys, acc, extra_label, rng)
            res_scr = ill_solver.solve_b(b_scr, scale=SIMPLEX_DENOMINATOR * 720)
            if (res.lower, res.upper) != (res_scr.lower, res_scr.upper):
                n_mismatch += 1
                fail(trial=t, kind="scramble", plain=(res.lower, res.upper),
                     scrambled=(res_scr.lower, res_scr.upper))
            if closed_form_eval is not None:
                probs = {
                    key: Fraction(acc[i], SIMPLEX_DENOMINATOR)
                    for i, key in enumerate(ill_sys.row_keys)
                    if key != "normalization"
                }
                dist = ObservedDistribution.from_probs(
                    ill.instrument_levels, ill.level_labels(), probs
                )
                cf = closed_form_eval(dist)
                if (cf.lower, cf.upper) != (res.lower, res.upper):
                    n_mismatch += 1
                    fail(trial=t, kind="closed-form", lp=(res.lower, res.upper),
                         cf=(cf.lower, cf.upper))
            # (b) without-extra-level sample, zero-padded.
            parts2 = _sample_parts(rng, base_sys, SIMPLEX_DENOMINATOR, point_mass=False)
            acc2 = _push_forward(base_sys, parts2)
            res2 = base_solver.solve_b(acc2, scale=SIMPLEX_DENOMINATOR)
            acc2_of = dict(zip(base_sys.row_keys, acc2))
            b_pad = [acc2_of.get(key, 0) for key in ill_sys.row_keys]
            res_pad = ill_solver.solve_b(b_pad, scale=SIMPLEX_DENOMINATOR)
            if (res2.lower, res2.upper) != (res_pad.lower, res_pad.upper):
                n_mismatch += 1
                fail(trial=t, kind="zero-pad", base=(res2.lower, res2.upper),
                     padded=(res_pad.lower, res_pad.upper))

        return FamilyReport(
            name=name,
            scenario_labels=(
                "no-extra-level",
                "extra-ill-defining",
                "extra-instrument-affected",
            ),
            bit_identical=bit_identical,
            symbolic_equal=symbolic_equal,
            trials=trials,
            n_mismatches=n_mismatch,
            failures=tuple(failures),
        )

    seeds = master.spawn(4)

    # Family 1: two-level instrument, contrast between two clean levels.
    z2 = ("z0", "z1")
    base1 = _two_level_scenario(z2)
    families.append(
        run_family(
            "two-level-IV contrast",
            base1,
            _with_extra(base1, "ill"),
            _with_extra(base1, "con"),
            classic_term_sets(z2, "x", "xp"),
            lambda dist: closed_form_classic(dist, "x", "xp"),
            seeds[0],
        )
    )

    # Family 2: two-level instrument, single-level counterfactual risk.
    base2 = Scenario(
        instrument_levels=z2,
        levels=(ExposureLevel("x"),),
        estimand=Estimand(kind="counterfactual_risk", x="x"),
    )
    families.append(
        run_family(
            "two-level-IV single risk",
            base2,
            _with_extra(base2, "ill"),
            _with_extra(base2, "con"),
            single_level_term_sets(z2, "x"),
            lambda dist: closed_form_single_level(dist, "x"),
            seeds[1],
            derive_base=False,
        )
    )

    # Family 3: three-level instrument, two clean levels.
    z3 = ("z0", "z1", "z2")
    base3 = _two_level_scenario(z3)
    families.append(
        run_family(
            "three-level-IV two clean levels",
            base3,
            _with_extra(base3, "ill"),
            _with_extra(base3, "con"),
            None,
            None,
            seeds[2],
        )
    )

    # Family 4: three-level instrument, three clean levels.
    base4 = Scenario(
        instrument_levels=z3,
        levels=(ExposureLevel("x"), ExposureLevel("xp"), ExposureLevel("xpp")),
        estimand=Estimand(kind="risk_difference", x="x", x_prime="xp"),
    )
    families.append(
        run_family(
            "three-level-IV three clean levels",
            base4,
            _with_extra(base4, "ill"),
            _with_extra(base4, "con"),
            None,
            None,
            seeds[3],
        )
    )

    return EquivalenceReport(trials=trials, seed=seed, families=tuple(families))


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
    final = rows[[i for i in range(len(rows)) if epsilons[i] == 0][0]] if any(
        e == 0 for e in epsilons
    ) else None
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

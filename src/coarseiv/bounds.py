"""Exact LP bounds and transcribed closed-form bound evaluators.

The numeric path minimizes/maximizes the estimand over the response-type
polytope {q >= 0, A q = p} with exact rational arithmetic, over the
identical-column groups of `response.merge_columns`.

The closed-form path evaluates transcribed published term sets: the ten-term
contrast bounds for a two-level instrument with three interchangeable clean
exposure levels, their classic eight-term restriction for two levels of
interest, and the two-term single-level counterfactual-risk bounds;
`closed_form_for` picks the one that applies to a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import gt
from typing import Sequence

import numpy as np

from .data import (
    Estimand,
    ExposureLevel,
    InputError,
    ObservedDistribution,
    Scenario,
    validate,
)
from .exactlp import ExactSimplex, Infeasible, LpOutcome, _Vertex, integer_rhs, verify_farkas
from .response import CapExceeded, ConstraintSystem, merge_columns
from .symbolic import SymbolicBoundSet, Term, _Gauge

__all__ = [
    "BoundResult",
    "BoundsSolver",
    "CapExceeded",
    "InfeasibleDistribution",
    "classic_term_sets",
    "closed_form_classic",
    "closed_form_for",
    "closed_form_single_level",
    "closed_form_ternary_contrast",
    "numeric_bounds",
    "single_level_term_sets",
    "ternary_term_sets",
]

TRANSCRIPTION_NOTE = (
    "Two upper-bound terms are transcribed from a printed source whose "
    "subscripts omit the exposure label; this implementation reads both "
    "as cells of the third level and machine-checks that reading against "
    "the exact linear program."
)

# Most pending right-hand sides `BoundsSolver.solve_batch` resolves in one
# lockstep round (`ExactSimplex.resolve_many`).  Rounds of 64 or 128 were no
# faster on the bootstrap and held larger temporaries.
_ROUND_CAP = 32


class InfeasibleDistribution(RuntimeError):
    """Observed distribution violates the scenario's implied constraints.

    Carries a Farkas certificate: a row combination ``certificate`` (keyed
    by observable cell) with ``sum(certificate[r] * p[r]) = violation > 0``
    while every response-type column has nonpositive inner product with it.
    """

    def __init__(self, certificate: dict, violation: Fraction):
        self.certificate = certificate
        self.violation = violation
        pretty = ", ".join(
            f"{coef}*p[{k if isinstance(k, str) else ','.join(map(str, k))}]"
            for k, coef in certificate.items()
        )
        super().__init__(
            "observed distribution is incompatible with the scenario: "
            f"the combination {pretty} = {violation} must be <= 0 for any "
            "distribution the scenario can generate (use slack mode to bound "
            "at the nearest compatible distribution instead)"
        )


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Lower/upper bound values with attaining certificates and provenance.

    On the LP path ``lp_optima`` holds the lower and upper optima, each with
    the response type that represents every merged column; the certificates
    (response type -> weight) are built from them on first read.
    """

    lower: Fraction
    upper: Fraction
    method: str  # "lp" | "closed-form"
    scenario: Scenario | None = None
    estimand: Estimand | None = None
    term_sets: tuple[SymbolicBoundSet, SymbolicBoundSet] | None = None
    diagnostics: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    lp_optima: tuple[tuple[LpOutcome, Sequence[int]], ...] | None = field(
        default=None, repr=False
    )

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.lower, self.upper)

    @cached_property
    def lower_certificate(self) -> dict[int, Fraction] | None:
        return self._certificate(0)

    @cached_property
    def upper_certificate(self) -> dict[int, Fraction] | None:
        return self._certificate(1)

    def _certificate(self, side: int) -> dict[int, Fraction] | None:
        if self.lp_optima is None:
            return None
        out, reps = self.lp_optima[side]
        return {reps[g]: v for g, v in out.solution.items() if v}


# -- solver -----------------------------------------------------------------------


class BoundsSolver:
    """Reusable exact bound solver with warm starts across right-hand sides.

    :meth:`solve_b` answers one right-hand side at a time (the `bounds`
    command, the bootstrap's point estimate, the oracle's tightness audit).
    After the first (cold) solve, each new right-hand side is answered by
    `ExactSimplex.resolve_b`, one table of the lockstep dual simplex run
    from the last optimal basis (zero pivots when it still fits): a
    certified optimum, typically an order of magnitude cheaper than a cold
    solve.  The right-hand side may be given as rationals or, with
    ``scale=N``, as integers meaning b / N.

    The bootstrap and the oracle's validity and equivalence audits know all
    their right-hand sides up front and call :meth:`solve_batch` once per
    system.  A bound's value is the unique LP optimum
    whatever basis attains it, so each new optimal basis is screened
    against every pending right-hand side in one exact product, and answers
    all those it is primal feasible for.  The rest are solved in rounds by
    the lockstep dual simplex (`ExactSimplex.resolve_many`), each
    right-hand side starting from the least infeasible basis screened
    against it.  Rounds start at one right-hand side and double up to
    ``_ROUND_CAP`` while their screens answer rows; a round whose screens
    answered none is followed by one of ``_ROUND_CAP``.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.merged = merge_columns(system)
        A = self.merged.columns.T
        self._lo = ExactSimplex(A, self.merged.min_costs)
        self._hi = ExactSimplex(A, [-c for c in self.merged.max_costs])
        self._slack_lp: ExactSimplex | None = None
        norm_idx = system.row_keys.index("normalization")
        self._cell_rows = [i for i in range(system.n_rows) if i != norm_idx]

    # - internals -

    def _wrap_infeasible(self, exc: Infeasible) -> InfeasibleDistribution:
        cert = {
            self.system.row_keys[i]: coef
            for i, coef in enumerate(exc.farkas)
            if coef != 0
        }
        return InfeasibleDistribution(cert, exc.violation)

    def project_slack(self, b: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
        """L1-minimal feasible adjustment of the cell rows.

        Returns (projected b, total absolute adjustment).  The normalization
        row is kept hard so the projected values remain a distribution.
        """
        n_struct = len(self.merged.columns)
        if self._slack_lp is None:
            # [A | +e_r, -e_r for each cell row r], each slack at cost 1.
            units = np.eye(self.system.n_rows, dtype=np.int64)[:, self._cell_rows]
            A = np.hstack([self.merged.columns.T, np.kron(units, [1, -1])])
            costs = [0] * n_struct + [1] * (A.shape[1] - n_struct)
            self._slack_lp = ExactSimplex(A, costs)
        out = self._slack_lp.resolve_b(b)
        projected = list(b)
        for j, v in out.solution.items():
            if j >= n_struct and v:
                k, sign = divmod(j - n_struct, 2)
                row = self._cell_rows[k]
                projected[row] += v if sign else -v
        return projected, out.value

    def _slack_start(self) -> _Vertex:
        # The optimal basis `project_slack` has just found, as a start for the
        # lower LP at the projected table.  A basic slack +-e_r holds its row
        # at the slack's value, which the projection removes: row r's
        # artificial takes its place at level 0 (M's row negated for -e_r),
        # and the slack LP's own artificials keep their rows.  The
        # structural levels stay, so the start is feasible for the projection.
        vx = self._slack_lp._last
        n, slacks = len(self.merged.columns), 2 * len(self._cell_rows)
        basis, signs = [], []
        for var in vx.basis:
            if n <= var < n + slacks:
                k, negative = divmod(var - n, 2)
                var, sign = n + self._cell_rows[k], -1 if negative else 1
            else:
                var, sign = var if var < n else var - slacks, 1
            basis.append(var)
            signs.append(sign)
        return _Vertex(tuple(basis), vx.M * np.array(signs)[:, None], vx.d)

    def _rescue(self, b: Sequence[int], scale: int, exc: Infeasible, slack: bool) -> BoundResult:
        # Finish a solve whose lower LP raised `exc` on b~ / scale: raise the
        # checked certificate, or with `slack` bound at the slack projection.
        wrapped = self._wrap_infeasible(exc)
        if not verify_farkas(self._lo.A, b, exc.farkas):
            raise AssertionError("invalid infeasibility certificate") from exc
        if not slack:
            raise wrapped from None
        projected, total = self.project_slack([Fraction(v, scale) for v in b])
        b, scale = integer_rhs(projected)
        note = (
            "SLACK PROJECTION APPLIED: the observed distribution violates "
            "the scenario's implied constraints (total L1 adjustment "
            f"{total}); bounds are computed at the nearest compatible "
            "distribution and are not bounds for the raw data."
        )
        lo = self._lo.resolve_b(b, scale, start=self._slack_start())
        slack_diagnostics = {"slack_total": total, "slack_certificate": wrapped.certificate}
        return self._result(b, scale, lo, slack_diagnostics, (note,))

    def _result(
        self,
        b: Sequence[int],
        scale: int,
        lo: LpOutcome,
        slack_diagnostics: dict | None = None,
        notes: tuple[str, ...] = (),
    ) -> BoundResult:
        # A cold upper solve starts from the phase-1 basis the lower side has
        # just found for this b: phase 1 ignores the costs.
        hi = self._hi.resolve_b(b, scale, start=self._lo.phase1)
        lower, upper = lo.value, -hi.value
        if lower > upper:
            raise AssertionError("LP returned crossed bounds")
        return BoundResult(
            lower=lower,
            upper=upper,
            method="lp",
            scenario=self.system.scenario,
            estimand=self.system.estimand,
            diagnostics={
                "n_variables": self.system.n_variables,
                "n_merged_columns": len(self.merged.columns),
                **(slack_diagnostics or {}),
                "pivots_lower": lo.pivots,
                "pivots_upper": hi.pivots,
            },
            notes=notes,
            lp_optima=((lo, self.merged.min_reps), (hi, self.merged.max_reps)),
        )

    def _solve(self, b: Sequence[int], scale: int, slack: bool) -> BoundResult:
        # `solve_b` at integers b over `scale`; `solve_batch`'s first row comes
        # here too, so the batch never goes through the public per-row call.
        try:
            lo = self._lo.resolve_b(b, scale)
        except Infeasible as exc:
            return self._rescue(b, scale, exc, slack)
        return self._result(b, scale, lo)

    # - public API -

    def solve_b(
        self, b: Sequence, *, slack: bool = False, scale: int | None = None
    ) -> BoundResult:
        if scale is None:
            b, scale = integer_rhs(b)
        return self._solve(b, scale, slack)

    def solve_batch(
        self, B: np.ndarray, scale: int
    ) -> tuple[list[Fraction], list[Fraction], list[bool]]:
        """Bounds at many right-hand sides: each row of B, as integers over `scale`.

        Returns (lowers, uppers, rescued), one entry per row: the bounds
        ``solve_b(row, slack=True, scale=scale)`` gives, and whether it
        applied the slack projection.  Row 0 is solved as `solve_b` solves
        it, without calling it.  Then, one side at a time, each new optimal
        basis is screened against every pending row at once
        (`ExactSimplex.screen`), which answers each row
        it is primal feasible for and records, for the others, how
        infeasible it is there.  The rows still pending are resolved in
        rounds, first pending first, by `ExactSimplex.resolve_many`, each
        row starting from the least infeasible basis screened against it
        (ties to the later one).  The first round is one row; the next
        doubles it, up to ``_ROUND_CAP``, if the round's screens answered a
        pending row, and is ``_ROUND_CAP`` rows if they answered none.
        A row whose LP is infeasible comes back from `resolve_many` with its
        Farkas certificate, takes the slack path and leaves both sides.
        """
        R = len(B)
        if (B < 0).any():
            raise ValueError("b must be nonnegative")
        if not R:
            return [], [], []
        b_bits = int(B.sum(axis=1, dtype=object).max()).bit_length()
        sides = (self._lo, self._hi)
        values: tuple[list, list] = ([None] * R, [None] * R)
        rescued = [False] * R
        pending = [np.arange(1, R), np.arange(1, R)]
        # Per side and row: the least infeasible basis screened against the
        # row while it was pending, and its shortfall there.
        starts = (np.full(R, None), np.full(R, None))
        shortfall = (np.full(R, np.inf), np.full(R, np.inf))

        def screen(side: int, vx) -> int:
            # Answer every pending row the optimal basis `vx` fits, and make
            # it the start of each other row it is the least infeasible for.
            # Returns how many rows it answered.
            todo = pending[side]
            if not todo.size:
                return 0
            fits, nums, short = sides[side].screen(vx, B[todo], b_bits)
            denom = (vx.d if side == 0 else -vx.d) * scale
            for j, num in zip(todo[fits].tolist(), nums.tolist()):
                values[side][j] = Fraction(num, denom)
            starts[side][todo[fits]] = None
            todo, short = todo[~fits], short[~fits]
            closer = short <= shortfall[side][todo]
            shortfall[side][todo[closer]] = short[closer]
            starts[side][todo[closer]] = vx
            pending[side] = todo
            return int(fits.sum())

        first = self._solve(B[0].tolist(), scale, slack=True)
        rescued[0] = "slack_total" in first.diagnostics
        for side, value in enumerate(first.interval):
            values[side][0] = value
            screen(side, first.lp_optima[side][0].vertex)
        for side, lp in enumerate(sides):
            size = 1
            while pending[side].size:
                rows, pending[side] = pending[side][:size], pending[side][size:]
                outs = lp.resolve_many(starts[side][rows].tolist(), B[rows], scale)
                starts[side][rows] = None
                # Tables of one round can reach the same optimal basis; one
                # screen of it is enough.
                new_bases = set()
                answered = 0
                for i, out in zip(rows.tolist(), outs):
                    if isinstance(out, Infeasible):
                        res = self._rescue(B[i].tolist(), scale, out, slack=True)
                        values[0][i], values[1][i], rescued[i] = res.lower, res.upper, True
                        other = pending[1 - side]
                        pending[1 - side] = other[other != i]
                        starts[1 - side][i] = None
                        continue
                    values[side][i] = out.value if side == 0 else -out.value
                    if out.basis not in new_bases:
                        new_bases.add(out.basis)
                        answered += screen(side, out.vertex)
                # Small rounds pay off only while their screens answer rows.
                size = min(2 * size, _ROUND_CAP) if answered else _ROUND_CAP
        lowers, uppers = values
        if any(map(gt, lowers, uppers)):
            raise AssertionError("LP returned crossed bounds")
        return lowers, uppers, rescued

    def solve(self, dist: ObservedDistribution, *, slack: bool = False) -> BoundResult:
        validate(self.system.scenario, dist)
        return self.solve_b(self.system.rhs(dist), slack=slack)


def numeric_bounds(
    system: ConstraintSystem,
    dist: ObservedDistribution,
    *,
    slack: bool = False,
) -> BoundResult:
    """Exact tight bounds on the system's estimand at the observed distribution."""
    return BoundsSolver(system).solve(dist, slack=slack)


# -- transcribed closed forms -----------------------------------------------------


def _require_two_instruments(dist: ObservedDistribution) -> tuple[str, str]:
    if len(dist.instrument_levels) != 2:
        raise InputError(
            "closed forms require a two-level instrument, got "
            f"{len(dist.instrument_levels)} levels"
        )
    return dist.instrument_levels[0], dist.instrument_levels[1]


def _universe(instruments: Sequence[str], levels: Sequence[str]):
    return [(z, x, y) for z in instruments for x in levels for y in (0, 1)]


def _terms(raw, direction: str, universe) -> tuple[Term, ...]:
    if any(v for _, cells in raw for c, v in cells.items() if c not in universe):
        raise InputError("term references cells outside the declared universe")
    gauge = _Gauge.over(universe, direction)
    return tuple(
        gauge.term(Fraction(const), [Fraction(cells.get(c, 0)) for c in gauge.cells])
        for const, cells in raw
    )


def _contrast_raw(z0: str, z1: str, a: str, b: str, c: str):
    """Raw (constant, cell-coefficient) transcriptions of the contrast bounds.

    a/b are the contrast levels (estimand = risk at b minus risk at a), c the
    third level; only the last two terms of each direction involve c, so the
    classic eight-term sets are the [:8] prefixes.
    """
    lower_raw = [
        (-1, {(z1, a, 0): 1, (z1, b, 1): 1}),
        (-1, {(z1, a, 0): 1, (z0, b, 1): 1}),
        (-1, {(z0, a, 0): 1, (z0, b, 1): 1}),
        (-1, {(z0, a, 0): 1, (z1, b, 1): 1}),
        (-2, {(z0, a, 0): 2, (z1, a, 1): 1, (z0, b, 1): 1, (z1, b, 1): 1}),
        (-2, {(z0, a, 0): 1, (z1, a, 0): 1, (z0, b, 0): 1, (z1, b, 1): 2}),
        (-2, {(z1, a, 0): 2, (z0, a, 1): 1, (z0, b, 1): 1, (z1, b, 1): 1}),
        (-2, {(z0, a, 0): 1, (z1, a, 0): 1, (z1, b, 0): 1, (z0, b, 1): 2}),
        (-2, {(z1, a, 0): 1, (z0, b, 1): 1, (z0, c, 1): 1, (z1, c, 0): 1,
              (z0, a, 0): 1, (z1, b, 1): 1}),
        (-2, {(z0, a, 0): 1, (z1, b, 1): 1, (z0, c, 0): 1, (z1, c, 1): 1,
              (z1, a, 0): 1, (z0, b, 1): 1}),
    ]
    upper_raw = [
        (1, {(z1, b, 0): -1, (z0, a, 1): -1}),
        (1, {(z1, b, 0): -1, (z1, a, 1): -1}),
        (1, {(z0, b, 0): -1, (z0, a, 1): -1}),
        (1, {(z0, b, 0): -1, (z1, a, 1): -1}),
        (2, {(z1, b, 0): -2, (z0, a, 1): -1, (z1, a, 1): -1, (z0, b, 1): -1}),
        (2, {(z1, a, 0): -1, (z0, b, 0): -1, (z1, b, 0): -1, (z0, a, 1): -2}),
        (2, {(z0, b, 0): -2, (z0, a, 1): -1, (z1, a, 1): -1, (z1, b, 1): -1}),
        (2, {(z0, a, 0): -1, (z0, b, 0): -1, (z1, b, 0): -1, (z1, a, 1): -2}),
        (2, {(z0, a, 1): -1, (z1, b, 0): -1, (z0, c, 1): -1, (z1, c, 0): -1,
             (z1, a, 1): -1, (z0, b, 0): -1}),
        (2, {(z1, a, 1): -1, (z0, b, 0): -1, (z0, c, 0): -1, (z1, c, 1): -1,
             (z0, a, 1): -1, (z1, b, 0): -1}),
    ]
    return lower_raw, upper_raw


def ternary_term_sets(
    instruments: Sequence[str],
    x: str,
    x_prime: str,
    x_other: str,
    levels: Sequence[str] | None = None,
) -> tuple[SymbolicBoundSet, SymbolicBoundSet]:
    """Ten-term contrast bounds for three clean levels under a binary instrument."""
    z0, z1 = instruments
    levels = tuple(levels) if levels is not None else (x, x_prime, x_other)
    uni = _universe(instruments, levels)
    lower_raw, upper_raw = _contrast_raw(z0, z1, x, x_prime, x_other)
    estimand = Estimand(kind="risk_difference", x=x, x_prime=x_prime)
    common = dict(
        provenance="transcribed",
        instrument_levels=(z0, z1),
        exposure_levels=levels,
        estimand=estimand,
        notes=(TRANSCRIPTION_NOTE,),
    )
    return (
        SymbolicBoundSet(direction="lower", terms=_terms(lower_raw, "lower", uni), **common),
        SymbolicBoundSet(direction="upper", terms=_terms(upper_raw, "upper", uni), **common),
    )


def classic_term_sets(
    instruments: Sequence[str],
    x: str,
    x_prime: str,
    levels: Sequence[str] | None = None,
) -> tuple[SymbolicBoundSet, SymbolicBoundSet]:
    """Classic eight-term contrast bounds (binary instrument, two levels of interest)."""
    z0, z1 = instruments
    levels = tuple(levels) if levels is not None else (x, x_prime)
    uni = _universe(instruments, levels)
    lower_raw, upper_raw = _contrast_raw(z0, z1, x, x_prime, None)
    lower_raw, upper_raw = lower_raw[:8], upper_raw[:8]
    estimand = Estimand(kind="risk_difference", x=x, x_prime=x_prime)
    common = dict(
        provenance="transcribed",
        instrument_levels=(z0, z1),
        exposure_levels=levels,
        estimand=estimand,
    )
    return (
        SymbolicBoundSet(direction="lower", terms=_terms(lower_raw, "lower", uni), **common),
        SymbolicBoundSet(direction="upper", terms=_terms(upper_raw, "upper", uni), **common),
    )


def single_level_term_sets(
    instruments: Sequence[str],
    x: str,
    levels: Sequence[str] | None = None,
) -> tuple[SymbolicBoundSet, SymbolicBoundSet]:
    """Two-term counterfactual-risk bounds for the only clean level."""
    z0, z1 = instruments
    levels = tuple(levels) if levels is not None else (x,)
    uni = _universe(instruments, levels)
    estimand = Estimand(kind="counterfactual_risk", x=x)
    common = dict(
        provenance="transcribed",
        instrument_levels=(z0, z1),
        exposure_levels=levels,
        estimand=estimand,
    )
    lower_raw = [(0, {(z0, x, 1): 1}), (0, {(z1, x, 1): 1})]
    upper_raw = [(1, {(z0, x, 0): -1}), (1, {(z1, x, 0): -1})]
    return (
        SymbolicBoundSet(direction="lower", terms=_terms(lower_raw, "lower", uni), **common),
        SymbolicBoundSet(direction="upper", terms=_terms(upper_raw, "upper", uni), **common),
    )


def _closed_form_result(
    dist: ObservedDistribution,
    lower_set: SymbolicBoundSet,
    upper_set: SymbolicBoundSet,
    scenario: Scenario,
    extra_notes: tuple[str, ...] = (),
) -> BoundResult:
    lower = lower_set.evaluate(dist)
    upper = upper_set.evaluate(dist)
    notes = tuple(lower_set.notes) + extra_notes
    if lower > upper:
        notes += (
            "CROSSED INTERVAL: the evaluated distribution violates the "
            "scenario's implied constraints, so the closed forms do not "
            "bracket any achievable estimand value.",
        )
    return BoundResult(
        lower=lower,
        upper=upper,
        method="closed-form",
        scenario=scenario,
        estimand=lower_set.estimand,
        term_sets=(lower_set, upper_set),
        diagnostics={
            "n_lower_terms": len(lower_set.terms),
            "n_upper_terms": len(upper_set.terms),
        },
        notes=notes,
    )


def closed_form_ternary_contrast(
    dist: ObservedDistribution,
    x: str,
    x_prime: str,
    x_other: str,
    *,
    term_sets: tuple[SymbolicBoundSet, SymbolicBoundSet] | None = None,
) -> BoundResult:
    """Evaluate the ten-term contrast bounds exactly.

    `term_sets`, if given, are ``ternary_term_sets`` for dist's levels,
    built once by a caller that evaluates many distributions.
    """
    instruments = _require_two_instruments(dist)
    wanted = {x, x_prime, x_other}
    if len(wanted) != 3 or set(dist.exposure_levels) != wanted:
        raise InputError(
            "ternary closed form needs exactly the three exposure levels "
            f"{sorted(wanted)}, got {list(dist.exposure_levels)}"
        )
    lower_set, upper_set = term_sets or ternary_term_sets(
        instruments, x, x_prime, x_other, levels=dist.exposure_levels
    )
    scenario = Scenario(
        instrument_levels=instruments,
        levels=tuple(ExposureLevel(l) for l in dist.exposure_levels),
        estimand=lower_set.estimand,
    )
    return _closed_form_result(dist, lower_set, upper_set, scenario)


def closed_form_classic(
    dist: ObservedDistribution,
    x: str,
    x_prime: str,
    *,
    term_sets: tuple[SymbolicBoundSet, SymbolicBoundSet] | None = None,
) -> BoundResult:
    """Evaluate the classic eight-term contrast bounds exactly.

    The distribution may carry one extra exposure level; the formulas place
    no weight on its cells.  `term_sets`, if given, are
    ``classic_term_sets`` for dist's levels.
    """
    instruments = _require_two_instruments(dist)
    if x == x_prime or x not in dist.exposure_levels or x_prime not in dist.exposure_levels:
        raise InputError(
            f"contrast levels {x!r}, {x_prime!r} must be distinct exposure "
            f"levels of the distribution {list(dist.exposure_levels)}"
        )
    if len(dist.exposure_levels) > 3:
        raise InputError(
            "classic closed form supports at most one extra exposure level"
        )
    lower_set, upper_set = term_sets or classic_term_sets(
        instruments, x, x_prime, levels=dist.exposure_levels
    )
    scenario_levels = tuple(
        ExposureLevel(l)
        if l in (x, x_prime)
        else ExposureLevel(l, well_defining=False, z_dependent=True)
        for l in dist.exposure_levels
    )
    scenario = Scenario(
        instrument_levels=instruments,
        levels=scenario_levels,
        estimand=lower_set.estimand,
    )
    return _closed_form_result(dist, lower_set, upper_set, scenario)


def closed_form_single_level(
    dist: ObservedDistribution,
    x: str,
    *,
    term_sets: tuple[SymbolicBoundSet, SymbolicBoundSet] | None = None,
) -> BoundResult:
    """Evaluate the two-term counterfactual-risk bounds exactly.

    `term_sets`, if given, are ``single_level_term_sets`` for dist's levels.
    """
    instruments = _require_two_instruments(dist)
    if x not in dist.exposure_levels:
        raise InputError(f"{x!r} is not an exposure level of the distribution")
    if len(dist.exposure_levels) != 2:
        raise InputError(
            "single-level closed form expects exactly two exposure levels "
            "(the level of interest plus the pooled remainder), got "
            f"{list(dist.exposure_levels)}"
        )
    lower_set, upper_set = term_sets or single_level_term_sets(
        instruments, x, levels=dist.exposure_levels
    )
    scenario_levels = tuple(
        ExposureLevel(l)
        if l == x
        else ExposureLevel(l, well_defining=False, z_dependent=True)
        for l in dist.exposure_levels
    )
    scenario = Scenario(
        instrument_levels=instruments,
        levels=scenario_levels,
        estimand=lower_set.estimand,
    )
    return _closed_form_result(dist, lower_set, upper_set, scenario)


def closed_form_for(scenario: Scenario):
    """The transcribed closed form that applies to the scenario, or None.

    Returns ``(form, evaluate, expected_tight)``: the form's name, a function
    from an observed distribution over the scenario's levels to the form's
    `BoundResult`, and whether the form is sharp under the scenario, so that
    it must equal the LP bounds.  The form's term sets are built here, once.
    A closed form needs a two-level instrument; the estimand's levels are
    clean by construction of `Scenario`.
    """
    est = scenario.estimand
    if scenario.instrument_arity != 2:
        return None
    zs, labels = scenario.instrument_levels, scenario.level_labels()
    n_clean = len(scenario.clean_labels())
    if est.kind == "risk_difference":
        x, xp = est.x, est.x_prime
        if len(labels) == 3 == n_clean:
            xo = next(l for l in labels if l not in (x, xp))
            sets = ternary_term_sets(zs, x, xp, xo, levels=labels)
            return (
                "ten-term",
                lambda dist: closed_form_ternary_contrast(dist, x, xp, xo, term_sets=sets),
                True,
            )
        if len(labels) <= 3 and n_clean == 2:
            sets = classic_term_sets(zs, x, xp, levels=labels)
            return (
                "eight-term",
                lambda dist: closed_form_classic(dist, x, xp, term_sets=sets),
                True,
            )
    elif est.kind == "counterfactual_risk" and len(labels) == 2:
        # The two-term form is sharp only with the companion level z-dependent.
        sets = single_level_term_sets(zs, est.x, levels=labels)
        return (
            "two-term",
            lambda dist: closed_form_single_level(dist, est.x, term_sets=sets),
            n_clean == 1,
        )
    return None

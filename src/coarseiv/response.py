"""Counterfactual response-function types and the observable constraint system.

A unit's behavior is summarized by a pair of deterministic maps: an exposure
response (instrument level -> exposure level) and an outcome response giving a
fixed bit per clean exposure level plus, for each z-dependent level, a bit per
instrument level.  The joint distribution q over pairs is tied to the observed
cell probabilities by one equality row per (z, x, y) cell plus an explicit
normalization row; both the rows and the estimand objective are linear in q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .data import Estimand, InputError, ObservedDistribution, Scenario

__all__ = [
    "ConstraintSystem",
    "ExposureResponseType",
    "OutcomeResponseType",
    "build_constraint_system",
    "enumerate_exposure_types",
    "enumerate_outcome_types",
]


@dataclass(frozen=True)
class ExposureResponseType:
    """Total map from instrument levels to exposure levels (by index)."""

    assignment: tuple[int, ...]  # exposure level index per instrument level


@dataclass(frozen=True)
class OutcomeResponseType:
    """Outcome bits: one per clean level, and one per (z-dependent level, z)."""

    clean_bits: tuple[int, ...]
    zdep_bits: tuple[tuple[int, ...], ...]


def enumerate_exposure_types(scenario: Scenario) -> list[ExposureResponseType]:
    """All K_x^K_z exposure responses in lexicographic order of level indices."""
    k_x = len(scenario.levels)
    k_z = scenario.instrument_arity
    return [
        ExposureResponseType(assignment)
        for assignment in itertools.product(range(k_x), repeat=k_z)
    ]


def enumerate_outcome_types(scenario: Scenario) -> list[OutcomeResponseType]:
    """All 2^#clean * prod(2^K_z per z-dependent level) outcome responses.

    Ordering is lexicographic: clean bits vary slowest, then each z-dependent
    level's per-instrument map in scenario level order.
    """
    k_z = scenario.instrument_arity
    n_clean = sum(1 for lv in scenario.levels if lv.clean)
    n_zdep = sum(1 for lv in scenario.levels if lv.z_dependent)
    clean_space = itertools.product((0, 1), repeat=n_clean)
    out: list[OutcomeResponseType] = []
    for clean_bits in clean_space:
        zdep_space = itertools.product(
            *(itertools.product((0, 1), repeat=k_z) for _ in range(n_zdep))
        )
        for zdep_bits in zdep_space:
            out.append(OutcomeResponseType(tuple(clean_bits), tuple(zdep_bits)))
    return out


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality rows A q = b plus the linear estimand objective.

    Rows are the cells (z, x, y) in z-major, level-order, y order, followed by
    the explicit normalization row.  Columns carry coefficient 1 in exactly
    one cell row per instrument level plus the normalization row.
    """

    scenario: Scenario
    estimand: Estimand
    row_keys: tuple[tuple[str, str, int] | str, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]  # sparse (row, coef) per variable
    objective: tuple[int, ...]
    exposure_types: tuple[ExposureResponseType, ...]
    outcome_types: tuple[OutcomeResponseType, ...]

    @property
    def n_variables(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.row_keys)

    def variable_pair(self, j: int) -> tuple[ExposureResponseType, OutcomeResponseType]:
        n_out = len(self.outcome_types)
        return self.exposure_types[j // n_out], self.outcome_types[j % n_out]

    def rhs(self, dist: ObservedDistribution) -> list[Fraction]:
        """Observable right-hand side aligned with row_keys."""
        b: list[Fraction] = []
        for key in self.row_keys:
            if key == "normalization":
                b.append(Fraction(1))
            else:
                z, x, y = key
                b.append(dist.prob(z, x, y))
        return b

    def lp_payload(self) -> tuple:
        """The computationally meaningful content, for bit-identity checks.

        Deliberately excludes the well_defining flags (reporting only) but
        includes everything that shapes the LP: row keys, columns, objective.
        """
        return (self.row_keys, self.columns, self.objective)

    def to_document(self) -> dict:
        """Serializable description for dump-lp."""
        return {
            "schema": "coarseiv/lp/1",
            "instrument_levels": list(self.scenario.instrument_levels),
            "exposure_levels": list(self.scenario.level_labels()),
            "z_dependent": list(self.scenario.zdep_labels()),
            "estimand": {
                "kind": self.estimand.kind,
                "x": self.estimand.x,
                "x_prime": self.estimand.x_prime,
            },
            "rows": [
                "normalization" if key == "normalization" else list(key)
                for key in self.row_keys
            ],
            "n_variables": self.n_variables,
            "columns": [[list(entry) for entry in col] for col in self.columns],
            "objective": list(self.objective),
        }


def build_constraint_system(scenario: Scenario, estimand: Estimand | None = None) -> ConstraintSystem:
    """Assemble rows, columns, and objective for a scenario and estimand."""
    if estimand is None:
        estimand = scenario.estimand
    if estimand is None:
        raise InputError("no estimand given and scenario carries none")
    scenario = scenario.with_estimand(estimand)  # re-runs reference validation

    levels = scenario.levels
    labels = scenario.level_labels()
    clean_index = {lv.label: i for i, lv in enumerate(lv for lv in levels if lv.clean)}
    zdep_index = {lv.label: i for i, lv in enumerate(lv for lv in levels if lv.z_dependent)}

    row_keys: list[tuple[str, str, int] | str] = [
        (z, x, y) for z in scenario.instrument_levels for x in labels for y in (0, 1)
    ]
    row_of = {key: i for i, key in enumerate(row_keys)}
    norm_row = len(row_keys)
    row_keys.append("normalization")

    exposure_types = enumerate_exposure_types(scenario)
    outcome_types = enumerate_outcome_types(scenario)

    def outcome_bit(otype: OutcomeResponseType, level_label: str, z_pos: int) -> int:
        if level_label in clean_index:
            return otype.clean_bits[clean_index[level_label]]
        return otype.zdep_bits[zdep_index[level_label]][z_pos]

    columns: list[tuple[tuple[int, int], ...]] = []
    objective: list[int] = []
    for etype in exposure_types:
        for otype in outcome_types:
            entries = []
            for z_pos, z in enumerate(scenario.instrument_levels):
                x_label = labels[etype.assignment[z_pos]]
                y = outcome_bit(otype, x_label, z_pos)
                entries.append((row_of[(z, x_label, y)], 1))
            entries.append((norm_row, 1))
            columns.append(tuple(entries))
            if estimand.kind == "counterfactual_risk":
                coef = otype.clean_bits[clean_index[estimand.x]]
            else:
                coef = (
                    otype.clean_bits[clean_index[estimand.x_prime]]
                    - otype.clean_bits[clean_index[estimand.x]]
                )
            objective.append(coef)

    return ConstraintSystem(
        scenario=scenario,
        estimand=estimand,
        row_keys=tuple(row_keys),
        columns=tuple(columns),
        objective=tuple(objective),
        exposure_types=tuple(exposure_types),
        outcome_types=tuple(outcome_types),
    )

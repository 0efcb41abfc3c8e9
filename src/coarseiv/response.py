"""Counterfactual response-function types and the observable constraint system.

A unit's behavior is summarized by a pair of deterministic maps: an exposure
response (instrument level -> exposure level) and an outcome response giving a
fixed bit per clean exposure level plus, for each z-dependent level, a bit per
instrument level.  The joint distribution q over pairs is tied to the observed
cell probabilities by one equality row per (z, x, y) cell plus an explicit
normalization row; both the rows and the estimand objective are linear in q.

There are K_x^K_z * 2^#clean * 2^(K_z * #z-dependent) response types and
2 * K_z * K_x + 1 rows; `build_constraint_system` refuses a system past its
caps before it enumerates anything.

Presolve: response types whose constraint columns are identical are
interchangeable except for their objective coefficient, so only the extreme
coefficient per group matters.  `merge_columns` keeps one column per group;
this typically shrinks the variable count by an order of magnitude without
changing any optimum or dual vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .data import Estimand, InputError, ObservedDistribution, Scenario

__all__ = [
    "MAX_ROWS",
    "MAX_VARIABLES",
    "CapExceeded",
    "ConstraintSystem",
    "ExposureResponseType",
    "MergedSystem",
    "OutcomeResponseType",
    "build_constraint_system",
    "enumerate_exposure_types",
    "enumerate_outcome_types",
    "merge_columns",
]

MAX_VARIABLES = 4096  # response types, before the merge
MAX_ROWS = 30


class CapExceeded(RuntimeError):
    """Problem size exceeds the configured enumeration/solve guard."""


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

    def distribution(self, b: Sequence, scale: int) -> ObservedDistribution:
        """The distribution whose cells read b / scale: the inverse of `rhs`."""
        probs = {
            key: Fraction(v, scale)
            for key, v in zip(self.row_keys, b)
            if key != "normalization"
        }
        return ObservedDistribution.from_probs(
            self.scenario.instrument_levels, self.scenario.level_labels(), probs
        )

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


def build_constraint_system(
    scenario: Scenario,
    estimand: Estimand | None = None,
    *,
    max_variables: int = MAX_VARIABLES,
    max_rows: int = MAX_ROWS,
) -> ConstraintSystem:
    """Assemble rows, columns, and objective for a scenario and estimand.

    Raises `CapExceeded`, before any enumeration, when the system would have
    more than ``max_variables`` response types or ``max_rows`` rows.
    """
    if estimand is None:
        estimand = scenario.estimand
    if estimand is None:
        raise InputError("no estimand given and scenario carries none")
    scenario = scenario.with_estimand(estimand)  # re-runs reference validation
    k_z, k_x = scenario.instrument_arity, len(scenario.levels)
    n_clean = len(scenario.clean_labels())
    n_variables = k_x**k_z * 2**n_clean * 2 ** (k_z * (k_x - n_clean))
    n_rows = 2 * k_z * k_x + 1
    if n_variables > max_variables:
        raise CapExceeded(
            f"{n_variables} response-type variables exceed cap {max_variables}"
        )
    if n_rows > max_rows:
        raise CapExceeded(f"{n_rows} rows exceed cap {max_rows}")

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


# -- presolve ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MergedSystem:
    """Identical-column groups of a constraint system."""

    columns: tuple[tuple[tuple[int, int], ...], ...]
    members: tuple[tuple[int, ...], ...]
    min_costs: tuple[int, ...]
    max_costs: tuple[int, ...]
    min_reps: tuple[int, ...]  # original index attaining the group's min cost
    max_reps: tuple[int, ...]


def merge_columns(system: ConstraintSystem) -> MergedSystem:
    """Group identical columns, keeping each group's extreme costs and their types."""
    groups: dict[tuple, list[int]] = {}
    for j, col in enumerate(system.columns):
        groups.setdefault(col, []).append(j)
    columns, members, cmin, cmax, rmin, rmax = [], [], [], [], [], []
    for col, js in groups.items():
        costs = [system.objective[j] for j in js]
        kmin = min(range(len(js)), key=costs.__getitem__)
        kmax = max(range(len(js)), key=costs.__getitem__)
        columns.append(col)
        members.append(tuple(js))
        cmin.append(costs[kmin])
        cmax.append(costs[kmax])
        rmin.append(js[kmin])
        rmax.append(js[kmax])
    return MergedSystem(
        columns=tuple(columns),
        members=tuple(members),
        min_costs=tuple(cmin),
        max_costs=tuple(cmax),
        min_reps=tuple(rmin),
        max_reps=tuple(rmax),
    )

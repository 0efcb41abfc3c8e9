"""Counterfactual response-function types and the observable constraint system.

A unit's behavior is summarized by a pair of deterministic maps: an exposure
response (instrument level -> exposure level) and an outcome response giving a
fixed bit per clean exposure level plus, for each z-dependent level, a bit per
instrument level.  The joint distribution q over pairs is tied to the observed
cell probabilities by one equality row per (z, x, y) cell plus an explicit
normalization row; both the rows and the estimand objective are linear in q.

There are K_x^K_z * 2^#clean * 2^(K_z * #z-dependent) response types and
2 * K_z * K_x + 1 rows; `build_constraint_system` refuses a system past its
caps and enumerates nothing.

Response types whose constraint columns are identical differ only in their
objective coefficient, so only each group's extreme coefficients matter.
`merge_columns` builds the engine's LP, one column per group, straight from
the scenario, as one int64 array with a row per distinct column and a
column per constraint row, filled by one scatter.  Every response type's
column, for the oracle's brute force, is one int64 array filled the same
way (`ConstraintSystem.type_matrix`), built on first read; the per-type
sparse (row, coef) columns that `dump-lp` prints are read off it.  Both
scatters read one outcome-bit layout (`_bit_places`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

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

MAX_VARIABLES = 4096  # response types, not the distinct columns the engine solves over
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
    maps = itertools.product(range(len(scenario.levels)), repeat=scenario.instrument_arity)
    return [ExposureResponseType(assignment) for assignment in maps]


def enumerate_outcome_types(scenario: Scenario) -> list[OutcomeResponseType]:
    """All 2^#clean * prod(2^K_z per z-dependent level) outcome responses.

    Ordering is lexicographic: clean bits vary slowest, then each z-dependent
    level's per-instrument map in scenario level order.
    """
    zdep_maps = list(itertools.product((0, 1), repeat=scenario.instrument_arity))
    return [
        OutcomeResponseType(clean_bits, zdep_bits)
        for clean_bits in itertools.product((0, 1), repeat=len(scenario.clean_labels()))
        for zdep_bits in itertools.product(zdep_maps, repeat=len(scenario.zdep_labels()))
    ]


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality rows A q = b plus the linear estimand objective.

    Rows are the cells (z, x, y) in z-major, level-order, y order, followed by
    the explicit normalization row.  Columns carry coefficient 1 in exactly
    one cell row per instrument level plus the normalization row.  Variable j
    is (exposure_types[j // n_out], outcome_types[j % n_out]), n_out =
    len(outcome_types); the per-type fields are built on first read.
    """

    scenario: Scenario
    estimand: Estimand
    row_keys: tuple[tuple[str, str, int] | str, ...]
    n_variables: int

    @property
    def n_rows(self) -> int:
        return len(self.row_keys)

    @cached_property
    def exposure_types(self) -> tuple[ExposureResponseType, ...]:
        return tuple(enumerate_exposure_types(self.scenario))

    @cached_property
    def outcome_types(self) -> tuple[OutcomeResponseType, ...]:
        return tuple(enumerate_outcome_types(self.scenario))

    @cached_property
    def type_matrix(self) -> np.ndarray:
        """A as one int64 array (response types x rows): row j is type j's column.

        Filled by one scatter, as `merge_columns` fills its distinct columns:
        type e * n_out + o puts its unit of mass, under each instrument level
        z, in the cell row of (z, x_e(z), 0) plus the outcome bit that o
        holds at (x_e(z), z), and in the normalization row.
        """
        scenario = self.scenario
        k_z, k_x = scenario.instrument_arity, len(scenario.levels)
        weight, n_bits = _bit_places(scenario)
        maps = np.array(list(itertools.product(range(k_x), repeat=k_z)), dtype=np.int64)
        z = np.arange(k_z)
        rows = 2 * (z * k_x + maps)  # (exposure maps x k_z): the row of (z, x_e(z), 0)
        read = np.array(weight, dtype=np.int64)[maps, z]  # the place value read there
        bits = (np.arange(1 << n_bits)[:, None] & read[:, None, :]) != 0
        matrix = np.zeros((self.n_variables, self.n_rows), dtype=np.int64)
        np.put_along_axis(matrix, (rows[:, None, :] + bits).reshape(-1, k_z), 1, axis=1)
        matrix[:, -1] = 1  # the normalization row
        matrix.setflags(write=False)  # shared by every reader of the system
        return matrix

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Sparse (row, coef) entries per response type, in row order."""
        rows = np.nonzero(self.type_matrix)[1].reshape(self.n_variables, -1).tolist()
        return tuple(tuple((r, 1) for r in col) for col in rows)

    @cached_property
    def objective(self) -> tuple[int, ...]:
        """Estimand coefficient per response type."""
        estimand, clean = self.estimand, self.scenario.clean_labels()
        psi = [dict(zip(clean, otype.clean_bits)) for otype in self.outcome_types]
        if estimand.kind == "counterfactual_risk":
            coefs = tuple(p[estimand.x] for p in psi)
        else:
            coefs = tuple(p[estimand.x_prime] - p[estimand.x] for p in psi)
        return coefs * len(self.exposure_types)

    def rhs(self, dist: ObservedDistribution) -> list[Fraction]:
        """Observable right-hand side aligned with row_keys."""
        return [Fraction(1) if k == "normalization" else dist.prob(*k) for k in self.row_keys]

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
        includes everything that shapes the LP: row keys, the type matrix
        (its shape and entries), objective.
        """
        matrix = self.type_matrix
        return (self.row_keys, matrix.shape, matrix.tobytes(), self.objective)

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
    """Rows and shape of the system for a scenario and estimand.

    Raises `InputError` for a cap below 1 and `CapExceeded` when the system
    would have more than ``max_variables`` response types or ``max_rows``
    rows.  Enumerates no response type.
    """
    for cap, name in ((max_variables, "response-type"), (max_rows, "row")):
        if cap < 1:
            raise InputError(f"the {name} cap must be at least 1, got {cap}")
    estimand = estimand or scenario.estimand
    if estimand is None:
        raise InputError("no estimand given and scenario carries none")
    scenario = scenario.with_estimand(estimand)  # re-runs reference validation
    k_z, k_x = scenario.instrument_arity, len(scenario.levels)
    n_clean = len(scenario.clean_labels())
    n_variables = k_x**k_z * 2**n_clean * 2 ** (k_z * (k_x - n_clean))
    n_rows = 2 * k_z * k_x + 1
    if n_variables > max_variables:
        raise CapExceeded(f"{n_variables} response-type variables exceed cap {max_variables}")
    if n_rows > max_rows:
        raise CapExceeded(f"{n_rows} rows exceed cap {max_rows}")
    labels = scenario.level_labels()
    row_keys = tuple(
        (z, x, y) for z in scenario.instrument_levels for x in labels for y in (0, 1)
    ) + ("normalization",)
    return ConstraintSystem(scenario, estimand, row_keys, n_variables)


# -- the engine's LP ----------------------------------------------------------------


def _bit_places(scenario: Scenario) -> tuple[list[list[int]], int]:
    """The outcome-bit layout: ``weight[x][z]``, the place value in the
    outcome-type index of the bit a unit at level x under instrument level z
    reads, and the number of outcome bits.

    Clean bits come first, most significant, then each z-dependent level's
    bit per instrument level, in `enumerate_outcome_types`' product order.
    """
    k_z, levels = scenario.instrument_arity, scenario.levels
    n_clean = len(scenario.clean_labels())
    n_bits = n_clean + k_z * (len(levels) - n_clean)
    place = [1 << i for i in reversed(range(n_bits))]
    clean_place, zdep_place = iter(place[:n_clean]), iter(place[n_clean:])
    weight = [
        [next(clean_place)] * k_z if lv.clean else [next(zdep_place) for _ in range(k_z)]
        for lv in levels
    ]
    return weight, n_bits


@dataclass(frozen=True, eq=False)
class MergedSystem:
    """Identical-column groups of a constraint system.

    `columns` is one int64 array (distinct columns x rows): row j is distinct
    column j of A, so ``columns.T`` is the engine's constraint matrix.
    """

    columns: np.ndarray
    min_costs: tuple[int, ...]
    max_costs: tuple[int, ...]
    min_reps: tuple[int, ...]  # smallest response type attaining the group's min cost
    max_reps: tuple[int, ...]


def merge_columns(system: ConstraintSystem) -> MergedSystem:
    """The distinct columns, in order of first occurrence among the response
    types, with each group's extreme costs and the smallest types attaining them.

    Built without enumerating types.  Exposure map e fixes the cell (z, x_e(z))
    of each z and so the outcome bits it reads: the bit of each clean level
    x_e(z) and the (x_e(z), z) bit of each z-dependent one.  Its types are
    e * n_out + o, and o meets the values of the read bits in product order,
    most significant bit first.  A free estimand bit is set only where it
    lowers (min) or raises (max) the cost; every other free bit is 0.
    """
    scenario, levels = system.scenario, system.scenario.levels
    k_z, k_x = scenario.instrument_arity, len(levels)
    weight, n_bits = _bit_places(scenario)
    level_of = {lv.label: x for x, lv in enumerate(levels)}
    referenced = system.estimand.referenced()  # (x,) or (x_prime, x)
    coef = {weight[level_of[label]][0]: c for label, c in zip(referenced, (1, -1))}

    n_out = 1 << n_bits
    cells, cmin, cmax, rmin, rmax = [], [], [], [], []
    for e, assignment in enumerate(itertools.product(range(k_x), repeat=k_z)):
        read = [weight[x][z] for z, x in enumerate(assignment)]
        fixed = sorted(set(read), reverse=True)
        # Cost and type index of each value of the read bits, in product order.
        costs, types = [0], [e * n_out]
        for w in fixed:
            c = coef.get(w, 0)
            costs = [v + b * c for v in costs for b in (0, 1)]
            types = [v + b * w for v in types for b in (0, 1)]
        free = [(c, w) for w, c in coef.items() if w not in fixed]
        lo_cost, lo_type = sum(c for c, _ in free if c < 0), sum(w for c, w in free if c < 0)
        hi_cost, hi_type = sum(c for c, _ in free if c > 0), sum(w for c, w in free if c > 0)
        cmin += [v + lo_cost for v in costs]
        cmax += [v + hi_cost for v in costs]
        rmin += [v + lo_type for v in types]
        rmax += [v + hi_type for v in types]
        # Per value of the read bits, the cell row of each z: the row of
        # (z, x_e(z), 0) plus the bit read there.
        rows = [2 * (z * k_x + x) for z, x in enumerate(assignment)]
        read_bits = operator.itemgetter(*(fixed.index(w) for w in read))
        for bits in itertools.product((0, 1), repeat=len(fixed)):
            cells += map(operator.add, rows, read_bits(bits))
    columns = np.zeros((len(cmin), 2 * k_z * k_x + 1), dtype=np.int64)
    np.put_along_axis(columns, np.array(cells).reshape(-1, k_z), 1, axis=1)
    columns[:, -1] = 1  # the normalization row
    return MergedSystem(
        columns=columns,
        min_costs=tuple(cmin),
        max_costs=tuple(cmax),
        min_reps=tuple(rmin),
        max_reps=tuple(rmax),
    )

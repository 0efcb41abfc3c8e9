"""Symbolic bound derivation via dual-polyhedron vertex enumeration.

The lower bound of the estimand over the response-function polytope is, by LP
duality, the maximum of finitely many affine functions of the observed cell
probabilities: one per vertex of the dual feasible polyhedron {y : A'y <= c}.
This module enumerates those vertices exactly (double description over the
homogenized dual cone, integer arithmetic throughout) and renders each as a
canonical affine term.

Canonical form: the dual polyhedron has one lineality direction per
instrument level (shifting all of a z-block's cell coefficients together,
compensated by the constant, never changes the term's value on distributions).
We fix the gauge per block: lower-direction terms are shifted so each block's
minimum cell coefficient is 0, upper-direction terms so each maximum is 0.
This makes independently derived term sets comparable by literal equality,
including across scenarios whose exposure level sets differ (matching terms
then carry zero coefficients on the unshared cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .data import Estimand, InputError, ObservedDistribution, Scenario
from .exactlp import independent_rows
from .response import ConstraintSystem, merge_columns

__all__ = [
    "SymbolicBoundSet",
    "Term",
    "derive_symbolic",
    "term_sets_equal",
]

Cell = tuple[str, str, int]  # (z, x, y)


@dataclass(frozen=True)
class Term:
    """Affine expression constant + sum coeff * p_{xy.z}, zero coeffs omitted."""

    constant: Fraction
    coeffs: tuple[tuple[Cell, Fraction], ...]  # sorted by cell key

    def evaluate(self, dist: ObservedDistribution) -> Fraction:
        total = self.constant
        for (z, x, y), coef in self.coeffs:
            total += coef * dist.prob(z, x, y)
        return total


def _make_term(
    constant: Fraction,
    coeffs: dict[Cell, Fraction],
    direction: str,
    universe: Sequence[Cell],
) -> Term:
    """Canonicalize by per-z-block gauge shift (see module docstring)."""
    blocks: dict[str, list[Cell]] = {}
    for cell in universe:
        blocks.setdefault(cell[0], []).append(cell)
    const = Fraction(constant)
    out: dict[Cell, Fraction] = {}
    for z, cells in blocks.items():
        values = [Fraction(coeffs.get(c, 0)) for c in cells]
        shift = min(values) if direction == "lower" else max(values)
        const += shift
        for c, v in zip(cells, values):
            if v != shift:
                out[c] = v - shift
    leftovers = set(coeffs) - set(universe)
    if any(coeffs[c] != 0 for c in leftovers):
        raise InputError("term references cells outside the declared universe")
    return Term(constant=const, coeffs=tuple(sorted(out.items())))


@dataclass(frozen=True)
class SymbolicBoundSet:
    """Max-of-terms (lower) or min-of-terms (upper) bound representation."""

    direction: str  # "lower" | "upper"
    terms: tuple[Term, ...]
    provenance: str  # "derived" | "transcribed"
    instrument_levels: tuple[str, ...]
    exposure_levels: tuple[str, ...]
    estimand: Estimand
    feasibility: tuple[Term, ...] = field(default=())  # b-facts from recession rays
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.direction not in ("lower", "upper"):
            raise InputError(f"direction must be lower or upper, got {self.direction!r}")
        if len(set(self.terms)) != len(self.terms):
            raise InputError("duplicate terms after canonicalization")

    def evaluate(self, dist: ObservedDistribution) -> Fraction:
        values = [t.evaluate(dist) for t in self.terms]
        return max(values) if self.direction == "lower" else min(values)

    def active_term(self, dist: ObservedDistribution) -> Term:
        best = self.evaluate(dist)
        for t in self.terms:
            if t.evaluate(dist) == best:
                return t
        raise RuntimeError("unreachable")


def term_sets_equal(a: SymbolicBoundSet, b: SymbolicBoundSet) -> bool:
    """Exact canonical term-set equality.

    Directions and instrument levels must match; exposure level sets may
    differ (cross-scenario comparisons: matching terms must then place zero
    weight on the unshared cells, which canonicalization makes literal).
    """
    if a.direction != b.direction:
        raise InputError("cannot compare term sets of different directions")
    if a.instrument_levels != b.instrument_levels:
        raise InputError("instrument-level basis mismatch")
    return frozenset(a.terms) == frozenset(b.terms)


# -- double description over the homogenized dual cone --------------------------


def _primitive(vec: list[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return tuple(vec)


def _extreme_rays(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {v : row . v <= 0 for all rows}.

    Double description (Fukuda & Prodon 1996): rows are inserted one at a
    time into a simplicial start cone.  Each ray carries a bit mask of the
    inserted rows it satisfies with equality (bit p for the p-th inserted row).
    """
    dim = len(rows[0])
    # The first dim independent rows span a simplicial start cone whose rays
    # are the negated columns of their inverse X / d (d > 0): ray k is tight on
    # every start row but the k-th.
    basis_idx, X, _ = independent_rows(rows)
    if len(basis_idx) < dim:
        raise InputError("dual cone is not pointed; cannot enumerate vertices")
    rays = [_primitive([-X[r][k] for r in range(dim)]) for k in range(dim)]
    full = (1 << dim) - 1
    masks = [full ^ (1 << k) for k in range(dim)]
    # Adjacent extreme rays of a pointed cone share at least dim - 2 tight rows.
    min_meet = dim - 2

    in_basis = set(basis_idx)
    bit = 1 << dim
    for i, row in enumerate(rows):
        if i in in_basis:
            continue
        sparse = [(j, a) for j, a in enumerate(row) if a]
        vals = [sum(a * ray[j] for j, a in sparse) for ray in rays]
        neg = [(kn, masks[kn]) for kn, s in enumerate(vals) if s < 0]
        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        for kp in [k for k, s in enumerate(vals) if s > 0]:
            vp, rp, mp = vals[kp], rays[kp], masks[kp]
            for kn, mn in neg:
                meet = mp & mn
                if meet.bit_count() < min_meet:
                    continue
                # Combinatorial test: kp and kn are adjacent iff no third ray
                # is tight on every row that both are tight on.
                count = 0
                for m in masks:
                    if m & meet == meet:
                        count += 1
                        if count > 2:
                            break
                if count > 2:
                    continue
                vn = vals[kn]
                new_rays.append(_primitive([vp * b - vn * a for a, b in zip(rp, rays[kn])]))
                # On an inserted row h, h.new = vp (h.r-) + |vn| (h.r+) with both
                # terms <= 0, so it is 0 iff both are: the new ray is tight where
                # both parents are, and on the row just added.
                new_masks.append(meet | bit)
        keep = [k for k, s in enumerate(vals) if s <= 0]
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] | (bit if vals[k] == 0 else 0) for k in keep] + new_masks
        bit <<= 1
    return rays


def derive_symbolic(system: ConstraintSystem) -> tuple[SymbolicBoundSet, SymbolicBoundSet]:
    """Enumerate dual vertices and return (lower, upper) canonical term sets.

    The dual lineality (one uniform shift per instrument block, compensated by
    the normalization coordinate) is removed by pinning, per instrument level,
    the coordinate of the cell (last exposure level, y=1); recession rays of
    the pinned polyhedron are returned as feasibility facts rather than bound
    terms.
    """
    scenario: Scenario = system.scenario
    labels = scenario.level_labels()
    last = labels[-1]
    pinned = {(z, last, 1) for z in scenario.instrument_levels}
    coord_keys = [key for key in system.row_keys if key not in pinned]
    coord_of = {key: i for i, key in enumerate(coord_keys)}
    dim = len(coord_keys) + 1  # + homogenization coordinate t
    t_idx = len(coord_keys)

    # One dual constraint per group of identical columns, at the group's
    # extreme cost (min for the lower direction, max for the upper).
    merged = merge_columns(system)

    universe: list[Cell] = [key for key in system.row_keys if key != "normalization"]

    def run(direction: str) -> tuple[list[Term], list[Term]]:
        rows: list[tuple[int, ...]] = []
        sign = 1 if direction == "lower" else -1
        costs = merged.min_costs if direction == "lower" else merged.max_costs
        for col, c in zip(merged.columns, costs):
            row = [0] * dim
            for r, coef in col:
                key = system.row_keys[r]
                if key in pinned:
                    continue
                row[coord_of[key]] += sign * coef
            row[t_idx] -= sign * c
            rows.append(tuple(row))
        t_row = [0] * dim
        t_row[t_idx] = -1
        rows.append(tuple(t_row))

        terms: list[Term] = []
        facts: list[Term] = []
        for ray in _extreme_rays(rows):
            t = ray[t_idx]
            coeffs: dict[Cell, Fraction] = {}
            constant = Fraction(0)
            denom = t if t else 1
            for i, key in enumerate(coord_keys):
                if ray[i] == 0:
                    continue
                if key == "normalization":
                    constant = Fraction(ray[i], denom)
                else:
                    coeffs[key] = Fraction(ray[i], denom)
            term = _make_term(constant, coeffs, direction, universe)
            if t > 0:
                terms.append(term)
            else:
                facts.append(term)
        return terms, facts

    lower_terms, lower_facts = run("lower")
    upper_terms, upper_facts = run("upper")

    def build(direction: str, terms: list[Term], facts: list[Term]) -> SymbolicBoundSet:
        return SymbolicBoundSet(
            direction=direction,
            terms=tuple(sorted(set(terms), key=lambda t: (t.constant, t.coeffs))),
            provenance="derived",
            instrument_levels=scenario.instrument_levels,
            exposure_levels=labels,
            estimand=system.estimand,
            feasibility=tuple(sorted(set(facts), key=lambda t: (t.constant, t.coeffs))),
        )

    return build("lower", lower_terms, lower_facts), build("upper", upper_terms, upper_facts)


# -- rendering -------------------------------------------------------------------


def format_term(term: Term, style: str = "text") -> str:
    """Render a term; style 'text' or 'latex' (p_{xy.z} subscript notation)."""
    parts: list[str] = []
    if term.constant or not term.coeffs:
        parts.append(str(term.constant))
    for (z, x, y), coef in term.coeffs:
        if style == "latex":
            sym = f"p_{{{x},{y} \\cdot {z}}}"
        else:
            sym = f"p[{x},{y}|{z}]"
        if coef == 1:
            piece = sym
        elif coef == -1:
            piece = f"-{sym}"
        else:
            piece = f"{coef} {sym}"
        parts.append(piece)
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def format_bound_set(bounds: SymbolicBoundSet, style: str = "text") -> str:
    name = "max" if bounds.direction == "lower" else "min"
    lines = [f"{bounds.direction} bound = {name} of {len(bounds.terms)} terms:"]
    for t in bounds.terms:
        lines.append("  " + format_term(t, style))
    if bounds.feasibility:
        rel = "<=" if bounds.direction == "lower" else ">="
        lines.append(f"feasibility requirements ({rel} 0 on valid data):")
        for t in bounds.feasibility:
            lines.append("  " + format_term(t, style))
    return "\n".join(lines)

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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np

from .data import Estimand, InputError, ObservedDistribution, Scenario
from .exactlp import _bits, _dtype, _exact_product, independent_rows
from .response import ConstraintSystem, merge_columns

__all__ = [
    "SymbolicBoundSet",
    "Term",
    "derive_symbolic",
    "term_sets_equal",
]

Cell = tuple[str, str, int]  # (z, x, y)

# Candidate pairs per containment product in _adjacent_pairs.
_PAIR_CHUNK = 128
# Witness rays per inserted row in _adjacent_pairs, used from 2 * _WITNESSES
# rays on.
_WITNESSES = 32


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


@dataclass(frozen=True)
class _Gauge:
    """Per-z-block gauge shift over a fixed cell universe (see module docstring).

    `cells` is the universe sorted by key, so each z-block is one contiguous
    run of it and a term's cells come out sorted.
    """

    cells: tuple[Cell, ...]
    blocks: tuple[tuple[int, int], ...]  # (start, stop) of each z-block in cells
    direction: str

    @classmethod
    def over(cls, universe: Sequence[Cell], direction: str) -> _Gauge:
        cells = tuple(sorted(universe))
        starts = [k for k, c in enumerate(cells) if k == 0 or c[0] != cells[k - 1][0]]
        return cls(cells, tuple(zip(starts, starts[1:] + [len(cells)])), direction)

    def shifted(self, constant, values: Sequence) -> tuple:
        """(constant, ((cell, coefficient), ...)) of constant + sum values[k] *
        cells[k] in this gauge, zero coefficients omitted."""
        pick = min if self.direction == "lower" else max
        coeffs = []
        for lo, hi in self.blocks:
            block = values[lo:hi]
            shift = pick(block)
            constant += shift
            coeffs += [(c, v - shift) for c, v in zip(self.cells[lo:hi], block) if v != shift]
        return constant, tuple(coeffs)

    def term(self, constant, values: Sequence) -> Term:
        """The canonical term constant + sum values[k] * cells[k]."""
        constant, coeffs = self.shifted(constant, values)
        return Term(constant=Fraction(constant), coeffs=tuple((c, Fraction(v)) for c, v in coeffs))

    def terms(self, rows: Sequence[tuple[int, Sequence[int], int]]) -> tuple[Term, ...]:
        """The distinct canonical terms (constant + sum values[k] * cells[k]) / t
        of integer rows (constant, values, t > 0), sorted by (constant, coeffs).

        Every row is scaled to the lcm L of the t, and the scaled rows are
        shifted, deduplicated and sorted as integer tuples.  That is exact:
        a / t1 < b / t2 iff a L / t1 < b L / t2.  Each distinct integer then
        becomes one Fraction over L.
        """
        lcm = math.lcm(*{t for _, _, t in rows})
        keys = set()
        for constant, values, t in rows:
            m = lcm // t
            if m != 1:
                constant, values = constant * m, [v * m for v in values]
            keys.add(self.shifted(constant, values))
        frac = functools.cache(lambda v: Fraction(v, lcm))
        return tuple(
            Term(constant=frac(constant), coeffs=tuple((c, frac(v)) for c, v in coeffs))
            for constant, coeffs in sorted(keys)
        )


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


def _primitive(rays: np.ndarray) -> np.ndarray:
    # Each row divided by the gcd of its entries; no row is zero.
    return rays // np.gcd.reduce(rays, axis=1)[:, None]


def _adjacent_pairs(tight: np.ndarray, pos: np.ndarray, neg: np.ndarray, min_meet: int):
    """The adjacent (positive, negative) ray pairs and the tight rows they share.

    `tight` is the 0/1 matrix of rays x inserted rows.  Returns (kp, kn, meets):
    indices into `pos` and `neg`, in (kp, kn) order, and each pair's meet row.
    Two rays of a pointed cone are adjacent iff they share at least
    dim - 2 tight rows and no third ray is tight on all of those.

    A ray contains a pair's meet iff it is tight on as many meet rows as the
    meet has.  The pair's own two rays always do, so the pair is adjacent iff
    the product of its meet with `tight` finds no third.  From
    2 * _WITNESSES rays on, most candidate pairs are not adjacent, so the
    _WITNESSES rays with the largest zero sets (np.argpartition on the
    zero-set sizes) are tried first, in a small product over just those
    rays.  A witness other than the pair's own rays that contains the meet
    proves the pair not adjacent, and only the pairs no witness rejects go on
    to the product over every ray.  That is exact whichever witnesses are
    picked: a witness rejects only pairs the full product would reject too.
    """
    tp, tn = tight[pos], tight[neg]
    shared = tp @ tn.T  # each pair's meet size
    kp, kn = np.nonzero(shared >= min_meet)

    def containing(k: np.ndarray, rays: np.ndarray) -> np.ndarray:
        # How many of `rays` (columns: a ray's tight rows) contain each meet.
        p, n = kp[k], kn[k]
        return np.count_nonzero((tp[p] * tn[n]) @ rays == shared[p, n][:, None], axis=1)

    todo = np.arange(len(kp))  # the pairs for the full product
    if len(tight) >= 2 * _WITNESSES:
        witness = np.argpartition(tight.sum(axis=1), -_WITNESSES)[-_WITNESSES:]
        is_witness = np.zeros(len(tight), dtype=np.intp)
        is_witness[witness] = 1
        own = is_witness[pos][kp] + is_witness[neg][kn]  # witnesses in each pair
        tw = tight[witness].T
        unrejected = np.empty(len(kp), dtype=bool)
        for s in range(0, len(kp), _PAIR_CHUNK):
            k = todo[s:s + _PAIR_CHUNK]
            unrejected[k] = containing(k, tw) == own[k]
        todo = np.flatnonzero(unrejected)
    adjacent = np.zeros(len(kp), dtype=bool)
    for s in range(0, len(todo), _PAIR_CHUNK):  # bounds the (pairs x rays) counts
        k = todo[s:s + _PAIR_CHUNK]
        adjacent[k] = containing(k, tight.T) == 2
    kp, kn = kp[adjacent], kn[adjacent]
    return kp, kn, tp[kp] * tn[kn]


def _extreme_rays(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {v : row . v <= 0 for all rows}.

    Double description (Fukuda & Prodon 1996) in the lexicographic ("lexmin")
    insertion order, cddlib's default: the rows are sorted, the start cone is
    spanned by the first dim independent rows of that order, and every other
    row is inserted in that order.  So the rays and their order depend on the
    set of rows only, not on the order the caller gives them in.

    The rays are one integer array (rays x dim), each row primitive (gcd 1).
    Per inserted row the row values are one product `rays @ row` and the new
    rays of all adjacent pairs one broadcast v+ r- - v- r+.  Both run in
    int64 when they cannot overflow: the values when bits(max |ray|) plus the
    bit length of the largest row L1 norm is at most 62, the new rays when
    bits(max |value|) + bits(max |ray|) + 1 is; otherwise in Python ints
    (dtype=object).

    Beside the rays, a float32 matrix `tight` (rays x inserted rows) holds 1
    where a ray satisfies an inserted row with equality and 0 elsewhere, so
    the adjacency test for a new row is a few matrix products
    (_adjacent_pairs): the candidate pairs' meets against a few witness rays
    with large zero sets, which reject most pairs that are not adjacent, and
    the pairs left against every ray.  They are exact: every entry is 0 or
    1, so every partial sum is an integer no larger than the number of rows,
    and float32 holds every integer up to 2^24 exactly, whatever the
    summation order.  The witnesses only drop pairs the full product would
    drop, so the rays do not depend on which are picked.  New rays follow
    the pairs in (positive, negative) order, so the rays come out in the
    order of a pairwise scan.  A row with no ray on one of its sides makes no
    pair, so it skips the adjacency test and the combination.
    """
    rows = sorted(rows)
    dim = len(rows[0])
    # The first dim independent rows span a simplicial start cone whose rays
    # are the negated columns of their inverse X / d (d > 0): ray k is tight on
    # every start row but the k-th.  They are the first rows inserted.
    basis_idx, X, _ = independent_rows(rows)
    if len(basis_idx) < dim:
        raise InputError("dual cone is not pointed; cannot enumerate vertices")
    rays = _primitive(-np.array(X, dtype=object).T)
    tight = 1 - np.eye(dim, dtype=np.float32)
    # Adjacent extreme rays of a pointed cone share at least dim - 2 tight rows.
    min_meet = dim - 2
    l1_bits = max(sum(map(abs, row)) for row in rows).bit_length()
    A = np.array(rows, dtype=_dtype(l1_bits))

    in_basis = set(basis_idx)
    for i in range(len(rows)):
        if i in in_basis:
            continue
        if not len(rays):
            break  # the cone is {0}
        ray_bits = _bits(rays)
        rays = rays.astype(_dtype(ray_bits), copy=False)
        vals = _exact_product(rays, A[i], ray_bits + l1_bits)
        pos = np.flatnonzero(vals > 0)
        neg = np.flatnonzero(vals < 0)
        keep = np.flatnonzero(vals <= 0)
        if not (pos.size and neg.size):
            # No pair to combine: the row cuts away every ray with a positive
            # value and is tight on every ray with a zero value.
            tight = np.column_stack([tight[keep], vals[keep] == 0])
            rays = rays[keep]
            continue
        kp, kn, meets = _adjacent_pairs(tight, pos, neg, min_meet)
        kp, kn = pos[kp], neg[kn]
        dtype = _dtype(_bits(vals) + ray_bits + 1)
        vp = vals[kp].astype(dtype)[:, None]
        vn = vals[kn].astype(dtype)[:, None]
        new_rays = _primitive(vp * rays[kn].astype(dtype) - vn * rays[kp].astype(dtype))
        # On an inserted row h, h.new = vp (h.r-) + |vn| (h.r+) with both terms
        # <= 0, so it is 0 iff both are: the new ray is tight where both parents
        # are, and on the row just added.
        grown = np.empty((len(keep) + len(new_rays), tight.shape[1] + 1), dtype=np.float32)
        grown[:len(keep), :-1] = tight[keep]
        grown[len(keep):, :-1] = meets
        grown[:len(keep), -1] = vals[keep] == 0
        grown[len(keep):, -1] = 1
        rays = np.concatenate([rays[keep], new_rays])
        tight = grown
    return [tuple(ray) for ray in rays.tolist()]


def _dual_cones(system: ConstraintSystem) -> tuple[list, dict[str, list[list[int]]]]:
    """The homogenized dual cone of each direction: (coordinates, rows by direction).

    Coordinates are the system's row keys except the pinned cells (see
    derive_symbolic), then the homogenizing t.  Each direction has one row per
    group of identical columns, at the group's extreme cost (min for the lower
    direction, max for the upper), and the row -t <= 0.
    """
    scenario: Scenario = system.scenario
    last = scenario.level_labels()[-1]
    pinned = {(z, last, 1) for z in scenario.instrument_levels}
    unpinned = [r for r, key in enumerate(system.row_keys) if key not in pinned]
    coords = [system.row_keys[r] for r in unpinned]
    merged = merge_columns(system)
    t_row = [0] * len(coords) + [-1]
    cones = {}
    for direction, sign, costs in (
        ("lower", 1, merged.min_costs),
        ("upper", -1, merged.max_costs),
    ):
        rows = np.column_stack([sign * merged.columns[:, unpinned], [-sign * c for c in costs]])
        cones[direction] = rows.tolist() + [t_row]
    return coords, cones


def derive_symbolic(system: ConstraintSystem) -> tuple[SymbolicBoundSet, SymbolicBoundSet]:
    """Enumerate dual vertices and return (lower, upper) canonical term sets.

    The dual lineality (one uniform shift per instrument block, compensated by
    the normalization coordinate) is removed by pinning, per instrument level,
    the coordinate of the cell (last exposure level, y=1); recession rays of
    the pinned polyhedron are returned as feasibility facts rather than bound
    terms.
    """
    scenario: Scenario = system.scenario
    coords, cones = _dual_cones(system)
    universe = [key for key in system.row_keys if key != "normalization"]
    index = {key: i for i, key in enumerate(coords)}
    norm = index["normalization"]

    def build(direction: str) -> SymbolicBoundSet:
        gauge = _Gauge.over(universe, direction)
        # A ray's entry for each gauge cell; a pinned cell reads the 0
        # appended after t.
        entries = itemgetter(*[index.get(c, len(coords) + 1) for c in gauge.cells])
        terms, facts = [], []
        for ray in _extreme_rays(cones[direction]):
            t = ray[-1]
            (terms if t > 0 else facts).append((ray[norm], entries(ray + (0,)), t or 1))
        return SymbolicBoundSet(
            direction=direction,
            terms=gauge.terms(terms),
            provenance="derived",
            instrument_levels=scenario.instrument_levels,
            exposure_levels=scenario.level_labels(),
            estimand=system.estimand,
            feasibility=gauge.terms(facts),
        )

    return build("lower"), build("upper")


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

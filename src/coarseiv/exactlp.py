"""Exact rational simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b, x >= 0  with all arithmetic exact.
Columns of A are sparse integer vectors (in this package they have at most a
handful of +-1 entries), b is a nonnegative rational vector and c is an
integer vector.  The solver keeps the basis inverse in integer-adjugate form
(M = d * B^-1 with M integral and d = det B), so every pivot is fraction-free
integer arithmetic with one exact division.  The right-hand side is held as
integers too: b = b~ / N, either given that way (``scale=N``) or converted
once by :func:`integer_rhs`.

Pricing runs over every column at once.  The constructor stacks the columns
and the cost row into one dense (m + 1) x n matrix [A; c], and one helper
returns v . [A; c]_j for all j: reduced costs in the primal loop, the pivot
row in the dual ratio test and in the eviction of artificials.  The product is
exact either way: int64 when bit_length(max |v|) + bit_length(max column L1
norm) <= 62, so no partial sum can overflow, and Python ints (dtype=object)
otherwise.  The m-sized work (pivots, the pricing vector, the levels M.b~)
stays in Python ints.

Warm starts are first-class.  `resolve_b` handles a change of b only
(bootstrap replicates, distribution sweeps).  It keeps the ``_NEAREST`` most
recent optimal bases and runs the dual simplex from the least infeasible of
them for the new b (least sum of negative levels, ties to the more recent).
The costs have not changed, so every such basis is still dual feasible, and
one that is primal feasible for b (M.b~ >= 0, inert rows at zero) is
optimal after zero pivots.  Phase 1 ignores c, so a cold solve keeps its
post-phase-1 basis (`phase1`) and a solver with other costs over the same
columns can start phase 2 from it (lower/upper bound pairs).

`screen` serves many right-hand sides known up front (a bootstrap batch): it
tests one optimal basis against all of them in one product [M; c_B.M].B^T,
exact by the same `_exact_product` as the pricing, and returns the ones the
basis is optimal for with their values.

An `LpOutcome` carries the optimal value as one Fraction; the primal solution
and the dual vector are built from the optimal basis on first access.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

__all__ = [
    "Column",
    "ExactSimplex",
    "Infeasible",
    "LpOutcome",
    "column_dot",
    "independent_rows",
    "integer_rhs",
    "verify_farkas",
]

# A sparse column: tuple of (row index, integer coefficient) pairs.
Column = tuple[tuple[int, int], ...]

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_DEGENERATE_LIMIT = 30
_MAX_PIVOTS = 200_000
# Most recent optimal bases from which `resolve_b` picks a dual simplex start.
_NEAREST = 4
# Bit budget of an exact int64 product: |v . a| <= max|v| * |a|_1 < 2**62
# when bit_length(max |v|) + bit_length(|a|_1) <= 62.
_INT64_BITS = 62


class Infeasible(Exception):
    """Raised when A x = b, x >= 0 has no solution.

    Carries a Farkas certificate: a rational row vector pi with
    pi . A_j <= 0 for every column j and pi . b > 0.
    """

    def __init__(self, farkas: tuple[Fraction, ...], violation: Fraction):
        super().__init__(f"infeasible (Farkas violation {violation})")
        self.farkas = farkas
        self.violation = violation


@dataclass(slots=True, eq=False)
class _Vertex:
    """Snapshot of an optimal basis: basic variable per row, M = d * B^-1, d."""

    basis: tuple[int, ...]
    M: list[list[int]]
    d: int


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Optimal value plus primal and dual certificates.

    `solution` maps each basic structural variable to its value; `dual` is y
    with y.b == value and c_j - y.A_j >= 0 for every column (min sense).
    Both are built from the optimal basis on first access.
    """

    value: Fraction
    pivots: int
    vertex: _Vertex = field(repr=False)
    levels: list[int] = field(repr=False)  # M . b~
    scale: int = field(repr=False)  # N
    costs: Sequence[int] = field(repr=False)
    n: int = field(repr=False)  # number of structural variables

    @property
    def basis(self) -> tuple[int, ...]:
        return self.vertex.basis

    @cached_property
    def solution(self) -> dict[int, Fraction]:
        denom = self.vertex.d * self.scale
        return {
            var: Fraction(x, denom)
            for var, x in zip(self.vertex.basis, self.levels)
            if var < self.n
        }

    @cached_property
    def dual(self) -> tuple[Fraction, ...]:
        vx = self.vertex
        y = _pricing_vector(vx.basis, vx.M, self.costs, self.n)
        return tuple(Fraction(v, vx.d) for v in y)


def column_dot(column: Column, vec: Sequence) -> object:
    """Dot product of a sparse column with a dense vector."""
    total = 0
    for r, coef in column:
        total += coef * vec[r] if coef != 1 else vec[r]
    return total


def verify_farkas(columns: Sequence[Column], b: Sequence, pi: Sequence[Fraction]) -> bool:
    """Check that pi certifies infeasibility of A x = b, x >= 0 (b may be scaled)."""
    if sum(p * v for p, v in zip(pi, b)) <= 0:
        return False
    return all(column_dot(col, pi) <= 0 for col in columns)


def integer_rhs(b: Sequence) -> tuple[list[int], int]:
    """Integer form (b~, N) of a rational vector b: b == b~ / N, N = lcm of denominators."""
    fracs = [Fraction(v) for v in b]
    N = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (N // v.denominator) for v in fracs], N


def independent_rows(
    rows: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]], int]:
    """Greedy independent rows with a right inverse, by fraction-free elimination.

    Scans the integer vectors `rows` in order and keeps each one that is
    linearly independent of those kept before, stopping once they span the
    whole space.  Returns (kept, X, d): with B the kept rows (k x n), X is an
    n x k integer matrix and d > 0 an integer such that B X = d I.  When B
    is square, X / d is its inverse and d = |det B|.

    Bareiss-style Gauss-Jordan: kept rows are stored reduced, each with its
    slice of the row transform appended, and every entry stays an integer
    minor, so each division is exact.
    """
    kept: list[int] = []
    cols: list[int] = []  # pivot column of each kept row
    red: list[list[int]] = []  # reduced kept rows, transform appended
    d = 1
    n = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        w = [d * v for v in row] + [0] * len(kept)
        for t, c in enumerate(cols):
            f = row[c]
            if f:
                w = [a - f * b for a, b in zip(w, red[t])]
        c = next((k for k in range(n) if w[k]), -1)
        if c < 0:
            continue
        w.append(d)
        p = w[c]
        for t, r in enumerate(red):
            r.append(0)
            f = r[c]
            red[t] = [(p * a - f * b) // d for a, b in zip(r, w)]
        red.append(w)
        cols.append(c)
        kept.append(i)
        d = p
        if len(kept) == n:
            break
    sign = -1 if d < 0 else 1
    X = [[0] * len(kept) for _ in range(n)]
    for r, c in zip(red, cols):
        X[c] = [sign * v for v in r[n:]]
    return kept, X, sign * d


def _pricing_vector(
    basis: Sequence[int],
    M: list[list[int]],
    costs: Sequence[int],
    n: int,
    artificial_cost: int = 0,
) -> list[int]:
    # y_int = c_B . M; the true duals are y_int / d.
    y = [0] * len(M)
    for row, var in zip(M, basis):
        c = costs[var] if var < n else artificial_cost
        if c:
            for k, v in enumerate(row):
                if v:
                    y[k] += c * v
    return y


def _exact_product(left: Sequence[list[int]], right: np.ndarray, right_bits: int) -> np.ndarray:
    # left @ right, exact: int64 when bit_length(max |left|) + right_bits
    # <= _INT64_BITS, where right_bits bounds the bit length of the L1 norm
    # of every column of `right`; Python ints (dtype=object) otherwise.
    bits = max(max(map(abs, row)) for row in left).bit_length()
    if bits + right_bits <= _INT64_BITS:
        return np.array(left, dtype=np.int64) @ right.astype(np.int64, copy=False)
    return np.array(left, dtype=object) @ right.astype(object, copy=False)


class ExactSimplex:
    """Two-phase exact simplex over a fixed column set.

    The instance owns the constraint matrix (as sparse columns); b and c can
    vary across solves.  Artificial variables are numbered n .. n+m-1 and are
    never re-admitted once phase 1 ends; rows whose artificial cannot be
    pivoted out are structurally redundant and their artificial stays basic
    at level zero forever.

    `solve` and `resolve_b` take b either as rationals or, with ``scale=N``,
    as nonnegative integers b~ meaning b~ / N.
    """

    def __init__(self, n_rows: int, columns: Sequence[Column], costs: Sequence[int]):
        if n_rows < 1:
            raise ValueError("at least one row required")
        self.m = n_rows
        self.columns: list[Column] = [tuple(col) for col in columns]
        self.n = len(self.columns)
        # Dense A and its column L1 norms; `_start` stacks the cost row on it.
        rows, cols, vals, self._l1 = [], [], [], []
        for j, col in enumerate(self.columns):
            l1 = 0
            for r, coef in col:
                rows.append(r)
                cols.append(j)
                vals.append(coef)
                l1 += abs(coef)
            self._l1.append(l1)
        dtype = np.int64 if max(self._l1, default=0).bit_length() <= _INT64_BITS else object
        self._A = np.zeros((n_rows, self.n), dtype=dtype)
        np.add.at(self._A, (rows, cols), np.array(vals, dtype=dtype))
        self._start(costs)

    def _with_costs(self, costs: Sequence[int]) -> ExactSimplex:
        """A fresh solver over the same columns with other costs, built from this one's A."""
        twin = copy.copy(self)
        twin._start(costs)
        return twin

    def _start(self, costs: Sequence[int]) -> None:
        # Dense [A; c] for `_price`, int64 when every column's L1 norm fits,
        # and an empty solver state.
        if len(costs) != self.n:
            raise ValueError("one cost per column required")
        self.costs: list[int] = [int(c) for c in costs]
        norm = max((l1 + abs(c) for l1, c in zip(self._l1, self.costs)), default=0)
        self._norm_bits = norm.bit_length()
        dtype = np.int64 if self._norm_bits <= _INT64_BITS else object
        self._dense = np.vstack([self._A.astype(dtype), np.array([self.costs], dtype=dtype)])
        # Solver state (populated by solve()).  Pivots update _basis and _M in
        # place, so a run that pivots first copies them (_thaw): the recent
        # vertices and the outcomes built on them share those lists.  _xt is
        # never shared: each solve computes it afresh.
        self._basis: Sequence[int] | None = None  # variable id per row
        self._M: list[list[int]] | None = None  # d * inverse of basis matrix
        self._d: int = 1  # det of basis matrix, kept > 0
        self._btilde: list[int] | None = None  # N * b
        self._N: int = 1  # common denominator of b
        self._xt: list[int] | None = None  # M . btilde, >= 0 when feasible
        self._pivots = 0
        self._inert: tuple[int, ...] = ()  # rows of inert artificials
        self._recent: list[_Vertex] = []  # optimal bases, most recent first
        self.phase1: _Vertex | None = None  # feasible basis of the last cold solve

    # -- public API ----------------------------------------------------------

    def solve(
        self, b: Sequence, scale: int | None = None, start: _Vertex | None = None
    ) -> LpOutcome:
        """Cold solve: phase 1 from the all-artificial basis, then phase 2.

        `start`, the `phase1` basis of a solver over the same columns and this
        b, replaces phase 1; a start not primal feasible for b is an error.
        """
        self._load_b(b, scale)
        self._recent.clear()
        self._pivots = 0
        if start is None:
            m = self.m
            self._basis = [self.n + i for i in range(m)]
            self._M = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
            self._d, self._xt = 1, list(self._btilde)
            self._run_phase1()
            start = _Vertex(tuple(self._basis), self._M, self._d)
        else:
            bt = self._btilde
            self._basis, self._M, self._d = start.basis, start.M, start.d
            self._xt = [sum(map(mul, row, bt)) for row in start.M]
        self._inert = tuple(i for i, var in enumerate(start.basis) if var >= self.n)
        if any(v < 0 for v in self._xt) or any(self._xt[i] for i in self._inert):
            raise RuntimeError("start basis is not primal feasible for b")
        self.phase1 = start
        self._thaw()
        self._primal_loop()
        return self._remember()

    def resolve_b(
        self, b: Sequence, scale: int | None = None, start: _Vertex | None = None
    ) -> LpOutcome:
        """Warm solve after a change of b only, by the dual simplex.

        It starts from the least infeasible of the ``_NEAREST`` most recent
        optimal bases, so a basis that still fits b is optimal after zero
        pivots and becomes the most recent again.  With no optimal basis yet
        this is `solve(b, scale, start)`.
        """
        if not self._recent:
            return self.solve(b, scale, start)
        self._load_b(b, scale)
        self._pivots = 0
        vx, self._xt = self._nearest_vertex()
        self._basis, self._M, self._d = vx.basis, vx.M, vx.d
        self._thaw()
        self._run_dual()
        self._check_inert_rows()
        return self._remember(vx)

    # -- internals -----------------------------------------------------------

    def _load_b(self, b: Sequence, scale: int | None) -> None:
        if len(b) != self.m:
            raise ValueError("b has wrong length")
        if scale is None:
            b, scale = integer_rhs(b)
        elif scale <= 0:
            raise ValueError("scale must be positive")
        if any(v < 0 for v in b):
            raise ValueError("b must be nonnegative")
        self._btilde = list(b)
        self._N = scale

    def _nearest_vertex(self) -> tuple[_Vertex, list[int]]:
        # The least infeasible of the recent bases and its levels M.b~: least
        # sum of negative levels over d, compared exactly by cross-
        # multiplication.  A candidate is dropped once its partial sum
        # reaches the best so far, so ties go to the more recent.
        bt = self._btilde
        best, best_xt, best_s, best_d = None, None, 0, 1
        for vx in self._recent:
            d = vx.d
            bound = best_s * d  # the candidate loses once s * best_d reaches it
            s = 0
            xt = []
            for row in vx.M:
                level = sum(map(mul, row, bt))
                if level < 0:
                    s -= level
                    if best is not None and s * best_d >= bound:
                        break
                xt.append(level)
            else:
                if best is None or s * best_d < bound:
                    best, best_xt, best_s, best_d = vx, xt, s, d
        return best, best_xt

    def _remember(self, start: _Vertex | None = None) -> LpOutcome:
        # Make the current (optimal) basis the most recent one.  A recent
        # `start` that the run did not pivot away from moves to the front.
        if start is not None and not self._pivots:
            self._recent.remove(start)
            vx = start
        else:
            vx = _Vertex(tuple(self._basis), self._M, self._d)
        self._basis = vx.basis
        self._recent.insert(0, vx)
        del self._recent[_NEAREST:]
        return self._outcome(vx)

    def _thaw(self) -> None:
        self._basis = list(self._basis)
        self._M = [row[:] for row in self._M]

    def _outcome(self, vx: _Vertex) -> LpOutcome:
        costs, n = self.costs, self.n
        total = sum(costs[var] * x for var, x in zip(vx.basis, self._xt) if var < n)
        return LpOutcome(
            value=Fraction(total, vx.d * self._N),
            pivots=self._pivots,
            vertex=vx,
            levels=self._xt,
            scale=self._N,
            costs=costs,
            n=n,
        )

    def _price(self, *vectors: list[int]) -> np.ndarray:
        # Row k of the result is v_k . [A; c]_j for every column j, where v_k
        # has m entries and then the weight of the cost row.
        return _exact_product(vectors, self._dense, self._norm_bits)

    def screen(
        self, vx: _Vertex, B: np.ndarray, b_bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of B at which the optimal basis `vx` is optimal as it stands.

        Each row of B is a right-hand side b~ >= 0, and `b_bits` is at least
        the bit length of every row's L1 norm.  The costs have not changed
        since `vx` was optimal, so it is optimal for every b~ it is primal
        feasible for: M.b~ >= 0 with every inert row at zero.  Returns that
        mask over the rows and, for the rows it selects, y.b~ with
        y = c_B.M, the optimal value times d * N.  One product computes
        [M; y].B^T, exact by `_exact_product` as in `_price`.
        """
        V = vx.M + [_pricing_vector(vx.basis, vx.M, self.costs, self.n)]
        P = _exact_product(V, B.T, b_bits)
        levels = P[:-1]
        inert = [i for i, var in enumerate(vx.basis) if var >= self.n]
        fits = (levels >= 0).all(axis=0) & (levels[inert] == 0).all(axis=0)
        return fits, P[-1, fits]

    def _col_times_M(self, col: Column) -> list[int]:
        # w = M . A_j, exploiting sparsity of the column.
        M = self._M
        w = [0] * self.m
        for r, coef in col:
            if coef == 1:
                for i in range(self.m):
                    w[i] += M[i][r]
            else:
                for i in range(self.m):
                    w[i] += coef * M[i][r]
        return w

    def _pivot(self, row: int, j: int, w: list[int]) -> None:
        """Replace the basic variable in `row` by variable j (direction w = M.A_j)."""
        M, d, xt = self._M, self._d, self._xt
        wr = w[row]
        if wr == 0:
            raise RuntimeError("zero pivot")
        Mr = M[row]
        xr = xt[row]
        for i in range(self.m):
            if i == row:
                continue
            wi = w[i]
            Mi = M[i]
            if wi:
                for k in range(self.m):
                    Mi[k] = (wr * Mi[k] - wi * Mr[k]) // d
                xt[i] = (wr * xt[i] - wi * xr) // d
            else:
                for k in range(self.m):
                    Mi[k] = (wr * Mi[k]) // d
                xt[i] = (wr * xt[i]) // d
        self._d = wr
        if self._d < 0:
            self._d = -self._d
            for i in range(self.m):
                Mi = M[i]
                for k in range(self.m):
                    Mi[k] = -Mi[k]
                xt[i] = -xt[i]
        self._basis[row] = j
        self._pivots += 1
        if self._pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")

    def _run_phase1(self) -> None:
        self._primal_loop(phase1=True)
        # Optimal phase-1 value = sum of artificial levels.
        total = 0
        for i, var in enumerate(self._basis):
            if var >= self.n:
                total += self._xt[i]
        if total:
            y = _pricing_vector(self._basis, self._M, [0] * self.n, self.n, artificial_cost=1)
            pi = tuple(Fraction(y[k], self._d) for k in range(self.m))
            raise Infeasible(pi, Fraction(total, self._d * self._N))
        self._evict_artificials()

    def _evict_artificials(self) -> None:
        # Pivot artificials out of the basis on any nonzero entry; rows where
        # none exists are structurally redundant and keep an inert artificial.
        for row in range(self.m):
            if self._basis[row] < self.n:
                continue
            (alpha,) = self._price(self._M[row] + [0])
            nonzero = np.flatnonzero(alpha)
            if nonzero.size:
                j = int(nonzero[0])
                self._pivot(row, j, self._col_times_M(self.columns[j]))

    def _primal_loop(self, phase1: bool = False) -> None:
        # Phase 1 prices the artificials at 1 and every column at 0, so the
        # reduced costs d*c - y.A are [-y, 0] . [A; c]; phase 2's are [-y, d].
        costs = [0] * self.n if phase1 else self.costs
        bland = False
        degenerate_streak = 0
        while True:
            y = _pricing_vector(self._basis, self._M, costs, self.n, int(phase1))
            (rc,) = self._price([-v for v in y] + [0 if phase1 else self._d])
            negative = np.flatnonzero(rc < 0)
            if not negative.size:
                return
            # Bland: the first improving column; Dantzig: the first most negative.
            enter = int(negative[0]) if bland else int(rc.argmin())
            w = self._col_times_M(self.columns[enter])
            xt = self._xt
            row = -1
            rx = rw = 0  # ratio of current best leaving row
            for i in range(self.m):
                wi = w[i]
                if wi <= 0:
                    continue
                xi = xt[i]
                if row < 0 or xi * rw < rx * wi or (
                    xi * rw == rx * wi and self._basis[i] < self._basis[row]
                ):
                    row, rx, rw = i, xi, wi
            if row < 0:
                raise RuntimeError("LP unbounded; not expected for bound polytopes")
            degenerate = xt[row] == 0
            self._pivot(row, enter, w)
            if degenerate:
                degenerate_streak += 1
                if degenerate_streak >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False

    def _run_dual(self) -> None:
        # The entering column always comes from the full dual ratio test —
        # anything else loses dual feasibility, after which termination no
        # longer implies optimality.  Bland mode only changes tie-breaking:
        # leaving row by smallest basic variable id, entering column by
        # smallest index among the ratio minimizers (already the default).
        bland = False
        stall = 0
        while True:
            xt = self._xt
            row = -1
            worst = 0
            if bland:
                for i in range(self.m):
                    if xt[i] < 0 and (row < 0 or self._basis[i] < self._basis[row]):
                        row = i
            else:
                for i in range(self.m):
                    if xt[i] < worst:
                        worst = xt[i]
                        row = i
            if row < 0:
                return
            y = _pricing_vector(self._basis, self._M, self.costs, self.n)
            Mr = self._M[row]
            alpha, rc = self._price(Mr + [0], [-v for v in y] + [self._d])
            candidates = np.flatnonzero(alpha < 0)
            enter = -1
            en = ea = 0  # reduced-cost numerator and |alpha| of current best
            # In ascending j, so the first of equal ratios is kept.
            for j, a, num in zip(
                candidates.tolist(), alpha[candidates].tolist(), rc[candidates].tolist()
            ):
                if enter < 0 or num * ea < en * -a:
                    enter, en, ea = j, num, -a
            if enter < 0:
                pi = tuple(Fraction(-Mr[k], self._d) for k in range(self.m))
                raise Infeasible(pi, Fraction(-xt[row], self._d * self._N))
            degenerate = en == 0
            self._pivot(row, enter, self._col_times_M(self.columns[enter]))
            if degenerate:
                stall += 1
                if stall >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    def _check_inert_rows(self) -> None:
        # Dual simplex only repairs negative levels; a positive level on an
        # inert artificial row means b is inconsistent with a redundant row.
        for i in self._inert:
            if self._xt[i] > 0:
                Mr = self._M[i]
                pi = tuple(Fraction(Mr[k], self._d) for k in range(self.m))
                raise Infeasible(pi, Fraction(self._xt[i], self._d * self._N))

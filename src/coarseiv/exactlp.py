"""Exact rational simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b, x >= 0  with all arithmetic exact.
Columns of A are sparse integer vectors (in this package they have at most a
handful of +-1 entries), b is a nonnegative rational vector and c is an
integer vector.  The solver keeps the basis inverse in integer-adjugate form
(M = d * B^-1 with M integral and d = det B), so every pivot is fraction-free
integer arithmetic with one exact division.  The right-hand side is held as
integers too: b = b~ / N, either given that way (``scale=N``) or converted
once by :func:`integer_rhs`.

Warm restarts are first-class.  `resolve_b` handles a change of b only
(bootstrap replicates, distribution sweeps).  It keeps the last
``_CACHE_SIZE`` optimal bases in most-recently-used order and accepts the
first one that is primal feasible for the new b (M.b~ >= 0, inert rows at
zero): the costs have not changed since it was optimal, so it is still dual
feasible and hence optimal.  Only when no cached basis fits does it run the
dual simplex from the current basis.  `resolve_costs` restarts the primal
when only c changes (lower/upper bound pairs share a basis).

An `LpOutcome` carries the optimal value as one Fraction; the primal solution
and the dual vector are built from the optimal basis on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

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
# Optimal bases kept for `resolve_b`.
_CACHE_SIZE = 64


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
    fail: int = 0  # row that last made this basis infeasible; tested first


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
        if len(columns) != len(costs):
            raise ValueError("one cost per column required")
        self.m = n_rows
        self.columns: list[Column] = [tuple(col) for col in columns]
        self.n = len(self.columns)
        self.costs: list[int] = [int(c) for c in costs]
        # Solver state (populated by solve()).  Pivots update _basis and _M in
        # place, so a run that pivots first copies them (_thaw): the cached
        # vertices and the outcomes built on them share those lists.
        self._basis: Sequence[int] | None = None  # variable id per row
        self._M: list[list[int]] | None = None  # d * inverse of basis matrix
        self._d: int = 1  # det of basis matrix, kept > 0
        self._btilde: list[int] | None = None  # N * b
        self._N: int = 1  # common denominator of b
        self._xt: list[int] | None = None  # M . btilde, >= 0 when feasible
        self._pivots = 0
        self._inert: tuple[int, ...] = ()  # rows of inert artificials
        self._cache: list[_Vertex] = []  # optimal bases, most recently used first
        self._infeasible: Infeasible | None = None  # set while b~ has no solution

    # -- public API ----------------------------------------------------------

    def solve(self, b: Sequence, scale: int | None = None) -> LpOutcome:
        """Cold solve: phase 1 from the all-artificial basis, then phase 2."""
        self._load_b(b, scale)
        m = self.m
        self._cache.clear()
        self._basis = [self.n + i for i in range(m)]
        self._M = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        self._d = 1
        self._xt = list(self._btilde)
        self._pivots = 0
        self._run_phase1()
        self._inert = tuple(i for i, var in enumerate(self._basis) if var >= self.n)
        self._primal_loop(self.costs)
        return self._remember()

    def resolve_b(self, b: Sequence, scale: int | None = None) -> LpOutcome:
        """Warm solve after a change of b only: a cached basis, else dual simplex."""
        if not self._cache:
            return self.solve(b, scale)
        self._load_b(b, scale)
        self._pivots = 0
        vx = self._cached_vertex()
        if vx is not None:
            return self._outcome(vx)
        self._thaw()
        self._xt = self._mat_vec(self._btilde)
        self._run_dual(self.costs)
        self._check_inert_rows()
        return self._remember()

    def resolve_costs(self, costs: Sequence[int]) -> LpOutcome:
        """Warm solve after a change of c only, restarting the primal.

        Raises `Infeasible` again if the last b given was infeasible.
        """
        if self._infeasible is not None:
            exc = self._infeasible
            raise Infeasible(exc.farkas, exc.violation)
        if not self._cache:
            raise RuntimeError("no optimal basis yet; call solve() first")
        self.costs = [int(c) for c in costs]
        self._cache.clear()
        self._pivots = 0
        self._thaw()
        self._primal_loop(self.costs)
        return self._remember()

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

    def _cached_vertex(self) -> _Vertex | None:
        # First cached basis with M.b~ >= 0 and every inert row at zero.
        bt, inert, cache = self._btilde, self._inert, self._cache
        for k, vx in enumerate(cache):
            rows = vx.M
            fail = vx.fail
            level = sum(map(mul, rows[fail], bt))
            if level < 0 or (level and fail in inert):
                continue
            xt = []
            for i, row in enumerate(rows):
                level = sum(map(mul, row, bt))
                if level < 0 or (level and i in inert):
                    vx.fail = i
                    break
                xt.append(level)
            else:
                if k:
                    cache.insert(0, cache.pop(k))
                self._basis, self._M, self._d, self._xt = vx.basis, rows, vx.d, xt
                return vx
        return None

    def _remember(self) -> LpOutcome:
        # Cache the current (optimal) basis as the most recently used one.
        vx = _Vertex(tuple(self._basis), self._M, self._d)
        self._basis = vx.basis
        self._cache.insert(0, vx)
        del self._cache[_CACHE_SIZE:]
        return self._outcome(vx)

    def _thaw(self) -> None:
        self._basis = list(self._basis)
        self._M = [row[:] for row in self._M]
        self._xt = list(self._xt)

    def _reject(self, farkas: tuple[Fraction, ...], violation: Fraction) -> Infeasible:
        # Remembered until the next optimum, so resolve_costs refuses this b.
        self._infeasible = Infeasible(farkas, violation)
        return self._infeasible

    def _outcome(self, vx: _Vertex) -> LpOutcome:
        self._infeasible = None
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

    def _mat_vec(self, v: Sequence[int]) -> list[int]:
        return [sum(map(mul, row, v)) for row in self._M]

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
        phase1_costs = [0] * self.n
        self._primal_loop(phase1_costs, artificial_cost=1)
        # Optimal phase-1 value = sum of artificial levels.
        total = 0
        for i, var in enumerate(self._basis):
            if var >= self.n:
                total += self._xt[i]
        if total:
            y = _pricing_vector(self._basis, self._M, phase1_costs, self.n, artificial_cost=1)
            pi = tuple(Fraction(y[k], self._d) for k in range(self.m))
            raise self._reject(pi, Fraction(total, self._d * self._N))
        self._evict_artificials()

    def _evict_artificials(self) -> None:
        # Pivot artificials out of the basis on any nonzero entry; rows where
        # none exists are structurally redundant and keep an inert artificial.
        for row in range(self.m):
            if self._basis[row] < self.n:
                continue
            Mr = self._M[row]
            for j, col in enumerate(self.columns):
                alpha = column_dot(col, Mr)
                if alpha:
                    self._pivot(row, j, self._col_times_M(col))
                    break

    def _primal_loop(self, costs: Sequence[int], artificial_cost: int = 0) -> None:
        bland = False
        degenerate_streak = 0
        while True:
            y = _pricing_vector(self._basis, self._M, costs, self.n, artificial_cost)
            d = self._d
            enter = -1
            best = 0
            if bland:
                for j in range(self.n):
                    if d * costs[j] - column_dot(self.columns[j], y) < 0:
                        enter = j
                        break
            else:
                for j in range(self.n):
                    num = d * costs[j] - column_dot(self.columns[j], y)
                    if num < best:
                        best = num
                        enter = j
            if enter < 0:
                return
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

    def _run_dual(self, costs: Sequence[int]) -> None:
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
            y = _pricing_vector(self._basis, self._M, costs, self.n)
            d = self._d
            Mr = self._M[row]
            enter = -1
            en = ea = 0  # reduced-cost numerator and |alpha| of current best
            for j, col in enumerate(self.columns):
                alpha = column_dot(col, Mr)
                if alpha >= 0:
                    continue
                num = d * costs[j] - column_dot(col, y)
                if enter < 0 or num * ea < en * (-alpha) or (
                    num * ea == en * (-alpha) and j < enter
                ):
                    enter, en, ea = j, num, -alpha
            if enter < 0:
                pi = tuple(Fraction(-Mr[k], self._d) for k in range(self.m))
                raise self._reject(pi, Fraction(-xt[row], self._d * self._N))
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
                raise self._reject(pi, Fraction(self._xt[i], self._d * self._N))

"""Exact rational simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b, x >= 0  with all arithmetic exact.
A is a dense integer matrix, int64 or dtype=object (in this package each
column has a handful of 1 or -1 entries), b is a nonnegative rational vector
and c is an integer vector.  The solver keeps the basis inverse in
integer-adjugate form (M = d * B^-1 with M integral and d = det B), so every
pivot is fraction-free integer arithmetic with one exact division.  The
right-hand side is held as integers too: b = b~ / N, either given that way
(``scale=N``) or converted once by :func:`integer_rhs`.

Pricing runs over every column at once.  The constructor stacks A and the
cost row into one (m + 1) x n matrix [A; c]: the reduced costs d*c - y.A are
one product [-y, d] . [A; c] with y = c_B . M, the pivot row of the dual
ratio test and of the eviction of artificials is M_r . A, and the entering
direction is w = M . A_j.

The state is one integer array T = [M | xt]: M with its levels xt = M.b~
as a last column.  A pivot is one fraction-free rank-1 update
T' = (w_r T - w T_r) / d (Bareiss), whose division is exact; numpy's //
floors as Python's does.  Every product and update is exact, by bit lengths
that bound every partial sum.  A product (`_exact_product`) has three tiers,
picked by `bits` = bit_length(max |left|) plus the bit length of the largest
column L1 norm on the right:

* float64, through BLAS, for a product of two matrices when bits <= 53:
  every partial sum is an integer below 2**53, so exact in any summation
  order;
* int64 when bits <= 62, and for every product with a vector side, where
  converting to float64 costs more than it saves;
* Python ints (dtype=object) beyond.

A pivot runs in int64 when bit_length(max |w|) + bit_length(max |T|) <= 62
and in Python ints otherwise.  The solver carries bit_length(max |T|) from
one pivot to the next.  Numbers leave as Python ints: the levels, value,
solution and dual of an `LpOutcome`, and Farkas vectors.

A cold solve starts from a greedy triangular crash of the all-artificial
basis (Bixby 1992, "Implementing the simplex method: the initial basis"):
while some column has only positive entries, all on rows still held by
their artificial at a positive level, the one with the largest step
enters.  Each crash step is an ordinary phase-1 pivot that needs neither
pricing nor a direction product, and the Dantzig phase 1 runs on from the
crash basis.

Warm starts are first-class.  A change of b only (bootstrap replicates,
distribution sweeps) is solved by the dual simplex from an optimal basis.
The costs have not changed, so that basis is still dual feasible, and if
it is primal feasible for b (M.b~ >= 0, inert rows at zero) it is optimal
after zero pivots.  Phase 1 ignores c, so a cold solve keeps its
post-phase-1 basis (`phase1`) and a solver with other costs over the same
columns can start phase 2 from it (lower/upper bound pairs).  So can a
solve from any feasible basis whose basic artificials are at zero, which
are evicted first (the slack projection's optimum, in `bounds`).

There is one dual simplex, `resolve_many`.  It runs for many right-hand
sides in lockstep, each from its own start basis: one state array of
shape (K, m, m + 1), one product per step for all pivot rows and reduced
costs, one ratio test for all tables (from three tables on, a float64
pick per table confirmed by exact int64 cross-multiplication; an exact
loop below that and as the fallback), one product for the directions,
and one broadcast Bareiss update.  An infeasible right-hand side comes
back as its `Infeasible`.  `resolve_b` is one table of it, started from
the last optimal basis.  `screen` tests one optimal basis against many
right-hand sides in one product [M; c_B.M].B^T and returns the ones the
basis is optimal for, with their values, and how far it is from feasible
for each of the others.

An `LpOutcome` carries the optimal value as one Fraction; the primal solution
and the dual vector are built from the optimal basis on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, index
from typing import Sequence

import numpy as np

__all__ = [
    "ExactSimplex",
    "Infeasible",
    "LpOutcome",
    "independent_rows",
    "integer_rhs",
    "verify_farkas",
]

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_DEGENERATE_LIMIT = 30
_MAX_PIVOTS = 200_000
# Bit budget of exact int64 arithmetic: a product has |v . a| <=
# max|v| * |a|_1 < 2**62 when bit_length(max |v|) + bit_length(|a|_1) <= 62,
# and a pivot has |w_r t - w_i t_r| < 2**63 when
# bit_length(max |w|) + bit_length(max |t|) <= 62.
_INT64_BITS = 62
# Bit budget of exact float64 arithmetic: every integer below 2**53 is a
# float64, and so is every partial sum of a product within this budget.
_FLOAT64_BITS = 53
# Right-hand sides per product in `ExactSimplex.screen`.
_SCREEN_ROWS = 512
# Live tables from which a lockstep step's ratio test runs vectorised
# (`_ratio_test`); below it the per-table loop is faster.
_RATIO_TABLES = 3


class Infeasible(Exception):
    """Raised when A x = b, x >= 0 has no solution (`resolve_many` returns it).

    Carries a Farkas certificate: a rational row vector pi with
    pi . A_j <= 0 for every column j and pi . b > 0.
    """

    def __init__(self, farkas: tuple[Fraction, ...], violation: Fraction):
        super().__init__(f"infeasible (Farkas violation {violation})")
        self.farkas = farkas
        self.violation = violation


@dataclass(slots=True, eq=False)
class _Vertex:
    """A basis: basic variable per row, M = d * B^-1 as an integer array, and d.

    M is read only: solves that start from this basis pivot into new arrays.
    """

    basis: tuple[int, ...]
    M: np.ndarray
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
    costs: np.ndarray = field(repr=False)  # per variable, artificials at 0
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
        c_B = self.costs[list(vx.basis)]
        l1 = sum(map(abs, c_B.tolist()))
        y = _exact_product(c_B, vx.M, _bits(vx.M) + l1.bit_length())
        return tuple(Fraction(v, vx.d) for v in y.tolist())


def verify_farkas(A: np.ndarray, b: Sequence, pi: Sequence[Fraction]) -> bool:
    """Check that pi certifies infeasibility of A x = b, x >= 0 (b may be scaled).

    `A` is the dense (m x n) integer matrix.  pi's denominators are cleared
    once, so pi . A <= 0 is one `_exact_product`.
    """
    if sum(p * v for p, v in zip(pi, b)) <= 0:
        return False
    if not A.size:
        return True
    row = np.array(integer_rhs(pi)[0], dtype=object)
    # |pi~ . A_j| <= max |pi~| * max |A| * m.
    bits = _bits(row) + _bits(A) + len(row).bit_length()
    return bool((_exact_product(row, A, bits) <= 0).all())


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


def _bits(a: np.ndarray) -> int:
    # Bit length of the largest |entry| of an integer array, 0 when empty.
    return int(np.abs(a).max(initial=0)).bit_length()


def _exact_product(left: np.ndarray, right: np.ndarray, bits: int) -> np.ndarray:
    # left @ right, exact, where `bits` is at least bit_length(max |left|)
    # plus the bit length of the L1 norm of every column of `right`, so every
    # partial sum is an integer below 2**bits.  Two matrices multiply in
    # float64 through BLAS when `bits` <= 53, where every partial sum is
    # exact in any summation order, and come back as int64.  Otherwise, and
    # whenever a side is a vector (or a stack of vectors), the product runs
    # in int64 when `bits` <= _INT64_BITS and in Python ints (dtype=object)
    # beyond.
    matrices = left.ndim > 1 and right.ndim > 1 and left.shape[-2] > 1 and right.shape[-1] > 1
    if bits <= _FLOAT64_BITS and matrices:
        return (left.astype(np.float64) @ right.astype(np.float64)).astype(np.int64)
    if bits <= _INT64_BITS:
        return left.astype(np.int64, copy=False) @ right.astype(np.int64, copy=False)
    return left.astype(object) @ right.astype(object, copy=False)


def _min_ratio(candidates: np.ndarray, alpha: np.ndarray, rc: np.ndarray) -> int:
    # The dual ratio test over `candidates` (ascending columns with
    # alpha_j < 0): the first j minimising rc_j / -alpha_j, compared exactly
    # by cross-multiplication.
    enter = -1
    en = ea = 0  # reduced-cost numerator and |alpha| of current best
    for j, a, num in zip(
        candidates.tolist(), alpha[candidates].tolist(), rc[candidates].tolist()
    ):
        if enter < 0 or num * ea < en * -a:
            enter, en, ea = j, num, -a
    return enter


def _ratio_test(candidates: np.ndarray, alpha: np.ndarray, rc: np.ndarray) -> np.ndarray:
    # `_min_ratio` for every row of a stack of tables at once.  A float64
    # ratio picks one column per row; it stands when its cross-multiplied
    # comparison with every candidate, in int64, finds no smaller ratio, and
    # the entering column is then the first candidate whose ratio equals it.
    # Fewer than ``_RATIO_TABLES`` rows, inputs too wide for int64 products,
    # and rows whose pick a rounding misordered take the exact loop.
    if (
        len(alpha) < _RATIO_TABLES
        or alpha.dtype == object
        or _bits(alpha) + _bits(rc) > _INT64_BITS
    ):
        return np.array(
            [_min_ratio(np.flatnonzero(c), a, r) for c, a, r in zip(candidates, alpha, rc)]
        )
    ratio = np.divide(rc, -alpha, out=np.full(alpha.shape, np.inf), where=candidates)
    at = np.arange(len(alpha))
    pick = ratio.argmin(axis=1)
    lhs = rc[at, pick][:, None] * alpha  # -rc_pick |alpha_j|
    rhs = rc * alpha[at, pick][:, None]  # -rc_j |alpha_pick|
    enter = (candidates & (lhs == rhs)).argmax(axis=1)
    for k in np.flatnonzero((candidates & (lhs < rhs)).any(axis=1)).tolist():
        enter[k] = _min_ratio(np.flatnonzero(candidates[k]), alpha[k], rc[k])
    return enter


def _dtype(bits: int) -> type:
    # int64 for integers of at most `bits` bits when that fits the budget.
    return np.int64 if bits <= _INT64_BITS else object


class ExactSimplex:
    """Two-phase exact simplex over a fixed column set.

    The instance owns the (m x n) integer matrix `A` and the costs c; b can
    vary across solves.  Artificial variables are numbered n .. n+m-1 and are
    never re-admitted once phase 1 ends; rows whose artificial cannot be
    pivoted out are structurally redundant and their artificial stays basic
    at level zero forever.

    `solve` and `resolve_b` take b either as rationals or, with ``scale=N``,
    as nonnegative integers b~ meaning b~ / N.
    """

    def __init__(self, A: np.ndarray, costs: Sequence[int]):
        self.m, self.n = A.shape
        if self.m < 1:
            raise ValueError("at least one row required")
        if len(costs) != self.n:
            raise ValueError("one cost per column required")
        # The L1 norm of each column, summed in int64 unless an entry is too wide.
        l1 = np.abs(A).sum(axis=0, dtype=_dtype(_bits(A) + self.m.bit_length())).tolist()
        self._l1_bits = max(l1, default=0).bit_length()
        self.A = A.astype(_dtype(self._l1_bits), copy=False)
        # Dense [A; c] for the pricing, int64 when every column's L1 norm
        # fits, and the costs per variable, artificials included, for each phase.
        self.costs: list[int] = [int(c) for c in costs]
        norm = max(map(add, l1, map(abs, self.costs)), default=0)
        self._norm_bits = norm.bit_length()
        self._dense = np.vstack([self.A, np.array([self.costs], dtype=_dtype(self._norm_bits))])
        top = max(map(abs, self.costs), default=0)
        self._c = np.array(self.costs + [0] * self.m, dtype=_dtype(top.bit_length()))
        self._c1 = np.array([0] * self.n + [1] * self.m, dtype=np.int64)
        # Bit length of a bound on |c_B|_1 in either phase, for y = c_B . M.
        self._c_bits = (self.m * max(top, 1)).bit_length()
        # Solver state (populated by solve()).  T = [M | xt] holds M, d times
        # the basis inverse, and its levels xt = M . b~.  A pivot builds a new
        # T and never writes into the old one, so the last vertex holds a
        # view of M that later pivots leave alone.
        self._basis: list[int] = []  # variable id per row
        self._T: np.ndarray | None = None
        self._bits = 0  # bit length of max |T|
        self._d: int = 1  # det of basis matrix, kept > 0
        self._bt: np.ndarray | None = None  # b~ = N * b
        self._bt_bits = 0  # bit length of sum(b~)
        self._N: int = 1  # common denominator of b
        self._pivots = 0
        self._last: _Vertex | None = None  # the last optimal basis
        self.phase1: _Vertex | None = None  # feasible basis of the last cold solve

    # -- public API ----------------------------------------------------------

    def solve(
        self, b: Sequence, scale: int | None = None, start: _Vertex | None = None
    ) -> LpOutcome:
        """Cold solve: a crash basis, phase 1 from it, then phase 2.

        Phase 1 starts from the greedy triangular crash (`_crash`) of the
        all-artificial basis.  `start`, a basis over these columns that is
        primal feasible for b with every basic artificial at zero (the
        `phase1` basis of a solver over the same columns and this b, or a
        basis built from another LP's optimum), replaces phase 1; its
        artificials are evicted as phase 1's are.  A start not primal
        feasible for b is an error.
        """
        self._load_b(b, scale)
        self._last = None
        self._pivots = 0
        if start is None:
            self._basis = list(range(self.n, self.n + self.m))
            self._d = 1
            self._load(np.eye(self.m, dtype=np.int64), self._bt)
            self._crash()
            self._run_phase1()
        else:
            self._basis, self._d = list(start.basis), start.d
            self._load(start.M, _exact_product(start.M, self._bt, _bits(start.M) + self._bt_bits))
            inert = [i for i, var in enumerate(start.basis) if var >= self.n]
            xt = self._T[:, -1]
            if (xt < 0).any() or xt[inert].any():
                raise RuntimeError("start basis is not primal feasible for b")
            self._evict_artificials()
        self.phase1 = _Vertex(tuple(self._basis), self._T[:, :-1], self._d)
        self._primal_loop()
        self._last = _Vertex(tuple(self._basis), self._T[:, :-1], self._d)
        return self._outcome(self._last, self._T[:, -1].tolist(), self._pivots, self._N)

    def resolve_b(
        self, b: Sequence, scale: int | None = None, start: _Vertex | None = None
    ) -> LpOutcome:
        """Warm solve after a change of b only, by the dual simplex.

        One table of `resolve_many`, started from the last optimal basis,
        whose optimum becomes the last basis: a basis that still fits b is
        optimal after zero pivots and stays the last basis, uncopied.  An
        infeasible b raises the `Infeasible` that `resolve_many` returns.
        With no optimal basis yet this is `solve(b, scale, start)`.
        """
        if self._last is None:
            return self.solve(b, scale, start)
        self._load_b(b, scale)
        (out,) = self.resolve_many([self._last], self._bt[None], self._N)
        if isinstance(out, Infeasible):
            raise out
        self._last = out.vertex
        return out

    def resolve_many(
        self, starts: Sequence[_Vertex], B: np.ndarray, scale: int
    ) -> list[LpOutcome | Infeasible]:
        """Warm solves at the rows of B, in lockstep, each from its own start.

        Row k of B is a right-hand side b~ >= 0 over `scale`, and starts[k]
        an optimal basis of this solver, so dual feasible for every b~.
        Every table follows one pivot rule: the most negative level leaves
        (the first row on ties), the entering column comes from the full
        dual ratio test (the first column on ties), and after
        ``_DEGENERATE_LIMIT`` degenerate pivots in a row the leaving row is
        the one with the smallest basic variable id.  The entering column
        always comes from the full ratio test, since any other loses dual
        feasibility; Bland's rule only changes the leaving row.

        The state is T = [M | xt] of every unfinished table, shape
        (K, m, m + 1), with d of shape (K,) and the basis of shape (K, m).
        A step makes one product [M_r | 0; -y | d].[A; c] for the pivot
        rows and the reduced costs of all tables (y = c_B.M, itself one
        stacked product), one stacked product for the directions
        w = M.A_j, and one broadcast Bareiss update.  From
        ``_RATIO_TABLES`` live tables on, the ratio test runs for all of
        them at once (`_ratio_test`): a float64 ratio picks a column per
        table and an int64 cross-multiplied comparison with every candidate
        confirms it.  Fewer tables, object or over-62-bit inputs, and a
        pick a rounding misordered take the exact loop (`_min_ratio`).

        Returns one outcome per row; a table that takes no pivot keeps its
        start as its vertex, uncopied.  An infeasible b~ gives an
        `Infeasible` whose Farkas vector is a row of M over d: -M_r when
        the leaving row r has no entering column, or, since the dual
        simplex only repairs negative levels, M_i for the first inert row i
        left at a positive level.  The solver's own state, its last basis
        included, is left alone.
        """
        K, m, n = len(B), self.m, self.n
        out: list[LpOutcome | Infeasible] = [None] * K
        if not K:
            return out
        Ms = np.stack([vx.M for vx in starts])
        b_bits = int(B.sum(axis=1, dtype=object).max()).bit_length()
        T = np.concatenate([Ms, _exact_product(Ms, B[:, :, None], _bits(Ms) + b_bits)], axis=2)
        del Ms
        basis = np.array([vx.basis for vx in starts], dtype=np.int64)
        ds = [vx.d for vx in starts]
        d = np.array(ds, dtype=_dtype(max(ds).bit_length()))
        live = np.arange(K)  # row of B of each unfinished table
        stall = np.zeros(K, dtype=np.int64)
        bland = np.zeros(K, dtype=bool)
        step = 0
        while True:
            negative = T[:, :, -1] < 0
            pending = negative.any(axis=1)
            if not pending.all():
                for k in np.flatnonzero(~pending).tolist():
                    levels, dk = T[k, :, -1].tolist(), int(d[k])
                    inert = [i for i, var in enumerate(basis[k].tolist()) if var >= n and levels[i]]
                    if inert:  # nonzero on a redundant row: b~ is inconsistent with it
                        i = inert[0]
                        pi = tuple(Fraction(v, dk) for v in T[k, i, :-1].tolist())
                        out[live[k]] = Infeasible(pi, Fraction(levels[i], dk * scale))
                        continue
                    if step:
                        vx = _Vertex(tuple(basis[k].tolist()), T[k, :, :-1].copy(), dk)
                    else:
                        vx = starts[live[k]]
                    out[live[k]] = self._outcome(vx, levels, step, scale)
                T, basis, d, live, stall, bland, negative = (
                    a[pending] for a in (T, basis, d, live, stall, bland, negative)
                )
                if not len(T):
                    return out
            step += 1
            if step > _MAX_PIVOTS:
                raise RuntimeError("pivot limit exceeded")
            rows = T[:, :, -1].argmin(axis=1)
            if bland.any():
                rows = np.where(bland, np.where(negative, basis, n + m).argmin(axis=1), rows)
            at = np.arange(len(T))
            t_bits = _bits(T)
            M = T[:, :, :-1]
            Tr = T[at, rows]
            y = _exact_product(self._c[basis][:, None, :], M, t_bits + self._c_bits)[:, 0]
            V = np.concatenate([Tr, np.concatenate([-y, d[:, None]], axis=1)])
            V[: len(T), -1] = 0
            p_bits = max(t_bits + self._c_bits, _bits(d)) + self._norm_bits
            P = _exact_product(V, self._dense, p_bits)
            alpha, rc = P[: len(T)], P[len(T):]
            candidates = alpha < 0
            keep = candidates.any(axis=1)
            if not keep.all():  # no entering column: infeasible
                for k in np.flatnonzero(~keep).tolist():
                    dk, r = int(d[k]), Tr[k].tolist()
                    pi = tuple(Fraction(-v, dk) for v in r[:-1])
                    out[live[k]] = Infeasible(pi, Fraction(-r[-1], dk * scale))
                T, basis, d, live, stall, bland, rows, Tr, alpha, rc, candidates = (
                    a[keep]
                    for a in (T, basis, d, live, stall, bland, rows, Tr, alpha, rc, candidates)
                )
                if not len(T):
                    return out
                at, M = np.arange(len(T)), T[:, :, :-1]
            enter = _ratio_test(candidates, alpha, rc)
            degenerate = rc[at, enter] == 0
            w = _exact_product(M, self.A[:, enter].T[:, :, None], t_bits + self._l1_bits)[:, :, 0]
            wr = w[at, rows]
            if not wr.all():
                raise RuntimeError("zero pivot")
            Tr *= np.where(wr < 0, -1, 1)[:, None]  # keeps d = |wr| positive
            wr = abs(wr)
            dtype = _dtype(_bits(w) + t_bits)
            T = T.astype(dtype, copy=False)  # the kernel's own array: updated in place
            T *= wr.astype(dtype)[:, None, None]
            T -= w.astype(dtype)[:, :, None] * Tr.astype(dtype)[:, None, :]
            T //= d.astype(dtype)[:, None, None]
            T[at, rows] = Tr
            d = wr
            basis[at, rows] = enter
            stall = (stall + 1) * degenerate
            bland = degenerate & (bland | (stall >= _DEGENERATE_LIMIT))

    # -- internals -----------------------------------------------------------

    def _load_b(self, b: Sequence, scale: int | None) -> None:
        if len(b) != self.m:
            raise ValueError("b has wrong length")
        if scale is None:
            b, scale = integer_rhs(b)
        elif scale <= 0:
            raise ValueError("scale must be positive")
        else:
            b = [index(v) for v in b]
        if any(v < 0 for v in b):
            raise ValueError("b must be nonnegative")
        self._bt_bits = sum(b).bit_length()
        self._bt = np.array(b, dtype=_dtype(self._bt_bits))
        self._N = scale

    def _load(self, M: np.ndarray, xt: np.ndarray) -> None:
        # Make [M | xt] the current state.
        self._T = np.column_stack([M, xt])
        self._bits = _bits(self._T)

    def _outcome(self, vx: _Vertex, levels: list[int], pivots: int, scale: int) -> LpOutcome:
        costs, n = self.costs, self.n
        total = sum(costs[var] * x for var, x in zip(vx.basis, levels) if var < n)
        return LpOutcome(
            value=Fraction(total, vx.d * scale),
            pivots=pivots,
            vertex=vx,
            levels=levels,
            scale=scale,
            costs=self._c,
            n=n,
        )

    def screen(
        self, vx: _Vertex, B: np.ndarray, b_bits: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of B at which the optimal basis `vx` is optimal as it stands.

        Each row of B is a right-hand side b~ >= 0, and `b_bits` is at least
        the bit length of every row's L1 norm.  The costs have not changed
        since `vx` was optimal, so it is optimal for every b~ it is primal
        feasible for: M.b~ >= 0 with every inert row at zero.  Returns that
        mask over the rows; for the rows it selects, y.b~ with y = c_B.M,
        the optimal value times d * N; and for every row the basis's
        shortfall, the sum of its negative levels over d (a float64, so
        only a guide for choosing a dual simplex start).  The product
        [M; y].B^T, exact by `_exact_product`, runs in blocks of
        ``_SCREEN_ROWS`` rows of B, which bounds its temporaries.
        """
        y = _exact_product(self._c[list(vx.basis)], vx.M, _bits(vx.M) + self._c_bits)
        V = np.vstack([vx.M, y])
        bits = _bits(V) + b_bits
        inert = [i for i, var in enumerate(vx.basis) if var >= self.n]
        dtype = _dtype(bits + self.m.bit_length())
        fits, nums, short = [], [], []
        for top in range(0, max(len(B), 1), _SCREEN_ROWS):
            P = _exact_product(V, B[top : top + _SCREEN_ROWS].T, bits)
            levels = P[:-1]
            ok = (levels >= 0).all(axis=0) & (levels[inert] == 0).all(axis=0)
            fits.append(ok)
            nums.append(P[-1, ok])
            short.append(np.minimum(levels, 0, out=levels).sum(axis=0, dtype=dtype))
        fits, nums, short = map(np.concatenate, (fits, nums, short))
        return fits, nums, np.asarray(short, dtype=np.float64) / -float(vx.d)

    def _pricing(self, costs: np.ndarray, weight: int) -> np.ndarray:
        # [-y, weight] . [A; c]_j for every column j, with y = c_B . M: the
        # reduced costs d*c_j - y.A_j at weight d.  c_B . T ends in c_B . xt,
        # which the cost row's weight replaces.
        v = -_exact_product(costs[self._basis], self._T, self._bits + self._c_bits)
        v[-1] = weight
        bits = max(self._bits + self._c_bits, weight.bit_length())
        return _exact_product(v, self._dense, bits + self._norm_bits)

    def _row(self, row: int) -> np.ndarray:
        # M_row . A_j for every column j: the pivot row of the tableau, times d.
        return _exact_product(self._T[row, :-1], self.A, self._bits + self._l1_bits)

    def _column(self, j: int) -> np.ndarray:
        # w = M . A_j, d times the column of the tableau.
        return _exact_product(self._T[:, :-1], self.A[:, j], self._bits + self._l1_bits)

    def _pivot(self, row: int, j: int, w: np.ndarray) -> None:
        """Replace the basic variable in `row` by variable j (direction w = M.A_j).

        One fraction-free rank-1 update of T = [M | xt]:
        T' = (wr T - w T_row) / d, exact, with row `row` kept and every
        row negated when wr < 0, so that d' = |wr| stays positive.  It runs
        in int64 when bit_length(max |w|) + bit_length(max |T|) <= 62,
        which bounds |wr T - w T_row| below 2**63, and in Python ints
        otherwise.
        """
        wr = int(w[row])
        if wr == 0:
            raise RuntimeError("zero pivot")
        dtype = _dtype(_bits(w) + self._bits)
        T = self._T.astype(dtype, copy=False)
        Tr = T[row] if wr > 0 else -T[row]
        T = abs(wr) * T - w.astype(dtype, copy=False)[:, None] * Tr
        T //= self._d
        T[row] = Tr
        self._T = T
        self._bits = _bits(T)
        self._d = abs(wr)
        self._basis[row] = j
        self._pivots += 1
        if self._pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")

    def _crash(self) -> None:
        """Greedy triangular crash from the all-artificial basis (Bixby 1992).

        A column is eligible when its nonzero entries are all positive and
        every row it touches still holds its artificial at a positive level.
        The eligible column with the largest step t_j = min_i level_i / a_ij
        enters, the first on ties, and leaves on the first row that attains
        the step; the crash stops when no column is eligible.  An eligible
        column is zero on every row the crash has covered, so its direction
        is w = d.A_j and its phase-1 reduced cost -d.sum_i a_ij < 0, and the
        first row is `_primal_loop`'s tie rule among artificials: each step
        is an ordinary phase-1 pivot, counted as one, and needs no pricing
        or direction product.  Steps compare exactly as integers: with P
        the lcm of the entries, P.d.t_j = min_i xt_i.(P / a_ij).
        """
        A = self.A
        live = np.flatnonzero(A.any(axis=0) & (A >= 0).all(axis=0))
        if not live.size:
            return
        # Each candidate column's touched rows, ascending, and the key P / a_ij
        # of each, padded to the longest column by repeating its last entry.
        sub = A[:, live].T
        hit = sub != 0
        cols, rows = np.nonzero(hit)
        entries = sub[hit]
        P = lcm(*set(entries.tolist())) if entries.max() > 1 else 1
        counts = np.bincount(cols, minlength=live.size)
        first = np.cumsum(counts) - counts
        slot = first[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
        at, keys = rows[slot], (P // entries.astype(_dtype(P.bit_length())))[slot]
        # A covered row counts as level 0, so a column's step is 0 once it
        # touches a covered row or an artificial at level 0.
        uncovered = np.ones(self.m, dtype=np.int64)
        while True:
            levels = self._T[:, -1] * uncovered
            ratio = levels.astype(_dtype(self._bits + P.bit_length()), copy=False)[at] * keys
            steps = ratio.min(axis=1)
            k = int(steps.argmax())
            if not steps[k]:
                return
            row, j = int(at[k, ratio[k].argmin()]), int(live[k])
            w = A[:, j].astype(_dtype(self._l1_bits + self._d.bit_length()), copy=False) * self._d
            self._pivot(row, j, w)
            uncovered[row] = 0

    def _run_phase1(self) -> None:
        self._primal_loop(phase1=True)
        # Optimal phase-1 value = sum of artificial levels.
        xt = self._T[:, -1].tolist()
        total = sum(x for x, var in zip(xt, self._basis) if var >= self.n)
        if total:
            y = _exact_product(self._c1[self._basis], self._T[:, :-1], self._bits + self._c_bits)
            pi = tuple(Fraction(v, self._d) for v in y.tolist())
            raise Infeasible(pi, Fraction(total, self._d * self._N))
        self._evict_artificials()

    def _evict_artificials(self) -> None:
        # Pivot artificials out of the basis on any nonzero entry; rows where
        # none exists are structurally redundant and keep an inert artificial.
        for row in range(self.m):
            if self._basis[row] < self.n:
                continue
            nonzero = np.flatnonzero(self._row(row))
            if nonzero.size:
                j = int(nonzero[0])
                self._pivot(row, j, self._column(j))

    def _primal_loop(self, phase1: bool = False) -> None:
        # Phase 1 prices the artificials at 1 and every column at 0, so the
        # reduced costs d*c - y.A are [-y, 0] . [A; c]; phase 2's are [-y, d].
        costs = self._c1 if phase1 else self._c
        bland = False
        degenerate_streak = 0
        while True:
            rc = self._pricing(costs, 0 if phase1 else self._d)
            negative = np.flatnonzero(rc < 0)
            if not negative.size:
                return
            # Bland: the first improving column; Dantzig: the first most negative.
            enter = int(negative[0]) if bland else int(rc.argmin())
            w = self._column(enter)
            wl, xt = w.tolist(), self._T[:, -1].tolist()
            row = -1
            rx = rw = 0  # ratio of current best leaving row
            for i in range(self.m):
                wi = wl[i]
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

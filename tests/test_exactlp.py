"""Exact rational simplex: known optima, certificates, warm restarts."""

from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarseiv import exactlp
from coarseiv.bounds import merge_columns
from coarseiv.data import Estimand, ExposureLevel, RawRecord, Scenario, tabulate
from coarseiv.datasets import scenario_preset
from coarseiv.exactlp import (
    ExactSimplex,
    Infeasible,
    _exact_product,
    independent_rows,
    integer_rhs,
    verify_farkas,
)
from coarseiv.inference import _Resampler, spawn_states


_TRANSPORT_COLUMNS = [((0, 1),), ((0, 1), (1, 1)), ((1, 1),)]


def _dot(col, vec):
    """Dot product of a sparse column with a dense vector."""
    return sum(coef * vec[r] for r, coef in col)


def _dense(m, columns):
    """The dense (m x n) integer matrix of sparse columns."""
    A = np.zeros((m, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for r, coef in col:
            A[r, j] += coef
    return A


def _transport_lp():
    """min x0 + 2 x1 subject to x0 + x1 = b0, x1 + x2 = b1."""
    return ExactSimplex(_dense(2, _TRANSPORT_COLUMNS), [1, 2, 0])


def test_simple_optimum_and_certificates():
    lp = _transport_lp()
    out = lp.solve([Fraction(3), Fraction(5)])
    # Optimal: x0=3, x2=5, x1=0 -> value 3.
    assert out.value == 3
    assert out.solution.get(0, 0) == 3
    assert out.solution.get(2, 0) == 5
    # Dual feasibility: c_j - y.A_j >= 0 for every column; y.b == value.
    y = out.dual
    assert y[0] * 3 + y[1] * 5 == out.value
    for col, c in zip(_TRANSPORT_COLUMNS, lp.costs):
        assert c - sum(coef * y[r] for r, coef in col) >= 0


def test_exact_fractions_survive():
    lp = _transport_lp()
    out = lp.solve([Fraction(1, 3), Fraction(1, 7)])
    assert out.value == Fraction(1, 3)


def test_infeasible_raises_with_verified_farkas():
    # x0 = b0 and x0 = b1 with b0 != b1 is infeasible.
    columns = [((0, 1), (1, 1))]
    lp = ExactSimplex(_dense(2, columns), [0])
    b = [Fraction(1), Fraction(2)]
    with pytest.raises(Infeasible) as exc:
        lp.solve(b)
    assert verify_farkas(_dense(2, columns), b, exc.value.farkas)
    assert exc.value.violation > 0


def test_resolve_b_matches_cold_solve():
    lp = _transport_lp()
    lp.solve([Fraction(3), Fraction(5)])
    for b in ([Fraction(1), Fraction(9)], [Fraction(4), Fraction(2)], [0, 0]):
        warm = lp.resolve_b([Fraction(v) for v in b])
        cold = _transport_lp().solve([Fraction(v) for v in b])
        assert warm.value == cold.value


def test_resolve_b_detects_infeasibility():
    columns = [((0, 1), (1, 1))]
    lp = ExactSimplex(_dense(2, columns), [0])
    lp.solve([Fraction(2), Fraction(2)])
    with pytest.raises(Infeasible) as exc:
        lp.resolve_b([Fraction(1), Fraction(2)])
    assert verify_farkas(_dense(2, columns), [Fraction(1), Fraction(2)], exc.value.farkas)


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=5),
    st.lists(_FRACTIONS, min_size=3, max_size=3),
    st.lists(_FRACTIONS, min_size=3, max_size=3),
)
def test_verify_farkas_matches_the_sparse_column_rule(coefs, b, pi):
    # The dense check against the rule it replaced: pi . b > 0 and
    # pi . A_j <= 0 for every sparse column A_j, in Fractions.
    columns = [tuple((r, c) for r, c in enumerate(col) if c) for col in coefs]
    want = sum(p * v for p, v in zip(pi, b)) > 0 and all(
        _dot(col, pi) <= 0 for col in columns
    )
    assert verify_farkas(_dense(3, columns), b, pi) == want
    # Huge entries take the Python-int product and give the same answer.
    assert verify_farkas(_dense(3, columns).astype(object) * 2**70, b, pi) == want


def _random_feasible_instance(rng_draw):
    """Small random equality-form LP with a known feasible point."""
    m, n = rng_draw["m"], rng_draw["n"]
    columns = []
    for j in range(n):
        entries = tuple(
            (r, c)
            for r, c in enumerate(rng_draw["coefs"][j])
            if c != 0
        )
        columns.append(entries)
    x_feas = rng_draw["x"]
    b = [Fraction(0)] * m
    for j, col in enumerate(columns):
        for r, c in col:
            b[r] += c * x_feas[j]
    return columns, rng_draw["costs"], b


_RANDOM_LP = st.builds(
    dict,
    m=st.just(3),
    n=st.just(6),
    coefs=st.lists(
        st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=6, max_size=6
    ),
    costs=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    x=st.lists(st.integers(0, 4), min_size=6, max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(_RANDOM_LP)
def test_random_lp_duality_and_warm_restart(draw):
    columns, costs, b = _random_feasible_instance(draw)
    lp = ExactSimplex(_dense(3, columns), costs)
    try:
        out = lp.solve(b)
    except RuntimeError:
        # Unbounded instances are possible with negative costs; skip them.
        return
    # Strong duality at the reported optimum.
    assert sum(y * v for y, v in zip(out.dual, b)) == out.value
    # Primal solution is feasible and achieves the value.
    acc = [Fraction(0)] * 3
    val = Fraction(0)
    for j, xv in out.solution.items():
        assert xv >= 0
        for r, c in columns[j]:
            acc[r] += c * xv
        val += costs[j] * xv
    assert acc == list(b) and val == out.value
    # Warm restart on a perturbed rhs agrees with a cold solve.
    b2 = [v + Fraction(1, 3) for v in b]
    try:
        warm = lp.resolve_b(b2)
    except Infeasible as exc:
        assert verify_farkas(_dense(3, columns), b2, exc.farkas)
        return
    cold = ExactSimplex(_dense(3, columns), costs).solve(b2)
    assert warm.value == cold.value


def test_degenerate_rhs_then_warm_restart_regression():
    """A heavily degenerate solve must not poison the next warm restart.

    Regression for a bug where the anti-cycling fallback in the dual simplex
    chose entering columns without the ratio test, losing dual feasibility
    and silently returning suboptimal values on later resolves.
    """
    from coarseiv.bounds import BoundsSolver
    from coarseiv.data import Estimand, ExposureLevel, Scenario
    from coarseiv.response import build_constraint_system

    scn = Scenario(
        instrument_levels=("z0", "z1", "z2"),
        levels=(
            ExposureLevel("x"),
            ExposureLevel("xp"),
            ExposureLevel("xpp"),
            ExposureLevel("m", well_defining=False, z_dependent=True),
        ),
        estimand=Estimand("risk_difference", x="x", x_prime="xp"),
    )
    system = build_constraint_system(scn)
    solver = BoundsSolver(system)
    idx = {key: i for i, key in enumerate(system.row_keys)}

    def rhs(cells):
        b = [Fraction(0)] * system.n_rows
        b[idx["normalization"]] = Fraction(1)
        for key, v in cells.items():
            b[idx[key]] = v
        return b

    generic = rhs(
        {
            (z, x, y): Fraction(1, 8)
            for z in ("z0", "z1", "z2")
            for x in ("x", "xp", "xpp", "m")
            for y in (0, 1)
        }
    )
    # Zero-heavy rhs: forces a long run of degenerate dual pivots, which is
    # what flipped the solver into its anti-cycling mode.
    degenerate = rhs(
        {(z, "x", 0): Fraction(1, 2) for z in ("z0", "z1", "z2")}
        | {(z, "xp", 1): Fraction(1, 2) for z in ("z0", "z1", "z2")}
    )
    solver.solve_b(generic)
    solver.solve_b(degenerate)
    warm = solver.solve_b(generic)
    cold = BoundsSolver(system).solve_b(generic)
    assert (warm.lower, warm.upper) == (cold.lower, cold.upper)


# -- warm starts from recent bases and integer right-hand sides ----------------------


def _homocysteine_lp(costs="min"):
    from coarseiv.response import build_constraint_system

    dist, scenario = scenario_preset("homocysteine-3")
    system = build_constraint_system(scenario)
    merged = merge_columns(system)
    c = merged.min_costs if costs == "min" else [-v for v in merged.max_costs]
    columns = [tuple((r, v) for r, v in enumerate(col) if v) for col in merged.columns.tolist()]
    return system, dist, columns, list(c)


def _rhs_sequence(system, dist, seed, count=90):
    """Seeded (b~, N) right-hand sides: near the data, far apart, infeasible.

    Cells are integer counts per instrument stratum over one common scale N.
    """
    import random

    rng = random.Random(seed)
    zs = dist.instrument_levels
    cells = [(x, y) for x in dist.exposure_levels for y in (0, 1)]
    row_of = {key: i for i, key in enumerate(system.row_keys)}
    sizes = dict(dist.n_per_z)
    scale = lcm(*sizes.values())
    out = []
    for t in range(count):
        kind = t % 3
        b = [0] * system.n_rows
        b[row_of["normalization"]] = scale
        for zi, z in enumerate(zs):
            if kind == 0:  # near: resample the observed stratum
                weights = [dist.counts.get((z, x, y), 0) for x, y in cells]
            elif kind == 1:  # far: a random full-support distribution
                weights = [rng.randint(1, 20) for _ in cells]
            else:  # extreme: mass piled on a clean level's opposite outcomes
                weights = [1] * len(cells)
                weights[cells.index((dist.exposure_levels[0], zi % 2))] = 60
            counts = [0] * len(cells)
            for k in rng.choices(range(len(cells)), weights=weights, k=sizes[z]):
                counts[k] += 1
            for (x, y), c in zip(cells, counts):
                b[row_of[(z, x, y)]] = c * (scale // sizes[z])
        out.append((b, scale))
    return out


def _check_certificates(columns, costs, b, scale, out):
    bf = [Fraction(v, scale) for v in b]
    y = out.dual
    assert sum(yi * v for yi, v in zip(y, bf)) == out.value
    for col, c in zip(columns, costs):
        assert c - sum(coef * y[r] for r, coef in col) >= 0
    acc = [Fraction(0)] * len(b)
    for j, xv in out.solution.items():
        assert xv >= 0
        for r, coef in columns[j]:
            acc[r] += coef * xv
    assert acc == bf
    assert sum(costs[j] * xv for j, xv in out.solution.items()) == out.value


@pytest.mark.parametrize("side", ["min", "max"])
def test_warm_resolves_from_recent_bases_match_cold_solves(side):
    system, dist, columns, costs = _homocysteine_lp(side)
    lp = ExactSimplex(_dense(system.n_rows, columns), costs)
    n_feasible = n_infeasible = 0
    for b, scale in _rhs_sequence(system, dist, seed=5):
        cold_lp = ExactSimplex(_dense(system.n_rows, columns), costs)
        try:
            cold = cold_lp.solve([Fraction(v, scale) for v in b])
        except Infeasible:
            with pytest.raises(Infeasible) as exc:
                lp.resolve_b(b, scale=scale)
            assert verify_farkas(_dense(system.n_rows, columns), b, exc.value.farkas)
            n_infeasible += 1
            continue
        warm = lp.resolve_b(b, scale=scale)
        assert warm.value == cold.value
        _check_certificates(columns, costs, b, scale, warm)
        n_feasible += 1
    assert n_feasible >= 30 and n_infeasible >= 10


def test_integer_and_rational_rhs_agree():
    system, dist, columns, costs = _homocysteine_lp()
    lp = ExactSimplex(_dense(system.n_rows, columns), costs)
    b = system.rhs(dist)
    b_int, scale = integer_rhs(b)
    assert [Fraction(v, scale) for v in b_int] == b
    assert lp.solve(b_int, scale=scale).value == ExactSimplex(
        _dense(system.n_rows, columns), costs
    ).solve(b).value


def test_previously_seen_rhs_is_answered_without_pivots():
    # The last optimal basis fits the right-hand side it was found for:
    # asked again, that b takes zero pivots and keeps the basis, uncopied.
    system, dist, columns, costs = _homocysteine_lp()
    lp = ExactSimplex(_dense(system.n_rows, columns), costs)
    rhs = _oracle_rhs_sequence(system, seed=4, count=10)
    first = lp.solve(*rhs[0])
    for b, scale in rhs:
        out = lp.resolve_b(b, scale=scale)
        again = lp.resolve_b(b, scale=scale)
        assert again.pivots == 0 and again.value == out.value
        assert again.vertex is out.vertex is lp._last
    assert lp.resolve_b(*rhs[0]).value == first.value


def _record_dual_starts(monkeypatch):
    """Record (basis, d) of every dual simplex start; returns the growing list."""
    starts = []
    resolve_many = ExactSimplex.resolve_many

    def recording(self, vertices, B, scale):
        starts.extend((vx.basis, vx.d) for vx in vertices)
        return resolve_many(self, vertices, B, scale)

    monkeypatch.setattr(ExactSimplex, "resolve_many", recording)
    return starts


def _oracle_rhs_sequence(system, seed, count):
    """Far-apart full-support right-hand sides: b~ = A q for random type weights q.

    Every column carries the normalization row, so the scale N is sum(q).
    """
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = [rng.randint(0, 9) for _ in system.columns]
        b = [0] * system.n_rows
        for col, w in zip(system.columns, q):
            for r, coef in col:
                b[r] += coef * w
        out.append((b, sum(q)))
    return out


@pytest.mark.parametrize("side", ["min", "max"])
def test_far_apart_resolves_start_from_the_last_basis(monkeypatch, side):
    system, dist, columns, costs = _homocysteine_lp(side)
    m = system.n_rows
    lp = ExactSimplex(_dense(m, columns), costs)
    starts = _record_dual_starts(monkeypatch)
    n_pivoted = 0
    for k, (b, scale) in enumerate(_oracle_rhs_sequence(system, seed=13, count=60)):
        n_starts = len(starts)
        # Every warm resolve runs the dual simplex once, from the last
        # optimal basis.
        expected = lp._last
        out = lp.resolve_b(b, scale=scale)
        if k:
            assert starts[n_starts:] == [(expected.basis, expected.d)]
            n_pivoted += out.pivots > 0
        else:
            assert not starts  # the first solve is cold
        cold = ExactSimplex(_dense(m, columns), costs).solve(b, scale=scale)
        assert out.value == cold.value
        _check_certificates(columns, costs, b, scale, out)
    assert n_pivoted >= 20


@pytest.mark.parametrize("b2", [3, 1])
def test_redundant_row_inconsistency_raises_on_a_warm_resolve(monkeypatch, b2):
    # Row 2 is the sum of rows 0 and 1, so its artificial stays basic (inert)
    # and b is feasible only if b2 == b0 + b1.  At b2 = 3 a recent basis fits
    # every other row and the inert-row check raises after zero pivots; at
    # b2 = 1 the inert row's level is negative and the dual ratio test raises.
    columns = [((0, 1), (2, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1)), ((1, 1), (2, 1))]
    lp = ExactSimplex(_dense(3, columns), [1, 2, 3, 1])
    for b in ([1, 1, 2], [0, 2, 2], [2, 0, 2], [1, 1, 2]):
        assert lp.resolve_b(b, scale=1).value == b[0] + b[1]
    last = lp._last
    starts = _record_dual_starts(monkeypatch)
    b = [Fraction(1), Fraction(1), Fraction(b2)]
    with pytest.raises(Infeasible) as exc:
        lp.resolve_b(b)
    assert len(starts) == 1
    assert verify_farkas(_dense(3, columns), b, exc.value.farkas)
    assert lp._last is last
    # The lockstep dual simplex returns the certificate resolve_b raises.
    (got,) = lp.resolve_many([last], np.array([[1, 1, b2]]), 1)
    assert isinstance(got, Infeasible)
    assert verify_farkas(_dense(3, columns), b, got.farkas)
    assert (got.farkas, got.violation) == (exc.value.farkas, exc.value.violation)
    # The solver still answers feasible right-hand sides afterwards.
    assert lp.resolve_b([3, 1, 4], scale=2).value == Fraction(3 + 1, 2)


def test_upper_solve_from_lower_phase1_basis_matches_cold_solve():
    system, dist, columns, lower = _homocysteine_lp()
    _, _, _, upper = _homocysteine_lp("max")
    m = system.n_rows
    n_started = 0
    for b, scale in _rhs_sequence(system, dist, seed=7, count=30):
        lo = ExactSimplex(_dense(m, columns), lower)
        try:
            lo.solve(b, scale=scale)
        except Infeasible:
            continue
        start_M = lo.phase1.M.copy()
        cold = ExactSimplex(_dense(m, columns), upper).solve(b, scale=scale)
        # With zero costs phase 2 has nothing to improve: this counts phase 1 alone.
        phase1 = ExactSimplex(_dense(m, columns), [0] * len(columns)).solve(b, scale=scale).pivots
        started = ExactSimplex(_dense(m, columns), upper).solve(b, scale=scale, start=lo.phase1)
        assert started.value == cold.value
        assert started.basis == cold.basis
        assert phase1 > 0 and started.pivots == cold.pivots - phase1
        _check_certificates(columns, upper, b, scale, started)
        assert np.array_equal(lo.phase1.M, start_M)  # the start is not pivoted in place
        n_started += 1
    assert n_started >= 15


@pytest.mark.parametrize(
    "columns, basis, b0, b1",
    [
        # The basis (x1, x2) fits b0 and puts x2 = b1 - b0 < 0 at b1, a feasible b.
        ([((0, 1),), ((0, 1), (1, 1)), ((1, 1),)], (1, 2), [3, 5], [5, 3]),
        # x0 and row 1's artificial: row 1 is inert, and b1 would put it at level 1.
        ([((0, 1), (1, 1))], (0, 2), [2, 2], [1, 2]),
    ],
)
def test_start_not_primal_feasible_for_b_raises(columns, basis, b0, b1):
    # Both bases have the matrix [[1, 0], [1, 1]], so M = d B^-1 = [[1, 0], [-1, 1]].
    start = exactlp._Vertex(basis, np.array([[1, 0], [-1, 1]]), 1)
    lp = ExactSimplex(_dense(2, columns), [1] * len(columns))
    assert lp.solve(b0, scale=1, start=start).basis == basis
    with pytest.raises(RuntimeError, match="not primal feasible"):
        ExactSimplex(_dense(2, columns), [1] * len(columns)).solve(b1, scale=1, start=start)


def _fraction_rank(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_independent_rows_greedy_and_right_inverse(rows):
    kept, X, d = independent_rows(rows)
    greedy: list[int] = []
    for i in range(len(rows)):
        if _fraction_rank([rows[j] for j in greedy + [i]]) > len(greedy):
            greedy.append(i)
    assert kept == greedy
    assert d > 0
    n = len(rows[0])
    for a, i in enumerate(kept):
        for b in range(len(kept)):
            assert sum(rows[i][k] * X[k][b] for k in range(n)) == (d if a == b else 0)



# -- dense pricing and pivots against Python-int loops --------------------------------


def _pricing_vector(basis, M, costs, n, artificial_cost=0):
    """y = c_B . M over lists; the true duals are y / d."""
    y = [0] * len(M)
    for row, var in zip(M, basis):
        c = costs[var] if var < n else artificial_cost
        if c:
            for k, v in enumerate(row):
                if v:
                    y[k] += c * v
    return y


def _col_times_M(M, col):
    """w = M . A_j over lists, for a sparse column A_j."""
    w = [0] * len(M)
    for r, coef in col:
        for i, Mi in enumerate(M):
            w[i] += coef * Mi[r]
    return w


def _pivot_lists(M, xt, d, row, w):
    """The fraction-free pivot on lists, in place; returns the new d."""
    wr = w[row]
    Mr, xr = M[row], xt[row]
    for i, Mi in enumerate(M):
        if i == row:
            continue
        wi = w[i]
        for k in range(len(Mi)):
            Mi[k] = (wr * Mi[k] - wi * Mr[k]) // d
        xt[i] = (wr * xt[i] - wi * xr) // d
    if wr < 0:
        for i, Mi in enumerate(M):
            for k in range(len(Mi)):
                Mi[k] = -Mi[k]
            xt[i] = -xt[i]
    return abs(wr)


def _eligible_steps(columns, basis, levels, n):
    """Each crash-eligible column's step min_i level_i / a_ij, in Fractions.

    A column is eligible when its entries are all positive and every row it
    touches still holds its artificial at a positive level.  The levels are
    d times the true ones, which scales every step alike.
    """
    steps = {}
    for j, col in enumerate(columns):
        if col and all(c > 0 and basis[r] >= n and levels[r] > 0 for r, c in col):
            steps[j] = min(Fraction(levels[r], c) for r, c in col)
    return steps


class _ColumnLoopSimplex(ExactSimplex):
    """Reference: column-by-column loops over lists of Python ints.

    Pricing, ratio tests and pivots run on M and the levels as lists, the way
    the solver ran them before its dense int64 kernels, so the kernels are
    checked against plain integer arithmetic.  Its `resolve_b` is its own
    one-table dual simplex, the reference for `resolve_many`.  The loops
    hand their state back as dtype=object arrays for the shared cold-solve
    code.
    """

    def __init__(self, n_rows, columns, costs):
        super().__init__(_dense(n_rows, columns), costs)
        self.columns = [tuple(col) for col in columns]

    def _lists(self):
        rows = self._T.tolist()
        return [r[:-1] for r in rows], [r[-1] for r in rows]

    def _store(self, M, xt):
        self._load(np.array(M, dtype=object), np.array(xt, dtype=object))

    def _pivot_on(self, M, xt, row, j):
        w = _col_times_M(M, self.columns[j])
        assert w[row] != 0
        self._d = _pivot_lists(M, xt, self._d, row, w)
        self._basis[row] = j
        self._pivots += 1

    def _crash(self):
        # The crash rule on lists: the eligible column with the largest step
        # enters, the first on ties, and leaves on the first row attaining it.
        M, xt = self._lists()
        while True:
            steps = _eligible_steps(self.columns, self._basis, xt, self.n)
            if not steps:
                break
            top = max(steps.values())
            j = min(k for k, t in steps.items() if t == top)
            row = min(r for r, c in self.columns[j] if Fraction(xt[r], c) == top)
            self._pivot_on(M, xt, row, j)
        self._store(M, xt)

    def _run_phase1(self):
        self._primal_loop(phase1=True)
        M, xt = self._lists()
        total = sum(x for x, var in zip(xt, self._basis) if var >= self.n)
        if total:
            y = _pricing_vector(self._basis, M, [0] * self.n, self.n, artificial_cost=1)
            pi = tuple(Fraction(v, self._d) for v in y)
            raise Infeasible(pi, Fraction(total, self._d * self._N))
        self._evict_artificials()

    def _evict_artificials(self):
        M, xt = self._lists()
        for row in range(self.m):
            if self._basis[row] < self.n:
                continue
            for j, col in enumerate(self.columns):
                if _dot(col, M[row]):
                    self._pivot_on(M, xt, row, j)
                    break
        self._store(M, xt)

    def _primal_loop(self, phase1=False):
        M, xt = self._lists()
        costs = [0] * self.n if phase1 else self.costs
        bland = False
        degenerate_streak = 0
        while True:
            y = _pricing_vector(self._basis, M, costs, self.n, int(phase1))
            d = self._d
            enter = -1
            best = 0
            for j in range(self.n):
                num = d * costs[j] - _dot(self.columns[j], y)
                if num < best:
                    best, enter = num, j
                    if bland:
                        break
            if enter < 0:
                self._store(M, xt)
                return
            w = _col_times_M(M, self.columns[enter])
            row = -1
            rx = rw = 0
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
            self._pivot_on(M, xt, row, enter)
            if degenerate:
                degenerate_streak += 1
                if degenerate_streak >= exactlp._DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False

    def resolve_b(self, b, scale=None, start=None):
        # The dual simplex on lists from the last optimal basis, then the
        # inert rows, which it never repairs: a positive level there is
        # infeasible.
        if self._last is None:
            return self.solve(b, scale, start)
        self._load_b(b, scale)
        vx = self._last
        self._basis, self._d, self._pivots = list(vx.basis), vx.d, 0
        M = vx.M.tolist()
        xt = [_dot(enumerate(row), self._bt.tolist()) for row in M]
        bland = False
        stall = 0
        while True:
            row = -1
            worst = 0
            for i in range(self.m):
                if bland:
                    if xt[i] < 0 and (row < 0 or self._basis[i] < self._basis[row]):
                        row = i
                elif xt[i] < worst:
                    worst, row = xt[i], i
            if row < 0:
                break
            y = _pricing_vector(self._basis, M, self.costs, self.n)
            d = self._d
            Mr = M[row]
            enter = -1
            en = ea = 0
            for j, col in enumerate(self.columns):
                alpha = _dot(col, Mr)
                if alpha >= 0:
                    continue
                num = d * self.costs[j] - _dot(col, y)
                if enter < 0 or num * ea < en * (-alpha):
                    enter, en, ea = j, num, -alpha
            if enter < 0:
                pi = tuple(Fraction(-v, d) for v in Mr)
                raise Infeasible(pi, Fraction(-xt[row], d * self._N))
            degenerate = en == 0
            self._pivot_on(M, xt, row, enter)
            if degenerate:
                stall += 1
                if stall >= exactlp._DEGENERATE_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
        d = self._d
        for i, var in enumerate(vx.basis):
            if var >= self.n and xt[i] > 0:
                pi = tuple(Fraction(v, d) for v in M[i])
                raise Infeasible(pi, Fraction(xt[i], d * self._N))
        if self._pivots:
            self._last = exactlp._Vertex(tuple(self._basis), np.array(M, dtype=object), d)
        return self._outcome(self._last, xt, self._pivots, self._N)


def _trace(lp, rhs_sequence):
    """Per right-hand side: (basis, pivots, value), or the Farkas certificate.

    The first b is solved cold and every later one warm, as in bootstrap loops.
    """
    out = []
    for k, (b, scale) in enumerate(rhs_sequence):
        run = lp.resolve_b if k else lp.solve
        try:
            res = run(b, scale=scale)
        except Infeasible as exc:
            out.append(("infeasible", exc.farkas))
        except RuntimeError as exc:
            out.append(("error", str(exc)))
        else:
            out.append((res.basis, res.pivots, res.value))
    return out


def _random_rhs_sequence(draw):
    # b from the drawn feasible point, shifted by 1/3, then from the reversed
    # point and the two swapped rows: warm hits, dual pivots and infeasibility.
    _, _, b = _random_feasible_instance(draw)
    _, _, b_rev = _random_feasible_instance(dict(draw, x=draw["x"][::-1]))
    rhs = [b, [v + Fraction(1, 3) for v in b], b_rev, [b[1], b[0], b[2]], b]
    return [integer_rhs(v) for v in rhs]


@pytest.mark.parametrize("limit", [exactlp._DEGENERATE_LIMIT, 1])
@settings(max_examples=80, deadline=None)
@given(draw=_RANDOM_LP)
def test_dense_pricing_takes_the_column_loops_pivots(limit, draw):
    # limit 1 puts both loops into Bland's rule after any degenerate pivot.
    columns, costs, _ = _random_feasible_instance(draw)
    rhs = _random_rhs_sequence(draw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_DEGENERATE_LIMIT", limit)
        got = _trace(ExactSimplex(_dense(3, columns), costs), rhs)
        want = _trace(_ColumnLoopSimplex(3, columns, costs), rhs)
    assert got == want


@pytest.mark.parametrize("limit", [exactlp._DEGENERATE_LIMIT, 1])
@pytest.mark.parametrize("side", ["min", "max"])
def test_dense_pricing_takes_the_column_loops_pivots_on_homocysteine(
    monkeypatch, limit, side
):
    system, dist, columns, costs = _homocysteine_lp(side)
    rhs = _rhs_sequence(system, dist, seed=11, count=30)
    monkeypatch.setattr(exactlp, "_DEGENERATE_LIMIT", limit)
    got = _trace(ExactSimplex(_dense(system.n_rows, columns), costs), rhs)
    assert got == _trace(_ColumnLoopSimplex(system.n_rows, columns, costs), rhs)
    assert sum(isinstance(t[0], tuple) and t[1] > 0 for t in got[1:]) >= 5


def _scaled_trace(trace, factor):
    return [
        (t[0], t[1], t[2] * factor) if isinstance(t[0], tuple) else t for t in trace
    ]


@settings(max_examples=40, deadline=None)
@given(draw=_RANDOM_LP)
def test_huge_costs_price_exactly_through_python_ints(draw):
    columns, costs, _ = _random_feasible_instance(draw)
    rhs = _random_rhs_sequence(draw)
    big = ExactSimplex(_dense(3, columns), [c * 2**70 for c in costs])
    assert (big._dense.dtype == object) == any(costs)
    assert _trace(big, rhs) == _scaled_trace(_trace(ExactSimplex(_dense(3, columns), costs), rhs), 2**70)


def test_huge_costs_on_homocysteine_keep_bases_and_pivots():
    system, dist, columns, costs = _homocysteine_lp()
    rhs = _rhs_sequence(system, dist, seed=11, count=12)
    small = ExactSimplex(_dense(system.n_rows, columns), costs)
    big = ExactSimplex(_dense(system.n_rows, columns), [c * 2**70 for c in costs])
    assert small._dense.dtype == np.int64 and big._dense.dtype == object
    want = _scaled_trace(_trace(small, rhs), 2**70)
    assert _trace(big, rhs) == want
    assert any(isinstance(t[0], tuple) and t[1] > 0 for t in want[1:])


_WIDE = 2**40


def _widened(m, columns, costs):
    """The dense matrix of the columns and the costs, every entry times 2**40."""
    return _dense(m, columns) * _WIDE, [c * _WIDE for c in costs]


def _up_to_scale(trace):
    """The trace with each Farkas vector divided by its first nonzero |entry|.

    Widening the columns rescales the certificates by positive factors.
    """

    def ray(pi):
        first = next(abs(p) for p in pi if p)
        return tuple(p / first for p in pi)

    return [("infeasible", ray(t[1])) if t[0] == "infeasible" else t for t in trace]


@settings(max_examples=40, deadline=None)
@given(draw=_RANDOM_LP)
def test_widened_columns_pivot_through_python_ints(draw):
    # Scaling every column and cost by one factor scales every reduced cost
    # and every ratio alike, so the run takes the same pivots to the same
    # values.  With full row rank every artificial leaves after phase 1; a
    # basis of two or more structural columns has M entries of at least
    # 2**80 (2 x 2 minors of the widened columns), past the int64 pivot.
    columns, costs, _ = _random_feasible_instance(draw)
    kept, _, _ = independent_rows([[coefs[r] for coefs in draw["coefs"]] for r in range(3)])
    assume(len(kept) == 3)
    rhs = _random_rhs_sequence(draw)
    wide = ExactSimplex(*_widened(3, columns, costs))
    got = _trace(wide, rhs)
    assert _up_to_scale(got) == _up_to_scale(_trace(ExactSimplex(_dense(3, columns), costs), rhs))
    vx = wide._last
    if vx is not None and sum(var < wide.n for var in vx.basis) >= 2:
        assert vx.M.dtype == object and exactlp._bits(vx.M) > exactlp._INT64_BITS


def test_widened_columns_on_homocysteine_keep_bases_and_pivots():
    system, dist, columns, costs = _homocysteine_lp()
    rhs = _rhs_sequence(system, dist, seed=11, count=12)
    small = ExactSimplex(_dense(system.n_rows, columns), costs)
    wide = ExactSimplex(*_widened(system.n_rows, columns, costs))
    want = _trace(small, rhs)
    assert _up_to_scale(_trace(wide, rhs)) == _up_to_scale(want)
    assert any(isinstance(t[0], tuple) and t[1] > 0 for t in want[1:])
    assert wide._last.M.dtype == object
    assert small._last.M.dtype == np.int64


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("w_bits", [31, 32])
def test_pivot_leaves_int64_exactly_where_it_would_wrap(sign, w_bits):
    # T entries of 31 bits: with w of 31 bits the update wr T - w T_row stays
    # below 2**63 in int64; with 32 bits it reaches about 2**64, so it must
    # run in Python ints.  The result matches the list pivot either way.
    top, wr = 2**31 - 1, sign * (2**w_bits - 1)
    M, xt, w = [[top, top], [top, top]], [top, top], [wr, -wr]
    lp = ExactSimplex(np.eye(2, dtype=np.int64), [0, 0])
    lp._basis, lp._d = [2, 3], 1
    lp._load(np.array(M), np.array(xt))
    lp._pivot(0, 0, np.array(w))
    want_M, want_xt = [row[:] for row in M], xt[:]
    d = _pivot_lists(want_M, want_xt, 1, 0, w)
    assert lp._T.tolist() == [row + [x] for row, x in zip(want_M, want_xt)]
    assert (lp._d, lp._basis) == (d, [0, 3])
    wraps = w_bits == 32
    assert (lp._T.dtype == object) == wraps
    T = np.array([row + [x] for row, x in zip(M, xt)], dtype=np.int64)
    unguarded = (wr * T[1] + wr * T[0]).tolist()
    assert (unguarded != [wr * (a + b) for a, b in zip(T[1].tolist(), T[0].tolist())]) == wraps


def test_zero_column_lp():
    empty = np.zeros((2, 0), dtype=np.int64)
    lp = ExactSimplex(empty, [])
    assert lp.solve([0, 0], scale=1).value == 0
    assert lp.resolve_b([0, 0], scale=1).value == 0
    for b in ([1, 0], [0, 3]):
        with pytest.raises(Infeasible) as exc:
            ExactSimplex(empty, []).solve(b, scale=1)
        assert verify_farkas(empty, b, exc.value.farkas)


def test_no_rows_is_rejected():
    with pytest.raises(ValueError, match="row"):
        ExactSimplex(np.zeros((0, 0), dtype=np.int64), [])


@pytest.mark.parametrize("costs", [[1, 2], [1, 2, 0, 3]])
def test_one_cost_per_column_is_required(costs):
    with pytest.raises(ValueError, match="one cost per column"):
        ExactSimplex(_dense(2, _TRANSPORT_COLUMNS), costs)


# -- the lockstep dual simplex against the column loops' -----------------------------


# All z0 records sit at one cell and z1 puts half its mass on the opposite
# outcome of the same level: most resampled tables are infeasible.
_INCOMPATIBLE_RECORDS = [RawRecord("z0", "a", 0)] * 8 + [
    RawRecord("z1", "a", 1),
    RawRecord("z1", "a", 1),
    RawRecord("z1", "b", 0),
    RawRecord("z1", "b", 0),
]
_INCOMPATIBLE_SCENARIO = Scenario(
    instrument_levels=("z0", "z1"),
    levels=(ExposureLevel("a"), ExposureLevel("b")),
    estimand=Estimand("risk_difference", x="a", x_prime="b"),
)


@cache
def _bootstrap_engine(name):
    """The replicate-table drawer of a preset, or of the incompatible records."""
    if name == "incompatible":
        dist = tabulate(
            _INCOMPATIBLE_RECORDS,
            instrument_levels=("z0", "z1"),
            exposure_levels=("a", "b"),
        )
        return _Resampler(_INCOMPATIBLE_SCENARIO, dist)
    dist, scenario = scenario_preset(name)
    return _Resampler(scenario, dist)


def _side_lp(engine, side, widen=1):
    """A fresh solver for one side of the engine's LP, every entry times `widen`."""
    merged = merge_columns(engine.system)
    costs = merged.min_costs if side == "min" else [-c for c in merged.max_costs]
    return ExactSimplex(merged.columns.T * widen, [c * widen for c in costs])


def _replicate_tables(name, seed, count, six):
    """`count` bootstrap tables of `name`: at the data's stratum sizes, or 6 a stratum."""
    engine = _bootstrap_engine(name)
    n_per_z = dict(engine.dist.n_per_z)
    sizes = dict.fromkeys(n_per_z, 6) if six else n_per_z
    return engine.tables(spawn_states(seed, (), 0, count), sizes)


def _start_pool(lp, B, scale):
    """The last four distinct optimal bases of the feasible tables of B, last first."""
    pool = {}
    for row in B.tolist():
        try:
            vx = lp.resolve_b(row, scale).vertex
        except Infeasible:
            continue
        pool.pop(vx.basis, None)
        pool[vx.basis] = vx
    return list(pool.values())[:-5:-1]


def _check_lockstep(lp, starts, B, scale):
    """resolve_many against the column-loop dual simplex run from each table's start.

    Returns the outcomes, an `Infeasible` for each infeasible table.
    """
    got = lp.resolve_many(starts, B, scale)
    assert len(got) == len(B)
    columns = [tuple((r, v) for r, v in enumerate(col) if v) for col in lp.A.T.tolist()]
    ref = _ColumnLoopSimplex(lp.m, columns, lp.costs)
    for start, row, out in zip(starts, B.tolist(), got):
        ref._last = start
        try:
            want = ref.resolve_b(row, scale)
        except Infeasible as exc:
            assert isinstance(out, Infeasible)
            assert (out.farkas, out.violation) == (exc.farkas, exc.violation)
            continue
        assert not isinstance(out, Infeasible)
        assert (out.basis, out.vertex.d, out.levels, out.pivots, out.value) == (
            want.basis, want.vertex.d, want.levels, want.pivots, want.value
        )
        assert out.vertex.M.tolist() == want.vertex.M.tolist()
    return got


def _lockstep_run(name, side, seed, count, six, widen=1):
    """Starts from the pool in turn, so tables start from different bases."""
    lp = _side_lp(_bootstrap_engine(name), side, widen)
    B, scale = _replicate_tables(name, seed, count, six)
    pool = _start_pool(lp, B, scale)
    if not pool:  # no feasible table
        return lp, None
    starts = [pool[k % len(pool)] for k in range(len(B))]
    return lp, _check_lockstep(lp, starts, B, scale)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["peanut-ternary", "homocysteine-3", "incompatible"]),
    side=st.sampled_from(["min", "max"]),
    seed=st.integers(0, 2**32 - 1),
    six=st.booleans(),
)
def test_lockstep_takes_resolve_bs_pivots_on_drawn_tables(name, side, seed, six):
    # Six draws a stratum leave empty cells: degenerate and incompatible tables.
    assume(_lockstep_run(name, side, seed, 24, six)[1] is not None)


@pytest.mark.parametrize("side", ["min", "max"])
def test_lockstep_takes_resolve_bs_pivots_on_homocysteine_bootstrap_tables(side):
    _, got = _lockstep_run("homocysteine-3", side, 1, 64, six=False)
    assert max(out.pivots for out in got) >= 3


@pytest.mark.parametrize(
    "name, six", [("homocysteine-3", True), ("peanut-ternary", True), ("incompatible", False)]
)
def test_lockstep_gives_resolve_bs_infeasible_verdicts(name, six):
    _, got = _lockstep_run(name, "min", 1, 48, six)
    assert any(isinstance(out, Infeasible) for out in got)
    assert not all(isinstance(out, Infeasible) for out in got)


def test_lockstep_takes_blands_pivots_after_a_degenerate_run(monkeypatch):
    # At a limit of 1 every degenerate pivot switches both implementations to
    # Bland's leaving rule; some tables then take other pivots than at the
    # default limit, so the switch is exercised.
    default = _lockstep_run("homocysteine-3", "max", 2, 64, six=True)[1]
    monkeypatch.setattr(exactlp, "_DEGENERATE_LIMIT", 1)
    bland = _lockstep_run("homocysteine-3", "max", 2, 64, six=True)[1]
    infeasible = [isinstance(out, Infeasible) for out in default]
    assert infeasible == [isinstance(out, Infeasible) for out in bland]
    assert any(
        not isinstance(a, Infeasible) and (a.basis, a.pivots) != (b.basis, b.pivots)
        for a, b in zip(default, bland)
    )


def test_lockstep_falls_back_to_python_ints_when_widened():
    # Every entry and cost times 2**40: M's entries pass 2**62, so every
    # product and update runs in dtype=object, through the same pivots.
    lp, got = _lockstep_run("homocysteine-3", "min", 3, 32, six=False, widen=_WIDE)
    assert any(out.pivots for out in got)
    assert all(out.vertex.M.dtype == object for out in got)
    _, small = _lockstep_run("homocysteine-3", "min", 3, 32, six=False)
    assert [(a.basis, a.pivots, a.value) for a in got] == [
        (b.basis, b.pivots, b.value) for b in small
    ]


@pytest.mark.parametrize("block", [exactlp._SCREEN_ROWS, 7])
def test_screen_reports_each_tables_shortfall(monkeypatch, block):
    # The sum of the basis's negative levels over d, 0 where it fits, in one
    # product or in blocks of 7 tables.
    monkeypatch.setattr(exactlp, "_SCREEN_ROWS", block)
    lp = _side_lp(_bootstrap_engine("homocysteine-3"), "min")
    B, scale = _replicate_tables("homocysteine-3", 5, 30, six=True)
    vx = _start_pool(lp, B, scale)[0]
    b_bits = int(B.sum(axis=1).max()).bit_length()
    fits, nums, short = lp.screen(vx, B, b_bits)
    levels = [[_dot(enumerate(row), rhs) for row in vx.M.tolist()] for rhs in B.tolist()]
    want = [float(Fraction(-sum(min(x, 0) for x in lv), vx.d)) for lv in levels]
    assert short.tolist() == want
    assert 0 < fits.sum() < len(B) and len(nums) == fits.sum()
    assert all(s == 0 for s, ok in zip(want, fits) if ok)
    assert [len(a) for a in lp.screen(vx, B[:0], b_bits)] == [0, 0, 0]


class _AstypeSpy(np.ndarray):
    """An array that records the dtype of every `astype` call on it."""

    seen: list = []

    def astype(self, dtype, *args, **kwargs):
        _AstypeSpy.seen.append(np.dtype(dtype))
        return super().astype(dtype, *args, **kwargs)


@pytest.mark.parametrize("bits", [53, 54])
def test_float64_products_stop_at_53_bits(monkeypatch, bits):
    # Left entries of bits - 27 bits and right column L1 norms of 27 bits:
    # the product's one large entry is (2**(bits-27) - 1) * (2**27 - 2) + 1,
    # odd, so float64 holds it only below 2**53.
    big = 2 ** (bits - 27) - 1
    left = np.array([[big, 1], [1, 0]], dtype=np.int64).view(_AstypeSpy)
    right = np.array([[2**27 - 2, 0], [1, 1]], dtype=np.int64)
    monkeypatch.setattr(_AstypeSpy, "seen", [])
    got = _exact_product(left, right, exactlp._bits(left) + (2**27 - 1).bit_length())
    want = big * (2**27 - 2) + 1
    assert got.tolist() == [[want, 1], [2**27 - 2, 0]]
    assert got.dtype == np.int64
    # The float64 tier converts the left side in and the product back out.
    tiers = [np.float64, np.int64] if bits == 53 else [np.int64]
    assert _AstypeSpy.seen == [np.dtype(t) for t in tiers]
    assert (float(want) == want) == (bits == 53)


def test_vector_products_stay_in_integers(monkeypatch):
    left = np.array([3, 4], dtype=np.int64).view(_AstypeSpy)
    monkeypatch.setattr(_AstypeSpy, "seen", [])
    got = _exact_product(left, np.eye(2, dtype=np.int64), 4)
    assert got.tolist() == [3, 4] and _AstypeSpy.seen == [np.dtype(np.int64)]


# -- the vectorised ratio test against the exact loop --------------------------------


def _loop_ratio_test(candidates, alpha, rc):
    return [
        exactlp._min_ratio(np.flatnonzero(c), a, r) for c, a, r in zip(candidates, alpha, rc)
    ]


# Two ratios 1 + 1/(2**31 - 3) > 1 + 1/(2**31 - 2) a float64 division rounds
# to one value, within int64 products: (rc, alpha) pairs.
_NEAR_TIE = [(2**31 - 2, -(2**31 - 3)), (2**31 - 1, -(2**31 - 2))]

# Two equal ratios whose int64 / int64 float64 divisions put the second
# below the first, since float64 rounds each rc (of 57 and 59 bits) first.
_WIDE_TIE = [(135476853100772573, -1), (406430559302317719, -3)]

_entry = st.one_of(st.integers(-3, 3), st.integers(-(2**30), 2**30))
_cost = st.one_of(st.integers(0, 3), st.integers(0, 2**30))


@st.composite
def _ratio_rows(draw):
    """A stack of rows of (rc, alpha) pairs, each row with some alpha_j < 0."""
    n = draw(st.integers(1, 9))
    row = st.lists(st.tuples(_cost, _entry), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    if draw(st.booleans()):  # the near tie, in either order
        rows[0][:2] = draw(st.permutations(_NEAR_TIE))[: min(n, 2)]
    if draw(st.booleans()):  # the wide tie, with every |alpha| below 4
        rows = [[(r, max(-3, min(3, a))) for r, a in row] for row in rows]
        rows[0][-2:] = _WIDE_TIE[-min(n, 2) :]
    if draw(st.booleans()):  # a ratio just above 1 next to 1, beyond int64 products
        rows[-1][:2] = [(2**53 + 1, -(2**53)), (1, -1)][: min(n, 2)]
    rc = np.array([[r for r, _ in row] for row in rows], dtype=object)
    alpha = np.array([[a for _, a in row] for row in rows], dtype=object)
    alpha[:, -1] = np.where((alpha < 0).any(axis=1), alpha[:, -1], -1)
    return alpha, rc


@settings(max_examples=300, deadline=None)
@given(_ratio_rows())
def test_vectorised_ratio_test_matches_the_loop_row_by_row(rows):
    # Ties, rc = 0 and ratios float64 does not tell apart: the first column of
    # the least exact ratio, in int64 where the products fit, as the loop says.
    # Every stack runs vectorised, also the ones of one or two tables.
    alpha, rc = rows
    candidates = alpha < 0
    want = _loop_ratio_test(candidates, alpha, rc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactlp, "_RATIO_TABLES", 1)
        assert exactlp._ratio_test(candidates, alpha, rc).tolist() == want
        if exactlp._bits(alpha) + exactlp._bits(rc) <= exactlp._INT64_BITS:
            alpha, rc = alpha.astype(np.int64), rc.astype(np.int64)
            assert exactlp._ratio_test(candidates, alpha, rc).tolist() == want


def test_ratio_test_breaks_ties_to_the_first_column():
    (r0, a0), (r1, a1) = _WIDE_TIE
    alpha = np.array([[-1, -2, -3, 1], [-2, -1, -3, -4], [-5, -1, -7, -2], [a0, a1, -1, 0]])
    rc = np.array([[2, 4, 6, 0], [0, 0, 5, 0], [10, 3, 14, 4], [r0, r1, r1 + 1, 0]])
    floats = np.array([r0, r1]) / np.array([-a0, -a1])
    assert floats[0] > floats[1] and Fraction(r0, -a0) == Fraction(r1, -a1)
    assert exactlp._ratio_test(alpha < 0, alpha, rc).tolist() == [0, 0, 0, 0]


def _loop_calls(monkeypatch):
    calls = []
    loop = exactlp._min_ratio

    def spy(candidates, alpha, rc):
        calls.append(len(candidates))
        return loop(candidates, alpha, rc)

    monkeypatch.setattr(exactlp, "_min_ratio", spy)
    return calls


@pytest.mark.parametrize(
    "alpha, rc, dtype, loops",
    [
        # Three narrow int64 tables: one vectorised pass.
        ([[-1, -3, 2], [-2, -2, -1], [0, -1, -1]], [[1, 2, 0], [3, 1, 1], [5, 2, 2]], np.int64, 0),
        # Two narrow int64 tables, below _RATIO_TABLES: the loop, table by table.
        ([[-1, -3, 2], [-2, -2, -1]], [[1, 2, 0], [3, 1, 1]], np.int64, 2),
        # Three tables as Python ints: the loop.
        ([[-1, -3, 2], [-2, -2, -1], [0, -1, -1]], [[1, 2, 0], [3, 1, 1], [5, 2, 2]], object, 3),
        # int64, but 32 + 32 bits of cross-multiplied product: the loop.
        ([[-(2**31), -1], [-1, -2], [-1, -1]], [[2**31, 1], [1, 2], [1, 1]], np.int64, 3),
        # The near tie rounds to one float64, whose pick (column 0) is wrong:
        # that table only takes the loop.
        (
            [[a for _, a in _NEAR_TIE], [-1, -2], [-2, -1]],
            [[r for r, _ in _NEAR_TIE], [1, 1], [1, 1]],
            np.int64,
            1,
        ),
    ],
)
def test_ratio_test_takes_the_loop_for_wide_inputs_and_float_misorders(
    monkeypatch, alpha, rc, dtype, loops
):
    alpha, rc = np.array(alpha, dtype=dtype), np.array(rc, dtype=dtype)
    calls = _loop_calls(monkeypatch)
    got = exactlp._ratio_test(alpha < 0, alpha, rc)
    assert len(calls) == loops
    monkeypatch.undo()
    assert got.tolist() == _loop_ratio_test(alpha < 0, alpha, rc)


# -- the crash basis ---------------------------------------------------------------


def _crash_steps(lp, b, scale=None):
    """Run `_crash` from the all-artificial basis at b; what each step saw.

    Each step records the basis, levels and d before it, the entering column
    and leaving row, the direction the crash passed to the pivot, and the
    phase-1 reduced costs and the direction M.A_j priced at that state.
    """
    lp._load_b(b, scale)
    lp._basis, lp._d, lp._pivots = list(range(lp.n, lp.n + lp.m)), 1, 0
    lp._load(np.eye(lp.m, dtype=np.int64), lp._bt)
    steps = []
    pivot = lp._pivot

    def recording(row, j, w):
        steps.append(
            dict(
                basis=list(lp._basis),
                levels=lp._T[:, -1].tolist(),
                d=lp._d,
                row=row,
                j=j,
                w=w.tolist(),
                rc=lp._pricing(lp._c1, 0).tolist(),
                column=lp._column(j).tolist(),
            )
        )
        pivot(row, j, w)

    lp._pivot = recording
    lp._crash()
    del lp._pivot
    return steps


def _check_crash(lp, b, scale=None):
    """Check every crash step and the basis it ends at; returns the picks."""
    steps = _crash_steps(lp, b, scale)
    A = lp.A.tolist()
    columns = [tuple((r, entries[j]) for r, entries in enumerate(A) if entries[j]) for j in range(lp.n)]
    for s in steps:
        j, row, d = s["j"], s["row"], s["d"]
        # The direction is d.A_j, which is M.A_j at the crash's bases.
        assert s["w"] == [d * entries[j] for entries in A] == s["column"]
        # An improving phase-1 column ...
        assert s["rc"][j] < 0
        # ... leaving on a row of the exact min-ratio test, the smallest
        # basic id among ties, as the phase-1 loop would pick it.
        ratios = {i: Fraction(x, w) for i, (x, w) in enumerate(zip(s["levels"], s["w"])) if w > 0}
        least = min(ratios.values())
        assert ratios[row] == least
        assert s["basis"][row] == min(s["basis"][i] for i, t in ratios.items() if t == least)
        # The rule: the eligible column with the largest step, first on ties.
        eligible = _eligible_steps(columns, s["basis"], s["levels"], lp.n)
        top = max(eligible.values())
        assert j == min(k for k, t in eligible.items() if t == top)
    # It stops with no column eligible, at a primal feasible basis, and
    # counts each step as a pivot.
    assert not _eligible_steps(columns, lp._basis, lp._T[:, -1].tolist(), lp.n)
    assert (lp._T[:, -1] >= 0).all()
    assert lp._pivots == len(steps)
    return [(s["row"], s["j"]) for s in steps]


def _with_slacks(A):
    """A with a +e_r and a -e_r column for every row but the last, as the slack LP has."""
    units = np.eye(len(A), dtype=np.int64)[:, :-1]
    return np.hstack([A, np.kron(units, [1, -1])])


def _check_scaled_crash(A, b, scale=None):
    # Scaling every column by one factor scales every step alike: the same
    # picks, with the pivots in Python ints from two steps on (2**40 x 2**40
    # entries of w), and with A itself as Python ints at 2**70.
    picks = _check_crash(ExactSimplex(A, [0] * A.shape[1]), b, scale)
    for factor in (_WIDE, 2**70):
        wide = ExactSimplex(A.astype(object) * factor, [0] * A.shape[1])
        assert (wide.A.dtype == object) == (factor > _WIDE and A.any())
        assert _check_crash(wide, b, scale) == picks
        assert len(picks) < 2 or wide._T.dtype == object
    return picks


@settings(max_examples=60, deadline=None)
@given(draw=_RANDOM_LP, slacks=st.booleans())
def test_crash_steps_are_phase_1_pivots_on_random_lps(draw, slacks):
    columns, _, b = _random_feasible_instance(draw)
    A = _dense(3, columns)
    _check_scaled_crash(_with_slacks(A) if slacks else A, b)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["peanut-ternary", "homocysteine-3", "incompatible"]),
    seed=st.integers(0, 2**32 - 1),
    slacks=st.booleans(),
)
def test_crash_steps_are_phase_1_pivots_on_preset_tables(name, seed, slacks):
    # One bootstrap table at the data's stratum sizes.  An incompatible
    # one can leave no column eligible from the start.
    A = merge_columns(_bootstrap_engine(name).system).columns.T
    B, scale = _replicate_tables(name, seed, 1, six=False)
    picks = _check_scaled_crash(_with_slacks(A) if slacks else A, B[0].tolist(), scale)
    assert picks or name == "incompatible"


def test_crash_covers_rows_only_at_positive_levels():
    # x0 = e0 + e1 and x1 = e1 + e2 at b = (1, 2, 0): x1 touches row 2, whose
    # artificial is at level 0, so only x0 is eligible, with step 1; it
    # leaves row 0, the first of its rows at that step, and then x1 is
    # still blocked and x0 is basic: the crash stops after one step.
    lp = ExactSimplex(_dense(3, [((0, 1), (1, 1)), ((1, 1), (2, 1))]), [0, 0])
    assert _check_crash(lp, [1, 2, 0], 1) == [(0, 0)]
    assert lp._basis == [0, 3, 4] and lp._T[:, -1].tolist() == [1, 1, 0]


def test_a_start_with_basic_artificials_at_zero_is_evicted_before_phase_2(monkeypatch):
    # (x1, row 1's artificial) fits b = (3, 3) with the artificial at level
    # 0.  Row 1 is not redundant, so x0 (M_1 . A_0 = -1) replaces the
    # artificial before phase 2 starts, and that basis is `phase1`.
    start = exactlp._Vertex((1, 4), np.array([[1, 0], [-1, 1]]), 1)
    lp = _transport_lp()
    entered = []
    loop = lp._primal_loop

    def recording(phase1=False):
        entered.append((phase1, list(lp._basis)))
        loop(phase1)

    monkeypatch.setattr(lp, "_primal_loop", recording)
    out = lp.solve([3, 3], scale=1, start=start)
    assert entered == [(False, [1, 0])]
    assert lp.phase1.basis == (1, 0)
    again = _transport_lp().solve([3, 3], scale=1, start=lp.phase1)
    assert out.pivots == 1 + again.pivots
    assert out.value == again.value == _transport_lp().solve([3, 3], scale=1).value == 3

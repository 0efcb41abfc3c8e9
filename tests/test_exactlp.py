"""Exact rational simplex: known optima, certificates, warm restarts."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiv.exactlp import (
    ExactSimplex,
    Infeasible,
    independent_rows,
    integer_rhs,
    verify_farkas,
)


def _transport_lp():
    """min x0 + 2 x1 subject to x0 + x1 = b0, x1 + x2 = b1."""
    columns = [((0, 1),), ((0, 1), (1, 1)), ((1, 1),)]
    return ExactSimplex(2, columns, [1, 2, 0])


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
    for col, c in zip(lp.columns, lp.costs):
        assert c - sum(coef * y[r] for r, coef in col) >= 0


def test_exact_fractions_survive():
    lp = _transport_lp()
    out = lp.solve([Fraction(1, 3), Fraction(1, 7)])
    assert out.value == Fraction(1, 3)


def test_infeasible_raises_with_verified_farkas():
    # x0 = b0 and x0 = b1 with b0 != b1 is infeasible.
    columns = [((0, 1), (1, 1))]
    lp = ExactSimplex(2, columns, [0])
    b = [Fraction(1), Fraction(2)]
    with pytest.raises(Infeasible) as exc:
        lp.solve(b)
    assert verify_farkas(columns, b, exc.value.farkas)
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
    lp = ExactSimplex(2, columns, [0])
    lp.solve([Fraction(2), Fraction(2)])
    with pytest.raises(Infeasible) as exc:
        lp.resolve_b([Fraction(1), Fraction(2)])
    assert verify_farkas(columns, [Fraction(1), Fraction(2)], exc.value.farkas)


def test_resolve_costs_switches_objective():
    lp = _transport_lp()
    lp.solve([Fraction(3), Fraction(5)])
    out = lp.resolve_costs([5, 1, 4])
    # Now routing everything through x1 is cheapest: x1=3 forces x1+x2=5
    # -> x1=3, x2=2: value 3*1 + 2*4 = 11; or x1=5, x0=-2 impossible.
    cold = ExactSimplex(2, lp.columns, [5, 1, 4]).solve([Fraction(3), Fraction(5)])
    assert out.value == cold.value


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


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        dict,
        m=st.just(3),
        n=st.just(6),
        coefs=st.lists(
            st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=6, max_size=6
        ),
        costs=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
        x=st.lists(st.integers(0, 4), min_size=6, max_size=6),
    )
)
def test_random_lp_duality_and_warm_restart(draw):
    columns, costs, b = _random_feasible_instance(draw)
    lp = ExactSimplex(3, columns, costs)
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
        assert verify_farkas(columns, b2, exc.farkas)
        return
    cold = ExactSimplex(3, columns, costs).solve(b2)
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


# -- certified basis cache and integer right-hand sides ------------------------------


def _homocysteine_lp(costs="min"):
    from coarseiv.bounds import merge_columns
    from coarseiv.datasets import scenario_preset
    from coarseiv.response import build_constraint_system

    dist, scenario = scenario_preset("homocysteine-3")
    system = build_constraint_system(scenario)
    merged = merge_columns(system)
    c = merged.min_costs if costs == "min" else [-v for v in merged.max_costs]
    return system, dist, merged.columns, list(c)


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
def test_cached_warm_resolves_match_cold_solves(side):
    system, dist, columns, costs = _homocysteine_lp(side)
    lp = ExactSimplex(system.n_rows, columns, costs)
    n_feasible = n_infeasible = 0
    for b, scale in _rhs_sequence(system, dist, seed=5):
        cold_lp = ExactSimplex(system.n_rows, columns, costs)
        try:
            cold = cold_lp.solve([Fraction(v, scale) for v in b])
        except Infeasible:
            with pytest.raises(Infeasible) as exc:
                lp.resolve_b(b, scale=scale)
            assert verify_farkas(columns, b, exc.value.farkas)
            n_infeasible += 1
            continue
        warm = lp.resolve_b(b, scale=scale)
        assert warm.value == cold.value
        _check_certificates(columns, costs, b, scale, warm)
        n_feasible += 1
    assert n_feasible >= 30 and n_infeasible >= 10


def test_integer_and_rational_rhs_agree():
    system, dist, columns, costs = _homocysteine_lp()
    lp = ExactSimplex(system.n_rows, columns, costs)
    b = system.rhs(dist)
    b_int, scale = integer_rhs(b)
    assert [Fraction(v, scale) for v in b_int] == b
    assert lp.solve(b_int, scale=scale).value == ExactSimplex(
        system.n_rows, columns, costs
    ).solve(b).value


def test_previously_seen_rhs_is_answered_without_pivots():
    system, dist, columns, costs = _homocysteine_lp()
    lp = ExactSimplex(system.n_rows, columns, costs)
    (b0, n0), (b1, n1) = _rhs_sequence(system, dist, seed=3, count=2)
    first = lp.solve(b0, scale=n0)
    lp.resolve_b(b1, scale=n1)
    again = lp.resolve_b(b0, scale=n0)
    assert again.pivots == 0 and again.value == first.value


@pytest.mark.parametrize("b2", [3, 1])
def test_redundant_row_inconsistency_raises_with_cached_bases(b2):
    # Row 2 is the sum of rows 0 and 1, so its artificial stays basic (inert)
    # and b is feasible only if b2 == b0 + b1.
    columns = [((0, 1), (2, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1)), ((1, 1), (2, 1))]
    lp = ExactSimplex(3, columns, [1, 2, 3, 1])
    for b in ([1, 1, 2], [0, 2, 2], [2, 0, 2], [1, 1, 2]):
        assert lp.resolve_b(b, scale=1).value == b[0] + b[1]
    b = [Fraction(1), Fraction(1), Fraction(b2)]
    with pytest.raises(Infeasible) as exc:
        lp.resolve_b(b)
    assert verify_farkas(columns, b, exc.value.farkas)
    # The solver still answers feasible right-hand sides afterwards.
    assert lp.resolve_b([3, 1, 4], scale=2).value == Fraction(3 + 1, 2)


def test_resolve_costs_after_cached_resolves():
    system, dist, columns, costs = _homocysteine_lp()
    _, _, _, upper_costs = _homocysteine_lp("max")
    lp = ExactSimplex(system.n_rows, columns, costs)
    seq = _rhs_sequence(system, dist, seed=11, count=12)[::3]
    for b, scale in seq:
        lp.resolve_b(b, scale=scale)
    b, scale = seq[-1]
    out = lp.resolve_costs(upper_costs)
    cold = ExactSimplex(system.n_rows, columns, upper_costs).solve(b, scale=scale)
    assert out.value == cold.value
    _check_certificates(columns, upper_costs, b, scale, out)
    # The cache now serves the new objective: warm resolves still match.
    for b, scale in seq:
        warm = lp.resolve_b(b, scale=scale)
        assert warm.value == ExactSimplex(
            system.n_rows, columns, upper_costs
        ).solve(b, scale=scale).value


def test_resolve_costs_after_infeasible_resolve_b_raises():
    lp = ExactSimplex(2, [((0, 1), (1, 1))], [0])
    lp.solve([2, 2], scale=1)
    with pytest.raises(Infeasible):
        lp.resolve_b([1, 2], scale=1)
    with pytest.raises(Infeasible):
        lp.resolve_costs([0])
    # A feasible b clears the state; the cached basis answers it unpivoted.
    again = lp.resolve_b([3, 3], scale=1)
    assert again.pivots == 0
    assert lp.resolve_costs([1]).value == 3


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


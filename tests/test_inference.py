"""Bootstrap confidence intervals: configuration validation, determinism, m rules, tails."""

import dataclasses
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiv.data import (
    Estimand,
    ExposureLevel,
    InputError,
    ObservedDistribution,
    RawRecord,
    Scenario,
    expand_records,
)
from coarseiv.datasets import (
    PRESET_NAMES,
    peanut_distribution,
    peanut_records,
    peanut_risk_records,
    peanut_risk_scenario,
    peanut_scenario,
    scenario_preset,
)
from coarseiv import bounds, exactlp
from coarseiv.bounds import BoundsSolver
from coarseiv.exactlp import ExactSimplex, Infeasible, integer_rhs
from coarseiv.oracle import check_validity
from coarseiv.inference import (
    BootstrapSpec,
    ExcessiveInfeasibility,
    IntervalResult,
    _exact_quantile,
    _proportional_allocation,
    _records_distribution,
    _Resampler,
    m_out_of_n_ci,
    parametric_multinomial_ci,
    pcg64_generator,
    percentile_ci,
    spawn_states,
)

SMALL = dict(replicates=60, seed=11)


def _spec(**kw):
    return BootstrapSpec(**{**SMALL, **kw})


# -- configuration validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"replicates": 0},
        {"level": 0.0},
        {"level": 1.0},
        {"level": float("nan")},
        {"level": float("inf")},
        {"seed": None},
        {"seed": -1},
        {"rho": 1.0},
        {"grid": 1},
        {"m_rule": "cube-root"},
        {"power": 0.0},
        {"power": 1.5},
        {"tail_mode": "upper-only"},
        {"max_infeasible_fraction": 1.5},
    ],
)
def test_bootstrap_spec_rejects_bad_configuration(kw):
    with pytest.raises(InputError):
        _spec(**kw)


def test_bootstrap_spec_seed_is_mandatory():
    with pytest.raises(InputError, match="seed"):
        BootstrapSpec()


# -- quantiles and allocation ---------------------------------------------------------


def test_exact_quantile_interpolates_rationally():
    vals = [Fraction(0), Fraction(1)]
    assert _exact_quantile(vals, Fraction(1, 4)) == Fraction(1, 4)
    assert _exact_quantile(vals, Fraction(0)) == 0
    assert _exact_quantile(vals, Fraction(1)) == 1
    assert _exact_quantile([Fraction(5)], Fraction(1, 2)) == 5
    vals = [Fraction(1), Fraction(2), Fraction(4)]
    assert _exact_quantile(vals, Fraction(1, 2)) == 2
    assert _exact_quantile(vals, Fraction(3, 4)) == 3


@given(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=12),
    st.fractions(min_value=0, max_value=1),
)
def test_exact_quantile_is_monotone_and_bracketed(vals, q):
    out = _exact_quantile(vals, q)
    assert min(vals) <= out <= max(vals)
    assert _exact_quantile(vals, Fraction(0)) == min(vals)
    assert _exact_quantile(vals, Fraction(1)) == max(vals)


def test_exact_quantile_orders_values_closer_than_float_precision():
    # The pairs differ below float resolution, so a float key alone ties
    # them and keeps their input order.
    eps = Fraction(1, 10**20)
    vals = [1 + eps, Fraction(1), 2 + 3 * eps, 2 + eps, Fraction(2), 1 + 2 * eps]
    assert float(1 + eps) == 1.0
    exact = sorted(vals)
    for q in (Fraction(k, 10) for k in range(11)):
        h = q * (len(exact) - 1)
        lo = int(h)
        want = exact[lo] if h == lo else exact[lo] + (h - lo) * (exact[lo + 1] - exact[lo])
        assert _exact_quantile(vals, q) == want
    assert _exact_quantile(vals, Fraction(1, 5)) == 1 + eps


def _sorted_quantile(values, q):
    """The quantile rule on the fully sorted list."""
    v = sorted(values)
    h = q * (len(v) - 1)
    lo = int(h)
    return v[lo] if h == lo else v[lo] + (h - lo) * (v[lo + 1] - v[lo])


# Values a hair apart: each rounds to the float of its base.
_near = st.builds(
    lambda base, k: base + Fraction(k, 10**30),
    st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(1, 7), Fraction(2, 3)]),
    st.integers(-3, 3),
)


@settings(max_examples=300)
@given(
    st.lists(st.one_of(_near, st.fractions(min_value=-1, max_value=1)), min_size=1, max_size=40),
    st.fractions(min_value=0, max_value=1),
)
def test_exact_quantile_equals_the_sorted_rule(vals, q):
    assert _exact_quantile(vals, q) == _sorted_quantile(vals, q)


def test_proportional_allocation_matches_stratum_shares():
    alloc = _proportional_allocation({"avoid": 319, "consume": 321}, 128)
    assert alloc == {"avoid": 64, "consume": 64}
    assert sum(alloc.values()) == 128


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.integers(1, 500),
        min_size=1,
        max_size=3,
    ),
    st.integers(3, 200),
)
def test_proportional_allocation_sums_and_floors(n_per_z, m):
    alloc = _proportional_allocation(n_per_z, m)
    assert set(alloc) == set(n_per_z)
    assert all(v >= 1 for v in alloc.values())
    assert sum(alloc.values()) >= min(m, len(n_per_z))
    n = sum(n_per_z.values())
    if all(Fraction(m * nz, n) >= 1 for nz in n_per_z.values()):
        assert sum(alloc.values()) == m


def test_proportional_allocation_may_overshoot_for_tiny_strata():
    # Strata too small for a proportional share still get one draw each,
    # which can push the total past m; the engine tolerates this.
    alloc = _proportional_allocation({"a": 1, "b": 1, "c": 500}, 3)
    assert all(v >= 1 for v in alloc.values())
    assert sum(alloc.values()) >= 3


# -- method gating --------------------------------------------------------------------


def test_percentile_rejects_single_risk_estimands():
    with pytest.raises(InputError):
        percentile_ci(peanut_risk_records(), peanut_risk_scenario(), _spec())


def test_m_out_of_n_rejects_contrasts_unless_forced():
    spec = _spec(replicates=20)
    with pytest.raises(InputError):
        m_out_of_n_ci(peanut_records(), peanut_scenario("clean"), spec)
    res = m_out_of_n_ci(
        peanut_records(), peanut_scenario("clean"), spec, force=True
    )
    assert res.method == "m-out-of-n"


def test_parametric_needs_counts():
    dist = ObservedDistribution.from_probs(
        ("z0", "z1"),
        ("a", "b"),
        {
            ("z0", "a", 1): Fraction(1, 2),
            ("z0", "b", 0): Fraction(1, 2),
            ("z1", "a", 1): Fraction(1, 2),
            ("z1", "b", 0): Fraction(1, 2),
        },
    )
    scn = Scenario(
        instrument_levels=("z0", "z1"),
        levels=(ExposureLevel("a"), ExposureLevel("b")),
        estimand=Estimand("risk_difference", x="a", x_prime="b"),
    )
    with pytest.raises(InputError):
        parametric_multinomial_ci(dist, scn, _spec())


# -- determinism and point bounds -----------------------------------------------------


def test_percentile_is_seed_deterministic_and_anchored():
    scn = peanut_scenario("clean")
    a = percentile_ci(peanut_records(), scn, _spec())
    b = percentile_ci(peanut_records(), scn, _spec())
    assert (a.ci_lower, a.ci_upper) == (b.ci_lower, b.ci_upper)
    assert (a.point_lower, a.point_upper) == (
        Fraction(-5073, 31720),
        Fraction(10, 61),
    )
    c = percentile_ci(peanut_records(), scn, _spec(seed=12))
    assert (a.ci_lower, a.ci_upper) != (c.ci_lower, c.ci_upper)
    assert a.replicates == 60 and a.level == Fraction(95, 100)


def test_parametric_matches_counts_input():
    scn = peanut_scenario("clean")
    res = parametric_multinomial_ci(peanut_distribution(), scn, _spec())
    assert res.method == "parametric-multinomial"
    assert res.point_lower == Fraction(-5073, 31720)
    assert res.ci_lower <= res.point_lower <= res.point_upper <= res.ci_upper


def test_percentile_and_multinomial_are_one_procedure():
    # Records resampled within strata are per-stratum multinomials at the
    # observed p, so one seed draws the same tables for both methods.
    dist, scn = peanut_distribution(), peanut_scenario("clean")
    pct = percentile_ci(expand_records(dist), scn, _spec())
    mult = parametric_multinomial_ci(dist, scn, _spec())
    assert (pct.method, mult.method) == ("percentile", "parametric-multinomial")
    assert dataclasses.replace(pct, method=mult.method) == mult


# -- m-out-of-n rules -----------------------------------------------------------------


def test_power_rule_resample_size():
    spec = _spec(replicates=40)
    res = m_out_of_n_ci(peanut_risk_records(), peanut_risk_scenario(), spec)
    assert res.m == 128  # ceil(640 ** 0.75)
    assert res.m_per_stratum == {"avoid": 64, "consume": 64}
    assert res.grid_intervals is None
    assert res.diagnostics["m_rule"] == "power"


def test_grid_rule_reports_the_interval_path():
    spec = _spec(replicates=25, m_rule="grid", rho=0.6, grid=4)
    res = m_out_of_n_ci(peanut_risk_records(), peanut_risk_scenario(), spec)
    assert res.grid_intervals is not None
    ms = [m for m, _, _ in res.grid_intervals]
    assert ms == [640, 384, 231, 139]
    assert res.m in ms
    assert all(lo <= hi for _, lo, hi in res.grid_intervals)


def test_power_rule_fallback_when_n_too_small():
    records = [
        RawRecord("z0", "x", 1),
        RawRecord("z0", "x", 1),
        RawRecord("z1", "x", 1),
    ]
    scn = Scenario(
        instrument_levels=("z0", "z1"),
        levels=(
            ExposureLevel("x"),
            ExposureLevel("m", well_defining=False, z_dependent=True),
        ),
        estimand=Estimand("counterfactual_risk", x="x"),
    )
    spec = _spec(replicates=10)
    res = m_out_of_n_ci(records, scn, spec)
    assert res.m == 3
    assert any("falling back" in w for w in res.warnings)
    assert (res.ci_lower, res.ci_upper) == (Fraction(1), Fraction(1))


def test_grid_rule_fallback_when_n_too_small():
    # With n = 3 and rho = 0.9 both grid sizes are ceil(3) = ceil(2.7) = 3.
    records = [
        RawRecord("z0", "a", 1),
        RawRecord("z0", "b", 0),
        RawRecord("z1", "a", 1),
    ]
    scn = Scenario(
        instrument_levels=("z0", "z1"),
        levels=(ExposureLevel("a"), ExposureLevel("b")),
        estimand=Estimand("risk_difference", x="a", x_prime="b"),
    )
    spec = _spec(replicates=40, seed=3, m_rule="grid", rho=0.9, grid=2)
    res = m_out_of_n_ci(records, scn, spec, force=True)
    assert [w for w in res.warnings if "falling back" in w] == [
        "sample size 3 too small for the m grid (all sizes equal 3); "
        "falling back to the percentile bootstrap"
    ]
    assert res.m == 3
    assert res.m_per_stratum == {"z0": 2, "z1": 1}
    assert res.grid_intervals == ((3, Fraction(-1), Fraction(0)),)
    pct = percentile_ci(records, scn, spec)
    assert (res.ci_lower, res.ci_upper) == (pct.ci_lower, pct.ci_upper) == (-1, 0)


# -- tail modes -----------------------------------------------------------------------


def test_symmetric_tails_contain_pointwise_tails():
    scn = peanut_scenario("clean")
    pw = percentile_ci(peanut_records(), scn, _spec())
    sym = percentile_ci(peanut_records(), scn, _spec(tail_mode="symmetric"))
    assert sym.ci_lower <= pw.ci_lower
    assert sym.ci_upper >= pw.ci_upper
    assert (sym.ci_lower, sym.ci_upper) != (pw.ci_lower, pw.ci_upper)


# -- infeasibility handling -----------------------------------------------------------


# All z0 records sit at one cell and z1 places half its mass on the opposite
# outcome of the same level, violating the instrument inequalities; nearly
# every resample needs the slack rescue.
INCOMPATIBLE_RECORDS = [RawRecord("z0", "a", 0)] * 8 + [
    RawRecord("z1", "a", 1),
    RawRecord("z1", "a", 1),
    RawRecord("z1", "b", 0),
    RawRecord("z1", "b", 0),
]
INCOMPATIBLE_SCENARIO = Scenario(
    instrument_levels=("z0", "z1"),
    levels=(ExposureLevel("a"), ExposureLevel("b")),
    estimand=Estimand("risk_difference", x="a", x_prime="b"),
)


def test_excessive_infeasibility_aborts():
    with pytest.raises(ExcessiveInfeasibility):
        percentile_ci(INCOMPATIBLE_RECORDS, INCOMPATIBLE_SCENARIO, _spec(replicates=30))


def test_each_incompatible_table_is_solved_once_under_slack(monkeypatch):
    # Verdicts are counted per table: each `resolve_b` call, and each table
    # of a `resolve_many` call made outside `resolve_b`.
    solvers, calls, inside = [], [], []
    init = BoundsSolver.__init__
    resolve_b, resolve_many = ExactSimplex.resolve_b, ExactSimplex.resolve_many

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    def counting(self, *args, **kwargs):
        inside.append(self)
        try:
            out = resolve_b(self, *args, **kwargs)
        except Infeasible:
            calls.append((self, "infeasible"))
            raise
        finally:
            inside.pop()
        calls.append((self, "solved"))
        return out

    def counting_tables(self, *args, **kwargs):
        outs = resolve_many(self, *args, **kwargs)
        if not inside:
            calls.extend(
                (self, "infeasible" if isinstance(out, Infeasible) else "solved") for out in outs
            )
        return outs

    monkeypatch.setattr(BoundsSolver, "__init__", recording)
    monkeypatch.setattr(ExactSimplex, "resolve_b", counting)
    monkeypatch.setattr(ExactSimplex, "resolve_many", counting_tables)
    spec = _spec(replicates=30, seed=7, max_infeasible_fraction=1.0)
    res = percentile_ci(INCOMPATIBLE_RECORDS, INCOMPATIBLE_SCENARIO, spec)
    assert res.n_infeasible == 25
    assert (res.ci_lower, res.ci_upper) == (Fraction(-3, 4), 0)
    assert any("SLACK PROJECTION APPLIED" in w for w in res.warnings)
    # The point table and the 25 incompatible replicates each fail the raw
    # lower LP once and solve the slack LP once; no table fails twice.  The
    # batch screen answers most feasible tables without a resolve, so at
    # most the per-table total 2 * 31 + 2 * 26 remains.
    (solver,) = solvers
    assert calls.count((solver._lo, "infeasible")) == 26
    assert [lp for lp, _ in calls].count(solver._slack_lp) == 26
    assert len(calls) <= 114


# -- batched right-hand sides --------------------------------------------------------


def _engine(name):
    if name == "incompatible":
        dist = _records_distribution(INCOMPATIBLE_RECORDS, INCOMPATIBLE_SCENARIO)
        return _Resampler(INCOMPATIBLE_SCENARIO, dist)
    dist, scenario = scenario_preset(name)
    return _Resampler(scenario, dist)


def _per_table(system, B, scale):
    solver = BoundsSolver(system)
    out = []
    for row in B.tolist():
        res = solver.solve_b(row, slack=True, scale=scale)
        out.append((res.lower, res.upper, "slack_total" in res.diagnostics))
    return out


def _batched(system, B, scale):
    return list(zip(*BoundsSolver(system).solve_batch(B, scale)))


@pytest.mark.parametrize("name", [*PRESET_NAMES, "incompatible"])
def test_batch_equals_per_table_solves(name):
    # At the data's own stratum sizes, and at six draws a stratum, where
    # empty cells make degenerate and incompatible tables common.
    engine = _engine(name)
    n_per_z = dict(engine.dist.n_per_z)
    rescued = 0
    for sizes in (n_per_z, dict.fromkeys(n_per_z, 6)):
        B, scale = engine.tables(spawn_states(3, (), 0, 40), sizes)
        expected = _per_table(engine.system, B, scale)
        assert _batched(engine.system, B, scale) == expected
        rescued += sum(r for _, _, r in expected)
    assert rescued


@pytest.mark.parametrize(
    "screen_rows, round_cap", [(7, bounds._ROUND_CAP), (exactlp._SCREEN_ROWS, 2)]
)
@pytest.mark.parametrize("name", ["homocysteine-3", "incompatible"])
def test_batch_in_small_blocks_and_rounds_gives_the_same_values(
    monkeypatch, name, screen_rows, round_cap
):
    # Screen products over blocks of 7 pending tables, or lockstep rounds
    # capped at 2 tables, give every table the bounds of a solve of its own.
    monkeypatch.setattr(exactlp, "_SCREEN_ROWS", screen_rows)
    monkeypatch.setattr(bounds, "_ROUND_CAP", round_cap)
    engine = _engine(name)
    sizes = dict.fromkeys(engine.dist.n_per_z, 6)
    B, scale = engine.tables(spawn_states(8, (), 0, 40), sizes)
    assert _batched(engine.system, B, scale) == _per_table(engine.system, B, scale)


@pytest.mark.parametrize("name", ["peanut-ternary", "homocysteine-3", "incompatible"])
def test_batch_fallback_to_python_ints_gives_the_same_values(name):
    # Scaled by 2**40 the screen's int64 product would overflow: row L1
    # norms reach 2**59 on peanut, and the homocysteine tables no longer
    # fit int64 at all.
    engine = _engine(name)
    B, scale = engine.tables(spawn_states(5, (), 0, 40), dict(engine.dist.n_per_z))
    wide, wide_scale = B.astype(object) * 2**40, scale * 2**40
    if wide_scale < 2**63:
        wide = wide.astype(np.int64)
    expected = _per_table(engine.system, B, scale)
    assert _batched(engine.system, wide, wide_scale) == expected


def test_the_screen_never_answers_a_table_with_a_nonzero_inert_row():
    engine = _engine("homocysteine-3")
    B, scale = engine.tables(spawn_states(9, (), 0, 1), dict(engine.dist.n_per_z))
    probe = BoundsSolver(engine.system)
    vx = probe.solve_b(B[0].tolist(), slack=True, scale=scale).lp_optima[0][0].vertex
    columns = probe.merged.columns
    n = len(columns)
    units = np.eye(engine.system.n_rows, dtype=np.int64)
    # The sum of the basic columns, artificial ones (unit vectors) included:
    # every level is d, so the basis is primal feasible but for its inert
    # rows, which a consistent b would hold at zero.
    crafted = sum(columns[var] if var < n else units[var - n] for var in vx.basis).tolist()
    assert [sum(map(mul, row, crafted)) for row in vx.M] == [vx.d] * len(vx.M)
    assert any(var >= n for var in vx.basis)
    fits, _, _ = probe._lo.screen(vx, np.array([crafted]), sum(crafted).bit_length())
    assert not fits.any()
    tables = np.array([B[0].tolist(), crafted], dtype=np.int64)
    batched = _batched(engine.system, tables, scale)
    assert batched == _per_table(engine.system, tables, scale)
    assert batched[1][2] is True


def test_an_empty_batch_has_no_bounds():
    engine = _engine("peanut-ternary")
    B = np.zeros((0, engine.system.n_rows), dtype=np.int64)
    assert BoundsSolver(engine.system).solve_batch(B, 1) == ([], [], [])


def _record_rounds(monkeypatch):
    """Per solver, each lockstep round of `solve_batch`: [tables, rows its screens answered].

    A round is a `resolve_many` call made outside `resolve_b`; the screens
    after it, up to the next round, are its own.
    """
    rounds, inside = {}, []
    resolve_b, resolve_many, screen = (
        ExactSimplex.resolve_b, ExactSimplex.resolve_many, ExactSimplex.screen
    )

    def marking(self, *args, **kwargs):
        inside.append(self)
        try:
            return resolve_b(self, *args, **kwargs)
        finally:
            inside.pop()

    def sizing(self, starts, B, scale):
        if not inside:
            rounds.setdefault(self, []).append([len(B), 0])
        return resolve_many(self, starts, B, scale)

    def answering(self, vx, B, b_bits):
        out = screen(self, vx, B, b_bits)
        if self in rounds:
            rounds[self][-1][1] += int(out[0].sum())
        return out

    monkeypatch.setattr(ExactSimplex, "resolve_b", marking)
    monkeypatch.setattr(ExactSimplex, "resolve_many", sizing)
    monkeypatch.setattr(ExactSimplex, "screen", answering)
    return rounds


def _check_round_rule(rounds):
    # The first round is one table; a round doubles the last while the
    # last round's screens answered a row, else it is the cap.  Only a
    # side's final round, which takes every row left, may be smaller.
    cap = bounds._ROUND_CAP
    for side in rounds.values():
        assert side[0][0] == 1
        rule = [min(2 * size, cap) if answered else cap for size, answered in side[:-1]]
        assert [size for size, _ in side[1:-1]] == rule[:-1]
        assert len(side) == 1 or side[-1][0] <= rule[-1]


def test_bootstrap_rounds_double_while_their_screens_answer_rows(monkeypatch):
    # Six draws a stratum: at the data's sizes one round finishes each side.
    rounds = _record_rounds(monkeypatch)
    engine = _engine("peanut-ternary")
    sizes = dict.fromkeys(engine.dist.n_per_z, 6)
    engine.solver.solve_batch(*engine.tables(spawn_states(2, (), 0, 2000), sizes))
    assert len(rounds) == 2
    for side in rounds.values():
        assert [size for size, _ in side[:-1]] == [
            min(2**i, bounds._ROUND_CAP) for i in range(len(side) - 1)
        ]
    assert max(len(side) for side in rounds.values()) >= 7
    _check_round_rule(rounds)


def test_validity_rounds_jump_to_the_cap_after_a_round_that_answered_nothing(monkeypatch):
    rounds = _record_rounds(monkeypatch)
    check_validity(scenario_preset("homocysteine-3")[1], 200, 1)
    _check_round_rule(rounds)
    # Whether a small round of that draw answers nothing depends on the
    # optimal bases its cold solves reach, so the jump is forced here: a
    # screen answers only rows its basis is primal feasible for, and no
    # basis is feasible for an incompatible table.  After a compatible first
    # row, every pending row is the incompatible data table, so the first
    # round, of one row, answers nothing and the next one is the cap.
    rounds.clear()
    cap = bounds._ROUND_CAP
    engine = _engine("incompatible")
    uniform = ObservedDistribution.from_probs(
        ("z0", "z1"),
        ("a", "b"),
        {(z, x, y): Fraction(1, 4) for z in ("z0", "z1") for x in ("a", "b") for y in (0, 1)},
    )
    (good, n_good), (bad, n_bad) = (
        integer_rhs(engine.system.rhs(dist)) for dist in (uniform, engine.dist)
    )
    scale = n_good * n_bad
    B = np.array([[v * n_bad for v in good]] + [[v * n_good for v in bad]] * (cap + 8))
    _, _, rescued = BoundsSolver(engine.system).solve_batch(B, scale)
    assert rescued == [False] + [True] * (cap + 8)
    _check_round_rule(rounds)
    assert list(rounds.values()) == [[[1, 0], [cap, 0], [7, 0]]]


def test_crossed_interval_result_is_rejected():
    with pytest.raises(AssertionError):
        IntervalResult(
            method="percentile",
            point_lower=Fraction(0),
            point_upper=Fraction(1),
            ci_lower=Fraction(1),
            ci_upper=Fraction(0),
            level=Fraction(95, 100),
            replicates=10,
            seed=1,
            tail_mode="pointwise",
        )


# -- seeding ----------------------------------------------------------------------------


def _numpy_state(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


SEEDS = [0, 1, 41, 97, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 1, 2**200 + 7]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", [(), (3,), (2**33, 5)])
def test_spawn_states_equal_numpys_seed_sequence(seed, prefix):
    got = spawn_states(seed, prefix, 0, 50)
    assert got.shape == (50, 4) and got.dtype == np.uint64
    assert np.array_equal(got, [_numpy_state(seed, prefix + (k,)) for k in range(50)])
    # The key range crosses 2**32, where a key becomes two words.
    start = 2**32 - 7
    got = spawn_states(seed, prefix, start, 20)
    assert np.array_equal(got, [_numpy_state(seed, prefix + (start + i,)) for i in range(20)])
    # With no last key the key is the prefix itself, empty included.
    assert np.array_equal(spawn_states(seed, prefix), [_numpy_state(seed, prefix)])


@pytest.mark.parametrize("seed", [0, 1, 97])
def test_spawn_states_are_the_spawned_children(seed):
    children = np.random.SeedSequence(seed).spawn(30)
    got = spawn_states(seed, (), 10, 20)
    assert np.array_equal(got, [c.generate_state(4, np.uint64) for c in children[10:]])
    for words, child in zip(got, children[10:]):
        ours, theirs = pcg64_generator(words), np.random.Generator(np.random.PCG64(child))
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(0, 2**63, 8).tolist() == theirs.integers(0, 2**63, 8).tolist()


def test_spawn_states_refuse_keys_of_three_words():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        spawn_states(1, (), 2**64 - 1, 2)


@pytest.mark.parametrize("name", ["peanut-ternary", "homocysteine-3"])
def test_tables_draw_what_each_spawned_childs_generator_draws(name):
    dist, scenario = scenario_preset(name)
    engine = _Resampler(scenario, dist)
    sizes = dict(engine.dist.n_per_z)
    B, scale = engine.tables(spawn_states(7, (), 0, 25), sizes)
    # The per-child path the tables were first drawn with.
    normalization = engine.system.row_keys.index("normalization")
    for row, child in zip(B.tolist(), np.random.SeedSequence(7).spawn(25)):
        rng = np.random.Generator(np.random.PCG64(child))
        want = [0] * engine.system.n_rows
        want[normalization] = scale
        for z in scenario.instrument_levels:
            counts = rng.multinomial(sizes[z], engine.pvals[z]).tolist()
            for r, c in zip(engine.cell_rows[z], counts):
                want[r] = c * (scale // sizes[z])
        assert row == want

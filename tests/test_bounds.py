"""Exact bounds: frozen values, closed-form agreement, certificates, slack."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarseiv.bounds import (
    BoundsSolver,
    CapExceeded,
    InfeasibleDistribution,
    closed_form_classic,
    closed_form_for,
    closed_form_single_level,
    closed_form_ternary_contrast,
    merge_columns,
    numeric_bounds,
)
from coarseiv.data import Estimand, ExposureLevel, ObservedDistribution, Scenario
from coarseiv.exactlp import ExactSimplex
from coarseiv.datasets import (
    PRESET_NAMES,
    homocysteine_distribution,
    homocysteine_scenario,
    peanut_distribution,
    peanut_risk_distribution,
    peanut_risk_scenario,
    peanut_scenario,
    scenario_preset,
)
from coarseiv import oracle
from coarseiv.oracle import sample_scm
from coarseiv.response import build_constraint_system


# -- frozen exact values (independently recomputed; see decisions ledger) ----------

PEANUT_INTERVAL = (Fraction(-5073, 31720), Fraction(10, 61))
PEANUT_RISK_INTERVAL = (Fraction(48, 319), Fraction(64, 319))
HOMOCYSTEINE_INTERVAL = (Fraction(-70877, 114380), Fraction(28753, 35604))


def _bounds(preset: str):
    dist, scenario = scenario_preset(preset)
    return numeric_bounds(build_constraint_system(scenario), dist)


def test_peanut_ternary_exact_value():
    res = _bounds("peanut-ternary")
    assert res.interval == PEANUT_INTERVAL


def test_peanut_risk_exact_value():
    res = _bounds("peanut-risk")
    assert res.interval == PEANUT_RISK_INTERVAL


def test_homocysteine_exact_value_all_coarsenings_and_variants():
    assert _bounds("homocysteine-3").interval == HOMOCYSTEINE_INTERVAL
    assert _bounds("homocysteine-4").interval == HOMOCYSTEINE_INTERVAL
    for n_levels in (3, 4):
        dist = homocysteine_distribution(n_levels)
        for variant in ("ill-defining", "contaminated"):
            scn = homocysteine_scenario(n_levels, variant)
            # The four-level variants demote two levels, which multiplies the
            # outcome-response enumeration past the default variable cap.
            res = numeric_bounds(
                build_constraint_system(scn, max_variables=20000), dist
            )
            assert res.interval == HOMOCYSTEINE_INTERVAL


def test_peanut_flag_variants_give_identical_bounds():
    dist = peanut_distribution()
    results = {
        variant: numeric_bounds(
            build_constraint_system(peanut_scenario(variant)), dist
        ).interval
        for variant in ("ill-defining", "contaminated")
    }
    assert results["ill-defining"] == results["contaminated"]


# -- closed forms agree with the LP -------------------------------------------------


def test_ternary_closed_form_matches_lp_on_peanut():
    dist = peanut_distribution()
    cf = closed_form_ternary_contrast(dist, x=">=6g", x_prime="<0.2g", x_other="0.2-6g")
    assert cf.method == "closed-form"
    assert cf.interval == PEANUT_INTERVAL


def test_classic_closed_form_contains_ternary_on_peanut():
    dist = peanut_distribution()
    classic = closed_form_classic(dist, x=">=6g", x_prime="<0.2g")
    assert classic.lower <= PEANUT_INTERVAL[0]
    assert classic.upper >= PEANUT_INTERVAL[1]


def test_single_level_closed_form_matches_lp_on_peanut_risk():
    dist = peanut_risk_distribution()
    cf = closed_form_single_level(dist, x="<0.2g")
    assert cf.interval == PEANUT_RISK_INTERVAL


def _scenario(instruments, levels, estimand):
    return Scenario(
        instrument_levels=instruments,
        levels=tuple(
            ExposureLevel(l.rstrip("*"), well_defining=False, z_dependent=True)
            if l.endswith("*")
            else ExposureLevel(l)
            for l in levels
        ),
        estimand=estimand,
    )


CONTRAST = Estimand(kind="risk_difference", x="x", x_prime="xp")
RISK = Estimand(kind="counterfactual_risk", x="x")


@pytest.mark.parametrize(
    "instruments, levels, estimand, expected",
    [
        (("z0", "z1"), ("x", "xp", "xo"), CONTRAST, ("ten-term", True)),
        (("z0", "z1"), ("x", "xp"), CONTRAST, ("eight-term", True)),
        (("z0", "z1"), ("x", "xp", "m*"), CONTRAST, ("eight-term", True)),
        (("z0", "z1"), ("x", "m*"), RISK, ("two-term", True)),
        (("z0", "z1"), ("x", "xp"), RISK, ("two-term", False)),
        (("z0", "z1"), ("x", "xp", "xo", "xq"), CONTRAST, None),
        (("z0", "z1"), ("x", "xp", "m*", "n*"), CONTRAST, None),
        (("z0", "z1"), ("x", "xp", "xo"), RISK, None),
        (("z0", "z1", "z2"), ("x", "xp"), CONTRAST, None),
        (("z0", "z1", "z2"), ("x", "m*"), RISK, None),
    ],
)
def test_closed_form_for_picks_the_form_and_its_tightness(
    instruments, levels, estimand, expected
):
    closed = closed_form_for(_scenario(instruments, levels, estimand))
    assert (closed if closed is None else (closed[0], closed[2])) == expected


@pytest.mark.parametrize("preset", ["peanut-ternary", "peanut-risk"])
def test_closed_form_for_evaluates_the_transcribed_form(preset):
    dist, scenario = scenario_preset(preset)
    form, evaluate, expected_tight = closed_form_for(scenario)
    assert expected_tight
    cf = evaluate(dist)
    direct = (
        closed_form_ternary_contrast(dist, x=">=6g", x_prime="<0.2g", x_other="0.2-6g")
        if form == "ten-term"
        else closed_form_single_level(dist, x="<0.2g")
    )
    assert cf.interval == direct.interval == numeric_bounds(
        build_constraint_system(scenario), dist
    ).interval


def _closed_form_scenarios():
    named = [(name, scenario_preset(name)[1]) for name in PRESET_NAMES]
    for name, base, _ in oracle._families():
        named += [
            (name, base),
            (f"{name} + ill-defining", oracle._with_extra(base, False)),
            (f"{name} + instrument-affected", oracle._with_extra(base, True)),
        ]
    return [(name, s) for name, s in named if closed_form_for(s) is not None]


def _standalone_closed_form(form, scenario, dist):
    est = scenario.estimand
    if form == "ten-term":
        xo = next(l for l in scenario.level_labels() if l not in (est.x, est.x_prime))
        return closed_form_ternary_contrast(dist, est.x, est.x_prime, xo)
    if form == "eight-term":
        return closed_form_classic(dist, est.x, est.x_prime)
    return closed_form_single_level(dist, est.x)


def _fields(res):
    return (res.lower, res.upper, res.method, res.scenario, res.estimand, res.term_sets,
            res.diagnostics, res.notes)


@pytest.mark.parametrize(
    "scenario",
    [s for _, s in _closed_form_scenarios()],
    ids=[name for name, _ in _closed_form_scenarios()],
)
def test_closed_form_for_equals_the_standalone_closed_form(scenario):
    # closed_form_for builds the form's term sets once; each evaluation
    # must still give what the standalone function builds from scratch.
    form, evaluate, _ = closed_form_for(scenario)
    for seed in range(4):
        dist = sample_scm(scenario, seed).dist
        assert _fields(evaluate(dist)) == _fields(_standalone_closed_form(form, scenario, dist))


def test_closed_form_scenarios_cover_every_form():
    forms = {closed_form_for(s)[0] for _, s in _closed_form_scenarios()}
    assert forms == {"ten-term", "eight-term", "two-term"}


# -- certificates -------------------------------------------------------------------


def _check_certificate(system, dist, certificate, target):
    """The certificate is a feasible response-type distribution attaining target."""
    b = system.rhs(dist)
    acc = [Fraction(0)] * system.n_rows
    value = Fraction(0)
    for j, q in certificate.items():
        assert q >= 0
        for r, coef in system.columns[j]:
            acc[r] += coef * q
        value += system.objective[j] * q
    assert acc == list(b)
    assert value == target


def test_bound_certificates_attain_the_bounds():
    for preset in ("peanut-ternary", "peanut-risk", "homocysteine-3"):
        dist, scenario = scenario_preset(preset)
        system = build_constraint_system(scenario)
        res = numeric_bounds(system, dist)
        _check_certificate(system, dist, res.lower_certificate, res.lower)
        _check_certificate(system, dist, res.upper_certificate, res.upper)


# -- infeasibility, slack, crossed closed forms -------------------------------------


def _two_level_dist(cells):
    return ObservedDistribution.from_probs(("z0", "z1"), ("a", "b"), cells)


INFEASIBLE_DIST = _two_level_dist(
    {("z0", "a", 0): Fraction(1), ("z1", "a", 1): Fraction(1)}
)
TWO_CLEAN = Scenario(
    instrument_levels=("z0", "z1"),
    levels=(ExposureLevel("a"), ExposureLevel("b")),
    estimand=Estimand("risk_difference", x="a", x_prime="b"),
)


def test_infeasible_distribution_raises_with_checkable_certificate():
    system = build_constraint_system(TWO_CLEAN)
    with pytest.raises(InfeasibleDistribution) as exc:
        numeric_bounds(system, INFEASIBLE_DIST)
    cert, violation = exc.value.certificate, exc.value.violation
    assert violation > 0
    b = system.rhs(INFEASIBLE_DIST)
    row_index = {key: i for i, key in enumerate(system.row_keys)}
    assert sum(coef * b[row_index[k]] for k, coef in cert.items()) == violation
    # Every response-type column must have nonpositive inner product with it.
    pi = [Fraction(0)] * system.n_rows
    for k, coef in cert.items():
        pi[row_index[k]] = coef
    for col in system.columns:
        assert sum(coef * pi[r] for r, coef in col) <= 0


def test_slack_lp_appends_a_plus_and_minus_unit_column_per_cell_row():
    # The slack pivots depend on this order: the structural columns, then
    # +e_r and -e_r for each cell row r in row order, each slack at cost 1.
    system = build_constraint_system(TWO_CLEAN)
    solver = BoundsSolver(system)
    solver.solve_b(system.rhs(INFEASIBLE_DIST), slack=True)
    columns = merge_columns(system).columns.tolist()
    costs = [0] * len(columns)
    for r, key in enumerate(system.row_keys):
        if key != "normalization":
            for sign in (1, -1):
                columns.append([sign if i == r else 0 for i in range(system.n_rows)])
                costs.append(1)
    assert solver._slack_lp.A.tolist() == [list(row) for row in zip(*columns)]
    assert solver._slack_lp.costs == costs


def test_slack_mode_recovers_bounds_with_warning_note():
    system = build_constraint_system(TWO_CLEAN)
    res = numeric_bounds(system, INFEASIBLE_DIST, slack=True)
    assert res.lower <= res.upper
    assert res.diagnostics["slack_total"] > 0
    assert any("SLACK PROJECTION APPLIED" in note for note in res.notes)


@pytest.mark.parametrize("seed", range(6))
def test_a_rescue_starts_the_lower_lp_from_the_slack_optimum(monkeypatch, seed):
    # The cold solves of a rescue: the lower LP at the raw table, which is
    # infeasible, the slack LP, the lower LP at the projection from the
    # slack optimum, and the upper LP from the lower LP's phase-1 basis.
    rng = random.Random(seed)
    scenario = _random_scenario(rng)
    system = build_constraint_system(scenario)
    b = system.rhs(_random_table(rng, scenario, incompatible=True))
    solver = BoundsSolver(system)
    calls = []
    solve = ExactSimplex.solve

    def recording(self, b, scale=None, start=None):
        calls.append((self, start))
        return solve(self, b, scale, start)

    monkeypatch.setattr(ExactSimplex, "solve", recording)
    res = solver.solve_b(b, slack=True)
    lo, hi, slack = solver._lo, solver._hi, solver._slack_lp
    assert [(lp, start is None) for lp, start in calls] == [
        (lo, True), (slack, True), (lo, False), (hi, False)
    ]
    start = calls[2][1]
    assert calls[3][1] is lo.phase1
    # The start is a basis of the lower LP's columns [A | I]: M.B = d.I.
    # It keeps the slack optimum's structural columns in their rows and
    # puts artificials everywhere else.
    m, n = lo.m, lo.n
    units = np.eye(m, dtype=np.int64)
    basic = np.column_stack([lo.A[:, v] if v < n else units[:, v - n] for v in start.basis])
    assert (start.M.astype(object) @ basic.astype(object) == start.d * units).all()
    optimum = slack._last.basis
    assert [v if v < n else None for v in start.basis] == [v if v < n else None for v in optimum]
    # No artificial left in the phase-1 basis can be evicted, and the bounds
    # are the exact bounds at the projection.
    for row, var in enumerate(lo.phase1.basis):
        if var >= n:
            assert not (lo.phase1.M[row].astype(object) @ lo.A.astype(object)).any()
    fresh = BoundsSolver(system).solve_b(solver.project_slack(b)[0])
    assert (res.lower, res.upper) == (fresh.lower, fresh.upper)


def test_crossed_closed_form_interval_is_flagged():
    res = closed_form_classic(INFEASIBLE_DIST, x="a", x_prime="b")
    assert res.lower > res.upper
    assert any("CROSSED INTERVAL" in note for note in res.notes)


# -- caps ---------------------------------------------------------------------------


def test_caps_raise_before_solving():
    _, scenario = scenario_preset("peanut-ternary")
    with pytest.raises(CapExceeded):
        build_constraint_system(scenario, max_variables=10)
    with pytest.raises(CapExceeded):
        build_constraint_system(scenario, max_rows=5)


# -- presolve -----------------------------------------------------------------------


def _assert_merge_equals_grouped_types(system):
    # Brute force: group the enumerated per-type columns by first occurrence.
    groups: dict[tuple, list[int]] = {}
    for j, col in enumerate(system.columns):
        groups.setdefault(col, []).append(j)
    merged = merge_columns(system)
    dense = np.zeros((len(groups), system.n_rows), dtype=np.int64)
    for g, col in enumerate(groups):
        for r, coef in col:
            dense[g, r] += coef
    assert merged.columns.dtype == np.int64
    assert np.array_equal(merged.columns, dense)
    for g, types in enumerate(groups.values()):
        costs = [system.objective[j] for j in types]
        assert merged.min_costs[g] == min(costs)
        assert merged.max_costs[g] == max(costs)
        # The representatives are the smallest types attaining the extremes.
        assert merged.min_reps[g] == types[costs.index(min(costs))]
        assert merged.max_reps[g] == types[costs.index(max(costs))]


def _every_preset_and_variant():
    yield from (scenario_preset(name)[1] for name in PRESET_NAMES)
    for variant in ("clean", "ill-defining", "contaminated"):
        yield peanut_scenario(variant)
        yield homocysteine_scenario(3, variant)
        yield homocysteine_scenario(4, variant)


def test_merge_columns_equals_grouped_response_types():
    covered = 0
    for scenario in _every_preset_and_variant():
        try:
            system = build_constraint_system(scenario)
        except CapExceeded:
            continue
        _assert_merge_equals_grouped_types(system)
        covered += 1
    assert covered == 13


@st.composite
def _shapes(draw):
    k_z, k_x = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    clean = draw(st.lists(st.booleans(), min_size=k_x, max_size=k_x).filter(any))
    levels = tuple(
        ExposureLevel(f"x{i}")
        if is_clean
        else ExposureLevel(f"x{i}", well_defining=draw(st.booleans()), z_dependent=True)
        for i, is_clean in enumerate(clean)
    )
    clean_labels = [lv.label for lv in levels if lv.clean]
    if len(clean_labels) > 1 and draw(st.booleans()):
        x, x_prime = draw(st.permutations(clean_labels))[:2]
        estimand = Estimand("risk_difference", x=x, x_prime=x_prime)
    else:
        estimand = Estimand("counterfactual_risk", x=draw(st.sampled_from(clean_labels)))
    return Scenario(tuple(f"z{i}" for i in range(k_z)), levels, estimand)


@settings(max_examples=60, deadline=None)
@given(_shapes())
def test_merge_columns_equals_grouped_response_types_on_random_shapes(scenario):
    try:
        system = build_constraint_system(scenario)
    except CapExceeded:
        assume(False)
    _assert_merge_equals_grouped_types(system)


def test_ill_defining_ternary_merge_is_stable():
    # Regression pin: 144 response types collapse to 32 distinct columns.
    system = build_constraint_system(peanut_scenario("ill-defining"))
    assert system.n_variables == 144
    assert len(merge_columns(system).columns) == 32


# -- containment property ------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_bounds_contain_the_generating_truth(seed):
    scenario = peanut_scenario("ill-defining")
    scm = sample_scm(scenario, seed)
    res = numeric_bounds(build_constraint_system(scenario), scm.dist)
    assert res.lower <= scm.true_value <= res.upper


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_warm_solver_matches_fresh_solver(seed):
    scenario = peanut_scenario("contaminated")
    system = build_constraint_system(scenario)
    shared = BoundsSolver(system)
    for offset in range(3):
        scm = sample_scm(scenario, seed + offset)
        warm = shared.solve(scm.dist)
        cold = BoundsSolver(system).solve(scm.dist)
        assert (warm.lower, warm.upper) == (cold.lower, cold.upper)


# -- differential test against a float LP solver --------------------------------------


def _random_scenario(rng):
    """A random scenario within BoundsSolver's default caps."""
    while True:
        k_z, k_x = rng.choice([2, 3]), rng.choice([2, 3, 4])
        n_clean = rng.randint(1, k_x)
        types = k_x**k_z * 2**n_clean * 2 ** (k_z * (k_x - n_clean))
        if types <= 4096 and 2 * k_z * k_x + 1 <= 30:
            break
    labels = [f"x{i}" for i in range(k_x)]
    clean = sorted(rng.sample(labels, n_clean))
    levels = tuple(
        ExposureLevel(x) if x in clean
        else ExposureLevel(x, well_defining=rng.random() < 0.5, z_dependent=True)
        for x in labels
    )
    if n_clean >= 2:
        x, x_prime = rng.sample(clean, 2)
        estimand = Estimand("risk_difference", x=x, x_prime=x_prime)
    else:
        estimand = Estimand("counterfactual_risk", x=rng.choice(clean))
    return Scenario(tuple(f"z{i}" for i in range(k_z)), levels, estimand)


def _random_table(rng, scenario, incompatible):
    """Random counts per stratum.  An incompatible table gives a clean level c
    p(c, 1 | z0) >= 0.6 and p(c, 0 | z1) >= 0.6, which no model in which c's
    outcome ignores the instrument can produce."""
    labels = scenario.level_labels()
    c = next(lv.label for lv in scenario.levels if lv.clean)
    probs = {}
    for k, z in enumerate(scenario.instrument_levels):
        counts = {(z, x, y): rng.randint(0, 9) for x in labels for y in (0, 1)}
        counts[(z, labels[0], 0)] += 1
        total = sum(counts.values())
        if incompatible and k < 2:
            counts[(z, c, 1 - k)] += 2 * total
            total *= 3
        probs.update((key, Fraction(c, total)) for key, c in counts.items())
    return ObservedDistribution.from_probs(scenario.instrument_levels, labels, probs)


@pytest.mark.parametrize("seed", range(8))
def test_exact_bounds_match_float_solver(seed):
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = random.Random(seed)
    scenario = _random_scenario(rng)
    system = build_constraint_system(scenario)
    merged = merge_columns(system)
    A = merged.columns.T

    def float_bounds(b):
        bf = [float(v) for v in b]
        lo = linprog(merged.min_costs, A_eq=A, b_eq=bf, method="highs")
        hi = linprog([-c for c in merged.max_costs], A_eq=A, b_eq=bf, method="highs")
        assert lo.status == 0 and hi.status == 0
        return lo.fun, -hi.fun

    shared = BoundsSolver(system)
    dists = [
        sample_scm(scenario, seed).dist,
        sample_scm(scenario, seed, point_mass=True).dist,
        _random_table(rng, scenario, incompatible=False),
        _random_table(rng, scenario, incompatible=True),
    ]
    for dist in dists:
        b = system.rhs(dist)
        # A fresh solver's first call is cold (one phase 1 for both sides);
        # the shared solver answers later calls warm.
        for solver in (BoundsSolver(system), shared):
            res = solver.solve_b(b, slack=True)
            # The same b again reuses the projection the call just made.
            target = solver.project_slack(b)[0] if "slack_total" in res.diagnostics else b
            lo, hi = float_bounds(target)
            assert abs(float(res.lower) - lo) <= 1e-9
            assert abs(float(res.upper) - hi) <= 1e-9

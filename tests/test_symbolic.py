"""Symbolic derivation: dual-vertex enumeration vs transcribed closed forms."""

import itertools
import math
from fractions import Fraction
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarseiv import exactlp, oracle, symbolic
from coarseiv.bounds import (
    classic_term_sets,
    numeric_bounds,
    single_level_term_sets,
    ternary_term_sets,
)
from coarseiv.data import Estimand, ExposureLevel, InputError, Scenario
from coarseiv.datasets import peanut_distribution, peanut_scenario, scenario_preset
from coarseiv.exactlp import independent_rows
from coarseiv.oracle import sample_scm
from coarseiv.response import build_constraint_system
from coarseiv.symbolic import (
    SymbolicBoundSet,
    _dual_cones,
    _extreme_rays,
    derive_symbolic,
    format_bound_set,
    format_term,
    term_sets_equal,
)

Z2 = ("z0", "z1")


def _scenario(levels, estimand):
    return Scenario(instrument_levels=Z2, levels=tuple(levels), estimand=estimand)


CONTRAST = Estimand("risk_difference", x="x", x_prime="xp")
RISK = Estimand("counterfactual_risk", x="x")

ILL = ExposureLevel("m", well_defining=False, z_dependent=True)

ALL_CLEAN_TERNARY = _scenario(
    (ExposureLevel("x"), ExposureLevel("xp"), ExposureLevel("xo")), CONTRAST
)
MIXED_SCENARIO = _scenario((ExposureLevel("x"), ExposureLevel("xp"), ILL), CONTRAST)
CLASSIC_SCENARIO = _scenario((ExposureLevel("x"), ExposureLevel("xp")), CONTRAST)
RISK_SCENARIO = _scenario((ExposureLevel("x"), ILL), RISK)


# -- derivation matches the transcriptions ------------------------------------------


def test_derived_all_clean_ternary_matches_ten_term_transcription():
    lower, upper = derive_symbolic(build_constraint_system(ALL_CLEAN_TERNARY))
    t_lower, t_upper = ternary_term_sets(Z2, "x", "xp", "xo", levels=("x", "xp", "xo"))
    assert len(lower.terms) == 10 and len(upper.terms) == 10
    assert term_sets_equal(lower, t_lower)
    assert term_sets_equal(upper, t_upper)
    assert lower.provenance == "derived" and t_lower.provenance == "transcribed"


def test_derived_two_level_contrast_matches_eight_term_transcription():
    lower, upper = derive_symbolic(build_constraint_system(CLASSIC_SCENARIO))
    t_lower, t_upper = classic_term_sets(Z2, "x", "xp")
    assert len(lower.terms) == 8 and len(upper.terms) == 8
    assert term_sets_equal(lower, t_lower)
    assert term_sets_equal(upper, t_upper)


def test_mixed_level_scenario_derives_the_same_eight_terms():
    # Adding a z-dependent level leaves the bound formulas untouched: the
    # derived terms place zero weight on its cells, so they compare equal to
    # the two-level transcription across different exposure universes.
    lower, upper = derive_symbolic(build_constraint_system(MIXED_SCENARIO))
    t_lower, t_upper = classic_term_sets(Z2, "x", "xp")
    assert term_sets_equal(lower, t_lower)
    assert term_sets_equal(upper, t_upper)


def test_derived_single_risk_matches_two_term_transcription():
    lower, upper = derive_symbolic(build_constraint_system(RISK_SCENARIO))
    t_lower, t_upper = single_level_term_sets(Z2, "x", levels=("x", "m"))
    assert len(lower.terms) == 2 and len(upper.terms) == 2
    assert term_sets_equal(lower, t_lower)
    assert term_sets_equal(upper, t_upper)


def test_single_level_transcription_is_universe_invariant():
    # Canonicalization makes zero weight on unshared cells literal, so the
    # same formulas written over different exposure universes compare equal.
    narrow_l, narrow_u = single_level_term_sets(Z2, "x")
    wide_l, wide_u = single_level_term_sets(Z2, "x", levels=("x", "m"))
    assert term_sets_equal(narrow_l, wide_l)
    assert term_sets_equal(narrow_u, wide_u)


def test_nonpointed_dual_is_rejected():
    # With a single exposure level there are too few distinct columns to pin
    # down dual vertices; derivation must refuse rather than emit garbage.
    only = _scenario((ExposureLevel("x"),), RISK)
    with pytest.raises(InputError):
        derive_symbolic(build_constraint_system(only))


# -- canonical form ------------------------------------------------------------------


def _block_extremes(term, instruments, levels):
    out = {}
    coeffs = dict(term.coeffs)
    for z in instruments:
        vals = [coeffs.get((z, x, y), Fraction(0)) for x in levels for y in (0, 1)]
        out[z] = (min(vals), max(vals))
    return out


def test_derived_terms_are_in_block_gauge():
    for scenario in (ALL_CLEAN_TERNARY, MIXED_SCENARIO, CLASSIC_SCENARIO, RISK_SCENARIO):
        lower, upper = derive_symbolic(build_constraint_system(scenario))
        levels = scenario.level_labels()
        for term in lower.terms:
            for lo, _ in _block_extremes(term, Z2, levels).values():
                assert lo == 0
        for term in upper.terms:
            for _, hi in _block_extremes(term, Z2, levels).values():
                assert hi == 0


def test_term_sets_equal_rejects_mismatched_comparisons():
    lower, upper = single_level_term_sets(Z2, "x")
    with pytest.raises(InputError):
        term_sets_equal(lower, upper)
    other_l, _ = single_level_term_sets(("w0", "w1"), "x")
    with pytest.raises(InputError):
        term_sets_equal(lower, other_l)


def test_duplicate_terms_are_rejected():
    lower, _ = single_level_term_sets(Z2, "x")
    with pytest.raises(InputError):
        SymbolicBoundSet(
            direction="lower",
            terms=lower.terms + lower.terms[:1],
            provenance="transcribed",
            instrument_levels=Z2,
            exposure_levels=("x",),
            estimand=RISK,
        )


_GAUGE_CELLS = [(z, x, y) for z in Z2 for x in ("x", "xp") for y in (0, 1)]


@st.composite
def _term_rows(draw):
    # Integer rows (constant, values, t) over mixed denominators, some of them
    # the same term written over another t.
    row = st.tuples(
        st.integers(-6, 6),
        st.lists(st.integers(-3, 3), min_size=len(_GAUGE_CELLS), max_size=len(_GAUGE_CELLS)),
        st.integers(1, 6),
    )
    rows = draw(st.lists(row, max_size=12))
    for constant, values, t in draw(st.lists(st.sampled_from(rows), max_size=4) if rows else st.just([])):
        m = draw(st.integers(2, 4))
        rows.append((constant * m, [v * m for v in values], t * m))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(_term_rows(), st.sampled_from(["lower", "upper"]))
def test_integer_keyed_terms_equal_the_fraction_keyed_sort(rows, direction):
    gauge = symbolic._Gauge.over(_GAUGE_CELLS, direction)
    by_fractions = {
        gauge.term(Fraction(constant, t), [Fraction(v, t) for v in values])
        for constant, values, t in rows
    }
    expected = tuple(sorted(by_fractions, key=lambda term: (term.constant, term.coeffs)))
    assert gauge.terms(rows) == expected


# -- evaluation ----------------------------------------------------------------------


def test_evaluate_and_active_term_on_peanut():
    dist = peanut_distribution()
    lower, upper = ternary_term_sets(
        ("avoid", "consume"), ">=6g", "<0.2g", "0.2-6g",
        levels=("<0.2g", "0.2-6g", ">=6g"),
    )
    assert lower.evaluate(dist) == Fraction(-5073, 31720)
    assert upper.evaluate(dist) == Fraction(10, 61)
    assert lower.active_term(dist).evaluate(dist) == Fraction(-5073, 31720)
    assert upper.active_term(dist).evaluate(dist) == Fraction(10, 61)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_derived_sets_evaluate_to_the_lp_optimum(seed):
    system = build_constraint_system(MIXED_SCENARIO)
    lower, upper = derive_symbolic(system)
    scm = sample_scm(MIXED_SCENARIO, seed)
    res = numeric_bounds(system, scm.dist)
    assert lower.evaluate(scm.dist) == res.lower
    assert upper.evaluate(scm.dist) == res.upper


# -- double description against brute force ------------------------------------------


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _brute_force_rays(rows, dim):
    """Every primitive kernel vector of a rank dim-1 row subset, either sign,
    that satisfies all rows."""
    rays = set()
    for subset in itertools.combinations(rows, dim - 1):
        kernel = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in subset]) for j in range(dim)]
        g = math.gcd(*kernel)
        if g == 0:
            continue  # rank < dim - 1
        for sign in (1, -1):
            ray = tuple(sign * v // g for v in kernel)
            if all(sum(a * b for a, b in zip(row, ray)) <= 0 for row in rows):
                rays.add(ray)
    return rays


@st.composite
def _pointed_cones(draw):
    dim = draw(st.integers(3, 4))
    entries = st.tuples(*[st.integers(-2, 2)] * dim)
    rows = draw(st.lists(entries, min_size=4, max_size=7))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # duplicated rows
    rows = draw(st.permutations(rows))
    assume(np.linalg.matrix_rank(np.array(rows)) == dim)
    return rows, dim


@settings(max_examples=300, deadline=None)
@given(_pointed_cones())
def test_extreme_rays_match_brute_force(cone):
    rows, dim = cone
    rays = _extreme_rays(rows)
    assert len(set(rays)) == len(rays)
    assert set(rays) == _brute_force_rays(rows, dim)


@settings(max_examples=100, deadline=None)
@given(_pointed_cones(), st.data())
def test_extreme_rays_do_not_depend_on_the_row_order(cone, data):
    # Rows are inserted in sorted order, so any permutation gives the same list.
    rows, _ = cone
    rays = _extreme_rays(rows)
    for _ in range(3):
        assert _extreme_rays(data.draw(st.permutations(rows))) == rays
    assert _extreme_rays(sorted(rows, reverse=True)) == rays


@pytest.mark.parametrize("witnesses", [1, 2])
@settings(max_examples=150, deadline=None)
@given(cone=_pointed_cones())
def test_witness_path_matches_brute_force(witnesses, cone):
    # With 2 * _WITNESSES rays or more, witnesses screen the candidate pairs.
    # The drawn cones never reach the 64 rays that turns it on by default.
    rows, dim = cone
    rays = _extreme_rays(rows)
    with mock.patch.object(symbolic, "_WITNESSES", witnesses):
        assert _extreme_rays(rows) == rays
    assert set(rays) == _brute_force_rays(rows, dim)


def _plain_adjacent_pairs(tight, pos, neg, min_meet):
    # The containment test over every ray for every candidate pair.
    tp, tn = tight[pos], tight[neg]
    shared = tp @ tn.T
    kp, kn = np.nonzero(shared >= min_meet)
    adjacent = np.zeros(len(kp), dtype=bool)
    for s in range(0, len(kp), 1024):
        p, n = kp[s:s + 1024], kn[s:s + 1024]
        contain = (tp[p] * tn[n]) @ tight.T == shared[p, n][:, None]
        adjacent[s:s + 1024] = np.count_nonzero(contain, axis=1) == 2
    kp, kn = kp[adjacent], kn[adjacent]
    return kp, kn, tp[kp] * tn[kn]


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_witnessed_adjacency_equals_the_plain_containment_test(direction):
    system = build_constraint_system(scenario_preset("homocysteine-3")[1])
    rows = _dual_cones(system)[1][direction]
    adjacent_pairs = symbolic._adjacent_pairs
    witnessed = []

    def spy(tight, pos, neg, min_meet):
        got = adjacent_pairs(tight, pos, neg, min_meet)
        for a, b in zip(got, _plain_adjacent_pairs(tight, pos, neg, min_meet)):
            np.testing.assert_array_equal(a, b)
        witnessed.append(len(tight) >= 2 * symbolic._WITNESSES)
        return got

    with mock.patch.object(symbolic, "_adjacent_pairs", spy):
        rays = _extreme_rays(rows)
    assert len(rays) == DUAL_CONE_RAYS["homocysteine-3"]
    assert sum(witnessed) > len(witnessed) // 2


@pytest.mark.parametrize("scale", [2**40, 2**62])
@settings(max_examples=40, deadline=None)
@given(cone=_pointed_cones())
def test_scaled_rows_give_the_same_rays(scale, cone):
    # Scaling every row leaves the cone and the row order unchanged.  At 2**40
    # every product still fits int64; at 2**62 the row values cannot, so the
    # rays are built in Python ints.
    rows, dim = cone
    scaled = [tuple(scale * a for a in row) for row in rows]
    dtypes = []

    def spy(left, right, bits):
        out = exactlp._exact_product(left, right, bits)
        dtypes.append(out.dtype)
        return out

    with mock.patch.object(symbolic, "_exact_product", spy):
        rays = _extreme_rays(scaled)
    assert rays == _extreme_rays(rows)
    assert all((dtype == object) == (scale > 2**40) for dtype in dtypes)
    assert set(rays) == _brute_force_rays(scaled, dim)


# Extreme rays a direction of each preset's dual cone has.
DUAL_CONE_RAYS = {"homocysteine-3": 273, "homocysteine-4": 507}


def _check_cone_rays(scenario, direction, n_rays):
    # The rays are distinct, satisfy every row and are each tight on dim - 1
    # independent rows.
    rows = _dual_cones(build_constraint_system(scenario))[1][direction]
    dim = len(rows[0])
    rays = _extreme_rays(rows)
    assert len(rays) == n_rays
    assert len(set(rays)) == len(rays)
    for ray in rays:
        values = [sum(map(mul, row, ray)) for row in rows]
        assert max(values) <= 0
        tight = [row for row, v in zip(rows, values) if v == 0]
        assert len(independent_rows(tight)[0]) == dim - 1


@pytest.mark.parametrize("direction", ["lower", "upper"])
@pytest.mark.parametrize("preset", sorted(DUAL_CONE_RAYS))
def test_extreme_rays_of_the_homocysteine_cones(preset, direction):
    # Cones far past the brute-force sizes, with hundreds of candidate pairs
    # per inserted row, so the adjacency test crosses its chunk boundaries.
    _check_cone_rays(scenario_preset(preset)[1], direction, DUAL_CONE_RAYS[preset])


# Extreme rays a direction of the cones of audited families 3 and 4 (the
# three-level ones, numbered from 1), each with an ill-defining level added.
FAMILY_CONE_RAYS = {3: 93, 4: 279}


@pytest.mark.parametrize("direction", ["lower", "upper"])
@pytest.mark.parametrize("family", sorted(FAMILY_CONE_RAYS))
def test_extreme_rays_of_the_ill_defined_family_cones(family, direction):
    scenario = oracle._with_extra(oracle._families()[family - 1][1], False)
    _check_cone_rays(scenario, direction, FAMILY_CONE_RAYS[family])


# -- rendering -----------------------------------------------------------------------


def test_format_term_text_and_latex():
    lower, upper = single_level_term_sets(Z2, "x")
    texts = {format_term(t) for t in lower.terms}
    assert texts == {"p[x,1|z0]", "p[x,1|z1]"}
    upper_texts = {format_term(t) for t in upper.terms}
    assert upper_texts == {"1 - p[x,0|z0]", "1 - p[x,0|z1]"}
    latex = {format_term(t, style="latex") for t in lower.terms}
    assert latex == {"p_{x,1 \\cdot z0}", "p_{x,1 \\cdot z1}"}


def test_format_bound_set_layout():
    lower, upper = classic_term_sets(Z2, "x", "xp")
    text = format_bound_set(lower)
    lines = text.splitlines()
    assert lines[0] == "lower bound = max of 8 terms:"
    assert len(lines) >= 9
    assert all(line.startswith("  ") for line in lines[1:9])
    assert "min of 8 terms" in format_bound_set(upper)

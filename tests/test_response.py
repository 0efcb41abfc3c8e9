"""Response-type enumeration and constraint-system construction."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from coarseiv import oracle, response
from coarseiv.data import (
    Estimand,
    ExposureLevel,
    InputError,
    ObservedDistribution,
    Scenario,
)
from coarseiv.datasets import PRESET_NAMES, scenario_preset
from coarseiv.response import (
    CapExceeded,
    build_constraint_system,
    enumerate_exposure_types,
    enumerate_outcome_types,
)


def _scenario(extra=None):
    levels = [ExposureLevel("x"), ExposureLevel("xp")]
    if extra is not None:
        levels.append(extra)
    return Scenario(
        instrument_levels=("z0", "z1"),
        levels=tuple(levels),
        estimand=Estimand("risk_difference", x="x", x_prime="xp"),
    )


def test_exposure_type_count_and_order():
    types = enumerate_exposure_types(_scenario())
    assert len(types) == 4  # 2 levels ^ 2 instruments
    assert [t.assignment for t in types[:3]] == [(0, 0), (0, 1), (1, 0)]


def test_outcome_type_count_clean_only():
    types = enumerate_outcome_types(_scenario())
    assert len(types) == 4  # 2 clean bits
    assert all(t.zdep_bits == () for t in types)


def test_outcome_type_count_with_zdep_level():
    scn = _scenario(ExposureLevel("m", well_defining=False, z_dependent=True))
    types = enumerate_outcome_types(scn)
    # 2 clean bits x one z-indexed bit pair for m: 4 * 4.
    assert len(types) == 16
    assert types[0].clean_bits == (0, 0) and types[0].zdep_bits == ((0, 0),)


def test_system_shape_and_row_order():
    scn = _scenario(ExposureLevel("m", well_defining=False, z_dependent=True))
    system = build_constraint_system(scn)
    assert system.n_variables == 9 * 16  # 3^2 exposure maps x 16 outcome types
    assert system.n_rows == 2 * 3 * 2 + 1
    assert system.row_keys[0] == ("z0", "x", 0)
    assert system.row_keys[1] == ("z0", "x", 1)
    assert system.row_keys[6] == ("z1", "x", 0)
    assert system.row_keys[-1] == "normalization"


def test_each_column_hits_one_cell_per_stratum_plus_normalization():
    system = build_constraint_system(_scenario())
    norm_row = system.n_rows - 1
    for col in system.columns:
        rows = [r for r, _ in col]
        assert rows.count(norm_row) == 1
        assert len(rows) == 3  # one cell in each of two strata + normalization
        assert all(coef == 1 for _, coef in col)
        z_of = {r // 4 for r in rows if r != norm_row}  # 4 cell rows per stratum
        assert z_of == {0, 1}


def test_objective_is_contrast_of_clean_bits():
    system = build_constraint_system(_scenario())
    # theta = psi_{xp} - psi_x: +1 when bit(xp)=1,bit(x)=0; -1 reversed; else 0.
    n_out = len(system.outcome_types)
    for j in range(system.n_variables):
        bx, bxp = system.outcome_types[j % n_out].clean_bits
        assert system.objective[j] == bxp - bx


def test_counterfactual_risk_objective():
    scn = Scenario(
        instrument_levels=("z0", "z1"),
        levels=(ExposureLevel("x"), ExposureLevel("xp")),
        estimand=Estimand("counterfactual_risk", x="xp"),
    )
    system = build_constraint_system(scn)
    n_out = len(system.outcome_types)
    for j in range(system.n_variables):
        assert system.objective[j] == system.outcome_types[j % n_out].clean_bits[1]


def test_rhs_alignment():
    scn = _scenario()
    probs = {
        ("z0", "x", 0): Fraction(1, 2),
        ("z0", "xp", 1): Fraction(1, 2),
        ("z1", "x", 1): Fraction(1, 4),
        ("z1", "xp", 0): Fraction(3, 4),
    }
    dist = ObservedDistribution.from_probs(("z0", "z1"), ("x", "xp"), probs)
    b = scn and build_constraint_system(scn).rhs(dist)
    assert b[0] == Fraction(1, 2)  # (z0, x, 0)
    assert b[1] == 0  # (z0, x, 1)
    assert b[-1] == 1


def test_distribution_inverts_rhs():
    scn = _scenario(ExposureLevel("m", well_defining=False, z_dependent=True))
    probs = {
        ("z0", "x", 0): Fraction(1, 3),
        ("z0", "m", 1): Fraction(1, 6),
        ("z0", "xp", 1): Fraction(1, 2),
        ("z1", "m", 0): Fraction(3, 4),
        ("z1", "xp", 0): Fraction(1, 4),
    }
    dist = ObservedDistribution.from_probs(("z0", "z1"), ("x", "xp", "m"), probs)
    system = build_constraint_system(scn)
    b = system.rhs(dist)
    assert system.distribution(b, 1).probs == dist.probs
    assert system.distribution([v * 12 for v in b], 12).probs == dist.probs
    assert system.rhs(system.distribution(b, 1)) == b


def _shape(k_z, k_x, n_zdep):
    """Scenario with k_z instrument and k_x exposure levels, the last n_zdep z-dependent."""
    return Scenario(
        instrument_levels=tuple(f"z{i}" for i in range(k_z)),
        levels=tuple(
            ExposureLevel(f"x{i}", well_defining=False, z_dependent=True)
            if i >= k_x - n_zdep
            else ExposureLevel(f"x{i}")
            for i in range(k_x)
        ),
        estimand=Estimand("counterfactual_risk", x="x0"),
    )


SHAPES = sorted(
    {
        (k_z, k_x, n_zdep)
        for k_z, k_x in itertools.product((2, 3, 4), repeat=2)
        for n_zdep in (0, 1, k_x - 1)
        # Keep each enumeration small: at most 2^13 response types.
        if k_x**k_z * 2 ** (k_x - n_zdep) * 2 ** (k_z * n_zdep) <= 2**13
    }
)


@pytest.mark.parametrize("k_z, k_x, n_zdep", SHAPES)
def test_caps_count_the_enumerated_variables_and_rows(k_z, k_x, n_zdep):
    scn = _shape(k_z, k_x, n_zdep)
    system = build_constraint_system(scn, max_variables=2**13, max_rows=100)
    n, m = system.n_variables, system.n_rows
    assert build_constraint_system(scn, max_variables=n, max_rows=m).lp_payload() == (
        system.lp_payload()
    )
    with pytest.raises(CapExceeded, match=f"^{n} response-type variables exceed cap {n - 1}$"):
        build_constraint_system(scn, max_variables=n - 1, max_rows=m)
    with pytest.raises(CapExceeded, match=f"^{m} rows exceed cap {m - 1}$"):
        build_constraint_system(scn, max_variables=n, max_rows=m - 1)


def test_caps_raise_before_enumeration(monkeypatch):
    def unreachable(scenario):
        raise AssertionError("enumerated past a cap")

    monkeypatch.setattr(response, "enumerate_exposure_types", unreachable)
    monkeypatch.setattr(response, "enumerate_outcome_types", unreachable)
    huge = _shape(6, 10, 0)  # 10^6 * 2^10 > 10^9 response types, 121 rows
    with pytest.raises(CapExceeded, match="^1024000000 response-type variables exceed cap 4096$"):
        build_constraint_system(huge)
    with pytest.raises(CapExceeded, match="^121 rows exceed cap 30$"):
        build_constraint_system(huge, max_variables=10**12)


def test_ill_defining_and_contaminated_systems_bit_identical():
    ill = _scenario(ExposureLevel("m", well_defining=False, z_dependent=True))
    con = _scenario(ExposureLevel("m", well_defining=True, z_dependent=True))
    sys_ill = build_constraint_system(ill)
    sys_con = build_constraint_system(con)
    assert sys_ill.lp_payload() == sys_con.lp_payload()
    # The reporting layer still distinguishes the scenarios.
    assert sys_ill.scenario.levels != sys_con.scenario.levels


def test_build_requires_estimand():
    scn = Scenario(("z0", "z1"), (ExposureLevel("x"), ExposureLevel("xp")))
    with pytest.raises(InputError):
        build_constraint_system(scn)
    est = Estimand("risk_difference", x="x", x_prime="xp")
    assert build_constraint_system(scn, est).estimand == est


def test_to_document_is_json_ready():
    import json

    doc = build_constraint_system(_scenario()).to_document()
    assert doc["schema"] == "coarseiv/lp/1"
    assert doc["rows"][-1] == "normalization"
    json.dumps(doc)  # must not raise


def test_mass_conservation_identity():
    # Column sums within each stratum block equal the normalization column:
    # every type realizes exactly one cell per stratum.
    system = build_constraint_system(
        _scenario(ExposureLevel("m", well_defining=False, z_dependent=True))
    )
    norm_row = system.n_rows - 1
    cells_per_z = 3 * 2
    for col in system.columns:
        for z_pos in (0, 1):
            block = [
                r
                for r, _ in col
                if r != norm_row and z_pos * cells_per_z <= r < (z_pos + 1) * cells_per_z
            ]
            assert len(block) == 1


# -- the type matrix ------------------------------------------------------------------


def _enumerated_rows(system):
    # Each response type's rows, read off its exposure and outcome maps:
    # the cell (z, x_e(z), y) of each instrument level z in order, where y is
    # the clean bit of x_e(z) or its bit at z, then the normalization row.
    scenario = system.scenario
    labels, zs = scenario.level_labels(), scenario.instrument_levels
    clean, zdep = scenario.clean_labels(), scenario.zdep_labels()
    row_of = {key: i for i, key in enumerate(system.row_keys)}
    for etype in system.exposure_types:
        for o in system.outcome_types:
            rows = []
            for z, x in enumerate(labels[i] for i in etype.assignment):
                y = o.clean_bits[clean.index(x)] if x in clean else o.zdep_bits[zdep.index(x)][z]
                rows.append(row_of[zs[z], x, y])
            yield rows + [row_of["normalization"]]


def _preset_and_family_scenarios():
    for name in PRESET_NAMES:
        yield name, scenario_preset(name)[1]
    for name, base, _ in oracle._families():
        yield name, base
        yield f"{name} + ill-defining", oracle._with_extra(base, False)
        yield f"{name} + instrument-affected", oracle._with_extra(base, True)


@pytest.mark.parametrize(
    "scenario",
    [s for _, s in _preset_and_family_scenarios()],
    ids=[name for name, _ in _preset_and_family_scenarios()],
)
def test_type_matrix_is_the_enumerated_columns(scenario):
    system = build_constraint_system(scenario)
    rows = list(_enumerated_rows(system))
    expected = np.zeros((system.n_variables, system.n_rows), dtype=np.int64)
    for j, col in enumerate(rows):
        expected[j, col] = 1
    assert system.type_matrix.dtype == np.int64
    assert np.array_equal(system.type_matrix, expected)
    # The sparse columns, and dump-lp's rows of each type, in the same order.
    assert system.columns == tuple(tuple((r, 1) for r in col) for col in rows)
    assert system.to_document()["columns"] == [[[r, 1] for r in col] for col in rows]


def test_lp_payload_tells_apart_which_levels_are_z_dependent():
    # Same rows, type count and objective; only the matrix differs.
    def scenario(zdep_label, well_defining=False):
        levels = [ExposureLevel("x"), ExposureLevel("xp")] + [
            ExposureLevel(label, well_defining=well_defining, z_dependent=True)
            if label == zdep_label
            else ExposureLevel(label)
            for label in ("a", "b")
        ]
        estimand = Estimand("risk_difference", x="x", x_prime="xp")
        return Scenario(("z0", "z1"), tuple(levels), estimand)

    sys_a, sys_b = (build_constraint_system(scenario(label)) for label in "ab")
    assert sys_a.row_keys == sys_b.row_keys
    assert sys_a.n_variables == sys_b.n_variables
    assert sys_a.objective == sys_b.objective
    assert sys_a.lp_payload() != sys_b.lp_payload()
    # Ill-defining and instrument-affected versions of one level coincide.
    assert build_constraint_system(scenario("a", True)).lp_payload() == sys_a.lp_payload()

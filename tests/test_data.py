"""Data layer: records, coarsening maps, distributions, scenarios, loaders."""

import csv
import io
import math
from fractions import Fraction

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiv.data import (
    CoarseningMap,
    Estimand,
    ExposureLevel,
    InputError,
    IntervalEntry,
    ObservedDistribution,
    RawRecord,
    Scenario,
    coarsen,
    expand_records,
    load_coarsening,
    load_records,
    load_scenario,
    load_summary,
    tabulate,
    validate,
)


# -- records -----------------------------------------------------------------------


def test_load_records_parses_and_types():
    csv = "z,x_star,y\nz0,1.5,0\nz1,label,1\n"
    records = load_records(io.StringIO(csv))
    assert records == [RawRecord("z0", 1.5, 0), RawRecord("z1", "label", 1)]


def test_load_records_rejects_bad_outcome():
    with pytest.raises(InputError):
        load_records(io.StringIO("z,x_star,y\nz0,1,2\n"))


def test_load_records_rejects_unknown_instrument():
    with pytest.raises(InputError):
        load_records(io.StringIO("z,x_star,y\nz9,1,0\n"), instrument_levels=("z0",))


# -- coarsening ---------------------------------------------------------------------


def _interval_map():
    return CoarseningMap(
        kind="interval",
        intervals=(
            IntervalEntry("low", None, 2.0),
            IntervalEntry("mid", 2.0, 6.0),
            IntervalEntry("high", 6.0, None),
        ),
    )


def test_interval_map_boundaries_are_half_open():
    cmap = _interval_map()
    assert cmap.apply(1.99) == "low"
    assert cmap.apply(2.0) == "mid"  # lower-inclusive by default
    assert cmap.apply(5.999) == "mid"
    assert cmap.apply(6.0) == "high"


def test_interval_map_rejects_gap():
    with pytest.raises(InputError):
        CoarseningMap(
            kind="interval",
            intervals=(IntervalEntry("a", None, 1.0), IntervalEntry("b", 2.0, None)),
        )


def test_interval_map_rejects_double_claimed_boundary():
    with pytest.raises(InputError):
        CoarseningMap(
            kind="interval",
            intervals=(
                IntervalEntry("a", None, 1.0, upper_closed=True),
                IntervalEntry("b", 1.0, None, lower_closed=True),
            ),
        )


def test_label_map_applies_and_rejects_unknown():
    cmap = CoarseningMap(kind="label", labels=(("a", "x"), ("b", "x"), ("c", "y")))
    assert cmap.apply("a") == "x"
    assert cmap.coarse_labels() == ("x", "y")
    with pytest.raises(InputError):
        cmap.apply("missing")


def test_label_map_rejects_duplicate_fine_label():
    with pytest.raises(InputError):
        CoarseningMap(kind="label", labels=(("a", "x"), ("a", "y")))


def test_coarsen_preserves_order_and_outcomes():
    records = [RawRecord("z0", 1.0, 1), RawRecord("z1", 7.0, 0)]
    out = coarsen(records, _interval_map())
    assert out == [RawRecord("z0", "low", 1), RawRecord("z1", "high", 0)]


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_interval_partition_covers_every_value_once(value):
    cmap = _interval_map()
    hits = [e.label for e in cmap.intervals if e.contains(value)]
    assert len(hits) == 1
    assert cmap.apply(value) == hits[0]


# -- distributions ------------------------------------------------------------------


def test_tabulate_counts_and_exact_probs():
    records = [
        RawRecord("z0", "x", 1),
        RawRecord("z0", "x", 0),
        RawRecord("z0", "xp", 1),
        RawRecord("z1", "xp", 0),
    ]
    dist = tabulate(records)
    assert dist.instrument_levels == ("z0", "z1")
    assert dist.exposure_levels == ("x", "xp")
    assert dist.prob("z0", "x", 1) == Fraction(1, 3)
    assert dist.prob("z1", "xp", 0) == 1
    assert sum(dist.prob("z0", x, y) for x in ("x", "xp") for y in (0, 1)) == 1


def test_tabulate_respects_explicit_orders():
    records = [RawRecord("b", "v", 0), RawRecord("a", "u", 1)]
    dist = tabulate(records, instrument_levels=("a", "b"), exposure_levels=("u", "v"))
    assert dist.instrument_levels == ("a", "b")
    assert dist.exposure_levels == ("u", "v")


def test_tabulate_rejects_empty_stratum():
    with pytest.raises(InputError):
        tabulate([RawRecord("z0", "x", 0)], instrument_levels=("z0", "z1"))


def test_expand_records_round_trips_counts():
    records = [
        RawRecord("z0", "x", 1),
        RawRecord("z0", "x", 1),
        RawRecord("z0", "xp", 0),
        RawRecord("z1", "x", 0),
    ]
    dist = tabulate(records)
    again = tabulate(expand_records(dist), dist.instrument_levels, dist.exposure_levels)
    assert again.counts == dist.counts


def test_from_probs_requires_unit_mass_per_stratum():
    with pytest.raises(InputError):
        ObservedDistribution.from_probs(
            ("z0", "z1"), ("x",), {("z0", "x", 0): Fraction(1, 2)}
        )


def test_from_probs_rejects_a_negative_cell():
    # Each stratum sums to 1, so only the sign check can reject it.
    probs = {
        ("z0", "x", 0): Fraction(3, 2),
        ("z0", "x", 1): Fraction(-1, 2),
        ("z1", "x", 0): Fraction(1),
    }
    with pytest.raises(InputError, match="negative cell"):
        ObservedDistribution.from_probs(("z0", "z1"), ("x",), probs)


def test_from_probs_fills_absent_cells_with_zero():
    dist = ObservedDistribution.from_probs(
        ["z0", "z1"], ["x", "xp"], {("z0", "x", 1): 1, ("z1", "xp", 0): Fraction(1)}
    )
    assert dist.instrument_levels == ("z0", "z1") and dist.exposure_levels == ("x", "xp")
    assert dist.probs[("z0", "xp", 0)] == 0 and dist.prob("z0", "x", 1) == 1
    assert not dist.has_counts and dist.counts == {}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["z0", "z1"]),
            st.sampled_from(["x", "xp"]),
            st.integers(0, 1),
        ),
        min_size=4,
        max_size=40,
    ).filter(lambda rs: {z for z, _, _ in rs} == {"z0", "z1"})
)
def test_tabulate_expand_round_trip(cells):
    records = [RawRecord(z, x, y) for z, x, y in cells]
    dist = tabulate(records, ("z0", "z1"), ("x", "xp"))
    again = tabulate(expand_records(dist), ("z0", "z1"), ("x", "xp"))
    assert again.counts == dist.counts and again.probs == dist.probs


# -- scenarios ----------------------------------------------------------------------


def test_exposure_level_flag_combinations():
    assert ExposureLevel("x").clean
    assert not ExposureLevel("m", well_defining=False, z_dependent=True).clean
    assert not ExposureLevel("c", well_defining=True, z_dependent=True).clean
    with pytest.raises(InputError):
        ExposureLevel("bad", well_defining=False, z_dependent=False)


def test_estimand_validation():
    assert Estimand("counterfactual_risk", "x").referenced() == ("x",)
    assert Estimand("risk_difference", "x", "xp").referenced() == ("xp", "x")
    with pytest.raises(InputError):
        Estimand("counterfactual_risk", "x", x_prime="xp")
    with pytest.raises(InputError):
        Estimand("risk_difference", "x")
    with pytest.raises(InputError):
        Estimand("risk_difference", "x", "x")
    with pytest.raises(InputError):
        Estimand("mean_shift", "x")


def _scenario():
    return Scenario(
        instrument_levels=("z0", "z1"),
        levels=(ExposureLevel("x"), ExposureLevel("xp"), ExposureLevel("m")),
        estimand=Estimand("risk_difference", x="x", x_prime="xp"),
    )


def test_scenario_validation():
    with pytest.raises(InputError):
        Scenario(("z0",), (ExposureLevel("x"),))
    with pytest.raises(InputError):
        Scenario(("z0", "z0"), (ExposureLevel("x"),))
    with pytest.raises(InputError):
        Scenario(
            ("z0", "z1"),
            (ExposureLevel("m", well_defining=False, z_dependent=True),),
        )
    with pytest.raises(InputError):
        Scenario(
            ("z0", "z1"),
            (ExposureLevel("x"),),
            estimand=Estimand("counterfactual_risk", "other"),
        )


def test_estimand_must_reference_clean_levels():
    with pytest.raises(InputError):
        Scenario(
            ("z0", "z1"),
            (
                ExposureLevel("x"),
                ExposureLevel("m", well_defining=False, z_dependent=True),
            ),
            estimand=Estimand("counterfactual_risk", "m"),
        )


def test_demote_marks_level_z_dependent_and_keeps_estimand():
    scn = _scenario()
    weak = scn.demote("m")
    assert weak.zdep_labels() == ("m",)
    assert weak.clean_labels() == ("x", "xp")
    assert weak.estimand == scn.estimand
    with pytest.raises(InputError):
        scn.demote("x")  # referenced by the estimand


def test_validate_requires_matching_level_orders():
    scn = _scenario()
    records = [RawRecord(z, x, 0) for z in ("z0", "z1") for x in ("x", "xp", "m")]
    dist = tabulate(records, scn.instrument_levels, scn.level_labels())
    assert validate(scn, dist) == (scn, dist)
    swapped = tabulate(records, scn.instrument_levels, ("xp", "x", "m"))
    with pytest.raises(InputError):
        validate(scn, swapped)


# -- structured loaders ---------------------------------------------------------------


def test_load_summary_round_trip():
    doc = """
schema: coarseiv/summary/1
instrument_levels: [z0, z1]
exposure_levels: [x, xp]
counts:
  - {z: z0, x: x, y: 0, n: 3}
  - {z: z0, x: xp, y: 1, n: 1}
  - {z: z1, x: x, y: 1, n: 2}
"""
    dist = load_summary(io.StringIO(doc))
    assert dist.prob("z0", "x", 0) == Fraction(3, 4)
    assert dist.prob("z1", "x", 1) == 1
    assert dist.has_counts


def test_load_summary_rejects_wrong_schema_and_duplicates():
    with pytest.raises(InputError):
        load_summary(io.StringIO("schema: wrong/1\n"))
    doc = """
schema: coarseiv/summary/1
instrument_levels: [z0, z1]
exposure_levels: [x]
counts:
  - {z: z0, x: x, y: 0, n: 1}
  - {z: z0, x: x, y: 0, n: 2}
  - {z: z1, x: x, y: 0, n: 1}
"""
    with pytest.raises(InputError):
        load_summary(io.StringIO(doc))


def test_load_scenario_with_flags_and_estimand():
    doc = """
schema: coarseiv/scenario/1
instrument_levels: [z0, z1]
levels:
  - {label: x}
  - {label: m, well_defining: false, z_dependent: true}
estimand: {kind: counterfactual_risk, x: x}
"""
    scn = load_scenario(io.StringIO(doc))
    assert scn.level_labels() == ("x", "m")
    assert scn.zdep_labels() == ("m",)
    assert scn.estimand == Estimand("counterfactual_risk", "x")


_SUMMARY_HEAD = """
schema: coarseiv/summary/1
instrument_levels: [z0, z1]
exposure_levels: [x]
"""
_SCENARIO_HEAD = """
schema: coarseiv/scenario/1
instrument_levels: [z0, z1]
"""


_ROWS = "  - {z: z1, x: x, y: 0, n: 2}\n"


@pytest.mark.parametrize(
    "loader, doc",
    [
        (load_summary, _SUMMARY_HEAD + "counts:\n  - {z: z0, x: x, y: 1.7, n: 3}\n" + _ROWS),
        (load_summary, _SUMMARY_HEAD + "counts:\n  - {z: z0, x: x, y: 1, n: true}\n" + _ROWS),
        (load_summary, _SUMMARY_HEAD + "counts: null\n"),
        (load_scenario, _SCENARIO_HEAD + "levels:\n  - {label: x}\n  - {label: m, well_defining: 'false', z_dependent: true}\n"),
        (load_scenario, _SCENARIO_HEAD + "levels:\n  - {label: x}\n  - {label: m, z_dependent: 'false'}\n"),
        (load_scenario, _SCENARIO_HEAD + "levels: null\n"),
        (load_coarsening, "schema: coarseiv/coarsening/1\nkind: interval\nentries:\n  - {label: a, upper: 1, upper_closed: 'false'}\n  - {label: b, lower: 1, lower_closed: false}\n"),
        (load_coarsening, "schema: coarseiv/coarsening/1\nkind: interval\nentries:\n  - {label: a, upper: 1" + "0" * 400 + "}\n"),
        (load_scenario, _SCENARIO_HEAD + "levels:\n  - {label: x}\nestimand: []\n"),
        (load_scenario, _SCENARIO_HEAD + "levels:\n  - {label: x}\nestimand: true\n"),
        (load_records, "z,x_star,y\nz0,a\rb,1\n"),
        (load_summary, _SUMMARY_HEAD + "counts:\n  - {z: z0, x: x, y: 1, n: !!int x}\n"),
        (load_summary, _SUMMARY_HEAD + "counts:\n  - {z: z0, x: x, y: 1, n: !!int ''}\n"),
        (load_scenario, _SCENARIO_HEAD + "levels:\n  - {label: x, well_defining: !!bool x}\n"),
        (load_scenario, _SCENARIO_HEAD + "levels:\n  - {label: !!timestamp x}\n"),
    ],
    ids=[
        "float-y",
        "bool-n",
        "null-counts",
        "string-well-defining",
        "string-z-dependent",
        "null-levels",
        "string-upper-closed",
        "huge-interval-bound",
        "list-estimand",
        "boolean-estimand",
        "carriage-return-in-unquoted-field",
        "malformed-int-tag",
        "empty-int-tag",
        "malformed-bool-tag",
        "malformed-timestamp-tag",
    ],
)
def test_loaders_reject_mistyped_scalars(loader, doc):
    with pytest.raises(InputError):
        loader(io.StringIO(doc))


_INTERVALS = (
    "schema: coarseiv/coarsening/1\nkind: interval\nentries:\n"
    "  - {label: a, upper: 1}\n  - {label: b, lower: 1}\n"
)


@pytest.mark.parametrize(
    "load",
    [
        lambda: load_coarsening(io.StringIO(_INTERVALS)).apply(float("nan")),
        lambda: load_summary(io.StringIO(
            "schema: coarseiv/summary/1\ninstrument_levels: [a, a]\n"
            "exposure_levels: [x]\ncounts:\n  - {z: a, x: x, y: 0, n: 2}\n"
        )),
        lambda: load_coarsening(io.StringIO(_INTERVALS.replace("upper: 1}", "upper: true}"))),
        lambda: load_coarsening(io.StringIO(
            "schema: coarseiv/coarsening/1\nkind: label\nentries: null\n"
        )),
    ],
    ids=["nan-exposure", "repeated-instrument-level", "boolean-interval-bound", "null-entries"],
)
def test_loaders_reject_silent_coercions(load):
    with pytest.raises(InputError):
        load()


def test_load_coarsening_label_kind():
    doc = """
schema: coarseiv/coarsening/1
kind: label
entries:
  - {from: a, to: x}
  - {from: b, to: x}
"""
    cmap = load_coarsening(io.StringIO(doc))
    assert cmap.apply("b") == "x"


def test_load_coarsening_interval_kind():
    doc = """
schema: coarseiv/coarsening/1
kind: interval
entries:
  - {label: low, upper: 2.0}
  - {label: high, lower: 2.0}
"""
    cmap = load_coarsening(io.StringIO(doc))
    assert cmap.apply(1.0) == "low"
    assert cmap.apply(2.0) == "high"


# -- fuzzing: every document loads or raises InputError ------------------------------

_SCALARS = (
    st.sampled_from([None, True, False, 0, 1, -1, 2**63, 10**400, -(10**400), math.nan, -math.inf])
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_VALUES = _SCALARS | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | _SCALARS, inner, max_size=3),
    max_leaves=8,
)

_VALID_DOCS = {
    "summary": [
        {
            "schema": "coarseiv/summary/1",
            "instrument_levels": ["z0", "z1"],
            "exposure_levels": ["x", "m"],
            "counts": [{"z": "z0", "x": "x", "y": 1, "n": 3}, {"z": "z1", "x": "m", "y": 0, "n": 2}],
        }
    ],
    "scenario": [
        {
            "schema": "coarseiv/scenario/1",
            "instrument_levels": ["z0", "z1"],
            "levels": [{"label": "x"}, {"label": "m", "well_defining": False, "z_dependent": True}],
            "estimand": {"kind": "counterfactual_risk", "x": "x"},
        },
        {
            "schema": "coarseiv/scenario/1",
            "instrument_levels": ["z0", "z1"],
            "levels": [{"label": "x"}, {"label": "xp", "z_dependent": False}],
            "estimand": {"kind": "risk_difference", "x": "x", "x_prime": "xp"},
        },
    ],
    "coarsening": [
        {
            "schema": "coarseiv/coarsening/1",
            "kind": "interval",
            "entries": [
                {"label": "a", "upper": 1.0},
                {"label": "b", "lower": 1.0, "upper": 2, "upper_closed": True},
                {"label": "c", "lower": 2, "lower_closed": False},
            ],
        },
        {
            "schema": "coarseiv/coarsening/1",
            "kind": "label",
            "entries": [{"from": "a", "to": "x"}, {"from": 2, "to": "x"}],
        },
    ],
}


_DELETE = object()


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    if len(path) == 1 and value is _DELETE:
        del out[path[0]]
    else:
        out[path[0]] = _replace(node[path[0]], path[1:], value)
    return out


@st.composite
def _documents(draw, kind):
    """A valid document with up to three sub-values (or the whole document)
    replaced by random values or removed."""
    doc = draw(st.sampled_from(_VALID_DOCS[kind]))
    for _ in range(draw(st.integers(0, 3))):
        # Deepest paths first: Hypothesis favours the first choices, and
        # single-field edits reach the loaders' per-row checks.
        path = draw(st.sampled_from(sorted(_paths(doc), key=len, reverse=True)))
        value = _DELETE if path and draw(st.integers(0, 4)) == 0 else draw(_VALUES)
        doc = _replace(doc, path, value)
    return doc


@pytest.mark.parametrize(
    "kind, loader",
    [("summary", load_summary), ("scenario", load_scenario), ("coarsening", load_coarsening)],
)
def test_yaml_loaders_load_or_raise_input_error(kind, loader):
    @settings(max_examples=1000, deadline=None)
    @given(doc=_documents(kind))
    def check(doc):
        try:
            loader(io.StringIO(yaml.safe_dump(doc, allow_unicode=True)))
        except InputError:
            pass

    check()


def _parsed(text, loader):
    # repr compares NaN equal to NaN and tells 1, 1.0 and True apart.
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return yaml.YAMLError


@pytest.mark.parametrize("kind", ["summary", "scenario", "coarsening"])
def test_libyaml_parses_dumped_documents_like_pure_python(kind):
    @settings(max_examples=1000, deadline=None)
    @given(doc=_documents(kind))
    def check(doc):
        text = yaml.safe_dump(doc, allow_unicode=True)
        assert _parsed(text, yaml.CSafeLoader) == _parsed(text, yaml.SafeLoader)

    check()


# YAML syntax, explicit tags and anchors; raw text may parse differently under
# libyaml and pure-Python PyYAML, so only load-or-InputError is asserted.
_FRAGMENTS = st.sampled_from(
    [": ", "- ", "[", "]", "{", "}", ", ", "? ", "|", ">", "#", "'", '"', "\\", "\n", "\t",
     "  ", "&a ", "*a", "!", "!!int ", "!!float ", "!!bool ", "!!timestamp ", "!!null ",
     "!!binary ", "!!str ", "!!set ", "!!omap ", "!!python/tuple ", "%YAML 1.1\n", "---\n",
     "...\n", "\x00", "\x85", "\ufeff", "z0", "x", "y", "n", "1", "-1", "1.5", "nan", ".inf",
     "true", "~", "2001-02-03"]
) | st.text(max_size=3)


@pytest.mark.parametrize(
    "kind, loader",
    [("summary", load_summary), ("scenario", load_scenario), ("coarsening", load_coarsening)],
)
def test_yaml_loaders_load_or_raise_input_error_on_raw_text(kind, loader):
    @settings(max_examples=1000, deadline=None)
    @given(
        doc=st.sampled_from(_VALID_DOCS[kind]),
        cut=st.integers(0, 30),
        tail=st.lists(_FRAGMENTS, max_size=12).map("".join),
    )
    def check(doc, cut, tail):
        head = yaml.safe_dump(doc, allow_unicode=True).splitlines(keepends=True)[:cut]
        try:
            loader(io.StringIO("".join(head) + tail))
        except InputError:
            pass

    check()


_CELLS = st.sampled_from(["z", "x_star", "y", "0", "1", "nan", "-inf", "1e999", "", "a\rb"]) | st.text(
    max_size=5
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(_CELLS, max_size=4), max_size=5),
    levels=st.none() | st.lists(st.text(max_size=3), max_size=3),
    quoted=st.booleans(),
)
def test_load_records_loads_or_raises_input_error(rows, levels, quoted):
    if quoted:
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(",".join(row) for row in rows)
    try:
        load_records(io.StringIO(text), levels)
    except InputError:
        pass


@pytest.mark.parametrize(
    "load", [load_records, load_summary, load_scenario, load_coarsening]
)
def test_unreadable_files_raise_input_error(tmp_path, load):
    with pytest.raises(InputError, match="cannot read"):
        load(str(tmp_path / "missing.yaml"))
    path = tmp_path / "latin1.yaml"
    path.write_bytes("schema: caf\xe9\n".encode("latin-1"))
    with pytest.raises(InputError, match="not UTF-8"):
        load(str(path))

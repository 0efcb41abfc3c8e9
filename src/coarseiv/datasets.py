"""Embedded example datasets, scenario presets, and reported reference values.

Two published examples ship with the package so analyses can be reproduced
without external downloads:

* ``peanut`` — a randomized infant feeding trial (avoidance vs consumption
  arm), outcome = peanut allergy at age five, exposure = coarsened average
  weekly peanut consumption.  617 participants have an observed exposure
  level; the full randomized cohort is 640 (319 avoidance, 321 consumption).
  For the single-level counterfactual-risk analysis the participants without
  an evaluable exposure are pooled into the non-avoidance level with a
  negative outcome, which reproduces the published risk bounds.
* ``homocysteine`` — a Mendelian-randomization study of homocysteine level
  (five published categories, coarsened here to three or four analysis
  levels) on cardiovascular disease, instrumented by a three-level genotype.

All data are stored as summary counts exactly as published; unit records are
reconstructed from the counts where an analysis needs them (every analysis
here depends on the data only through the counts).
"""

from __future__ import annotations

from fractions import Fraction

from .data import (
    Estimand,
    ExposureLevel,
    ObservedDistribution,
    RawRecord,
    Scenario,
    expand_records,
)

__all__ = [
    "EXAMPLES",
    "REPRODUCE_SEED",
    "homocysteine_distribution",
    "homocysteine_scenario",
    "peanut_distribution",
    "peanut_records",
    "peanut_risk_distribution",
    "peanut_risk_records",
    "peanut_scenario",
    "scenario_preset",
]

REPRODUCE_SEED = 2024  # fixed seed embedded in the reproduce subcommand

# -- peanut allergy trial -----------------------------------------------------

PEANUT_INSTRUMENTS = ("avoid", "consume")
PEANUT_LEVELS = ("<0.2g", "0.2-6g", ">=6g")
PEANUT_RISK_LEVELS = ("<0.2g", ">=0.2g")

# (arm, exposure level) -> (tolerant count, allergic count); 617 evaluable.
_PEANUT_TABLE = {
    ("avoid", "<0.2g"): (255, 48),
    ("avoid", "0.2-6g"): (2, 0),
    ("avoid", ">=6g"): (0, 0),
    ("consume", "<0.2g"): (6, 6),
    ("consume", "0.2-6g"): (84, 3),
    ("consume", ">=6g"): (213, 0),
}

# Full randomized cohort sizes; the difference to the table totals is pooled
# into (>=0.2g, y=0) for the single-level risk analysis.
_PEANUT_RANDOMIZED = {"avoid": 319, "consume": 321}


def peanut_distribution() -> ObservedDistribution:
    """617 evaluable participants, three exposure levels."""
    counts = {}
    n_per_z = {z: 0 for z in PEANUT_INSTRUMENTS}
    for (z, x), (y0, y1) in _PEANUT_TABLE.items():
        counts[(z, x, 0)] = y0
        counts[(z, x, 1)] = y1
        n_per_z[z] += y0 + y1
    return ObservedDistribution(
        instrument_levels=PEANUT_INSTRUMENTS,
        exposure_levels=PEANUT_LEVELS,
        counts=counts,
        n_per_z=n_per_z,
    )


def peanut_records() -> list[RawRecord]:
    return expand_records(peanut_distribution())


def peanut_risk_distribution() -> ObservedDistribution:
    """Full cohort of 640 with everything but avoidance-level exposure pooled."""
    counts = {(z, x, y): 0 for z in PEANUT_INSTRUMENTS for x in PEANUT_RISK_LEVELS for y in (0, 1)}
    observed = {z: 0 for z in PEANUT_INSTRUMENTS}
    for (z, x), (y0, y1) in _PEANUT_TABLE.items():
        pooled = "<0.2g" if x == "<0.2g" else ">=0.2g"
        counts[(z, pooled, 0)] += y0
        counts[(z, pooled, 1)] += y1
        observed[z] += y0 + y1
    for z, n_total in _PEANUT_RANDOMIZED.items():
        counts[(z, ">=0.2g", 0)] += n_total - observed[z]
    return ObservedDistribution(
        instrument_levels=PEANUT_INSTRUMENTS,
        exposure_levels=PEANUT_RISK_LEVELS,
        counts=counts,
        n_per_z=dict(_PEANUT_RANDOMIZED),
    )


def peanut_risk_records() -> list[RawRecord]:
    return expand_records(peanut_risk_distribution())


PEANUT_ESTIMAND = Estimand(kind="risk_difference", x=">=6g", x_prime="<0.2g")
PEANUT_RISK_ESTIMAND = Estimand(kind="counterfactual_risk", x="<0.2g")


def peanut_scenario(variant: str = "clean") -> Scenario:
    """Three-level scenarios: middle level clean / ill-defining / contaminated."""
    if variant == "clean":
        mid = ExposureLevel("0.2-6g")
    elif variant == "ill-defining":
        mid = ExposureLevel("0.2-6g", well_defining=False, z_dependent=True)
    elif variant == "contaminated":
        mid = ExposureLevel("0.2-6g", well_defining=True, z_dependent=True)
    else:
        raise ValueError(f"unknown peanut scenario variant {variant!r}")
    return Scenario(
        instrument_levels=PEANUT_INSTRUMENTS,
        levels=(ExposureLevel("<0.2g"), mid, ExposureLevel(">=6g")),
        estimand=PEANUT_ESTIMAND,
    )


def peanut_risk_scenario() -> Scenario:
    return Scenario(
        instrument_levels=PEANUT_INSTRUMENTS,
        levels=(
            ExposureLevel("<0.2g"),
            ExposureLevel(">=0.2g", well_defining=False, z_dependent=True),
        ),
        estimand=PEANUT_RISK_ESTIMAND,
    )


# -- homocysteine / cardiovascular disease -------------------------------------

HOMOCYSTEINE_INSTRUMENTS = ("CC", "CT", "TT")
HOMOCYSTEINE_RAW_LEVELS = ("<9", "9-14.99", "15-20", "20-30", ">30")

# level -> (per-genotype counts without CVD, with CVD), order CC, CT, TT.
_HOMOCYSTEINE_TABLE = {
    "<9": ((164, 133, 16), (92, 87, 17)),
    "9-14.99": ((177, 164, 47), (180, 182, 39)),
    "15-20": ((11, 15, 9), (29, 23, 12)),
    "20-30": ((0, 2, 7), (12, 11, 14)),
    ">30": ((0, 0, 2), (0, 4, 9)),
}

HOMOCYSTEINE_COARSEN_3 = {
    "<9": "<9",
    "9-14.99": "9-20",
    "15-20": "9-20",
    "20-30": ">=20",
    ">30": ">=20",
}
HOMOCYSTEINE_COARSEN_4 = {
    "<9": "<9",
    "9-14.99": "9-14.99",
    "15-20": "15-20",
    "20-30": ">=20",
    ">30": ">=20",
}
HOMOCYSTEINE_LEVELS_3 = ("<9", "9-20", ">=20")
HOMOCYSTEINE_LEVELS_4 = ("<9", "9-14.99", "15-20", ">=20")

HOMOCYSTEINE_ESTIMAND = Estimand(kind="risk_difference", x="<9", x_prime=">=20")


def homocysteine_distribution(n_levels: int = 3) -> ObservedDistribution:
    """Summary counts coarsened to 3, 4, or the 5 published levels."""
    if n_levels == 3:
        relabel, levels = HOMOCYSTEINE_COARSEN_3, HOMOCYSTEINE_LEVELS_3
    elif n_levels == 4:
        relabel, levels = HOMOCYSTEINE_COARSEN_4, HOMOCYSTEINE_LEVELS_4
    elif n_levels == 5:
        relabel, levels = {l: l for l in HOMOCYSTEINE_RAW_LEVELS}, HOMOCYSTEINE_RAW_LEVELS
    else:
        raise ValueError(f"unsupported homocysteine coarsening {n_levels!r}")
    counts = {(z, x, y): 0 for z in HOMOCYSTEINE_INSTRUMENTS for x in levels for y in (0, 1)}
    n_per_z = {z: 0 for z in HOMOCYSTEINE_INSTRUMENTS}
    for raw, (no_cvd, cvd) in _HOMOCYSTEINE_TABLE.items():
        x = relabel[raw]
        for zi, z in enumerate(HOMOCYSTEINE_INSTRUMENTS):
            counts[(z, x, 0)] += no_cvd[zi]
            counts[(z, x, 1)] += cvd[zi]
            n_per_z[z] += no_cvd[zi] + cvd[zi]
    return ObservedDistribution(
        instrument_levels=HOMOCYSTEINE_INSTRUMENTS,
        exposure_levels=levels,
        counts=counts,
        n_per_z=n_per_z,
    )


def homocysteine_scenario(n_levels: int = 3, variant: str = "clean") -> Scenario:
    """All-clean scenario (default) or variants demoting the middle level(s)."""
    levels = HOMOCYSTEINE_LEVELS_3 if n_levels == 3 else HOMOCYSTEINE_LEVELS_4
    if n_levels not in (3, 4):
        raise ValueError(f"unsupported homocysteine scenario {n_levels!r}")
    contrast = {"<9", ">=20"}

    def make(label: str) -> ExposureLevel:
        if label in contrast or variant == "clean":
            return ExposureLevel(label)
        if variant == "ill-defining":
            return ExposureLevel(label, well_defining=False, z_dependent=True)
        if variant == "contaminated":
            return ExposureLevel(label, well_defining=True, z_dependent=True)
        raise ValueError(f"unknown homocysteine scenario variant {variant!r}")

    return Scenario(
        instrument_levels=HOMOCYSTEINE_INSTRUMENTS,
        levels=tuple(make(l) for l in levels),
        estimand=HOMOCYSTEINE_ESTIMAND,
    )


# -- presets and reported values ------------------------------------------------

_PRESETS = {
    "peanut-ternary": lambda: (peanut_distribution(), peanut_scenario("clean")),
    "peanut-ill-defining": lambda: (peanut_distribution(), peanut_scenario("ill-defining")),
    "peanut-contaminated": lambda: (peanut_distribution(), peanut_scenario("contaminated")),
    "peanut-risk": lambda: (peanut_risk_distribution(), peanut_risk_scenario()),
    "homocysteine-3": lambda: (homocysteine_distribution(3), homocysteine_scenario(3)),
    "homocysteine-4": lambda: (homocysteine_distribution(4), homocysteine_scenario(4)),
}


def scenario_preset(name: str) -> tuple[ObservedDistribution, Scenario]:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None
    return factory()


PRESET_NAMES = tuple(sorted(_PRESETS))

# Published values the reproduce subcommand reports alongside recomputations.
REPORTED = {
    "peanut": {
        "bounds": (Fraction(-16, 100), Fraction(16, 100)),
        "percentile_ci": (Fraction(-20, 100), Fraction(21, 100)),
        "risk_bounds": (Fraction(15, 100), Fraction(20, 100)),
        "risk_mn_ci": (Fraction(5, 100), Fraction(29, 100)),
    },
    "homocysteine": {
        "bounds_3": (Fraction(-62, 100), Fraction(81, 100)),
        "bounds_4": (Fraction(-62, 100), Fraction(81, 100)),
        "multinomial_ci": (Fraction(-67, 100), Fraction(83, 100)),
    },
}

EXAMPLES = ("peanut", "homocysteine")

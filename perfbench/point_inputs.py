"""Seeded scenario and summary documents for the `point` workload.

Each case is one `bounds --slack` call on a generated scenario YAML document
and a generated summary YAML document.  A scenario's shape is its number of
instrument levels (2-3), of exposure levels (2-4) and of clean levels, and its
estimand kind.  Every shape within the CLI's default caps
(K_x^K_z * 2^#clean * 2^(K_z * #zdep) <= 4096 response types, <= 30 rows)
appears `COPIES` times, so no call exits 4 because of its input and the work
in a pass barely depends on the seed.  The seed draws everything else: the
order of the cases, which levels are clean, whether a z-dependent level is
ill-defining or contaminated, the estimand's levels and the tables.

Compatible tables are tabulated from a finite population of units whose
response types are drawn at random, one potential exposure and outcome per
instrument level.  The table is then exactly the push-forward of that
population, so the scenario can generate it and the population's estimand
value is a ground truth the LP interval must contain.

One copy of each shape (a share of 1/COPIES of the tables) is made
incompatible on purpose, so that the slack projection is measured: for a
clean level c, p(c, 1 | z0) >= 0.6 and p(c, 0 | z1) >= 0.6.  Any model in
which c's outcome does not depend on the instrument has
p(c, 1 | z0) + p(c, 0 | z1) <= 1, so every such table violates the scenario
and needs the slack projection.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path

import yaml

MAX_TYPES = 4096  # default --max-variables of `bounds`
MAX_ROWS = 30  # default --max-rows of `bounds`
COPIES = 5  # cases per shape, one of them incompatible
# The C emitter writes the same block-style YAML as the pure-Python one, faster.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass(frozen=True)
class PointCase:
    scenario_path: str
    summary_path: str
    incompatible: bool
    true_value: Fraction | None  # estimand of the generating population


def _shapes() -> list[tuple[int, int, int, str]]:
    """(instrument levels, exposure levels, clean levels, estimand kind) within the caps."""
    shapes = []
    for k_z in (2, 3):
        for k_x in (2, 3, 4):
            for n_clean in range(1, k_x + 1):
                types = k_x**k_z * 2**n_clean * 2 ** (k_z * (k_x - n_clean))
                if types > MAX_TYPES or 2 * k_z * k_x + 1 > MAX_ROWS:
                    continue
                shapes.append((k_z, k_x, n_clean, "counterfactual_risk"))
                if n_clean >= 2:
                    shapes.append((k_z, k_x, n_clean, "risk_difference"))
    return shapes


SHAPES = _shapes()
N_CASES = COPIES * len(SHAPES)


def _scenario(rng: random.Random, shape: tuple[int, int, int, str]) -> dict:
    k_z, k_x, n_clean, kind = shape
    kinds = ["clean"] * n_clean + [
        rng.choice(("ill-defining", "contaminated")) for _ in range(k_x - n_clean)
    ]
    rng.shuffle(kinds)
    labels = [f"x{i}" for i in range(k_x)]
    clean = [x for x, k in zip(labels, kinds) if k == "clean"]
    picked = rng.sample(clean, 2 if kind == "risk_difference" else 1)
    estimand = {"kind": kind, "x": picked[0]}
    if kind == "risk_difference":
        estimand["x_prime"] = picked[1]
    return {
        "schema": "coarseiv/scenario/1",
        "instrument_levels": [f"z{i}" for i in range(k_z)],
        "levels": [
            {
                "label": x,
                "well_defining": k != "ill-defining",
                "z_dependent": k != "clean",
            }
            for x, k in zip(labels, kinds)
        ],
        "estimand": estimand,
    }


def _population_table(rng: random.Random, scenario: dict) -> tuple[Counter, Fraction]:
    """Tabulate a random population; return its counts and its estimand value."""
    zs = scenario["instrument_levels"]
    levels = scenario["levels"]
    labels = [lv["label"] for lv in levels]
    clean = [lv["label"] for lv in levels if not lv["z_dependent"]]
    n_units = rng.randint(40, 200)
    favoured = {z: rng.choice(labels) for z in zs}
    rate = {x: rng.random() for x in labels}
    counts: Counter = Counter()
    positives: Counter = Counter()
    for _ in range(n_units):
        bits = {x: int(rng.random() < rate[x]) for x in clean}
        positives.update(x for x, b in bits.items() if b)
        for z in zs:
            x = favoured[z] if rng.random() < 0.6 else rng.choice(labels)
            # A z-dependent level draws its outcome afresh for each instrument level.
            y = bits[x] if x in bits else int(rng.random() < rate[x])
            counts[(z, x, y)] += 1
    est = scenario["estimand"]
    value = Fraction(positives[est["x"]], n_units)
    if est["kind"] == "risk_difference":
        value = Fraction(positives[est["x_prime"]], n_units) - value
    return counts, value


def _incompatible_table(rng: random.Random, scenario: dict) -> Counter:
    zs = scenario["instrument_levels"]
    labels = [lv["label"] for lv in scenario["levels"]]
    c = rng.choice([lv["label"] for lv in scenario["levels"] if not lv["z_dependent"]])
    n = rng.randint(40, 200)
    counts: Counter = Counter()
    for i, z in enumerate(zs):
        forced = 0
        if i < 2:
            forced = rng.randint(ceil(Fraction(3, 5) * n), n)
            counts[(z, c, 1 - i)] += forced
        for _ in range(n - forced):
            counts[(z, rng.choice(labels), rng.randint(0, 1))] += 1
    return counts


def _summary(scenario: dict, counts: Counter) -> dict:
    zs = scenario["instrument_levels"]
    labels = [lv["label"] for lv in scenario["levels"]]
    return {
        "schema": "coarseiv/summary/1",
        "instrument_levels": zs,
        "exposure_levels": labels,
        "counts": [
            {"z": z, "x": x, "y": y, "n": counts[(z, x, y)]}
            for z in zs
            for x in labels
            for y in (0, 1)
        ],
    }


def _dump(doc: dict) -> str:
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)


def generate(seed: int, workdir: str) -> list[PointCase]:
    """Write N_CASES scenario/summary document pairs into workdir."""
    rng = random.Random(seed)
    plan = [(shape, copy == 0) for shape in SHAPES for copy in range(COPIES)]
    rng.shuffle(plan)
    cases = []
    for i, (shape, incompatible) in enumerate(plan):
        scenario = _scenario(rng, shape)
        if incompatible:
            counts, value = _incompatible_table(rng, scenario), None
        else:
            counts, value = _population_table(rng, scenario)
        scenario_path = Path(workdir, f"{i:03d}-scenario.yaml")
        summary_path = Path(workdir, f"{i:03d}-summary.yaml")
        scenario_path.write_text(_dump(scenario))
        summary_path.write_text(_dump(_summary(scenario, counts)))
        cases.append(PointCase(str(scenario_path), str(summary_path), incompatible, value))
    return cases

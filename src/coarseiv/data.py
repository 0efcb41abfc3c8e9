"""Data model: records, coarsening maps, observed distributions, scenarios.

Counts are exact integers and cell probabilities exact rationals; floats only
ever appear at presentation time and inside bootstrap resampling draws.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import yaml

__all__ = [
    "CoarseningMap",
    "Estimand",
    "ExposureLevel",
    "InputError",
    "IntervalEntry",
    "ObservedDistribution",
    "RawRecord",
    "Scenario",
    "coarsen",
    "content_hash",
    "expand_records",
    "load_coarsening",
    "load_records",
    "load_scenario",
    "load_summary",
    "tabulate",
    "validate",
]

SUMMARY_SCHEMA = "coarseiv/summary/1"
SCENARIO_SCHEMA = "coarseiv/scenario/1"
COARSENING_SCHEMA = "coarseiv/coarsening/1"


class InputError(ValueError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- records and coarsening ----------------------------------------------------


@dataclass(frozen=True)
class RawRecord:
    z: str
    x_star: float | str
    y: int


def load_records(source: str | io.TextIOBase, instrument_levels: Sequence[str] | None = None) -> list[RawRecord]:
    """Parse delimited text with header columns z, x_star, y (UTF-8).

    `source` is a path or an open text stream. If `instrument_levels` is
    given, every z must belong to it.
    """
    if isinstance(source, str):
        return load_records(_read_text(source), instrument_levels)
    try:
        rows = list(csv.reader(source))
    except csv.Error as exc:
        raise InputError(f"malformed record file: {exc}") from exc
    if not rows:
        raise InputError("empty record file: header required")
    header = rows[0]
    cols = [h.strip().lower() for h in header]
    for required in ("z", "x_star", "y"):
        if required not in cols:
            raise InputError(f"header must declare column {required!r}; got {header}")
    iz, ix, iy = cols.index("z"), cols.index("x_star"), cols.index("y")
    allowed = set(instrument_levels) if instrument_levels is not None else None
    records: list[RawRecord] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(iz, ix, iy):
            raise InputError(f"row {lineno}: expected {len(cols)} fields, got {len(row)}")
        z = row[iz].strip()
        xs = row[ix].strip()
        ys = row[iy].strip()
        if not z or not xs or not ys:
            raise InputError(f"row {lineno}: missing value (z={z!r}, x_star={xs!r}, y={ys!r})")
        if allowed is not None and z not in allowed:
            raise InputError(f"row {lineno}: unknown instrument label {z!r}")
        if ys not in ("0", "1"):
            raise InputError(f"row {lineno}: y must be 0 or 1, got {ys!r}")
        try:
            x_star: float | str = float(xs)
        except ValueError:
            x_star = xs
        records.append(RawRecord(z=z, x_star=x_star, y=int(ys)))
    return records


@dataclass(frozen=True)
class IntervalEntry:
    label: str
    lower: float | None  # None = unbounded below
    upper: float | None  # None = unbounded above
    lower_closed: bool = True
    upper_closed: bool = False

    def contains(self, value: float) -> bool:
        if self.lower is not None:
            if value < self.lower or (value == self.lower and not self.lower_closed):
                return False
        if self.upper is not None:
            if value > self.upper or (value == self.upper and not self.upper_closed):
                return False
        return True


@dataclass(frozen=True)
class CoarseningMap:
    """Partition of the fine exposure space into coarse labels.

    kind "interval": ordered IntervalEntry list partitioning the real line
    segment; default boundaries are lower-inclusive, upper-exclusive,
    overridable per entry.  kind "label": explicit fine-label -> coarse-label
    pairs.
    """

    kind: str
    intervals: tuple[IntervalEntry, ...] = ()
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind == "interval":
            self._check_partition()
        elif self.kind == "label":
            seen = set()
            for fine, _ in self.labels:
                if fine in seen:
                    raise InputError(f"duplicate fine label {fine!r} in coarsening map")
                seen.add(fine)
        else:
            raise InputError(f"unknown coarsening kind {self.kind!r}")

    def _check_partition(self) -> None:
        ivs = self.intervals
        if not ivs:
            raise InputError("interval coarsening map needs at least one entry")
        if len({e.label for e in ivs}) != len(ivs):
            raise InputError("coarse labels must be distinct")
        for a, b in zip(ivs, ivs[1:]):
            if a.upper is None or b.lower is None or a.upper != b.lower:
                raise InputError(
                    f"intervals {a.label!r} and {b.label!r} do not share a boundary"
                )
            if a.upper_closed == b.lower_closed:
                raise InputError(
                    f"boundary {a.upper} belongs to both or neither of "
                    f"{a.label!r} and {b.label!r}"
                )

    def coarse_labels(self) -> tuple[str, ...]:
        if self.kind == "interval":
            return tuple(e.label for e in self.intervals)
        out: list[str] = []
        for _, coarse in self.labels:
            if coarse not in out:
                out.append(coarse)
        return tuple(out)

    def apply(self, x_star: float | str) -> str:
        if self.kind == "interval":
            if isinstance(x_star, str):
                raise InputError(
                    f"interval coarsening cannot place non-numeric exposure {x_star!r}"
                )
            if math.isnan(x_star):
                raise InputError("interval coarsening cannot place exposure value nan")
            for entry in self.intervals:
                if entry.contains(x_star):
                    return entry.label
            raise InputError(f"exposure value {x_star!r} not covered by any interval")
        for fine, coarse in self.labels:
            if fine == str(x_star):
                return coarse
        raise InputError(f"exposure label {x_star!r} not covered by coarsening map")


def coarsen(records: Iterable[RawRecord], cmap: CoarseningMap) -> list[RawRecord]:
    """Replace each record's fine exposure by its coarse label, order preserved."""
    return [RawRecord(z=r.z, x_star=cmap.apply(r.x_star), y=r.y) for r in records]


# -- observed distributions ----------------------------------------------------


@dataclass(frozen=True)
class ObservedDistribution:
    """Within-instrument-stratum cell counts and exact cell probabilities."""

    instrument_levels: tuple[str, ...]
    exposure_levels: tuple[str, ...]
    counts: dict[tuple[str, str, int], int] = field(compare=False)
    n_per_z: dict[str, int] = field(compare=False)
    probs: dict[tuple[str, str, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        probs = self.probs
        if not probs:
            for z in self.instrument_levels:
                n = self.n_per_z.get(z, 0)
                if n <= 0:
                    raise InputError(f"instrument stratum {z!r} is empty")
                for x in self.exposure_levels:
                    for y in (0, 1):
                        probs[(z, x, y)] = Fraction(self.counts.get((z, x, y), 0), n)
        for z in self.instrument_levels:
            total = sum(probs[(z, x, y)] for x in self.exposure_levels for y in (0, 1))
            if total != 1:
                raise InputError(f"probabilities in stratum {z!r} sum to {total}, not 1")

    @classmethod
    def from_probs(
        cls,
        instrument_levels: Sequence[str],
        exposure_levels: Sequence[str],
        probs: dict[tuple[str, str, int], Fraction],
    ) -> "ObservedDistribution":
        """Distribution without counts (oracle push-forwards)."""
        full = {
            (z, x, y): Fraction(probs.get((z, x, y), 0))
            for z in instrument_levels
            for x in exposure_levels
            for y in (0, 1)
        }
        if any(v < 0 for v in full.values()):
            raise InputError("negative cell probability")
        return cls(tuple(instrument_levels), tuple(exposure_levels), {}, {}, full)

    @property
    def has_counts(self) -> bool:
        return bool(self.n_per_z)

    def prob(self, z: str, x: str, y: int) -> Fraction:
        return self.probs[(z, x, y)]


def tabulate(
    records: Sequence[RawRecord],
    instrument_levels: Sequence[str] | None = None,
    exposure_levels: Sequence[str] | None = None,
) -> ObservedDistribution:
    """Tally coarsened records into an ObservedDistribution.

    Level orders default to first appearance; pass explicit orders to align
    with a Scenario.
    """
    if not records:
        raise InputError("no records to tabulate")
    zs = list(instrument_levels) if instrument_levels else []
    xs = list(exposure_levels) if exposure_levels else []
    counts: dict[tuple[str, str, int], int] = {}
    n_per_z: dict[str, int] = {}
    for r in records:
        x = str(r.x_star)
        if instrument_levels is None and r.z not in zs:
            zs.append(r.z)
        if exposure_levels is None and x not in xs:
            xs.append(x)
        if r.z not in n_per_z:
            n_per_z[r.z] = 0
        key = (r.z, x, r.y)
        counts[key] = counts.get(key, 0) + 1
        n_per_z[r.z] += 1
    if instrument_levels is not None:
        missing = [z for z in zs if z not in n_per_z]
        if missing:
            raise InputError(f"instrument strata with no records: {missing}")
        unknown = [z for z in n_per_z if z not in zs]
        if unknown:
            raise InputError(f"records carry undeclared instrument labels: {unknown}")
    if exposure_levels is not None:
        unknown = sorted({x for (_, x, _) in counts if x not in xs})
        if unknown:
            raise InputError(f"records carry undeclared exposure labels: {unknown}")
    return ObservedDistribution(
        instrument_levels=tuple(zs),
        exposure_levels=tuple(xs),
        counts=counts,
        n_per_z=n_per_z,
    )


def expand_records(dist: ObservedDistribution) -> list[RawRecord]:
    """Inverse of tabulate up to record order (summary round trips)."""
    if not dist.has_counts:
        raise InputError("distribution has no counts to expand")
    out: list[RawRecord] = []
    for z in dist.instrument_levels:
        for x in dist.exposure_levels:
            for y in (0, 1):
                out.extend([RawRecord(z, x, y)] * dist.counts.get((z, x, y), 0))
    return out


# -- scenarios and estimands ---------------------------------------------------


@dataclass(frozen=True)
class ExposureLevel:
    """Coarse exposure level with its assumption flags.

    well_defining=True, z_dependent=False: ordinary clean level.
    z_dependent=True: the level's outcome response is indexed by the
    instrument; well_defining then only records whether the level is read as
    ill-defining (False) or as carrying a direct instrument effect (True) --
    the two produce identical constraint systems and the flag is kept purely
    for reporting.
    """

    label: str
    well_defining: bool = True
    z_dependent: bool = False

    def __post_init__(self):
        if not self.well_defining and not self.z_dependent:
            raise InputError(
                f"level {self.label!r}: a non-well-defining level must be z_dependent"
            )

    @property
    def clean(self) -> bool:
        return not self.z_dependent


@dataclass(frozen=True)
class Estimand:
    """Counterfactual risk psi_x or risk difference theta = psi_{x_prime} - psi_x."""

    kind: str  # "counterfactual_risk" | "risk_difference"
    x: str
    x_prime: str | None = None

    def __post_init__(self):
        if self.kind == "counterfactual_risk":
            if self.x_prime is not None:
                raise InputError("counterfactual_risk takes a single level")
        elif self.kind == "risk_difference":
            if self.x_prime is None:
                raise InputError("risk_difference needs x_prime and x")
            if self.x_prime == self.x:
                raise InputError("risk_difference levels must differ")
        else:
            raise InputError(f"unknown estimand kind {self.kind!r}")

    def referenced(self) -> tuple[str, ...]:
        return (self.x,) if self.x_prime is None else (self.x_prime, self.x)


@dataclass(frozen=True)
class Scenario:
    instrument_levels: tuple[str, ...]
    levels: tuple[ExposureLevel, ...]
    estimand: Estimand | None = None

    def __post_init__(self):
        if len(set(self.instrument_levels)) != len(self.instrument_levels):
            raise InputError("instrument labels must be distinct")
        if len(self.instrument_levels) < 2:
            raise InputError("need at least two instrument levels")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise InputError("exposure level labels must be distinct")
        if not any(lv.clean and lv.well_defining for lv in self.levels):
            raise InputError("at least one level must be well-defining and not z-dependent")
        if self.estimand is not None:
            by_label = {lv.label: lv for lv in self.levels}
            for ref in self.estimand.referenced():
                lv = by_label.get(ref)
                if lv is None:
                    raise InputError(f"estimand references unknown level {ref!r}")
                if lv.z_dependent or not lv.well_defining:
                    raise InputError(
                        f"estimand references level {ref!r}, which is not both "
                        "well-defining and z-independent"
                    )

    @property
    def instrument_arity(self) -> int:
        return len(self.instrument_levels)

    def level_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    def clean_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels if lv.clean)

    def zdep_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels if lv.z_dependent)

    def with_estimand(self, estimand: Estimand) -> "Scenario":
        return Scenario(self.instrument_levels, self.levels, estimand)

    def demote(self, label: str) -> "Scenario":
        """Weaken the scenario by making one level z-dependent (ill-defining)."""
        new_levels = tuple(
            ExposureLevel(lv.label, well_defining=False, z_dependent=True)
            if lv.label == label
            else lv
            for lv in self.levels
        )
        return Scenario(self.instrument_levels, new_levels, self.estimand)


def validate(scenario: Scenario, dist: ObservedDistribution) -> tuple[Scenario, ObservedDistribution]:
    """Check that scenario and distribution describe the same observables."""
    if tuple(dist.instrument_levels) != tuple(scenario.instrument_levels):
        raise InputError(
            f"instrument levels differ: scenario {scenario.instrument_levels} vs "
            f"data {dist.instrument_levels}"
        )
    if tuple(dist.exposure_levels) != scenario.level_labels():
        raise InputError(
            f"exposure levels differ: scenario {scenario.level_labels()} vs "
            f"data {dist.exposure_levels}"
        )
    return scenario, dist


# -- structured document loaders -----------------------------------------------


def _read_text(path: str) -> io.StringIO:
    """The file's UTF-8 text, line endings untouched."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return io.StringIO(fh.read(), newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_yaml(source: str | io.TextIOBase, expected_schema: str) -> dict:
    if isinstance(source, str):
        return _load_yaml(_read_text(source), expected_schema)
    try:
        doc = yaml.load(source, Loader=yaml.CSafeLoader)
    # SafeConstructor lets malformed tagged scalars (`!!int x`, `!!bool x`,
    # `!!timestamp x`) escape as ValueError, LookupError or AttributeError.
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        raise InputError(f"invalid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("document must be a mapping")
    schema = doc.get("schema")
    if schema != expected_schema:
        raise InputError(f"expected schema {expected_schema!r}, got {schema!r}")
    return doc


def _list_field(doc: dict, key: str, what: str) -> list:
    try:
        value = doc[key]
    except KeyError:
        raise InputError(f"{what} document missing field {key!r}") from None
    if not isinstance(value, list):
        raise InputError(f"{what} field {key!r} must be a list, got {value!r}")
    return value


def _int_field(row: dict, key: str) -> int:
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"row {row!r}: {key!r} must be an integer, got {value!r}")
    return value


def _bound_field(row: dict, key: str) -> float | None:
    # An interval boundary: absent or null when unbounded, else a number
    # (not a boolean, not nan).
    value = row.get(key)
    if value is None:
        return None
    try:
        bound = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        bound = None
    if bound is None or math.isnan(bound):
        raise InputError(f"row {row!r}: {key!r} must be a number, got {value!r}")
    return bound


def _bool_field(row: dict, key: str, default: bool) -> bool:
    value = row.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f"row {row!r}: {key!r} must be true or false, got {value!r}")
    return value


def load_summary(source: str | io.TextIOBase) -> ObservedDistribution:
    """Load summary counts keyed by (z, x, y) from a YAML document."""
    doc = _load_yaml(source, SUMMARY_SCHEMA)
    zs = [str(z) for z in _list_field(doc, "instrument_levels", "summary")]
    xs = [str(x) for x in _list_field(doc, "exposure_levels", "summary")]
    for key, labels in (("instrument_levels", zs), ("exposure_levels", xs)):
        if len(set(labels)) != len(labels):
            raise InputError(f"summary field {key!r} repeats a label: {labels}")
    rows = _list_field(doc, "counts", "summary")
    counts: dict[tuple[str, str, int], int] = {}
    n_per_z: dict[str, int] = {z: 0 for z in zs}
    for row in rows:
        try:
            z, x, y, n = str(row["z"]), str(row["x"]), _int_field(row, "y"), _int_field(row, "n")
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed count row {row!r}: {exc}") from exc
        if n < 0:
            raise InputError(f"count for ({z}, {x}, {y}) must be a nonnegative integer, got {n!r}")
        if z not in n_per_z:
            raise InputError(f"count row references undeclared instrument level {z!r}")
        if x not in xs:
            raise InputError(f"count row references undeclared exposure level {x!r}")
        if y not in (0, 1):
            raise InputError(f"count row has y={y}, expected 0 or 1")
        key = (z, x, y)
        if key in counts:
            raise InputError(f"duplicate count row for {key}")
        counts[key] = n
        n_per_z[z] += n
    return ObservedDistribution(
        instrument_levels=tuple(zs),
        exposure_levels=tuple(xs),
        counts=counts,
        n_per_z=n_per_z,
    )


def load_scenario(source: str | io.TextIOBase) -> Scenario:
    doc = _load_yaml(source, SCENARIO_SCHEMA)
    zs = [str(z) for z in _list_field(doc, "instrument_levels", "scenario")]
    levels = []
    for row in _list_field(doc, "levels", "scenario"):
        try:
            levels.append(
                ExposureLevel(
                    label=str(row["label"]),
                    well_defining=_bool_field(row, "well_defining", True),
                    z_dependent=_bool_field(row, "z_dependent", False),
                )
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed level row {row!r}: {exc}") from exc
    estimand = None
    erow = doc.get("estimand")
    if erow is not None:
        if not isinstance(erow, dict):
            raise InputError(f"scenario field 'estimand' must be a mapping, got {erow!r}")
        try:
            estimand = Estimand(
                kind=str(erow["kind"]),
                x=str(erow["x"]),
                x_prime=str(erow["x_prime"]) if erow.get("x_prime") is not None else None,
            )
        except KeyError as exc:
            raise InputError(f"malformed estimand {erow!r}: missing {exc}") from exc
    return Scenario(instrument_levels=tuple(zs), levels=tuple(levels), estimand=estimand)


def load_coarsening(source: str | io.TextIOBase) -> CoarseningMap:
    doc = _load_yaml(source, COARSENING_SCHEMA)
    kind = doc.get("kind")
    if kind == "interval":
        entries = []
        for row in _list_field(doc, "entries", "coarsening"):
            try:
                entries.append(
                    IntervalEntry(
                        label=str(row["label"]),
                        lower=_bound_field(row, "lower"),
                        upper=_bound_field(row, "upper"),
                        lower_closed=_bool_field(row, "lower_closed", True),
                        upper_closed=_bool_field(row, "upper_closed", False),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed interval row {row!r}: {exc}") from exc
        return CoarseningMap(kind="interval", intervals=tuple(entries))
    if kind == "label":
        pairs = []
        for row in _list_field(doc, "entries", "coarsening"):
            try:
                pairs.append((str(row["from"]), str(row["to"])))
            except (KeyError, TypeError) as exc:
                raise InputError(f"malformed label row {row!r}: {exc}") from exc
        return CoarseningMap(kind="label", labels=tuple(pairs))
    raise InputError(f"unknown coarsening kind {kind!r}")

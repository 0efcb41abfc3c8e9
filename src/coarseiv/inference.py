"""Bootstrap confidence intervals for bound endpoints.

Three entry points:

* ``percentile_ci`` — nonparametric bootstrap for contrast estimands,
  resampling records with replacement within each instrument stratum.
* ``m_out_of_n_ci`` — m-out-of-n bootstrap for boundary-prone single-risk
  estimands; by default m = ceil(n**power) (power 0.75), optionally the
  consecutive-interval-distance grid rule (rho, J).
* ``parametric_multinomial_ci`` — parametric bootstrap for summary-only data,
  drawing cell counts from per-stratum multinomials at the observed
  probabilities.

All three run one loop, `_bootstrap`: per-stratum multinomial draws at the
observed cell probabilities, at a total size m split over the strata in
proportion; m = n, which keeps every stratum's size, except under m-out-of-n.
Drawing records with replacement within strata induces the same distribution
on the tables, and all analyses depend on data only through the tables.

Replicate k of a run draws from its own PCG64 generator, seeded as the k-th
child that the run seed's ``SeedSequence`` spawns.  `spawn_states` computes
every child's seeding words in one vectorised pass of numpy's SeedSequence
hash (O'Neill's ``seed_seq_fe``) over the spawn keys, and `pcg64_generator`
hands a row of them to ``PCG64``, so each replicate draws exactly the
stream that the spawned child gives, without a SeedSequence object per
replicate.

Every replicate recomputes the bounds through the exact LP solver, never
through a shortcut estimator.  Each size's replicate tables are drawn
first, as integer counts over one common scale, and solved as one batch
(`BoundsSolver.solve_batch`): each optimal basis the solver finds is
screened against every table still pending, and answers at once each table
it is primal feasible for.  The tables left are solved in rounds by a dual
simplex that runs many tables in lockstep, each from the least infeasible
basis screened against it.  Replicates whose resampled table is
incompatible with the scenario are bounded at its L1-slack projection and
counted; if more than ``max_infeasible_fraction`` of replicates need rescue
the run aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import ceil, lcm
from typing import Sequence

import numpy as np

from .bounds import BoundsSolver
from .data import (
    InputError,
    ObservedDistribution,
    RawRecord,
    Scenario,
    tabulate,
    validate,
)
from .response import build_constraint_system

__all__ = [
    "BootstrapSpec",
    "ExcessiveInfeasibility",
    "IntervalResult",
    "m_out_of_n_ci",
    "parametric_multinomial_ci",
    "pcg64_generator",
    "percentile_ci",
    "spawn_states",
]


class ExcessiveInfeasibility(RuntimeError):
    """Too many replicates violated the scenario's implied constraints."""

    def __init__(self, n_infeasible: int, replicates: int, threshold: Fraction):
        self.n_infeasible = n_infeasible
        self.replicates = replicates
        self.threshold = threshold
        super().__init__(
            f"{n_infeasible} of {replicates} bootstrap replicates were "
            f"incompatible with the scenario (threshold {float(threshold):.0%}); "
            "the scenario's assumptions are likely violated by the data"
        )


@dataclass(frozen=True)
class BootstrapSpec:
    """Resampling configuration shared by all bootstrap methods."""

    replicates: int = 2000
    level: float | Fraction = 0.95
    seed: int | None = None
    rho: float = 0.75  # m-grid ratio (grid rule)
    grid: int = 8  # m-grid length J (grid rule)
    m_rule: str = "power"  # "power" | "grid"
    power: float = 0.75  # m = ceil(n**power) under the power rule
    tail_mode: str = "pointwise"  # "pointwise" | "symmetric"
    max_infeasible_fraction: float = 0.10

    def __post_init__(self):
        if self.replicates < 1:
            raise InputError("bootstrap needs at least one replicate")
        if not 0 < self._level_fraction() < 1:
            raise InputError(f"confidence level must be in (0,1), got {self.level}")
        if self.seed is None:
            raise InputError("bootstrap requires an explicit seed")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.rho < 1:
            raise InputError(f"grid ratio rho must be in (0,1), got {self.rho}")
        if self.grid < 2:
            raise InputError("m-grid needs at least two points")
        if self.m_rule not in ("power", "grid"):
            raise InputError(f"unknown m rule {self.m_rule!r}")
        if not 0 < self.power <= 1:
            raise InputError(f"power must be in (0,1], got {self.power}")
        if self.tail_mode not in ("pointwise", "symmetric"):
            raise InputError(f"unknown tail mode {self.tail_mode!r}")
        if not 0 <= self.max_infeasible_fraction <= 1:
            raise InputError("infeasibility threshold must be in [0,1]")

    def _level_fraction(self) -> Fraction:
        lv = self.level
        if isinstance(lv, Fraction):
            return lv
        try:
            return Fraction(str(lv))
        except ValueError:  # nan or inf
            raise InputError(f"confidence level must be in (0,1), got {lv}") from None


@dataclass(frozen=True)
class IntervalResult:
    """Point bounds plus a bootstrap confidence interval for the endpoints."""

    method: str
    point_lower: Fraction
    point_upper: Fraction
    ci_lower: Fraction
    ci_upper: Fraction
    level: Fraction
    replicates: int
    seed: int
    tail_mode: str
    m: int | None = None  # m-out-of-n only: total resample size
    m_per_stratum: dict[str, int] | None = None
    grid_intervals: tuple[tuple[int, Fraction, Fraction], ...] | None = None
    n_infeasible: int = 0
    warnings: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ci_lower > self.ci_upper:
            raise AssertionError("crossed confidence interval")


def _exact_quantile(values: list[Fraction], q: Fraction) -> Fraction:
    """Linear-interpolation quantile, exact over rationals.

    ``float`` of a Fraction is correctly rounded, so it never reverses two
    values: the k-th smallest float is the float of the k-th smallest
    value.  One float partition finds the two order statistics the rule
    reads, and an exact sort of the values that share each one's float, the
    only ones floats cannot order, picks the value.
    """
    n = len(values)
    h = q * (n - 1)
    lo = int(h)  # floor: h >= 0
    frac = h - lo
    floats = np.array([float(v) for v in values])
    kth = np.partition(floats, [lo, min(lo + 1, n - 1)])

    def order_statistic(k: int) -> Fraction:
        ties = sorted(values[i] for i in np.flatnonzero(floats == kth[k]).tolist())
        return ties[k - int(np.count_nonzero(floats < kth[k]))]

    low = order_statistic(lo)
    if frac == 0:
        return low
    return low + frac * (order_statistic(lo + 1) - low)


def _tails(spec: BootstrapSpec) -> tuple[Fraction, Fraction]:
    level = spec._level_fraction()
    alpha = 1 - level
    if spec.tail_mode == "pointwise":
        return alpha, 1 - alpha
    return alpha / 2, 1 - alpha / 2


def _proportional_allocation(n_per_z: dict[str, int], m: int) -> dict[str, int]:
    """Largest-remainder split of m across strata, every stratum >= 1."""
    n = sum(n_per_z.values())
    shares = {z: Fraction(m * nz, n) for z, nz in n_per_z.items()}
    alloc = {z: max(1, int(s)) for z, s in shares.items()}
    remaining = m - sum(alloc.values())
    if remaining > 0:
        order = sorted(
            n_per_z, key=lambda z: (shares[z] - int(shares[z]), n_per_z[z]), reverse=True
        )
        for i in range(remaining):
            alloc[order[i % len(order)]] += 1
    return alloc


# numpy's SeedSequence constants (O'Neill's seed_seq_fe): the entropy pool is
# four uint32 words, each word hashed with a multiplier that advances by
# _MULT_A from _INIT_A while mixing and by _MULT_B from _INIT_B while
# generating the state.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words32(n: int) -> list[int]:
    """A non-negative int as numpy's little-endian uint32 words; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def spawn_states(
    seed: int, prefix: tuple[int, ...] = (), start: int | None = None, count: int = 1
) -> np.ndarray:
    """PCG64 seeding words of ``count`` SeedSequence children, one row each.

    Row i is ``generate_state(4, np.uint64)`` of the ``SeedSequence`` with
    entropy ``seed`` and ``spawn_key=prefix + (start + i,)``, or with
    ``start`` None of ``spawn_key=prefix`` (every row alike).  So with
    ``prefix=()`` rows ``start .. start + count - 1`` are the children that
    the seed's ``SeedSequence.spawn`` hands out in that order.  The hash's
    multipliers do not depend on the data, so each step runs once over a
    column of every row.
    """
    fixed = _words32(seed)
    if (prefix or start is not None) and len(fixed) < _POOL_SIZE:
        # numpy pads the run entropy only when there is a spawn key.
        fixed += [0] * (_POOL_SIZE - len(fixed))
    for part in prefix:
        fixed += _words32(part)
    if start is None:
        return _seed_state(np.tile(np.array(fixed, dtype=np.uint32), (count, 1)))
    if start + count > 2**64:
        raise ValueError("spawn keys of 2**64 or more are not supported")
    blocks = []
    end = start + count
    while start < end:
        # Keys below 2**32 are one word, the rest two.
        n_words = len(_words32(start))
        stop = min(end, 2 ** (32 * n_words))
        keys = np.arange(start, stop, dtype=np.uint64)
        entropy = np.empty((stop - start, len(fixed) + n_words), dtype=np.uint32)
        entropy[:, : len(fixed)] = fixed
        for j in range(n_words):
            entropy[:, len(fixed) + j] = keys >> np.uint64(32 * j) & np.uint64(_MASK32)
        blocks.append(_seed_state(entropy))
        start = stop
    return np.concatenate(blocks)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """numpy's ``mix_entropy`` and ``generate_state(4, np.uint64)`` for every
    row of an (n, words) uint32 entropy array, in uint32 arithmetic that
    wraps as numpy's C code does."""
    n, width = entropy.shape
    mult = _INIT_A

    def hashmix(value):
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * _MULT_A & _MASK32
        value = value * np.uint32(mult)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ out >> np.uint32(16)

    with np.errstate(over="ignore"):
        zero = np.zeros(n, dtype=np.uint32)
        pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL_SIZE, width):
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
        mult = _INIT_B
        state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint64)
        for i in range(2 * _POOL_SIZE):
            value = pool[i % _POOL_SIZE] ^ np.uint32(mult)
            mult = mult * _MULT_B & _MASK32
            value = value * np.uint32(mult)
            state[:, i] = value ^ value >> np.uint32(16)
    # Little-endian pairs of uint32 words make each uint64.
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


@cache
def _seed_state_type() -> type:
    """A seed sequence that hands PCG64 seeding words computed ahead.

    Made on first use, so that importing the package does not import
    ``numpy.random``.
    """

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedState


def pcg64_generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``Generator(PCG64(seq))`` of the SeedSequence ``seq``
    whose row of `spawn_states` is ``words``; numpy seeds PCG64 from it."""
    return np.random.Generator(np.random.PCG64(_seed_state_type()(words)))


class _Resampler:
    """Per-stratum cell probabilities and the LP that every replicate solves."""

    def __init__(self, scenario: Scenario, dist: ObservedDistribution):
        scenario, dist = validate(scenario, dist)
        self.scenario = scenario
        self.dist = dist
        self.system = build_constraint_system(scenario)
        self.solver = BoundsSolver(self.system)
        self.cells = [
            (x, y) for x in scenario.level_labels() for y in (0, 1)
        ]
        row_of = {key: i for i, key in enumerate(self.system.row_keys)}
        self.cell_rows = {
            z: [row_of[(z, x, y)] for (x, y) in self.cells]
            for z in scenario.instrument_levels
        }
        self.pvals = {
            z: np.array(
                [float(dist.prob(z, x, y)) for (x, y) in self.cells], dtype=float
            )
            for z in scenario.instrument_levels
        }

    def tables(self, states: np.ndarray, sizes: dict[str, int]) -> tuple[np.ndarray, int]:
        """One resampled table per row of ``states`` (`spawn_states`), as the
        rows of B over a common scale.

        Row k draws each stratum's multinomial, in stratum order, from
        ``pcg64_generator(states[k])``.  Cell (z, x, y) reads count *
        (scale // n_z) and normalization reads scale, so every row is an
        integer right-hand side b~ = scale * b.
        """
        scale = lcm(*sizes.values())
        draws = {
            z: np.empty((len(states), len(self.cells)), dtype=np.int64)
            for z in self.scenario.instrument_levels
        }
        for k, words in enumerate(states):
            rng = pcg64_generator(words)
            for z, counts in draws.items():
                counts[k] = rng.multinomial(sizes[z], self.pvals[z])
        dtype = np.int64 if scale <= np.iinfo(np.int64).max else object
        B = np.zeros((len(states), self.system.n_rows), dtype=dtype)
        B[:, self.system.row_keys.index("normalization")] = scale
        for z, counts in draws.items():
            B[:, self.cell_rows[z]] = counts.astype(dtype) * (scale // sizes[z])
        return B, scale


def _bootstrap(
    method: str,
    dist: ObservedDistribution,
    scenario: Scenario,
    spec: BootstrapSpec,
    m_grid: Sequence[int] | None = None,
    warnings: Sequence[str] = (),
) -> IntervalResult:
    """Resample at each total size in ``m_grid`` (default: just n).

    Size j solves, as one batch, the R = ``spec.replicates`` tables drawn
    from children j*R .. (j+1)*R - 1 of the ``SeedSequence`` of
    ``spec.seed``; one `spawn_states` call gives the size's seeding words,
    and `_Resampler.tables` seeds a generator from each row.  The interval
    reported is the one closest (max endpoint difference) to its
    successor's.  Only an m grid, the m-out-of-n bootstrap, reports ``m``.
    """
    engine = _Resampler(scenario, dist)
    point = engine.solver.solve_b(engine.system.rhs(engine.dist), slack=True)
    n_per_z = dict(engine.dist.n_per_z)
    grid = m_grid or [sum(n_per_z.values())]
    R = spec.replicates
    q_lo, q_hi = _tails(spec)
    intervals: list[tuple[Fraction, Fraction]] = []
    sizes: list[dict[str, int]] = []
    n_infeasible = 0
    for j, m in enumerate(grid):
        sizes.append(_proportional_allocation(n_per_z, m))
        lowers, uppers, rescued = engine.solver.solve_batch(
            *engine.tables(spawn_states(spec.seed, (), j * R, R), sizes[j])
        )
        intervals.append((_exact_quantile(lowers, q_lo), _exact_quantile(uppers, q_hi)))
        n_infeasible += sum(rescued)
    threshold = Fraction(str(spec.max_infeasible_fraction))
    if Fraction(n_infeasible, R * len(grid)) > threshold:
        raise ExcessiveInfeasibility(n_infeasible, R * len(grid), threshold)
    best = min(
        range(len(grid) - 1),
        key=lambda j: max(abs(a - b) for a, b in zip(intervals[j], intervals[j + 1])),
        default=0,
    )
    m_out_of_n = m_grid is not None
    return IntervalResult(
        method=method,
        point_lower=point.lower,
        point_upper=point.upper,
        ci_lower=intervals[best][0],
        ci_upper=intervals[best][1],
        level=spec._level_fraction(),
        replicates=R,
        seed=spec.seed,
        tail_mode=spec.tail_mode,
        m=grid[best] if m_out_of_n else None,
        m_per_stratum=sizes[best] if m_out_of_n else None,
        grid_intervals=(
            tuple((m, lo, hi) for m, (lo, hi) in zip(grid, intervals))
            if m_out_of_n and spec.m_rule == "grid"
            else None
        ),
        n_infeasible=n_infeasible,
        warnings=(*point.notes, *warnings),
        diagnostics=(
            {"n_per_stratum": n_per_z, "m_rule": spec.m_rule}
            if m_out_of_n
            else {"n_per_stratum": n_per_z}
        ),
    )


def _records_distribution(
    records: Sequence[RawRecord], scenario: Scenario
) -> ObservedDistribution:
    return tabulate(
        records,
        instrument_levels=scenario.instrument_levels,
        exposure_levels=scenario.level_labels(),
    )


def percentile_ci(
    records: Sequence[RawRecord], scenario: Scenario, spec: BootstrapSpec
) -> IntervalResult:
    """Stratified nonparametric percentile bootstrap for a contrast estimand."""
    if scenario.estimand is None or scenario.estimand.kind != "risk_difference":
        raise InputError(
            "percentile bootstrap is intended for contrast estimands; use the "
            "m-out-of-n bootstrap for single counterfactual risks"
        )
    return _bootstrap(
        "percentile", _records_distribution(records, scenario), scenario, spec
    )


def m_out_of_n_ci(
    records: Sequence[RawRecord],
    scenario: Scenario,
    spec: BootstrapSpec,
    *,
    force: bool = False,
) -> IntervalResult:
    """m-out-of-n bootstrap for boundary-prone single-risk estimands.

    m defaults to ceil(n**power); the grid rule (m_rule="grid") instead
    resamples at m_j = ceil(rho**j * n), j = 0..J-1, and picks the j whose
    interval is closest (max endpoint difference) to its successor's.
    Falls back to the plain percentile bootstrap with a warning when n is too
    small for distinct resample sizes.
    """
    if scenario.estimand is None:
        raise InputError("scenario carries no estimand")
    if scenario.estimand.kind != "counterfactual_risk" and not force:
        raise InputError(
            "m-out-of-n bootstrap targets single counterfactual risks; pass "
            "force=True (--force on the command line) to apply it to a "
            "contrast anyway"
        )
    dist = _records_distribution(records, scenario)
    n = sum(dist.n_per_z.values())
    if spec.m_rule == "power":
        m_grid = [ceil(n**spec.power)]
        too_small = m_grid[0] >= n
        why = f"an m-out-of-n resample (rule gives m={m_grid[0]})"
    else:
        m_grid = [min(n, ceil(spec.rho**j * n)) for j in range(spec.grid)]
        too_small = len(set(m_grid)) == 1
        why = f"the m grid (all sizes equal {m_grid[0]})"
    warnings = []
    if too_small:
        warnings.append(
            f"sample size {n} too small for {why}; falling back to the "
            "percentile bootstrap"
        )
        m_grid = [n]
    return _bootstrap("m-out-of-n", dist, scenario, spec, m_grid, warnings)


def parametric_multinomial_ci(
    dist: ObservedDistribution, scenario: Scenario, spec: BootstrapSpec
) -> IntervalResult:
    """Parametric bootstrap from per-stratum multinomials at the observed p."""
    if not dist.has_counts:
        raise InputError(
            "parametric multinomial bootstrap needs stratum sample sizes "
            "(summary counts), not bare probabilities"
        )
    return _bootstrap("parametric-multinomial", dist, scenario, spec)

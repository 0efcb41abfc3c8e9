"""Outside-in tracer for `coarseiv` and the per-layer metrics built from it.

`Tracer.install()` wraps the public entry points of each layer (module) of
the package.  A wrapper records one span per call: name, parent span, start,
end, the exception it raised if any, and counters read from the call's return
value.  The CLI and other modules import most of these functions by name, so
`install()` rebinds every module-level name that refers to a wrapped function,
not only the defining one.  `uninstall()` restores the originals.  The
untraced benchmark run never calls `install()`.

A span's self time is its duration minus the durations of its child spans
(calls run one at a time, so children never overlap).
"""

from __future__ import annotations

import functools
import time

import coarseiv
from coarseiv import bounds, cli, data, exactlp, inference, oracle, response, symbolic

_MODULES = (coarseiv, cli, data, response, bounds, exactlp, inference, symbolic, oracle)

# Span record fields.
NAME, PARENT, START, END, COUNTS, ERROR = range(6)


def _pivots(out, args):
    return {"pivots": out.pivots}


def _types(out, args):
    return {"types": out.n_variables}


def _merged(out, args):
    return {"merged_columns": len(out.columns)}


def _replicates(out, args):
    return {"replicates": out.replicates, "infeasible": out.n_infeasible}


def _derived(out, args):
    lower, upper = out
    return {
        # One dual-cone row per distinct column plus the homogenizing row, per direction.
        "cone_rows": 2 * (len(set(args[0].columns)) + 1),
        "terms": len(lower.terms) + len(upper.terms),
        "facts": len(lower.feasibility) + len(upper.feasibility),
    }


def _trials(out, args):
    return {"trials": out.trials}


# (owner, attribute, span name, counter)
_FUNCTIONS = (
    (cli, "main", "cli.main", None),
    (data, "load_summary", "data.load_summary", None),
    (data, "load_scenario", "data.load_scenario", None),
    (data, "tabulate", "data.tabulate", None),
    (data, "expand_records", "data.expand_records", None),
    (response, "build_constraint_system", "response.build_constraint_system", _types),
    (bounds, "numeric_bounds", "bounds.numeric_bounds", None),
    (bounds, "merge_columns", "bounds.merge_columns", _merged),
    (bounds, "closed_form_ternary_contrast", "bounds.closed_form_ternary_contrast", None),
    (bounds, "closed_form_classic", "bounds.closed_form_classic", None),
    (bounds, "closed_form_single_level", "bounds.closed_form_single_level", None),
    (inference, "percentile_ci", "inference.percentile_ci", _replicates),
    (inference, "m_out_of_n_ci", "inference.m_out_of_n_ci", _replicates),
    (inference, "parametric_multinomial_ci", "inference.parametric_multinomial_ci", _replicates),
    (symbolic, "derive_symbolic", "symbolic.derive_symbolic", _derived),
    (oracle, "check_validity", "oracle.check_validity", _trials),
    (oracle, "check_tightness", "oracle.check_tightness", _trials),
    (oracle, "check_equivalences", "oracle.check_equivalences", _trials),
)
_METHODS = (
    (exactlp.ExactSimplex, "solve", "exactlp.solve", _pivots),
    (exactlp.ExactSimplex, "resolve_b", "exactlp.resolve_b", _pivots),
    (bounds.BoundsSolver, "__init__", "bounds.BoundsSolver", None),
    (bounds.BoundsSolver, "solve_b", "bounds.solve_b", None),
    (bounds.BoundsSolver, "project_slack", "bounds.project_slack", None),
)


class Tracer:
    """Records spans in memory while installed; `take()` hands them over."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, count in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        for cls, attr, name, count in _METHODS:
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, time.perf_counter(), None, None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._open.pop()
            span[END] = time.perf_counter()
            if count is not None:
                span[COUNTS] = count(out, args)
            return out

        return traced


# Per-layer metric names and units, in report order.
COUNT_METRICS = (
    "exactlp.warm.calls",
    "exactlp.warm.pivots",
    "exactlp.cold.calls",
    "exactlp.cold.pivots",
    "exactlp.infeasible",
    "data.load.calls",
    "response.build.calls",
    "response.types",
    "bounds.merged_columns",
    "bounds.solve_b.calls",
    "bounds.slack.calls",
    "inference.replicates",
    "inference.infeasible",
    "symbolic.derive.calls",
    "symbolic.cone_rows",
    "symbolic.terms_out",
    "symbolic.facts_out",
    "oracle.trials",
    "cli.calls",
)
RATIO_METRICS = ("exactlp.warm.zero_pivot_frac",)
TIME_METRICS = (
    "exactlp.warm.busy_s",
    "exactlp.cold.busy_s",
    "data.load.busy_s",
    "response.build.busy_s",
    "bounds.merge.busy_s",
    "bounds.solve_b.self_s",
    "bounds.setup.self_s",
    "bounds.closed_form.busy_s",
    "inference.self_s",
    "symbolic.derive.busy_s",
    "oracle.validity.self_s",
    "oracle.tightness.self_s",
    "oracle.equivalences.self_s",
    "cli.self_s",
)


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Counts (exactly repeatable) and times (seconds) of one traced pass."""
    duration = [s[END] - s[START] for s in spans]
    self_time = list(duration)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= duration[i]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def prefixed(prefix):
        return [i for i, s in enumerate(spans) if s[NAME].startswith(prefix)]

    def total(idx, key):
        return sum(spans[i][COUNTS][key] for i in idx if spans[i][COUNTS])

    def busy(idx):
        return sum(duration[i] for i in idx)

    def own(idx):
        return sum(self_time[i] for i in idx)

    # resolve_b without a basis falls back to a cold solve: count that call as cold only.
    fell_back = {
        s[PARENT] for s in spans
        if s[NAME] == "exactlp.solve" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "exactlp.resolve_b"
    }
    warm = [i for i in named("exactlp.resolve_b") if i not in fell_back]
    cold = named("exactlp.solve")
    warm_done = [i for i in warm if spans[i][COUNTS]]
    infeasible = [
        i for i in prefixed("exactlp.")
        if spans[i][ERROR] == "Infeasible"
        and not (spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME].startswith("exactlp."))
    ]
    inference_calls = prefixed("inference.")
    derive_calls = named("symbolic.derive_symbolic")
    counts = {
        "exactlp.warm.calls": len(warm),
        "exactlp.warm.pivots": total(warm, "pivots"),
        "exactlp.cold.calls": len(cold),
        "exactlp.cold.pivots": total(cold, "pivots"),
        "exactlp.infeasible": len(infeasible),
        "data.load.calls": len(prefixed("data.")),
        "response.build.calls": len(named("response.build_constraint_system")),
        "response.types": total(named("response.build_constraint_system"), "types"),
        "bounds.merged_columns": total(named("bounds.merge_columns"), "merged_columns"),
        "bounds.solve_b.calls": len(named("bounds.solve_b")),
        "bounds.slack.calls": len(named("bounds.project_slack")),
        "inference.replicates": total(inference_calls, "replicates"),
        "inference.infeasible": total(inference_calls, "infeasible"),
        "symbolic.derive.calls": len(derive_calls),
        "symbolic.cone_rows": total(derive_calls, "cone_rows"),
        "symbolic.terms_out": total(derive_calls, "terms"),
        "symbolic.facts_out": total(derive_calls, "facts"),
        "oracle.trials": total(prefixed("oracle."), "trials"),
        "cli.calls": len(named("cli.main")),
        "exactlp.warm.zero_pivot_frac": (
            sum(1 for i in warm_done if spans[i][COUNTS]["pivots"] == 0) / len(warm_done)
            if warm_done
            else 0.0
        ),
    }
    times = {
        "exactlp.warm.busy_s": busy(warm),
        "exactlp.cold.busy_s": busy(cold),
        "data.load.busy_s": busy(prefixed("data.")),
        "response.build.busy_s": busy(named("response.build_constraint_system")),
        "bounds.merge.busy_s": busy(named("bounds.merge_columns")),
        "bounds.solve_b.self_s": own(named("bounds.solve_b", "bounds.project_slack")),
        "bounds.setup.self_s": own(named("bounds.numeric_bounds", "bounds.BoundsSolver")),
        "bounds.closed_form.busy_s": busy(prefixed("bounds.closed_form")),
        "inference.self_s": own(inference_calls),
        "symbolic.derive.busy_s": busy(derive_calls),
        "oracle.validity.self_s": own(named("oracle.check_validity")),
        "oracle.tightness.self_s": own(named("oracle.check_tightness")),
        "oracle.equivalences.self_s": own(named("oracle.check_equivalences")),
        "cli.self_s": own(named("cli.main")),
    }
    return counts, times


def span_document(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready records, times in seconds from the first span's start."""
    t0 = spans[0][START] if spans else 0.0
    return [
        {
            "id": i,
            "parent": s[PARENT],
            "name": s[NAME],
            "start_s": s[START] - t0,
            "end_s": s[END] - t0,
            "counts": s[COUNTS],
            "error": s[ERROR],
        }
        for i, s in enumerate(spans)
    ]

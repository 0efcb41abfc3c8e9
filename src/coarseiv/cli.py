"""Command-line front end.

Wires ingestion, scenario handling, bound computation, bootstrap inference,
symbolic derivation, oracle verification, and embedded-example reproduction
into reproducible runs.  Structured output is a single JSON document per run
with `schema`, `config_echo`, `results`, and `diagnostics` sections; exact
rationals appear as "numerator/denominator" strings next to float and
two-decimal display forms.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 infeasible data, 4 size cap exceeded, 5 broken engine
invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bounds import (
    InfeasibleDistribution,
    closed_form_for,
    numeric_bounds,
)
from .data import (
    Estimand,
    InputError,
    Scenario,
    coarsen,
    content_hash,
    expand_records,
    load_coarsening,
    load_records,
    load_scenario,
    load_summary,
    tabulate,
)
from .datasets import (
    EXAMPLES,
    PRESET_NAMES,
    REPORTED,
    REPRODUCE_SEED,
    peanut_records,
    peanut_risk_records,
    peanut_risk_scenario,
    peanut_scenario,
    scenario_preset,
)
from .inference import (
    BootstrapSpec,
    ExcessiveInfeasibility,
    IntervalResult,
    m_out_of_n_ci,
    parametric_multinomial_ci,
    percentile_ci,
)
from .oracle import (
    check_equivalences,
    check_tightness,
    check_validity,
    contamination_collapse,
)
from .response import MAX_ROWS, MAX_VARIABLES, CapExceeded, build_constraint_system
from .symbolic import derive_symbolic, format_bound_set, format_term

VERSION = "0.1.0"
RUN_SCHEMA = "coarseiv/run/1"
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

__all__ = ["main"]


# -- formatting helpers ------------------------------------------------------------


def _display2(f: Fraction) -> str:
    """Exact two-decimal rounding, ties away from zero."""
    n, d = f.numerator, f.denominator
    cents, rest = divmod(abs(n) * 100, d)
    if 2 * rest >= d:
        cents += 1
    return f"{'-' if n < 0 else ''}{cents // 100}.{cents % 100:02d}"


def _num(f: Fraction) -> dict:
    f = Fraction(f)
    return {
        "exact": f"{f.numerator}/{f.denominator}",
        "float": float(f),
        "display": _display2(f),
    }


def _interval(lower: Fraction, upper: Fraction) -> dict:
    return {"lower": _num(lower), "upper": _num(upper)}


def _jsonify(obj):
    """Recursive conversion for report payloads that may hold Fractions."""
    if isinstance(obj, Fraction):
        return _num(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _scenario_echo(scenario: Scenario) -> dict:
    est = scenario.estimand
    return {
        "instrument_levels": list(scenario.instrument_levels),
        "levels": [
            {
                "label": lv.label,
                "well_defining": lv.well_defining,
                "z_dependent": lv.z_dependent,
            }
            for lv in scenario.levels
        ],
        "estimand": None
        if est is None
        else {"kind": est.kind, "x": est.x, "x_prime": est.x_prime},
    }


def _estimand_text(est: Estimand) -> str:
    if est.kind == "counterfactual_risk":
        return f"P(Y({est.x})=1)"
    return f"P(Y({est.x_prime})=1) - P(Y({est.x})=1)"


def _document(subcommand: str, config: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "schema": RUN_SCHEMA,
        "version": VERSION,
        "config_echo": {"subcommand": subcommand, **config},
        "results": results,
        "diagnostics": diagnostics,
    }


_EMIT_BATCH = 2048  # chunks per write, about 72 KB of a derive document
_INF = float("inf")
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_scalar(o) -> str:
    # None, a bool, an int or a float as json writes it, as a value or a key.
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _leaf_text(o: dict, pad: str) -> str:
    # A leaf, a non-empty dict whose values are all of the `_SCALARS` types,
    # as `_emit` writes it at `pad`.
    inner = pad + "  "
    return "{" + inner + ("," + inner).join([
        encode_basestring_ascii(key if isinstance(key, str) else _json_scalar(key)) + ": "
        + (encode_basestring_ascii(value) if type(value) is str else _json_scalar(value))
        for key, value in sorted(o.items())
    ]) + pad + "}"


def _emit(doc: dict) -> None:
    """Print `doc` exactly as `json.dumps(doc, sort_keys=True, indent=2)` would.

    json's own encoder runs in pure Python whenever `indent` is set, so this
    is a recursive encoder of the same output: strings through json's C
    `encode_basestring_ascii`, ints by `int.__repr__`, floats by
    `float.__repr__` (NaN and the infinities as json writes them), dict items
    in `sorted(items())` order with non-str keys converted as json converts
    them, and a TypeError for any other type.  The chunks are written every
    `_EMIT_BATCH` of them, so a large document is never held whole as text.

    A dict item or list item whose value is one of the `_SCALARS` types is
    one chunk, with no recursive call.  A leaf, a dict of such values, is
    encoded item by item the first time it is met.  From the next time on,
    its text at each indent is encoded whole once (`_leaf_text`) and reused,
    so a number dict that a derivation shares among its terms is encoded
    once per indent.  Leaves are told apart by id until the call returns;
    `doc` holds them all as long, so no two share an id.
    """
    chunks: list[str] = []
    met: set[int] = set()  # the id of each leaf met
    texts: dict[tuple[int, int], str] = {}  # (id, indent) -> a met leaf's text

    def flush() -> None:
        sys.stdout.write("".join(chunks))
        chunks.clear()

    def encode(o, pad: str) -> None:
        # `pad` is a newline and the indent of the line `o` starts on.
        if isinstance(o, str):
            chunks.append(encode_basestring_ascii(o))
        elif isinstance(o, dict):
            if not o:
                chunks.append("{}")
                return
            if id(o) in met:
                place = (id(o), len(pad))
                text = texts.get(place)
                if text is None:
                    text = texts[place] = _leaf_text(o, pad)
                chunks.append(text)
                return
            leaf = True
            inner = pad + "  "
            sep = "{" + inner
            for key, value in sorted(o.items()):
                key = key if isinstance(key, str) else _json_scalar(key)
                key = sep + encode_basestring_ascii(key) + ": "
                if type(value) is str:
                    chunks.append(key + encode_basestring_ascii(value))
                elif type(value) in _SCALARS:
                    chunks.append(key + _json_scalar(value))
                else:
                    leaf = False
                    chunks.append(key)
                    encode(value, inner)
                sep = "," + inner
                if len(chunks) >= _EMIT_BATCH:
                    flush()
            chunks.append(pad + "}")
            if leaf:
                met.add(id(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                chunks.append("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for value in o:
                if type(value) is str:
                    chunks.append(sep + encode_basestring_ascii(value))
                elif type(value) in _SCALARS:
                    chunks.append(sep + _json_scalar(value))
                else:
                    chunks.append(sep)
                    encode(value, inner)
                sep = "," + inner
                if len(chunks) >= _EMIT_BATCH:
                    flush()
            chunks.append(pad + "]")
        else:
            chunks.append(_json_scalar(o))

    encode(doc, "\n")
    chunks.append("\n")
    flush()


# -- input resolution --------------------------------------------------------------


def _hash_path(path: str) -> str:
    return content_hash(Path(path).read_bytes())


def _resolve_inputs(args, *, need_data: bool = True):
    """Return (dist | None, scenario, input echo dict)."""
    echo: dict = {}
    if args.coarsening and not args.records:
        raise InputError("--coarsening applies only to --records")
    if args.preset:
        if args.records or args.summary or args.scenario:
            raise InputError("--preset excludes --records/--summary/--scenario")
        try:
            dist, scenario = scenario_preset(args.preset)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        echo["preset"] = args.preset
    else:
        if not args.scenario:
            raise InputError("need --preset or --scenario")
        scenario = load_scenario(args.scenario)
        echo["scenario_file"] = {
            "path": args.scenario,
            "sha256": _hash_path(args.scenario),
        }
        dist = None
        if args.records and args.summary:
            raise InputError("--records and --summary are mutually exclusive")
        if args.records:
            records = load_records(args.records)
            echo["records_file"] = {
                "path": args.records,
                "sha256": _hash_path(args.records),
            }
            if args.coarsening:
                cmap = load_coarsening(args.coarsening)
                records = coarsen(records, cmap)
                echo["coarsening_file"] = {
                    "path": args.coarsening,
                    "sha256": _hash_path(args.coarsening),
                }
            dist = tabulate(
                records, scenario.instrument_levels, scenario.level_labels()
            )
        elif args.summary:
            dist = load_summary(args.summary)
            echo["summary_file"] = {
                "path": args.summary,
                "sha256": _hash_path(args.summary),
            }
        elif need_data:
            raise InputError("need --preset, --records, or --summary for data")

    if args.estimand or args.x or getattr(args, "x_prime", None):
        if not (args.estimand and args.x):
            raise InputError("estimand override needs both --estimand and --x")
        est = Estimand(kind=args.estimand, x=args.x, x_prime=args.x_prime)
        scenario = scenario.with_estimand(est)
    echo["scenario"] = _scenario_echo(scenario)
    return dist, scenario, echo


def _require_estimand(scenario: Scenario) -> None:
    if scenario.estimand is None:
        raise InputError(
            "scenario declares no estimand; add one to the scenario document "
            "or pass --estimand/--x (and --x-prime for a risk difference)"
        )


# -- bounds ------------------------------------------------------------------------


def cmd_bounds(args) -> tuple[dict, int]:
    dist, scenario, echo = _resolve_inputs(args)
    _require_estimand(scenario)
    system = build_constraint_system(
        scenario, max_variables=args.max_variables, max_rows=args.max_rows
    )
    result = numeric_bounds(system, dist, slack=args.slack)
    closed = closed_form_for(scenario)
    results = {
        "estimand": _estimand_text(scenario.estimand),
        "lp": {
            "method": result.method,
            **_interval(result.lower, result.upper),
            "notes": list(result.notes),
        },
        "closed_form": None,
        "agreement": None,
    }
    if closed is not None:
        form, evaluate, expected_tight = closed
        cf = evaluate(dist)
        results["closed_form"] = {
            "form": form,
            **_interval(cf.lower, cf.upper),
            "expected_tight": expected_tight,
            "notes": list(cf.notes),
        }
        results["agreement"] = (cf.lower, cf.upper) == (result.lower, result.upper)
    doc = _document(
        "bounds",
        {**echo, "slack": args.slack},
        results,
        _jsonify(result.diagnostics),
    )
    return doc, 0


# -- confidence intervals ------------------------------------------------------------


def _interval_result_doc(res: IntervalResult) -> dict:
    out = {
        "method": res.method,
        "point": _interval(res.point_lower, res.point_upper),
        "ci": _interval(res.ci_lower, res.ci_upper),
        "level": res.level,
        "replicates": res.replicates,
        "seed": res.seed,
        "tail_mode": res.tail_mode,
        "n_infeasible": res.n_infeasible,
        "warnings": list(res.warnings),
    }
    if res.m is not None:
        out["m"] = res.m
        out["m_per_stratum"] = dict(res.m_per_stratum or {})
    if res.grid_intervals is not None:
        out["grid_intervals"] = [
            {"m": m, **_interval(lo, hi)} for m, lo, hi in res.grid_intervals
        ]
    return out


def cmd_ci(args) -> tuple[dict, int]:
    dist, scenario, echo = _resolve_inputs(args)
    _require_estimand(scenario)
    spec = BootstrapSpec(
        replicates=args.bootstrap,
        level=args.level,
        seed=args.seed,
        rho=args.rho,
        grid=args.grid,
        m_rule=args.m_rule,
        power=args.power,
        tail_mode=args.tails,
    )
    if args.method == "multinomial":
        res = parametric_multinomial_ci(dist, scenario, spec)
    elif args.method == "percentile":
        res = percentile_ci(expand_records(dist), scenario, spec)
    else:
        res = m_out_of_n_ci(expand_records(dist), scenario, spec, force=args.force)
    config = {
        **echo,
        "method": res.method,
        "replicates": spec.replicates,
        "level": spec.level,
        "seed": spec.seed,
        "tails": spec.tail_mode,
        "m_rule": spec.m_rule,
        "power": spec.power,
        "rho": spec.rho,
        "grid": spec.grid,
    }
    doc = _document(
        "ci", config, _jsonify(_interval_result_doc(res)), _jsonify(res.diagnostics)
    )
    return doc, 0


# -- symbolic derivation --------------------------------------------------------------


def _term_doc(term, num) -> dict:
    return {
        "constant": num(term.constant),
        "cells": [
            {"z": z, "x": x, "y": y, "coefficient": num(c)}
            for (z, x, y), c in term.coeffs
        ],
        "rendered": format_term(term, "text"),
    }


def cmd_derive(args) -> tuple[dict | str, int]:
    _, scenario, echo = _resolve_inputs(args, need_data=False)
    _require_estimand(scenario)
    system = build_constraint_system(
        scenario, max_variables=args.max_variables, max_rows=args.max_rows
    )
    lower, upper = derive_symbolic(system)
    if args.format in ("text", "latex"):
        text = (
            format_bound_set(lower, style=args.format)
            + "\n\n"
            + format_bound_set(upper, style=args.format)
        )
        return text, 0
    # A derivation repeats few distinct numbers; equal ones share one dict.
    num = functools.cache(_num)
    results = {
        "estimand": _estimand_text(scenario.estimand),
        "lower": {
            "terms": [_term_doc(t, num) for t in lower.terms],
            "feasibility_facts": [_term_doc(t, num) for t in lower.feasibility],
        },
        "upper": {
            "terms": [_term_doc(t, num) for t in upper.terms],
            "feasibility_facts": [_term_doc(t, num) for t in upper.feasibility],
        },
    }
    doc = _document("derive", echo, results, {"n_lower_terms": len(lower.terms),
                                              "n_upper_terms": len(upper.terms)})
    return doc, 0


# -- oracle verification ---------------------------------------------------------------


def _validity_doc(rep) -> dict:
    return {
        "trials": rep.trials,
        "seed": rep.seed,
        "audits": list(rep.audits),
        "n_validity_violations": rep.n_validity_violations,
        "n_nesting_violations": rep.n_nesting_violations,
        "n_closed_form_violations": rep.n_closed_form_violations,
        "failures": _jsonify(list(rep.failures)),
        "passed": rep.passed,
    }


def _tightness_doc(rep) -> dict:
    return {
        "trials": rep.trials,
        "seed": rep.seed,
        "n_certificates": rep.n_certificates,
        "n_certificate_failures": rep.n_certificate_failures,
        "failures": _jsonify(list(rep.failures)),
        "passed": rep.passed,
    }


def _equivalence_doc(rep) -> dict:
    return {
        "trials": rep.trials,
        "seed": rep.seed,
        "families": [
            {
                "name": fam.name,
                "bit_identical": fam.bit_identical,
                "symbolic_equal": fam.symbolic_equal,
                "n_mismatches": fam.n_mismatches,
                "failures": _jsonify(list(fam.failures)),
                "passed": fam.passed,
            }
            for fam in rep.families
        ],
        "passed": rep.passed,
    }


def cmd_verify(args) -> tuple[dict, int]:
    _, scenario, echo = _resolve_inputs(args, need_data=False)
    _require_estimand(scenario)
    suites = (
        ("validity", "tightness", "equivalences", "collapse")
        if args.suite == "all"
        else (args.suite,)
    )
    results: dict = {}
    if "validity" in suites:
        results["validity"] = _validity_doc(
            check_validity(scenario, args.trials, args.seed)
        )
    if "tightness" in suites:
        results["tightness"] = _tightness_doc(
            check_tightness(scenario, args.trials, args.seed)
        )
    if "equivalences" in suites:
        results["equivalences"] = _equivalence_doc(
            check_equivalences(args.trials, args.seed)
        )
    if "collapse" in suites:
        collapse = contamination_collapse()
        results["collapse"] = {
            "rows": [
                {
                    "epsilon": _num(row["epsilon"]),
                    "ternary": _interval(*row["ternary"]),
                    "classic": _interval(*row["classic"]),
                    "lp_contaminated": _interval(*row["lp_contaminated"]),
                    "clean_scenario_feasible": row["clean_scenario_feasible"],
                }
                for row in collapse["rows"]
            ],
            "widths_monotone": collapse["widths_monotone"],
            "passed": collapse["passed"],
        }
    passed = all(section["passed"] for section in results.values())
    results["passed"] = passed
    doc = _document(
        "verify",
        {**echo, "suite": args.suite, "trials": args.trials, "seed": args.seed},
        results,
        {},
    )
    return doc, 0 if passed else 1


# -- reproduction of the embedded examples -----------------------------------------------


# Every bootstrap CI in the paper: 2000 replicates at the 95% level.
_REPRODUCE_SPEC = BootstrapSpec(replicates=2000, level=0.95, seed=REPRODUCE_SEED)


def _reproduce_row(
    analysis: str,
    published: tuple[Fraction, Fraction],
    computed: tuple[Fraction, Fraction],
    tolerance: Fraction,
    extra: dict | None = None,
) -> dict:
    within = all(
        abs(c - p) <= tolerance for c, p in zip(computed, published)
    )
    row = {
        "analysis": analysis,
        "published": _interval(*published),
        "computed": _interval(*computed),
        "tolerance": float(tolerance),
        "within_tolerance": within,
    }
    if extra:
        row.update(extra)
    return row


def _reproduce_peanut() -> dict:
    tol_bounds = Fraction(5, 1000)
    rows = []

    dist, scen = scenario_preset("peanut-ternary")
    res = numeric_bounds(build_constraint_system(scen), dist)
    rows.append(
        _reproduce_row(
            "risk-difference bounds, three-level scenario",
            REPORTED["peanut"]["bounds"],
            (res.lower, res.upper),
            tol_bounds,
        )
    )

    ci = percentile_ci(peanut_records(), peanut_scenario("clean"), _REPRODUCE_SPEC)
    rows.append(
        _reproduce_row(
            "percentile bootstrap CI for the risk difference",
            REPORTED["peanut"]["percentile_ci"],
            (ci.ci_lower, ci.ci_upper),
            Fraction(2, 100),
            {"replicates": ci.replicates, "seed": ci.seed},
        )
    )

    dist_r, scen_r = scenario_preset("peanut-risk")
    res_r = numeric_bounds(build_constraint_system(scen_r), dist_r)
    rows.append(
        _reproduce_row(
            "counterfactual-risk bounds, avoidance level",
            REPORTED["peanut"]["risk_bounds"],
            (res_r.lower, res_r.upper),
            tol_bounds,
        )
    )

    ci_mn = m_out_of_n_ci(
        peanut_risk_records(), peanut_risk_scenario(), _REPRODUCE_SPEC
    )
    rows.append(
        _reproduce_row(
            "m-out-of-n bootstrap CI for the counterfactual risk",
            REPORTED["peanut"]["risk_mn_ci"],
            (ci_mn.ci_lower, ci_mn.ci_upper),
            Fraction(3, 100),
            {"replicates": ci_mn.replicates, "seed": ci_mn.seed, "m": ci_mn.m},
        )
    )
    return {"rows": rows}


def _reproduce_homocysteine() -> dict:
    tol_bounds = Fraction(5, 1000)
    rows = []

    dist3, scen3 = scenario_preset("homocysteine-3")
    res3 = numeric_bounds(build_constraint_system(scen3), dist3)
    rows.append(
        _reproduce_row(
            "risk-difference bounds, three-level scenario",
            REPORTED["homocysteine"]["bounds_3"],
            (res3.lower, res3.upper),
            tol_bounds,
        )
    )

    dist4, scen4 = scenario_preset("homocysteine-4")
    res4 = numeric_bounds(build_constraint_system(scen4), dist4)
    rows.append(
        _reproduce_row(
            "risk-difference bounds, four-level scenario",
            REPORTED["homocysteine"]["bounds_4"],
            (res4.lower, res4.upper),
            tol_bounds,
            {
                "identical_to_three_level": (res4.lower, res4.upper)
                == (res3.lower, res3.upper)
            },
        )
    )

    ci = parametric_multinomial_ci(dist3, scen3, _REPRODUCE_SPEC)
    rows.append(
        _reproduce_row(
            "parametric multinomial bootstrap CI for the risk difference",
            REPORTED["homocysteine"]["multinomial_ci"],
            (ci.ci_lower, ci.ci_upper),
            Fraction(2, 100),
            {"replicates": ci.replicates, "seed": ci.seed},
        )
    )
    return {"rows": rows}


def cmd_reproduce(args) -> tuple[dict, int]:
    results = (
        _reproduce_peanut() if args.example == "peanut" else _reproduce_homocysteine()
    )
    results["all_within_tolerance"] = all(
        row["within_tolerance"] for row in results["rows"]
    )
    doc = _document(
        "reproduce",
        {
            "example": args.example,
            "seed": REPRODUCE_SEED,
            "bootstrap_replicates": _REPRODUCE_SPEC.replicates,
        },
        results,
        {},
    )
    return doc, 0


# -- LP export ---------------------------------------------------------------------------


def cmd_dump_lp(args) -> tuple[dict, int]:
    dist, scenario, echo = _resolve_inputs(args, need_data=False)
    _require_estimand(scenario)
    system = build_constraint_system(scenario)
    results = {"lp": system.to_document(), "rhs": None}
    if dist is not None:
        results["rhs"] = [_num(v) for v in system.rhs(dist)]
    doc = _document(
        "dump-lp",
        echo,
        results,
        {"n_rows": system.n_rows, "n_variables": system.n_variables},
    )
    return doc, 0


# -- argument parsing ----------------------------------------------------------------------


def _add_input_arguments(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--preset", choices=PRESET_NAMES, help="embedded example scenario")
    sp.add_argument("--records", help="delimited unit records (z, x_star, y)")
    sp.add_argument("--summary", help="YAML summary counts document")
    sp.add_argument("--scenario", help="YAML scenario document")
    sp.add_argument("--coarsening", help="YAML coarsening map applied to --records")
    sp.add_argument(
        "--estimand",
        choices=("risk_difference", "counterfactual_risk"),
        help="override the scenario's estimand kind",
    )
    sp.add_argument("--x", help="estimand baseline level")
    sp.add_argument("--x-prime", dest="x_prime", help="estimand comparison level")


def _add_cap_arguments(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-variables", type=int, default=MAX_VARIABLES)
    sp.add_argument("--max-rows", type=int, default=MAX_ROWS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarseiv",
        description=(
            "Tight nonparametric bounds on causal contrasts of a coarsened "
            "exposure under instrumental-variable assumptions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"coarseiv {VERSION}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("bounds", help="point bounds (closed form and exact LP)")
    _add_input_arguments(sp)
    _add_cap_arguments(sp)
    sp.add_argument(
        "--slack",
        action="store_true",
        help="project infeasible data onto the scenario polytope before solving",
    )
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("ci", help="bootstrap confidence intervals for the bounds")
    _add_input_arguments(sp)
    sp.add_argument(
        "--method", required=True, choices=("percentile", "mn", "multinomial")
    )
    sp.add_argument("--bootstrap", type=int, default=2000, metavar="B")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--tails", choices=("pointwise", "symmetric"), default="pointwise")
    sp.add_argument("--m-rule", dest="m_rule", choices=("power", "grid"), default="power")
    sp.add_argument("--power", type=float, default=0.75)
    sp.add_argument("--rho", type=float, default=0.75)
    sp.add_argument("--grid", type=int, default=8)
    sp.add_argument(
        "--force",
        action="store_true",
        help="allow m-out-of-n on estimands other than a counterfactual risk",
    )
    sp.set_defaults(func=cmd_ci)

    sp = sub.add_parser("derive", help="derive symbolic bound term sets")
    _add_input_arguments(sp)
    _add_cap_arguments(sp)
    sp.add_argument("--format", choices=("text", "latex", "json"), default="text")
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("verify", help="run the brute-force verification oracle")
    _add_input_arguments(sp)
    sp.add_argument(
        "--suite",
        choices=("all", "validity", "tightness", "equivalences", "collapse"),
        default="all",
    )
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reproduce", help="recompute the embedded examples")
    sp.add_argument("example", choices=EXAMPLES)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("dump-lp", help="export the constraint system as JSON")
    _add_input_arguments(sp)
    sp.set_defaults(func=cmd_dump_lp)

    return parser


def _scenario_label(args) -> str:
    for attr in ("preset", "scenario", "example"):
        value = getattr(args, attr, None)
        if value:
            return f"{attr} {value}"
    return "no scenario"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDistribution as exc:
        print(f"error: {exc}", file=sys.stderr)
        cert = {
            str(k): f"{Fraction(v).numerator}/{Fraction(v).denominator}"
            for k, v in (exc.certificate or {}).items()
            if v
        }
        print(
            "infeasibility certificate (combination of observed cells "
            f"proving no model fits): {json.dumps(cert, sort_keys=True)}",
            file=sys.stderr,
        )
        return 3
    except ExcessiveInfeasibility as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RuntimeError, AssertionError) as exc:
        # A broken engine invariant: pivot limit, zero pivot, unbounded LP,
        # crossed bounds or an invalid Farkas certificate.  The seed, where
        # the subcommand takes one, makes the run replayable.
        where = _scenario_label(args)
        if getattr(args, "seed", None) is not None:
            where += f", seed {args.seed}"
        print(
            f"internal error in {args.subcommand} ({where}): "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 5
    try:
        if isinstance(payload, str):
            print(payload)
        else:
            _emit(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`coarseiv ... | head`).  Point stdout at
        # devnull so that the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())

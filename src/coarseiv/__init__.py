"""Tight nonparametric bounds on causal contrasts of a coarsened exposure
under instrumental-variable assumptions.

The package computes exact-rational partial-identification intervals for
counterfactual risks and risk differences when the analyzed exposure is a
coarsening of the treatment actually received, including scenarios where
some coarsened levels have ambiguous counterfactuals or instrument-dependent
outcomes.  It provides:

* an exact linear-programming engine over response-function types
  (:mod:`~coarseiv.exactlp`, :mod:`~coarseiv.response`, :mod:`~coarseiv.bounds`);
* transcribed closed-form bound formulas and machine derivation of symbolic
  term sets by dual-polyhedron vertex enumeration (:mod:`~coarseiv.symbolic`);
* bootstrap confidence intervals for the bound endpoints
  (:mod:`~coarseiv.inference`);
* a brute-force verification oracle (:mod:`~coarseiv.oracle`);
* embedded example datasets and a command-line interface
  (:mod:`~coarseiv.datasets`, :mod:`~coarseiv.cli`).
"""

from .bounds import (
    BoundResult,
    BoundsSolver,
    InfeasibleDistribution,
    classic_term_sets,
    closed_form_classic,
    closed_form_for,
    closed_form_single_level,
    closed_form_ternary_contrast,
    numeric_bounds,
    single_level_term_sets,
    ternary_term_sets,
)
from .data import (
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
from .inference import (
    BootstrapSpec,
    ExcessiveInfeasibility,
    IntervalResult,
    m_out_of_n_ci,
    parametric_multinomial_ci,
    percentile_ci,
)
from .oracle import (
    RandomScm,
    check_equivalences,
    check_tightness,
    check_validity,
    sample_scm,
    contamination_collapse,
)
from .response import CapExceeded, ConstraintSystem, build_constraint_system
from .symbolic import (
    SymbolicBoundSet,
    Term,
    derive_symbolic,
    format_bound_set,
    format_term,
    term_sets_equal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BoundsSolver",
    "BootstrapSpec",
    "CapExceeded",
    "CoarseningMap",
    "ConstraintSystem",
    "Estimand",
    "ExcessiveInfeasibility",
    "ExposureLevel",
    "InfeasibleDistribution",
    "InputError",
    "IntervalEntry",
    "IntervalResult",
    "ObservedDistribution",
    "RandomScm",
    "RawRecord",
    "Scenario",
    "SymbolicBoundSet",
    "Term",
    "build_constraint_system",
    "check_equivalences",
    "check_tightness",
    "check_validity",
    "classic_term_sets",
    "closed_form_classic",
    "closed_form_for",
    "closed_form_single_level",
    "closed_form_ternary_contrast",
    "coarsen",
    "derive_symbolic",
    "expand_records",
    "format_bound_set",
    "format_term",
    "load_coarsening",
    "load_records",
    "load_scenario",
    "load_summary",
    "m_out_of_n_ci",
    "numeric_bounds",
    "parametric_multinomial_ci",
    "percentile_ci",
    "sample_scm",
    "contamination_collapse",
    "single_level_term_sets",
    "tabulate",
    "ternary_term_sets",
    "term_sets_equal",
    "validate",
    "__version__",
]

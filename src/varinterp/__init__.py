"""Variational interpolation between weak- and strong-coupling expansions.

A divergent weak-coupling series sum a_n alpha^n is reexpanded around a
variational trial frequency and matched, through its exact strong-coupling
limit, to a known expansion alpha^(p/q) sum b_n alpha^(-2n/q).  The same
machinery runs in reverse to infer unknown series coefficients from the
opposite regime.  Bundled applications: the quartic anharmonic oscillator
and the optical polaron (ground-state energy and effective mass).
"""

from .errors import (
    DegenerateCurvature,
    FloatOverflow,
    IllConditioned,
    NoCandidate,
    NoConvergence,
    NoExtremum,
    VarInterpError,
)
from .models import (
    AHO_B0,
    FEYNMAN_MASS_STRONG,
    MODEL_NAMES,
    FeynmanParams,
    ModelSpec,
    aho_omega1,
    builtin,
    feynman_energy,
    feynman_mass,
)
from .oracle import FitResult, aho_exact_energy, asymptotic_fit, b_numeric
from .reexpand import TrialFunction, build_fn, build_trial
from .series import (
    LaurentPoly,
    ScalingLaw,
    StrongSeries,
    WeakSeries,
    binom_general,
)
from .solvers import (
    FrequencyResult,
    GridPoint,
    InferenceProblem,
    InferenceSolution,
    extend_model,
    find_omega,
    infer_coefficients,
    interpolant,
)
from .strong_limit import StrongCoeffs, b_of_c, b_poly, correct_bn, optimize_c

__version__ = "1.0.0"

__all__ = [
    "AHO_B0",
    "FEYNMAN_MASS_STRONG",
    "MODEL_NAMES",
    "DegenerateCurvature",
    "FeynmanParams",
    "FitResult",
    "FloatOverflow",
    "FrequencyResult",
    "GridPoint",
    "IllConditioned",
    "InferenceProblem",
    "InferenceSolution",
    "LaurentPoly",
    "ModelSpec",
    "NoCandidate",
    "NoConvergence",
    "NoExtremum",
    "ScalingLaw",
    "StrongCoeffs",
    "StrongSeries",
    "TrialFunction",
    "VarInterpError",
    "WeakSeries",
    "aho_exact_energy",
    "aho_omega1",
    "asymptotic_fit",
    "b_numeric",
    "b_of_c",
    "b_poly",
    "binom_general",
    "build_fn",
    "build_trial",
    "builtin",
    "correct_bn",
    "extend_model",
    "feynman_energy",
    "feynman_mass",
    "find_omega",
    "infer_coefficients",
    "interpolant",
    "optimize_c",
]

"""Bundled applications: quartic oscillator and the optical polaron.

The three builtin model specs carry the published series data; the Feynman
variational energy/mass formulas (R. P. Feynman, Phys. Rev. 97, 660 (1955);
T. D. Schultz, Phys. Rev. 116, 526 (1959)) serve as the all-coupling
comparison baseline for the polaron.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .series import ScalingLaw, WeakSeries

__all__ = [
    "ModelSpec",
    "FeynmanParams",
    "builtin",
    "MODEL_NAMES",
    "feynman_energy",
    "feynman_mass",
    "aho_omega1",
    "AHO_B0",
    "FEYNMAN_MASS_STRONG",
]

# Leading strong-coupling coefficient of the quartic oscillator ground
# state (precision eigenvalue literature value).
AHO_B0 = 0.667986259155777108270962016919860

def __getattr__(name: str):
    """`integrate` and `optimize` are scipy's, imported on first use.

    Only the Feynman baseline needs them, and they add ~24 MB and ~0.3 s
    to an import that `infer` and the oscillator curves would never use.
    """
    if name in ("integrate", "optimize"):
        return importlib.import_module(f"scipy.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Exact large-coupling asymptote of the Feynman mass formula, m ~ this * alpha^4,
# following from v -> 4 alpha^2 / (9 pi) at strong coupling.
FEYNMAN_MASS_STRONG = 16.0 / (81.0 * math.pi**2)

# Polaron series data: energy after removal of the overall -alpha factor,
# i.e. the series for -E/alpha.
POLARON_ENERGY_WEAK = (1.0, 0.0159196220, 0.000806070048)
POLARON_ENERGY_STRONG = (0.108513, 2.836)
POLARON_MASS_WEAK = (1, Fraction(1, 6), 0.02362763)
POLARON_MASS_STRONG = (0.0227019,)

MODEL_NAMES = ("aho", "polaron_energy", "polaron_mass")


@dataclass(frozen=True)
class ModelSpec:
    """Weak series + scaling law + known strong targets for one quantity."""

    name: str
    weak: WeakSeries
    law: ScalingLaw
    known_strong: tuple[float, ...]
    omega: float = 1.0
    # physical value = prefactor * W(alpha); "none" or "neg_alpha" (E = -alpha W)
    prefactor: str = "none"
    # alpha = coupling_scale * native coupling (g for the oscillator)
    coupling_scale: Fraction = Fraction(1)
    coupling_name: str = "alpha"

    def to_alpha(self, coupling: float) -> float:
        return float(self.coupling_scale * coupling)

    def apply_prefactor(self, alpha: float, w_value: float) -> float:
        if self.prefactor == "neg_alpha":
            return -alpha * w_value
        return w_value


def builtin(name: str) -> ModelSpec:
    if name == "aho":
        return ModelSpec(
            name="aho",
            weak=WeakSeries([Fraction(1, 2)], label="quartic oscillator E0"),
            law=ScalingLaw(1, 3),
            known_strong=(AHO_B0,),
            coupling_scale=Fraction(1, 4),
            coupling_name="g",
        )
    if name == "polaron_energy":
        return ModelSpec(
            name="polaron_energy",
            weak=WeakSeries(POLARON_ENERGY_WEAK, label="polaron -E/alpha"),
            law=ScalingLaw(1, 1),
            known_strong=POLARON_ENERGY_STRONG,
            prefactor="neg_alpha",
        )
    if name == "polaron_mass":
        return ModelSpec(
            name="polaron_mass",
            weak=WeakSeries(POLARON_MASS_WEAK, label="polaron mass"),
            law=ScalingLaw(4, 1),
            known_strong=POLARON_MASS_STRONG,
        )
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def aho_omega1(g: float, a1: float, omega: float = 1.0) -> float:
    """Positive root of Omega^3 - omega^2 Omega - 2 a1 g = 0 in closed form.

    This is the stationary trial frequency of the first-order oscillator
    approximant; hyperbolic branch above the coupling 2 omega^3 / (3 sqrt(3) *
    2 a1), trigonometric branch below.
    """
    if g < 0:
        raise ValueError(f"coupling must be nonnegative, got {g}")
    if g == 0:
        return omega
    gamma = 3.0 * math.sqrt(3.0) * a1 * g / omega**3
    if gamma > 1.0:
        theta = math.acosh(gamma) / 3.0
        return 2.0 / math.sqrt(3.0) * omega * math.cosh(theta)
    theta = math.acos(gamma) / 3.0
    return 2.0 / math.sqrt(3.0) * omega * math.cos(theta)


# ---------------------------------------------------------------------------
# Feynman's variational polaron formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeynmanParams:
    v: float
    w: float

    def __post_init__(self):
        if not (self.v >= self.w > 0):
            raise ValueError(f"need v >= w > 0, got v={self.v}, w={self.w}")


# 48-node Gauss-Legendre rule on [-1, 1] for the search
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _kernel(tau, v: float, w: float):
    return w * w * tau - (v * v - w * w) * np.expm1(-v * tau) / v


# Both integrands take tau = t^2, which removes the tau^(-1/2) root at 0.
# Neither rule samples t = 0 (quadpack's Kronrod nodes and the Gauss nodes
# are interior), where the energy integrand's limit is 2 / v.


def _energy_integrand(t, v: float, w: float):
    """int_0^inf dtau e^-tau / sqrt(kernel), as an integrand in t."""
    tau = t * t
    return 2.0 * t * np.exp(-tau) / np.sqrt(_kernel(tau, v, w))


def _mass_integrand(t, v: float, w: float):
    """int_0^inf dtau tau^2 e^-tau * kernel^(-3/2), as an integrand in t."""
    tau = t * t
    return 2.0 * t * tau * tau * np.exp(-tau) * _kernel(tau, v, w) ** -1.5


def _pieces(v: float) -> tuple[float, float, float]:
    """t in [0, 12], split past the 1/v boundary layer of the kernel.

    At the split, e^(-v tau) = e^-36 is below roundoff, so the layer sits
    whole in the first piece; the second piece is smooth on the scale of
    its nodes at any v, as the v-derivatives of the kernel need.
    """
    return 0.0, min(1.0, 6.0 / math.sqrt(v)), 12.0


def _split_quad(f, v: float, w: float) -> float:
    """Adaptive quad of f(t, v, w) over each piece.

    quadpack's roundoff chatter at tight tolerances is expected here; the
    achieved accuracy is validated against the published weak/strong
    coefficients in the acceptance suite.
    """
    from scipy import integrate

    t0, t1, t2 = _pieces(v)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        a, _ = integrate.quad(f, t0, t1, args=(v, w), epsabs=1e-12, epsrel=1e-11, limit=300)
        b, _ = integrate.quad(f, t1, t2, args=(v, w), epsabs=1e-12, epsrel=1e-11, limit=300)
    return a + b


def _gauss_rule(v: float):
    """Nodes t and weights of the fixed rule on each piece, shape (2, 48)."""
    ends = np.array(_pieces(v))
    half = 0.5 * np.diff(ends)[:, None]
    t = 0.5 * (ends[:-1] + ends[1:])[:, None] + half * _GL_NODES
    return t, half * _GL_WEIGHTS


def _fixed_gauss(f, v: float, w: float) -> float:
    """The fixed Gauss-Legendre rule on each piece, in one numpy pass."""
    t, weights = _gauss_rule(v)
    return float(np.sum(weights * f(t, v, w)))


def _trial_energy(alpha: float, v: float, w: float, rule=_split_quad) -> float:
    # the v in front of the integral makes the v = w limit come out as
    # exactly -alpha (free-particle normalization of the memory kernel)
    return 0.75 * (v - w) ** 2 / v - alpha * v / math.sqrt(math.pi) * rule(_energy_integrand, v, w)


def _energy_derivs(alpha: float, v: float, w: float):
    """E, its gradient and its Hessian on the fixed rule, in one numpy pass.

    The variables are (v, d) with d = v - w: E = 3 d^2 / (4 v) - alpha v J / sqrt(pi)
    with J = int dtau e^-tau K^-1/2, so J_x = -1/2 int e^-tau K^-3/2 K_x and
    J_xy = int e^-tau (3/4 K^-5/2 K_x K_y - 1/2 K^-3/2 K_xy), with K and its
    (v, w) partials in closed form.  At weak coupling E depends on v only at
    order alpha^2; in (v, d) that curvature is not the difference of O(1)
    entries, so it stays above roundoff down to alpha ~ 1e-13.
    Returns E, (E_v, E_d), (E_vv, E_vd, E_dd) as floats.
    """
    t, weights = _gauss_rule(v)
    tau = t * t
    em1 = np.expm1(-v * tau)
    ex = em1 + 1.0
    r = w / v
    u = v - w * r  # (v^2 - w^2) / v
    K = w * w * tau - u * em1
    Kv = u * tau * ex - (1.0 + r * r) * em1
    Kw = 2.0 * w * tau + 2.0 * r * em1
    Kvv = 2.0 * r * r / v * em1 + (2.0 * (1.0 + r * r) - u * tau) * tau * ex
    Kvw = -2.0 * r * (em1 / v + tau * ex)
    Kww = 2.0 * tau + 2.0 / v * em1
    k1 = K ** -0.5
    k3 = -0.5 * k1 / K  # -1/2 K^-3/2
    k5 = -1.5 * k3 / K  # 3/4 K^-5/2
    f = np.stack([k1, k3 * Kv, k3 * Kw,
                  k5 * Kv * Kv + k3 * Kvv, k5 * Kv * Kw + k3 * Kvw, k5 * Kw * Kw + k3 * Kww])
    J, Jv, Jw, Jvv, Jvw, Jww = np.sum(f * (weights * 2.0 * t * np.exp(-tau)), axis=(1, 2)).tolist()
    # d/dv at fixed d is d/dv + d/dw at fixed w; d/dd is -d/dw
    Ju, Juu, Jud = Jv + Jw, Jvv + 2.0 * Jvw + Jww, -(Jvw + Jww)
    s = alpha / math.sqrt(math.pi)
    d = v - w
    E = 0.75 * d * d / v - s * v * J
    grad = (-0.75 * d * d / (v * v) - s * (J + v * Ju), 1.5 * d / v + s * v * Jw)
    hess = (1.5 * d * d / (v * v * v) - s * (2.0 * Ju + v * Juu),
            -1.5 * d / (v * v) - s * (v * Jud - Jw),
            1.5 / v - s * v * Jww)
    return E, grad, hess


_NEWTON_STEPS = 30
_EPS = float(np.finfo(float).eps)


def _newton_optimum(alpha: float) -> FeynmanParams | None:
    """Damped Newton on grad E = 0; None unless it certifies a minimum.

    Cold start from a closed form: near (3, 3) while the strong-coupling
    asymptote v = 4 alpha^2 / (9 pi) is below 12, at (that v, 1) above.
    Every iterate must have a positive-definite Hessian, so each step
    descends; a step is halved until v >= w > 0 and neither v nor w falls
    below half its value.  The run stops when the Newton decrement
    g.H^-1.g reaches the roundoff floor of E.
    """
    v_strong = 4.0 * alpha * alpha / (9.0 * math.pi)
    v, w = (3.0 + 0.1 * alpha, 3.0 - 0.1 * alpha) if v_strong < 12.0 else (v_strong, 1.0)
    for _ in range(_NEWTON_STEPS):
        E, (gv, gd), (hvv, hvd, hdd) = _energy_derivs(alpha, v, w)
        det = hvv * hdd - hvd * hvd
        if not (hvv > 0.0 and det > 0.0 and math.isfinite(det)):
            return None
        sv, sd = (hdd * gv - hvd * gd) / det, (hvv * gd - hvd * gv) / det
        if gv * sv + gd * sd <= _EPS * abs(E):
            return FeynmanParams(v=v, w=w)
        d, lam = v - w, 1.0
        for _ in range(60):
            vt = v - lam * sv
            wt = vt - (d - lam * sd)
            if vt >= wt > 0.5 * w and vt > 0.5 * v:
                break
            lam *= 0.5
        else:
            return None
        v, w = vt, wt
    return None


def _nelder_mead(alpha: float) -> FeynmanParams:
    """Three Nelder-Mead starts on the fixed rule; the lowest end wins.

    The energy tolerance is relative to |E| at the first start, so a run
    stops by tolerance where |E| is large rather than at maxfev.
    """
    from scipy import optimize

    def objective(x):
        w, delta = x
        if w <= 0 or delta < 0:
            return math.inf
        return _trial_energy(alpha, w + delta, w, rule=_fixed_gauss)

    starts = [
        (3.0, max(0.05 * alpha, 1e-4)),
        (1.0, max(4.0 * alpha**2 / (9.0 * math.pi), 1.0)),
        (2.0, 2.0),
    ]
    fatol = 1e-14 * abs(objective(starts[0]))
    best = None
    for x0 in starts:
        res = optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": fatol, "maxiter": 4000, "maxfev": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    w, delta = best.x
    return FeynmanParams(v=w + delta, w=w)


def feynman_energy(alpha: float) -> tuple[float, FeynmanParams]:
    """Feynman's variational polaron ground-state energy and its optimum.

    Damped Newton on the fixed Gauss rule finds (v, w), with Nelder-Mead as
    the fallback where Newton does not certify a minimum; the reported
    energy is the adaptive quad value at the optimum, where it is stationary.
    """
    if alpha < 0:
        raise ValueError(f"coupling must be nonnegative, got {alpha}")
    if alpha == 0.0:
        return 0.0, FeynmanParams(v=3.0, w=3.0)
    prm = _newton_optimum(alpha) or _nelder_mead(alpha)
    return _trial_energy(alpha, prm.v, prm.w), prm


def _mass_at(alpha: float, prm: FeynmanParams) -> float:
    """Feynman's mass formula at given variational parameters."""
    return 1.0 + alpha * prm.v**3 / (3.0 * math.sqrt(math.pi)) * _split_quad(
        _mass_integrand, prm.v, prm.w)


def feynman_mass(alpha: float) -> float:
    """Feynman's variational polaron mass at the energy-optimal parameters."""
    return _mass_at(alpha, feynman_energy(alpha)[1])

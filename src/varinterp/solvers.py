"""Trial-frequency optimization and weak-coefficient inference.

`find_omega` finds the stationary trial frequency on the branch of the most
negative root of K (scanning when there is none).  `infer_coefficients` runs
the algorithm backwards: given leading strong-coupling coefficients, it
solves for unknown high-order weak coefficients together with the growth
constant c by damped Newton iteration on an analytic Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import strong_limit
from .errors import FloatOverflow, NoCandidate, NoConvergence, NoExtremum
from .reexpand import TrialFunction, build_trial
from .series import LaurentPoly, ScalingLaw, WeakSeries, _bracketed_newton, scan_roots

__all__ = [
    "FrequencyResult",
    "InferenceProblem",
    "InferenceSolution",
    "GridPoint",
    "find_omega",
    "infer_coefficients",
    "extend_model",
    "interpolant",
]


@dataclass(frozen=True)
class FrequencyResult:
    Omega: float
    kind: str  # "extremum" | "turning_point"
    candidates: int


def find_omega(t: TrialFunction, alpha: float) -> FrequencyResult:
    """Stationary trial frequency for one coupling value.

    The extremum lies on the branch alpha Omega^-q = r* (w^2/Omega^2 - 1) of the
    most negative root r* of K (`reexpand.branch_roots`); on Omega > w, one
    bracketed Newton solve finds it, as Omega^(q-2) (Omega^2 - w^2) increases.
    Without a negative root, extrema and then turning points are scanned for.
    """
    if not alpha >= 0:  # NaN fails this too
        raise ValueError(f"coupling must be nonnegative, got {alpha}")
    alpha = float(alpha)  # numpy scalars would slow every trial evaluation
    w, q = t.omega, float(t.law.q)
    if alpha == 0.0:
        return FrequencyResult(Omega=w, kind="extremum", candidates=1)
    kind = "extremum"
    try:  # a float power of the window or of a Newton step may overflow
        if t.branch_roots:
            A = alpha / -t.branch_roots[0]  # underflows to 0 only where Omega rounds to w
            if A == math.inf:
                raise OverflowError(f"alpha/(-r*) overflows, r* = {t.branch_roots[0]}")
            hi = max(1.5 * w, (2.0 * A) ** (1.0 / q))
            roots = [_bracketed_newton(lambda x: x ** (q - 2) * (x - w) * (x + w) - A,
                                       lambda x: x ** (q - 3) * (q * x * x - (q - 2) * w * w),
                                       w, hi, -A) if A else w]
        else:
            def deriv(k):
                return lambda x: t.deriv(alpha, x, k)

            lo, hi = 1e-3 * w, max(10.0 * w, 10.0 * alpha ** (1.0 / q))
            # turning points split the window into monotone pieces of dW/dOmega;
            # adding them to the grid catches extremum pairs that straddle a
            # turning point more closely than the grid spacing (small-alpha regime)
            turning = scan_roots(deriv(2), deriv(3), lo, hi, 400)
            roots = scan_roots(deriv(1), deriv(2), lo, hi, 400, extra=turning)
            if not roots:
                roots, kind = turning, "turning_point"
    except OverflowError as exc:
        raise FloatOverflow(
            f"trial frequency leaves the float range at alpha={alpha}: {exc}") from exc
    if not roots:
        raise NoCandidate(f"no stationary point or turning point for alpha={alpha}")
    Omega = min(roots)
    k = 1 if kind == "extremum" else 2
    resid = abs(t.deriv(alpha, Omega, k))
    scale = t.deriv_scale(alpha, Omega, k)
    if resid > 1e-11 * max(scale, 1e-300):
        raise NoCandidate(
            f"stationary-point residual {resid:.3e} above certificate at alpha={alpha}"
        )
    return FrequencyResult(Omega=Omega, kind=kind, candidates=len(t.branch_roots or roots))


@dataclass(frozen=True)
class InferenceProblem:
    known_a: tuple[Fraction, ...]
    unknown_count: int
    known_b: tuple[float, ...]
    law: ScalingLaw

    def __post_init__(self):
        if self.unknown_count < 1:
            raise ValueError("need at least one unknown coefficient")
        if len(self.known_b) != self.unknown_count:
            raise ValueError(
                "number of strong-coupling targets must equal the number of unknowns"
            )
        if not all(math.isfinite(b) for b in self.known_b):
            raise ValueError("strong-coupling targets must be finite")


@dataclass(frozen=True)
class InferenceSolution:
    extension: tuple[float, ...]
    c: float
    residuals: tuple[float, ...]
    iterations: int


def _basis_tables(p: InferenceProblem):
    """g[n][l], g'[n][l], g''[0][l] as Laurent polynomials in c."""
    k = len(p.known_a) - 1
    m = p.unknown_count
    N = k + m
    g: list[list[LaurentPoly]] = []
    gp: list[list[LaurentPoly]] = []
    for n in range(m):
        row = [strong_limit.coeff_basis_poly(l, N, p.law, n) for l in range(N + 1)]
        g.append(row)
        gp.append([q.diff() for q in row])
    gpp0 = [q.diff() for q in gp[0]]
    return g, gp, gpp0


# scaled max-norm residual at which a Newton run counts as converged
_RESID_TOL = 1e-13
# a run stalls when its residual has not halved over this many steps
_STALL_STEPS = 10


def _newton_run(p: InferenceProblem, g, gp, gpp0, c0: float, max_iter: int = 200):
    """Damped Newton from (0, ..., 0, c0): final z, F, scaled residual, steps.

    The run ends on convergence, on a step that cannot reduce the residual,
    or on a stall: no halving of the residual over the last _STALL_STEPS.
    """
    k = len(p.known_a) - 1
    m = p.unknown_count
    N = k + m
    known = [float(a) for a in p.known_a]

    def full_a(z):
        return known + list(z[:m])

    def residual(z):
        a = full_a(z)
        c = z[m]
        F = []
        for n in range(m):
            F.append(sum(a[l] * _peval(g[n][l], c) for l in range(N + 1)) - p.known_b[n])
        F.append(sum(a[l] * _peval(gp[0][l], c) for l in range(N + 1)))
        return F

    def jacobian(z):
        a = full_a(z)
        c = z[m]
        J = []
        for n in range(m):
            row = [_peval(g[n][k + 1 + i], c) for i in range(m)]
            row.append(sum(a[l] * _peval(gp[n][l], c) for l in range(N + 1)))
            J.append(row)
        row = [_peval(gp[0][k + 1 + i], c) for i in range(m)]
        row.append(sum(a[l] * _peval(gpp0[l], c) for l in range(N + 1)))
        J.append(row)
        return J

    scale = [max(abs(b), 1.0) for b in p.known_b] + [1.0]

    def norm(F):
        return max(abs(f) / s for f, s in zip(F, scale))

    z = [0.0] * m + [c0]
    F = residual(z)
    nF = norm(F)
    history = [nF]
    for it in range(1, max_iter + 1):
        if z[m] <= 0 or not all(math.isfinite(v) for v in z):
            break
        try:
            step = np.linalg.solve(jacobian(z), F).tolist()
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(30):
            trial = [zi - lam * si for zi, si in zip(z, step)]
            if trial[m] > 0:
                Ft = residual(trial)
                nt = norm(Ft)
                if nt < nF or nt < 1e-15:
                    z, F, nF = trial, Ft, nt
                    improved = True
                    break
            lam *= 0.5
        history.append(nF)
        if (not improved or nF <= _RESID_TOL
                or it >= _STALL_STEPS and nF > 0.5 * history[-1 - _STALL_STEPS]):
            break
    return z, F, nF, it


def _peval(poly: LaurentPoly, c: float) -> float:
    return 0.0 if poly.is_zero() else poly.eval(c)


def infer_coefficients(p: InferenceProblem) -> InferenceSolution:
    """Solve {b_n(c; a) = b_n*, db0/dc = 0} for the unknown coefficients and c.

    Multistart damped Newton; among converged solutions the one with the
    smallest positive c wins.
    """
    g, gp, gpp0 = _basis_tables(p)

    inits: list[float] = []
    try:
        prefix = WeakSeries(list(p.known_a) + [0] * p.unknown_count)
        inits.append(strong_limit.optimize_c(prefix, p.law).c)
    except (NoExtremum, FloatOverflow, ValueError):
        pass
    inits += [10.0 ** e for e in (-2, -1, 0, 1, 2)]

    solutions = []
    best_resid = math.inf
    for c0 in inits:
        z, F, resid, its = _newton_run(p, g, gp, gpp0, c0)
        if not resid <= _RESID_TOL:  # NaN counts as failure
            best_resid = min(best_resid, resid)
            continue
        c = z[p.unknown_count]
        if c > 0:
            if not any(abs(c - s[1]) <= 1e-8 * c for s in solutions):
                solutions.append((z, c, F, its))
    if not solutions:
        raise NoConvergence(
            f"Newton failed from all starting points (best residual {best_resid:.3e})",
            best_residual=best_resid,
        )
    z, c, F, its = min(solutions, key=lambda s: s[1])
    return InferenceSolution(
        extension=tuple(z[: p.unknown_count]),
        c=c,
        residuals=tuple(F),
        iterations=its,
    )


def extend_model(spec):
    """Infer the unknown tail coefficients of a builtin/user model.

    One unknown per known strong-coupling target; returns the extended spec
    together with the inference solution.
    """
    from dataclasses import replace

    problem = InferenceProblem(
        known_a=spec.weak.coeffs,
        unknown_count=len(spec.known_strong),
        known_b=tuple(spec.known_strong),
        law=spec.law,
    )
    sol = infer_coefficients(problem)
    extended = replace(spec, weak=spec.weak.extended(sol.extension))
    return extended, sol


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    Omega: float
    value: float
    kind: str


def interpolant(spec, couplings) -> list[GridPoint]:
    """Optimized approximant over a grid in the model's native coupling.

    The returned values carry the model's prefactor (e.g. the removed
    -alpha for the polaron energy); `alpha` in each point is the native
    coupling as supplied.
    """
    t = build_trial(spec.weak, spec.law, spec.omega)
    out = []
    for g in couplings:
        a = spec.to_alpha(g)
        r = find_omega(t, a)
        value = spec.apply_prefactor(a, t.eval(a, r.Omega))
        out.append(GridPoint(alpha=g, Omega=r.Omega, value=value, kind=r.kind))
    return out

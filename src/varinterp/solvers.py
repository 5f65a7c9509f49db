"""Trial-frequency optimization and weak-coefficient inference.

`find_omega` finds the stationary trial frequency on the branch of the most
negative root of K (scanning when there is none).  `infer_coefficients` runs
the algorithm backwards: targets b_0*..b_{m-1}* fix the top m weak
coefficients a_{k+1..k+m} and the growth constant c in closed form.  As
b_n(c) = c^(p-2n) sum_l G_nl a_l c^(-lq) (G_nl = `strong_limit.basis_coeff`),
the targets are linear in u_i = a_{k+1+i} c^(-(k+1+i)q) through the c-free,
anti-triangular G_u[n][i] = G_{n,k+1+i}; with G_u^T y = h,
h_i = (p - (k+1+i)q) G_{0,k+1+i}, eliminating u turns db0/dc = 0 into

    Phi(c) = sum_{l<=k} a_l ((p - lq) G_0l - sum_n y_n G_nl) c^(-lq)
             + sum_{n<m} y_n b_n* c^(2n-p) = 0,

exact in its coefficients and a polynomial in s = c^(1/d) up to a power of s.
Its certified positive roots (`series.certified_roots`) are all the
solutions; the one nearest in |log c| to the growth constant of the known
coefficients alone wins, or the smallest root when they fix none.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import strong_limit
from .errors import FloatOverflow, NoCandidate, NoConvergence, NoExtremum
from .reexpand import TrialFunction, build_trial
from .series import ScalingLaw, WeakSeries, _bracketed_newton, certified_roots, scan_roots

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
    residuals: tuple[float, ...]  # b_n(c) - b_n* for n < m, then db0/dc
    iterations: int  # Newton steps that polished the chosen root
    roots: tuple[float, ...]  # every certified positive root c, ascending
    prefix_c: float | None  # growth constant of the known coefficients alone


def _anti_solve(M, rhs):
    """Solve M x = rhs for square M with M[r][j] = 0 whenever r + j >= len(M)."""
    x = []  # row r fixes x[len(M) - 1 - r]
    for r in range(len(M) - 1, -1, -1):
        x.append((rhs[r] - sum(a * b for a, b in zip(M[r], x))) / M[r][len(x)])
    return x


def infer_coefficients(p: InferenceProblem) -> InferenceSolution:
    """Solve {b_n(c; a) = b_n*, n < m; db0/dc = 0} for the m unknown a's and c.

    Every certified positive root of Phi (module docstring) is a solution.
    """
    law, m, k = p.law, p.unknown_count, len(p.known_a) - 1
    N = k + m
    G = [[strong_limit.basis_coeff(l, N, law, n) for l in range(N + 1)] for n in range(m)]
    pw = [law.p - l * law.q for l in range(N + 1)]  # power of c by a_l in b_0
    for i in range(m):
        if not G[m - 1 - i][k + 1 + i]:
            raise NoConvergence(f"a{k + 1 + i} is not determined (zero weight in b_{m - 1 - i})")
    y = _anti_solve([[row[l] for row in G] for l in range(k + 1, N + 1)],
                    [pw[l] * G[0][l] for l in range(k + 1, N + 1)])
    phi: defaultdict[Fraction, Fraction] = defaultdict(Fraction)  # exponent -> coefficient
    for l, a in enumerate(p.known_a):
        phi[-l * law.q] += a * (pw[l] * G[0][l] - sum(yn * row[l] for yn, row in zip(y, G)))
    for n, b in enumerate(p.known_b):
        phi[2 * n - law.p] += y[n] * Fraction(b)
    phi = {e: v for e, v in phi.items() if v}
    d = math.lcm(*(e.denominator for e in phi))
    lo = min(phi, default=0)
    P = [phi.get(lo + Fraction(j, d), 0) for j in range(int(d * (max(phi, default=0) - lo)) + 1)]

    Gf, pwf = [[float(g) for g in row] for row in G], [float(e) for e in pw]
    known = [float(a) for a in p.known_a]

    def b(n, a, c):  # b_n(c) for the coefficients a
        return math.fsum(g * al * c ** (e - 2 * n) for g, al, e in zip(Gf[n], a, pwf))

    def solve_at(c):  # unknowns and residuals at a root; OverflowError beyond the float range
        r = [(bn - b(n, known, c)) * c ** (2 * n - pwf[0]) for n, bn in enumerate(p.known_b)]
        u = _anti_solve([row[k + 1:] for row in Gf], r)
        a = known + [ui * c ** (pwf[0] - e) for ui, e in zip(u, pwf[k + 1:])]
        db0 = math.fsum(e * g * al * c ** (e - 1) for e, g, al in zip(pwf, Gf[0], a))
        return a[k + 1:], [b(n, a, c) - bn for n, bn in enumerate(p.known_b)] + [db0]

    roots, solutions = [], []
    for s, steps in certified_roots(P, +1):
        try:
            c = s**d
            if c > 0:  # not underflowed
                roots.append(c)
                solutions.append((c, *solve_at(c), steps))
        except (OverflowError, ValueError):  # a float power, or inf - inf in fsum
            pass
    solutions = [sol for sol in solutions if all(map(math.isfinite, sol[1]))]
    if not solutions:
        raise NoConvergence("no certified positive root of the stationarity polynomial gives "
                            f"finite coefficients (roots: {roots})")
    try:
        prefix_c = strong_limit.optimize_c(WeakSeries(list(p.known_a) + [0] * m), law).c
    except (NoExtremum, FloatOverflow, ValueError):
        prefix_c = None
    c, ext, resid, steps = min(solutions, key=(lambda sol: abs(math.log(sol[0] / prefix_c)))
                               if prefix_c is not None else (lambda sol: sol[0]))
    return InferenceSolution(extension=tuple(ext), c=c, residuals=tuple(resid),
                             iterations=steps, roots=tuple(roots), prefix_c=prefix_c)


def extend_model(spec):
    """Infer the unknown tail coefficients of a builtin/user model.

    One unknown per known strong-coupling target; returns the extended spec
    together with the inference solution.
    """
    from dataclasses import replace

    problem = InferenceProblem(
        known_a=spec.weak.coeffs,
        unknown_count=len(spec.known_strong),
        # b_n carries w^(2n) at baseline frequency w; the system is posed at w = 1
        known_b=tuple(b / spec.omega ** (2 * n) for n, b in enumerate(spec.known_strong)),
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

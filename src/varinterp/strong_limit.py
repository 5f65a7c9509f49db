"""Strong-coupling side of the interpolation.

For trial frequency growing like c * alpha^(1/q), the approximant acquires a
strong-coupling expansion alpha^(p/q) * sum b_n(c) alpha^(-2n/q) with

    b_n(c) = sum_l a_l sum_{j=n}^{N-l} C((p - l q)/2, j) C(j, n) (-1)^(j-n)
             * c^(p - l q - 2 n).

The growth constant c, the smallest positive stationary point of b_0, is
(-r*)^(-1/q) for r* the first of `reexpand.branch_roots`: db0/dc ~ K(-c^-q).
Because c itself drifts with alpha (c(alpha) = c + c_1 alpha^(-2/q) + ...),
the raw b_n(c) are converted to final coefficients by the correction rows
implemented in `correct_bn`; the two leading coefficients are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DegenerateCurvature, FloatOverflow, NoExtremum
from .reexpand import branch_roots
from .series import LaurentPoly, ScalingLaw, WeakSeries, binom_general

__all__ = ["StrongCoeffs", "b_poly", "b_of_c", "basis_coeff", "coeff_basis_poly", "optimize_c",
           "correct_bn"]

MAX_CORRECTED_ORDER = 4


def basis_coeff(l: int, N: int, law: ScalingLaw, n: int) -> Fraction:
    """G_nl = sum_{j=n}^{N-l} C((p - l q)/2, j) C(j, n) (-1)^(j-n), the weight of
    a_l c^(p - l q - 2 n) in b_n(c); zero for n > N - l."""
    x = (law.p - law.q * l) / 2
    return sum((binom_general(x, j) * binom_general(j, n) * (-1) ** (j - n)
                for j in range(n, N - l + 1)), Fraction(0))


def coeff_basis_poly(l: int, N: int, law: ScalingLaw, n: int) -> LaurentPoly:
    """Contribution of a unit weak coefficient a_l to b_n, as a poly in c."""
    e = 2 * (law.p - law.q * l - 2 * n)
    if e.denominator != 1:
        raise ValueError(f"power p - l q - 2 n = {e / 2} is not a half-integer")
    return LaurentPoly.term(basis_coeff(l, N, law, n), twice_exp=int(e))


def b_poly(s: WeakSeries, law: ScalingLaw, n: int) -> LaurentPoly:
    """Exact Laurent polynomial in c for b_n(c) at baseline frequency w = 1;
    at other w, b_n carries a further factor w^(2n)."""
    if n < 0:
        raise ValueError(f"coefficient index must be nonnegative, got {n}")
    N = s.order
    out = LaurentPoly.zero()
    for l, a in enumerate(s.coeffs):
        if a:
            out = out + coeff_basis_poly(l, N, law, n).scale(a)
    return out


def b_of_c(s: WeakSeries, law: ScalingLaw, n: int, c: float) -> float:
    """b_n(c) at baseline frequency w = 1 (see `b_poly`)."""
    if c <= 0:
        raise ValueError(f"growth constant must be positive, got {c}")
    return b_poly(s, law, n).eval(c)


@dataclass(frozen=True)
class StrongCoeffs:
    """Growth constant, raw b_n(c), and corrected strong coefficients."""

    c: float
    b_raw: tuple[float, ...]
    polys: tuple[LaurentPoly, ...]
    shifts: tuple[float, ...] = ()
    b_final: tuple[float, ...] = ()


def optimize_c(s: WeakSeries, law: ScalingLaw) -> StrongCoeffs:
    """Smallest positive stationary point of b_0(c), plus raw b_n values."""
    roots = branch_roots(s, law)
    if not roots:
        raise NoExtremum("K(r) has no negative root, so b_0(c) has no stationary point")
    try:
        c = (-roots[0]) ** (-1.0 / float(law.q))
    except OverflowError as exc:
        raise FloatOverflow(f"growth constant leaves the float range: {exc}") from exc
    polys = tuple(b_poly(s, law, n) for n in range(MAX_CORRECTED_ORDER + 1))
    b_raw = tuple(p.eval(c) for p in polys)
    return StrongCoeffs(c=c, b_raw=b_raw, polys=polys)


def _derivs(poly: LaurentPoly, c: float, kmax: int) -> list[float]:
    out = []
    p = poly
    for _ in range(kmax + 1):
        out.append(p.eval(c) if not p.is_zero() else 0.0)
        p = p.diff()
    return out


def correct_bn(sc: StrongCoeffs) -> StrongCoeffs:
    """Fill in shift coefficients c_1..c_3 and final b_0..b_4."""
    c = sc.c
    d = [_derivs(p, c, 4) for p in sc.polys]  # d[n][k] = b_n^(k)(c)
    b0pp = d[0][2]
    if b0pp == 0.0:
        raise DegenerateCurvature("b0''(c) = 0: correction scheme singular")
    c1 = -d[1][1] / b0pp
    b2f = d[2][0] + c1 * d[1][1] + 0.5 * c1**2 * b0pp
    c2 = -(d[2][1] + c1 * d[1][2] + 0.5 * c1**2 * d[0][3]) / b0pp
    b3f = (d[3][0] + c2 * d[1][1] + c1 * d[2][1] + c1 * c2 * b0pp
           + 0.5 * c1**2 * d[1][2] + c1**3 / 6.0 * d[0][3])
    c3 = -(d[3][1] + c2 * d[1][2] + c1 * d[2][2] + c1 * c2 * d[0][3]
           + 0.5 * c1**2 * d[1][3] + c1**3 / 6.0 * d[0][4]) / b0pp
    b4f = (d[4][0] + c3 * d[1][1] + c2 * d[2][1] + c1 * d[3][1]
           + (0.5 * c2**2 + c1 * c3) * b0pp + c1 * c2 * d[1][2]
           + 0.5 * c1**2 * d[2][2] + 0.5 * c1**2 * c2 * d[0][3]
           + c1**3 / 6.0 * d[1][3] + c1**4 / 24.0 * d[0][4])
    if not all(math.isfinite(x) for x in (c1, c2, c3, b2f, b3f, b4f)):
        raise DegenerateCurvature("correction scheme produced non-finite values")
    return replace(
        sc,
        shifts=(c1, c2, c3),
        b_final=(sc.b_raw[0], sc.b_raw[1], b2f, b3f, b4f),
    )

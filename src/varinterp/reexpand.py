"""Reexpansion of a weak-coupling series around a trial frequency.

The substitution w -> sqrt(W^2 + w^2 - W^2), with w^2 - W^2 counted as one
power of the coupling and the result truncated at total order N, turns the
plain series sum a_n alpha^n into a trial function

    W_N(alpha, W) = sum_n a_n alpha^n W^(p - q n) f_n(W),

    f_n(W) = sum_{j=0}^{N-n} C((p - q n)/2, j) (-1)^j (1 - w^2/W^2)^j,

whose stationary point in the trial frequency W supplies the approximant.
All f-polynomials are exact Laurent polynomials; derivatives are analytic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import LaurentPoly, ScalingLaw, WeakSeries, binom_general

__all__ = ["build_fn", "build_trial", "TrialFunction"]


def _u_poly() -> LaurentPoly:
    # u = 1 - w^2 / W^2
    return LaurentPoly.term(1) - LaurentPoly.term(1, twice_exp=-4, w2_pow=1)


def build_fn(n: int, N: int, law: ScalingLaw) -> LaurentPoly:
    """The reexpansion factor f_n as an exact Laurent polynomial."""
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    x = (law.p - law.q * n) / 2
    u = _u_poly()
    out = LaurentPoly.zero()
    upow = LaurentPoly.one()
    for j in range(N - n + 1):
        c = binom_general(x, j)
        if j % 2:
            c = -c
        out = out + upow.scale(c)
        upow = upow * u
    return out


def _term_poly(n: int, N: int, law: ScalingLaw) -> LaurentPoly:
    """W^(p - q n) * f_n(W); the leading power must be a half-integer."""
    e = 2 * (law.p - law.q * n)
    if e.denominator != 1:
        raise ValueError(f"exponent p - q n = {(law.p - law.q * n)} is not a half-integer")
    return build_fn(n, N, law).shift(int(e))


@dataclass(frozen=True)
class TrialFunction:
    """Reexpanded series with its exact per-order Laurent polynomials."""

    coeffs: tuple[Fraction, ...]
    law: ScalingLaw
    omega: float
    term_polys: tuple[LaurentPoly, ...]
    d1_polys: tuple[LaurentPoly, ...]
    d2_polys: tuple[LaurentPoly, ...]
    d3_polys: tuple[LaurentPoly, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _combine(self, polys, alpha: float, Omega: float) -> float:
        if Omega <= 0:
            raise ValueError(f"trial frequency must be positive, got {Omega}")
        total = 0.0
        apow = 1.0
        for a, poly in zip(self.coeffs, polys):
            if not poly.is_zero():
                total += float(a) * apow * poly.eval(Omega, self.omega)
            apow *= alpha
        return total

    def eval(self, alpha: float, Omega: float) -> float:
        return self._combine(self.term_polys, alpha, Omega)

    def _deriv_polys(self, k: int) -> tuple[LaurentPoly, ...]:
        if k not in (1, 2, 3):
            raise ValueError(f"only derivatives of order 1 to 3 supported, got k={k}")
        return (self.d1_polys, self.d2_polys, self.d3_polys)[k - 1]

    def deriv(self, alpha: float, Omega: float, k: int = 1) -> float:
        return self._combine(self._deriv_polys(k), alpha, Omega)

    def deriv_scale(self, alpha: float, Omega: float, k: int = 1) -> float:
        """Sum of absolute monomial contributions; tolerance yardstick."""
        polys = self._deriv_polys(k)
        total = 0.0
        apow = 1.0
        for a, poly in zip(self.coeffs, polys):
            if not poly.is_zero():
                total += abs(float(a) * apow) * poly.eval_abs(Omega, self.omega)
            apow *= alpha
        return total


def build_trial(s: WeakSeries, law: ScalingLaw, omega: float = 1.0) -> TrialFunction:
    if omega <= 0:
        raise ValueError(f"baseline frequency must be positive, got {omega}")
    N = s.order
    polys = tuple(_term_poly(n, N, law) for n in range(N + 1))
    d1 = tuple(p.diff() for p in polys)
    d2 = tuple(p.diff() for p in d1)
    d3 = tuple(p.diff() for p in d2)
    return TrialFunction(
        coeffs=s.coeffs, law=law, omega=omega,
        term_polys=polys, d1_polys=d1, d2_polys=d2, d3_polys=d3,
    )

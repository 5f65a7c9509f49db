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

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FloatOverflow
from .series import LaurentPoly, ScalingLaw, WeakSeries, binom_general, certified_roots

__all__ = ["branch_roots", "build_fn", "build_trial", "TrialFunction"]


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
    """Reexpanded series: exact per-order polynomials and their float table.

    `table[k]` holds d^k W_N / dOmega^k, k = 0..3, as (n, e, c) monomials
    c * alpha^n * Omega^e, each c rounded once with w and a_n bound exactly.
    `branch_roots` are the certified negative roots of K, most negative first.
    """

    coeffs: tuple[Fraction, ...]
    law: ScalingLaw
    omega: float
    term_polys: tuple[LaurentPoly, ...]
    table: tuple[tuple[tuple[int, float, float], ...], ...]
    branch_roots: tuple[float, ...]

    def _monomials(self, alpha: float, Omega: float, k: int):
        if Omega <= 0:
            raise ValueError(f"trial frequency must be positive, got {Omega}")
        return (c * alpha**n * Omega**e for n, e, c in self.table[k])

    def _deriv_monomials(self, alpha: float, Omega: float, k: int):
        if k not in (1, 2, 3):
            raise ValueError(f"only derivatives of order 1 to 3 supported, got k={k}")
        return self._monomials(alpha, Omega, k)

    def eval(self, alpha: float, Omega: float) -> float:
        return _fsum(self._monomials(alpha, Omega, 0))

    def deriv(self, alpha: float, Omega: float, k: int = 1) -> float:
        return _fsum(self._deriv_monomials(alpha, Omega, k))

    def deriv_scale(self, alpha: float, Omega: float, k: int = 1) -> float:
        """Sum of absolute monomial contributions; tolerance yardstick."""
        return _fsum(abs(m) for m in self._deriv_monomials(alpha, Omega, k))


def _fsum(monomials) -> float:
    """math.fsum, reporting a sum that leaves the float range as a typed error."""
    try:
        total = math.fsum(monomials)
    except (OverflowError, ValueError) as exc:  # float power, or inf - inf
        raise FloatOverflow(f"trial function overflows: {exc}") from exc
    if not math.isfinite(total):  # a float product overflows without raising
        raise FloatOverflow(f"trial function overflows: sum is {total}")
    return total


def branch_roots(s: WeakSeries, law: ScalingLaw) -> tuple[float, ...]:
    """Certified negative real roots of K(r) = sum_n k_n r^n, most negative first.

    dW_N/dW = W^(p-1) sum_n k_n y^n v^(N-n), with y = alpha W^-q, v = w^2/W^2 - 1
    and k_n = a_n (p - q n) C((p - q n)/2 - 1, N - n), so every extremum lies on
    y = r v with K(r) = 0.  The roots are certified by `series.certified_roots`.
    """
    N = s.order
    k = [a * (law.p - law.q * n) * binom_general((law.p - law.q * n) / 2 - 1, N - n)
         for n, a in enumerate(s.coeffs)]
    return tuple(r for r, _ in certified_roots(k, -1))


def build_trial(s: WeakSeries, law: ScalingLaw, omega: float = 1.0) -> TrialFunction:
    if omega <= 0:
        raise ValueError(f"baseline frequency must be positive, got {omega}")
    N = s.order
    polys = tuple(_term_poly(n, N, law) for n in range(N + 1))
    level = [p.subs_w(omega).scale(a) for p, a in zip(polys, s.coeffs)]
    table = []
    for _ in range(4):
        table.append(tuple((n, e2 / 2, float(row[0]))
                           for n, p in enumerate(level) for e2, row in p.items()))
        level = [p.diff() for p in level]
    return TrialFunction(coeffs=s.coeffs, law=law, omega=omega, term_polys=polys,
                         table=tuple(table), branch_roots=branch_roots(s, law))

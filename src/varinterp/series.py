"""Exact series containers and Laurent-polynomial arithmetic.

Everything here is exact: coefficients are `fractions.Fraction` (floats are
converted to their exact binary value), and Laurent exponents may be
half-integers, stored doubled.  Floating point enters only in `eval`, in
`_bracketed_newton`, the bracketed root finder of `scan_roots` and `find_omega`,
and in `certified_roots`, the real roots of an exact polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import FloatOverflow

__all__ = [
    "binom_general",
    "WeakSeries",
    "ScalingLaw",
    "StrongSeries",
    "LaurentPoly",
    "certified_roots",
    "scan_roots",
]

Rational = Fraction | int


def _frac(x) -> Fraction:
    """Exact Fraction from int/Fraction/float (floats are dyadic, so exact)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def binom_general(x: Rational, j: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-j+1)/j! for rational x.

    Total for j >= 0; equals the ordinary binomial for integer x >= j and
    vanishes when x is a nonnegative integer < j.
    """
    if j < 0:
        raise ValueError(f"lower index must be nonnegative, got {j}")
    x = _frac(x)
    num = Fraction(1)
    for i in range(j):
        num *= x - i
    return num / math.factorial(j)


@dataclass(frozen=True)
class WeakSeries:
    """Coefficients a_0..a_N of a weak-coupling power series in alpha."""

    coeffs: tuple[Fraction, ...]
    label: str = ""

    def __init__(self, coeffs: Iterable, label: str = ""):
        cs = tuple(_frac(c) for c in coeffs)
        if not cs:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "label", label)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, alpha: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * alpha + float(c)
        return acc

    def extended(self, extra: Iterable) -> "WeakSeries":
        return WeakSeries(self.coeffs + tuple(_frac(c) for c in extra), self.label)


@dataclass(frozen=True)
class ScalingLaw:
    """Exponent pair (p, q): strong-coupling powers are alpha^((p-2n)/q)."""

    p: Fraction
    q: Fraction

    def __init__(self, p, q):
        p, q = _frac(p), _frac(q)
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class StrongSeries:
    """Coefficients b_0..b_M of alpha^(p/q) * sum b_n alpha^(-2n/q)."""

    law: ScalingLaw
    coeffs: tuple[float, ...]

    def __init__(self, law: ScalingLaw, coeffs: Iterable):
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise ValueError("need at least the leading coefficient")
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "coeffs", cs)

    def eval(self, alpha: float) -> float:
        if alpha <= 0:
            raise ValueError(f"strong series needs alpha > 0, got {alpha}")
        step = alpha ** (-2.0 / float(self.law.q))
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * step + c
        return acc * alpha ** (float(self.law.p) / float(self.law.q))


class LaurentPoly:
    """Laurent polynomial in one variable X, exponents in halves.

    Coefficients are themselves exact polynomials in w^2 (w is the baseline
    frequency, kept symbolic until evaluation).  Internal storage:
    ``{2*exponent: {power of w^2: Fraction}}`` with no zero entries.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Mapping[int, Fraction]] | None = None):
        tt: dict[int, dict[int, Fraction]] = {}
        if terms:
            for e2, inner in terms.items():
                row = {m: _frac(c) for m, c in inner.items() if c != 0}
                if row:
                    tt[int(e2)] = row
        self._terms = tt

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def term(cls, coeff, twice_exp: int = 0, w2_pow: int = 0) -> "LaurentPoly":
        """Single term coeff * w^(2*w2_pow) * X^(twice_exp/2)."""
        c = _frac(coeff)
        if c == 0:
            return cls()
        return cls({twice_exp: {w2_pow: c}})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.term(1)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Iterate (twice_exp, {w2_pow: Fraction}) sorted by exponent."""
        for e2 in sorted(self._terms):
            yield e2, dict(self._terms[e2])

    def coeff(self, twice_exp: int, w2_pow: int = 0) -> Fraction:
        return self._terms.get(twice_exp, {}).get(w2_pow, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        bits = []
        for e2, row in self.items():
            for m in sorted(row):
                c = row[m]
                s = str(c)
                if m:
                    s += f"*w^{2 * m}"
                if e2:
                    s += f"*X^{Fraction(e2, 2)}"
                bits.append(s)
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- arithmetic ---------------------------------------------------------

    def _merged(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        out = {e2: dict(r) for e2, r in self._terms.items()}
        for e2, row in other._terms.items():
            dst = out.setdefault(e2, {})
            for m, c in row.items():
                dst[m] = dst.get(m, Fraction(0)) + sign * c
        return LaurentPoly(out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merged(other, +1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merged(other, -1)

    def scale(self, k) -> "LaurentPoly":
        k = _frac(k)
        if k == 0:
            return LaurentPoly()
        return LaurentPoly(
            {e2: {m: c * k for m, c in row.items()} for e2, row in self._terms.items()}
        )

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, dict[int, Fraction]] = {}
        for e2a, rowa in self._terms.items():
            for e2b, rowb in other._terms.items():
                dst = out.setdefault(e2a + e2b, {})
                for ma, ca in rowa.items():
                    for mb, cb in rowb.items():
                        m = ma + mb
                        dst[m] = dst.get(m, Fraction(0)) + ca * cb
        return LaurentPoly(out)

    def shift(self, twice_exp: int) -> "LaurentPoly":
        """Multiply by X^(twice_exp/2)."""
        return LaurentPoly({e2 + twice_exp: row for e2, row in self._terms.items()})

    # -- calculus -----------------------------------------------------------

    def diff(self) -> "LaurentPoly":
        """Exact derivative d/dX."""
        out: dict[int, dict[int, Fraction]] = {}
        for e2, row in self._terms.items():
            if e2 == 0:
                continue
            fac = Fraction(e2, 2)
            out[e2 - 2] = {m: c * fac for m, c in row.items()}
        return LaurentPoly(out)

    # -- evaluation -----------------------------------------------------------

    def _monomials(self, x: float, w: float):
        if x <= 0:
            raise ValueError(f"evaluation needs X > 0, got {x}")
        w2 = w * w
        return (float(c) * w2**m * x ** (e2 / 2.0)
                for e2, row in self._terms.items() for m, c in row.items())

    def eval(self, x: float, w: float = 1.0) -> float:
        return math.fsum(self._monomials(x, w))

    def eval_abs(self, x: float, w: float = 1.0) -> float:
        """Sum of absolute monomial magnitudes; yardstick for residual tests."""
        return math.fsum(map(abs, self._monomials(x, w)))

    def subs_w(self, w) -> "LaurentPoly":
        """Bind the symbolic baseline frequency to an exact rational value."""
        w2 = _frac(w) ** 2
        out: dict[int, dict[int, Fraction]] = {}
        for e2, row in self._terms.items():
            tot = Fraction(0)
            for m, c in row.items():
                tot += c * w2**m
            if tot:
                out[e2] = {0: tot}
        return LaurentPoly(out)


def certified_roots(k, sign: int) -> list[tuple[float, int]]:
    """(root, Newton steps) for the real roots of sign `sign` of the exact
    polynomial K(r) = sum_n k_n r^n, ascending.

    Candidates are `numpy.roots` of K(rho s), rho = |k_lo/k_hi|^(1/(hi-lo))
    over the extreme nonzero degrees, polished by Newton on exact K; a root
    is kept where exact K changes sign between its two float neighbours.
    """
    nonzero = [n for n, c in enumerate(k) if c]
    if len(nonzero) < 2:
        return []
    lo, hi = nonzero[0], nonzero[-1]

    def K(r, d=0):  # exact d-th derivative of K at the float r
        return sum(k[n] * math.perm(n, d) * Fraction(r) ** (n - d) for n in nonzero if n >= d)

    roots: dict[float, int] = {}
    try:  # rho by logs: |k_lo/k_hi| may leave the float range where rho does not
        ratio = abs(Fraction(k[lo]) / k[hi])
        rho = Fraction(math.exp((math.log(ratio.numerator) - math.log(ratio.denominator))
                                / (hi - lo)))
        cands = np.roots([float(k[n] / k[hi] * rho ** (n - hi)) for n in range(hi, lo - 1, -1)])
        for z in cands[(sign * cands.real > 0) & (abs(cands.imag) <= 1e-6 * abs(cands))]:
            r, prev, steps = float(z.real) * float(rho), None, 0
            while steps < 50:
                slope = K(r, 1)
                nr = float(r - K(r) / slope) if slope else r
                if nr in (r, prev):
                    break
                prev, r, steps = r, nr, steps + 1
            if r * sign > 0 > K(math.nextafter(r, -math.inf)) * K(math.nextafter(r, math.inf)):
                roots.setdefault(r, steps)
    except (OverflowError, ZeroDivisionError):  # rho, a scaled coefficient or a root
        raise FloatOverflow("the roots of an exact polynomial leave the float range") from None
    return sorted(roots.items())


# Newton stops once a step moves the root by at most this relative amount;
# the step cap only guards termination
_ROOT_REL_TOL = 1e-14
_ROOT_MAX_STEPS = 100


def scan_roots(f, df, lo: float, hi: float, points: int, extra=()) -> list[float]:
    """All roots of f found on a log grid over [lo, hi], in increasing order.

    The grid has `points` nodes plus the `extra` nodes.  Every node where f is
    exactly zero is a root; every sign change between neighbours is polished
    by Newton on the derivative `df`, falling back to bisection whenever a
    step would leave the current bracket, so each root stays inside its
    grid cell.
    """
    grid = sorted({lo * (hi / lo) ** (i / (points - 1)) for i in range(points)}
                  | set(extra))
    vals = [f(x) for x in grid]
    roots = []
    for x0, x1, f0, f1 in zip(grid, grid[1:], vals, vals[1:]):
        if f0 == 0.0:
            roots.append(x0)
        elif f0 * f1 < 0:
            roots.append(_bracketed_newton(f, df, x0, x1, f0))
    if vals and vals[-1] == 0.0:
        roots.append(grid[-1])
    return roots


def _bracketed_newton(f, df, a: float, b: float, fa: float) -> float:
    """Root of f in (a, b), where f(a) = fa and f(b) have opposite signs."""
    x = 0.5 * (a + b)
    for _ in range(_ROOT_MAX_STEPS):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (fa < 0):
            a, fa = x, fx
        else:
            b = x
        d = df(x)
        nx = x - fx / d if d != 0.0 else math.nan
        if not a < nx < b:
            nx = 0.5 * (a + b)
        if abs(nx - x) <= _ROOT_REL_TOL * nx:
            return nx
        x = nx
    return x

"""Independent ground-truth generators used to validate the interpolation.

Nothing here shares code paths with the reexpansion machinery: the
oscillator energy comes from a basis diagonalization, strong-coupling
coefficients from least-squares fits of the optimized approximant, and the
b_n(c) probe from finite differences of the scaled trial function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NoConvergence
from .series import ScalingLaw, WeakSeries, binom_general
from .models import aho_omega1

__all__ = ["aho_exact_energy", "asymptotic_fit", "FitResult", "b_numeric"]


def eig_banded(*args, **kwargs):
    """`scipy.linalg.eig_banded`, imported on first use (~20 MB and ~0.2 s)."""
    from scipy.linalg import eig_banded
    return eig_banded(*args, **kwargs)


def _ground_state(g: float, omega: float, size: int, basis_freq: float) -> float:
    """Smallest eigenvalue of p^2/2 + omega^2 x^2/2 + g x^4/4 in a harmonic
    basis of frequency basis_freq (analytic x^2, x^4 matrix elements)."""
    n = np.arange(size)
    W = basis_freq
    diag = W * (n + 0.5)
    # x^2 bands in the basis (x = (a + a^dag)/sqrt(2 W))
    x2_0 = (2 * n + 1) / (2 * W)
    x2_2 = np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) / (2 * W)
    # x^4 bands
    x4_0 = 3 * (2 * n**2 + 2 * n + 1) / (4 * W**2)
    x4_2 = (4 * n[:-2] + 6) * np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) / (4 * W**2)
    m = n[:-4]
    x4_4 = np.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4)) / (4 * W**2)

    dv = 0.5 * (omega**2 - W**2)
    bands = np.zeros((5, size))
    bands[0] = diag + dv * x2_0 + 0.25 * g * x4_0
    bands[2, : size - 2] = dv * x2_2 + 0.25 * g * x4_2
    bands[4, : size - 4] = 0.25 * g * x4_4
    vals = eig_banded(bands, lower=True, eigvals_only=True, select="i",
                      select_range=(0, 0))
    return float(vals[0])


def aho_exact_energy(g: float, omega: float = 1.0, basis_size: int = 64,
                     cap: int = 4096, rel_tol: float = 1e-10) -> float:
    """Ground-state energy of the quartic oscillator (potential g x^4 / 4).

    Doubles the basis until two successive sizes agree to rel_tol.
    """
    if g < 0:
        raise ValueError(f"coupling must be nonnegative, got {g}")
    if g == 0:
        return 0.5 * omega
    if basis_size < 16:
        raise ValueError(f"basis_size must be at least 16, got {basis_size}")
    # variational frequency of the first-order approximant: near-optimal basis
    W = aho_omega1(g, 0.75, omega)
    size = basis_size
    prev = _ground_state(g, omega, size, W)
    while size < cap:
        size *= 2
        cur = _ground_state(g, omega, size, W)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise NoConvergence(
        f"basis doubling hit the cap {cap} without {rel_tol} agreement at g={g}"
    )


@dataclass(frozen=True)
class FitResult:
    coeffs: tuple[float, ...]
    residual: float
    cond: float


def asymptotic_fit(curve, law: ScalingLaw, m: int) -> FitResult:
    """Extract b_0..b_{m-1} from (alpha, W) samples of the strong regime.

    Fits W / alpha^(p/q) against the basis alpha^(-2n/q) by least squares.
    """
    alphas = np.array([a for a, _ in curve], dtype=float)
    values = np.array([w for _, w in curve], dtype=float)
    if len(alphas) < m:
        raise ValueError(f"need at least {m} samples, got {len(alphas)}")
    if alphas.min() <= 0 or alphas.max() / alphas.min() < 100.0:
        raise ValueError("fit abscissas must be positive and span >= 2 decades")
    p, q = float(law.p), float(law.q)
    y = values / alphas ** (p / q)
    A = np.column_stack([alphas ** (-2.0 * n / q) for n in range(m)])
    # scale columns so the conditioning test is meaningful
    col = np.abs(A).max(axis=0)
    sol, res, rank, sv = np.linalg.lstsq(A / col, y, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if rank < m or cond > 1e13:
        raise IllConditioned(f"fit matrix condition {cond:.3e}")
    coeffs = sol / col
    resid = float(np.max(np.abs(A @ coeffs - y)))
    return FitResult(coeffs=tuple(float(c) for c in coeffs), residual=resid, cond=float(cond))


def _w_scaled(s: WeakSeries, law: ScalingLaw, alpha_hat: float, sigma: float) -> float:
    """w_N(alpha_hat, sigma): the trial function stripped of its Omega^p
    prefactor, with sigma = (baseline/trial frequency)^2 kept general."""
    N = s.order
    total = 0.0
    for l, a in enumerate(s.coeffs):
        x = (law.p - law.q * l) / 2
        f = sum(float(binom_general(x, j)) * (-1) ** j * (1.0 - sigma) ** j
                for j in range(N - l + 1))
        total += float(a) * alpha_hat**l * f
    return total


def b_numeric(s: WeakSeries, law: ScalingLaw, n: int, c: float) -> float:
    """Strong coefficient b_n(c) at w = 1 by Richardson finite differences in sigma.

    Independent probe of the closed-form b_n(c): differentiates w_N
    numerically at sigma = 0 with alpha_hat = 1/c^q.
    """
    if c <= 0:
        raise ValueError(f"growth constant must be positive, got {c}")
    alpha_hat = c ** (-float(law.q))
    f = lambda sigma: _w_scaled(s, law, alpha_hat, sigma)
    if n == 0:
        d = f(0.0)
    elif n == 1:
        def cd(h):
            return (f(h) - f(-h)) / (2 * h)
        h = 0.25
        d = (4 * cd(h / 2) - cd(h)) / 3
    elif n == 2:
        def cd2(h):
            return (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        h = 0.25
        d = 0.5 * (4 * cd2(h / 2) - cd2(h)) / 3
    else:
        raise ValueError(f"numeric probe implemented for n <= 2, got n={n}")
    return d * c ** (float(law.p) - 2 * n)

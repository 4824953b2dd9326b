"""Critical viscosity of the slip channel: closed form, variational, and global.

For each wavenumber k > 0 the trivial rest state loses stability exactly when
the viscosity drops below a threshold mu_c(k, Xi).  With sig = xi_plus +
xi_minus and dif = xi_plus - xi_minus, the threshold has the closed form

                (sinh2k cosh2k - 2k) sig
                  + sqrt((sinh2k - 2k cosh2k)^2 sig^2
                         + sinh^2(2k) (sinh^2(2k) - 4k^2) dif^2)
    mu_c(k) =  -----------------------------------------------------,
                              4 k sinh^2(2k)

equivalently the maximum over wall-vanishing profiles phi of the quotient
(boundary production) / (k-energy):

    mu_c(k) = max_phi  [xi_- phi'(-1)^2 + xi_+ phi'(1)^2]
                       / int(phi''^2 + 2 k^2 phi'^2 + k^4 phi^2).

mu_c is strictly decreasing in k, tends to 0 as k -> infinity (like
max(xi)/2k), and tends to its supremum

    mu_c(Xi) = (xi_+ + xi_- + sqrt(xi_+^2 - xi_+ xi_- + xi_-^2)) / 3

as k -> 0.  Three evaluation branches keep the formula accurate everywhere:
a Taylor branch for small k (the numerator suffers catastrophic cancellation
below k ~ 0.05), the direct formula in the middle, and a scaled-exponential
branch for k > 20 (sinh^2(2k) overflows doubles near k ~ 177).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .model import ChannelConfig, SlipPair
from .numerics import ChebBasis, NotPositiveDefiniteError, energy_form

__all__ = [
    "mu_c_closed_form",
    "mu_c_variational",
    "mu_c_global",
    "critical_wavenumber",
    "CriticalCurve",
    "critical_curve",
    "MAX_CLOSED_FORM_K",
    "SCALED_BRANCH_K",
    "SERIES_BRANCH_K",
]

SERIES_BRANCH_K = 0.04
SCALED_BRANCH_K = 20.0
MAX_CLOSED_FORM_K = 300.0


def _mu_c_series(k: float, sig: float, dif: float) -> float:
    # Nondimensionalize the cancellation-prone combinations by their leading
    # powers.  With x = 2k:
    #   sinh(2k)cosh(2k) - 2k = (sinh(4k) - 4k)/2          ~ (4k)^3/12
    #   sinh(2k) - 2k cosh(2k) = -(x^3/3)(1 + x^2/10 + ...)
    #   sinh^2(2k) - 4k^2      = (x^4/3)(1 + 2x^2/15 + ...)
    x = 2.0 * k
    y = 4.0 * k
    y2, x2 = y * y, x * x
    P = 0.5 * y ** 3 * (1.0 / 6 + y2 * (1.0 / 120 + y2 * (1.0 / 5040 + y2 / 362880)))
    Q = -(x ** 3) * (1.0 / 3 + x2 * (1.0 / 30 + x2 * (1.0 / 840 + x2 / 45360)))
    G = x ** 4 * (1.0 / 3 + x2 * (2.0 / 45 + x2 * (1.0 / 315 + x2 * 2.0 / 14175)))
    s2 = math.sinh(x) ** 2
    num = P * sig + math.sqrt(Q * Q * sig * sig + s2 * G * dif * dif)
    return num / (4.0 * k * s2)


def _mu_c_direct(k: float, sig: float, dif: float) -> float:
    s = math.sinh(2.0 * k)
    c = math.cosh(2.0 * k)
    P = s * c - 2.0 * k
    Q = s - 2.0 * k * c
    G = s * s - 4.0 * k * k
    num = P * sig + math.sqrt(Q * Q * sig * sig + s * s * G * dif * dif)
    return num / (4.0 * k * s * s)


def _mu_c_scaled(k: float, sig: float, dif: float) -> float:
    # Same formula with e^{4k} factored out of the numerator and denominator:
    # with E = e^{-4k}, S = 1 - E, C = 1 + E (so sinh2k = e^{2k} S/2 etc.)
    E = math.exp(-4.0 * k)
    S = -math.expm1(-4.0 * k)
    Cc = 1.0 + E
    quarter_s2 = 0.25 * S * S
    num = (0.25 * S * Cc - 2.0 * k * E) * sig + math.sqrt(
        E * (0.5 * S - k * Cc) ** 2 * sig * sig
        + quarter_s2 * (quarter_s2 - 4.0 * k * k * E) * dif * dif
    )
    return num / (k * S * S)


def _mu_c_any_k(k: float, slip: SlipPair) -> float:
    sig = slip.xi_plus + slip.xi_minus
    dif = slip.xi_plus - slip.xi_minus
    if sig == 0.0:
        return 0.0
    if k < SERIES_BRANCH_K:
        return _mu_c_series(k, sig, dif)
    if k <= SCALED_BRANCH_K:
        return _mu_c_direct(k, sig, dif)
    return _mu_c_scaled(k, sig, dif)


def mu_c_closed_form(k: float, slip: SlipPair) -> float:
    """Critical viscosity of wavenumber k, evaluated from the closed form.

    Raises for k > 300: far into the regime where only the exponentially
    scaled branch is meaningful, and indistinguishable at double precision
    from the asymptote max(xi_minus, xi_plus) / (2 k).
    """
    if not k > 0.0:
        raise ValueError(f"k: must be > 0, got {k}")
    if k > MAX_CLOSED_FORM_K:
        raise ValueError(
            f"k = {k:g} > {MAX_CLOSED_FORM_K:g}: hyperbolic overflow risk; "
            "use the asymptote max(xi)/(2k) at such wavenumbers"
        )
    return _mu_c_any_k(k, slip)


def mu_c_variational(k: float, slip: SlipPair, basis: ChebBasis) -> float:
    """Discrete maximum of the production/energy quotient on the trial space.

    Exactly the largest eigenvalue of the pencil (R, E), with E the SPD
    k-energy form and R = D Xi D^T the boundary form: the columns of D are
    the wall slopes phi_j'(-1), phi_j'(+1) and Xi = diag(xi_minus, xi_plus).
    With E = L L^T and Z = L^-1 D Xi^(1/2), the pencil has the eigenvalues
    of L^-1 R L^-T = Z Z^T, and the nonzero eigenvalues of Z Z^T are those of
    the 2x2 matrix Z^T Z = Xi^(1/2) D^T E^-1 D Xi^(1/2).  So one Cholesky
    factorization, one triangular solve against two columns and one 2x2
    eigenvalue give the maximum exactly, with no iterative optimizer and no
    N x N eigensolve.
    Nondecreasing in the basis size (nested Galerkin spaces) and converging
    to mu_c_closed_form from below.
    """
    if not k > 0.0:
        raise ValueError(f"k: must be > 0, got {k}")
    if basis.size < 8:
        raise ValueError(f"basis size must be >= 8 for the quotient maximum, got {basis.size}")
    try:
        L = linalg.cholesky(energy_form(k, basis), lower=True)
    except linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "energy form is not positive definite; the trial basis or assembly is broken"
        )
    sqrt_xi = np.sqrt([slip.xi_minus, slip.xi_plus])
    Z = linalg.solve_triangular(L, basis.wall_tables[1].T * sqrt_xi, lower=True)
    top = np.linalg.eigvalsh(Z.T @ Z)[-1]
    return float(max(top, 0.0))


def mu_c_global(slip: SlipPair) -> float:
    """Supremum of mu_c(k) over k > 0, attained in the k -> 0 limit."""
    xm, xp = slip.xi_minus, slip.xi_plus
    return (xp + xm + math.sqrt(xp * xp - xp * xm + xm * xm)) / 3.0


def critical_wavenumber(config: ChannelConfig, slip: SlipPair):
    """Largest lattice wavenumber k = n/L unstable at the config's viscosity.

    Returns None if already the smallest lattice wavenumber 1/L is stable
    (mu >= mu_c there).  Exploits strict decrease of mu_c in k: doubling
    search for a stable index, then bisection for the last unstable one.
    """
    mu, L = config.mu, config.L
    if not mu < _mu_c_any_k(1.0 / L, slip):
        return None
    lo = 1  # highest index known unstable
    hi = 2
    while mu < _mu_c_any_k(hi / L, slip):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mu < _mu_c_any_k(mid / L, slip):
            lo = mid
        else:
            hi = mid
    return lo / L


@dataclass(frozen=True)
class CriticalCurve:
    """Sampled curve k -> mu_c(k, slip); samples strictly decreasing in mu_c."""

    slip: SlipPair
    ks: np.ndarray
    mu_cs: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=float)
        mu = np.asarray(self.mu_cs, dtype=float)
        if ks.shape != mu.shape or ks.ndim != 1 or ks.size < 2:
            raise ValueError("curve needs matching 1D sample arrays with >= 2 points")
        if not np.all(np.diff(ks) > 0):
            raise ValueError("k samples must be strictly increasing")
        if self.slip.total > 0 and not np.all(np.diff(mu) < 0):
            raise ValueError("mu_c samples must be strictly decreasing in k")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "mu_cs", mu)


def critical_curve(slip: SlipPair, k_min: float, k_max: float, points: int) -> CriticalCurve:
    """Log-spaced sampling of mu_c(k) on [k_min, k_max]."""
    if not 0 < k_min < k_max:
        raise ValueError(f"need 0 < k_min < k_max, got [{k_min}, {k_max}]")
    if points < 2:
        raise ValueError(f"points: need >= 2, got {points}")
    ks = np.geomspace(k_min, k_max, points)
    mu = np.array([mu_c_closed_form(k, slip) for k in ks])
    return CriticalCurve(slip=slip, ks=ks, mu_cs=mu)

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

as k -> 0.  The threshold is computed as mu kappa_1(0), with kappa_1 the top
eigenvalue of the rank-2 slip operator K of ``spectrum.operator_eigenvalues``:
the same quantity as the formula above, but built from the wall responses,
which neither cancel at small k nor overflow at large k.  Its cross-check
``mu_c_variational`` is the maximum of the quotient on the trial space,
mu kappa_1(0) of the discrete slip operator K_N, the Galerkin restriction
of K, read off the basis's table of k (``numerics.PencilTable``) as
``spectrum.lambda1_variational`` reads lambda_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelConfig, ModeProblem, SlipPair
from .numerics import ChebBasis
from .spectrum import _discrete_kappa1, operator_eigenvalues

__all__ = [
    "mu_c_closed_form",
    "mu_c_variational",
    "mu_c_global",
    "critical_wavenumber",
    "CriticalCurve",
    "critical_curve",
]


def mu_c_closed_form(k: float, slip: SlipPair) -> float:
    """Critical viscosity of wavenumber k: mu kappa_1(0) of the slip operator K."""
    return operator_eigenvalues(0.0, ModeProblem(k=k, mu=1.0, slip=slip))[0]


def mu_c_variational(k: float, slip: SlipPair, basis: ChebBasis) -> float:
    """Discrete maximum of the production/energy quotient on the trial space:
    mu kappa_1(0) of the discrete slip operator K_N at mu = 1.

    The maximum is the largest eigenvalue of the pencil (R, E), with E the
    SPD k-energy form and R = D Xi D^T the boundary form of the wall slopes
    D.  Its nonzero eigenvalues are those of the 2x2 matrix
    Xi^(1/2) D^T E^-1 D Xi^(1/2), which is K_N(0) at mu = 1, so the value is
    read off the basis's table of k as ``mu_c_closed_form`` reads K: no
    iterative optimizer and no N x N eigensolve.  An E that is not positive
    definite raises ``NotPositiveDefiniteError``.  Nondecreasing in the
    basis size (nested Galerkin spaces) and converging to mu_c_closed_form
    from below.
    """
    if basis.size < 8:
        raise ValueError(f"basis size must be >= 8 for the quotient maximum, got {basis.size}")
    kappa1, _ = _discrete_kappa1(ModeProblem(k=k, mu=1.0, slip=slip), basis)
    return float(kappa1(0.0))


def mu_c_global(slip: SlipPair) -> float:
    """Supremum of mu_c(k) over k > 0, attained in the k -> 0 limit."""
    xm, xp = slip.xi_minus, slip.xi_plus
    return (xp + xm + math.sqrt(xp * xp - xp * xm + xm * xm)) / 3.0


def critical_wavenumber(config: ChannelConfig):
    """Largest lattice wavenumber k = n/L unstable at the config's viscosity and slip.

    Returns None if already the smallest lattice wavenumber 1/L is stable
    (mu >= mu_c there).  Exploits strict decrease of mu_c in k: doubling
    search for a stable index, then bisection for the last unstable one.
    """
    mu, L, slip = config.mu, config.L, config.slip
    if not mu < mu_c_closed_form(1.0 / L, slip):
        return None
    lo = 1  # highest index known unstable
    hi = 2
    while mu < mu_c_closed_form(hi / L, slip):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mu < mu_c_closed_form(mid / L, slip):
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

"""Energy production, dissipation, and the sharp-constant inequality check.

For divergence-free velocities w with impermeable walls the linear part of
the energy budget is

    production - dissipation = xi_+ int |w1(x1, +1)|^2 dx1
                             + xi_- int |w1(x1, -1)|^2 dx1
                             - mu int |grad w|^2 dx,

and the sharp bound production - dissipation <= Lambda ||w||^2 holds with
Lambda the maximal growth rate over the nonzero wavenumber lattice,
provided w carries no x1-mean component.  The mean-shear subspace is a
genuine exception: the 1D Robin diffusion problem mu v'' = lambda v,
mu v'(+-1) = +-xi v(+-1) has growth rates above every lattice rate (for
example 2.1328 and 1.8336 at mu = 0.5, xi = 1, versus a lattice maximum of
0.4658), so the random-field generator here excludes the mean row and the
check rejects inputs that carry one.

Production reads wall traces of real u1 coefficient planes and dissipation
the forms of ``sim.field._forms``, for fields here and in each ``sim.run`` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import SlipPair, ValidationError
from ..numerics import wall_values
from .field import (
    SpectralField2D,
    _dot,
    _field_forms,
    _kappa_sq,
    _planes,
    _sq_l2,
    divergence_max,
    velocity_from_streamfunction,
)

__all__ = [
    "EnergyCheck",
    "boundary_production",
    "gradient_dissipation",
    "energy_inequality_check",
    "random_solenoidal_field",
]


def boundary_production(u1: SpectralField2D, slip: SlipPair) -> float:
    """xi-weighted squared wall traces of u1, integrated over x1."""
    return float(_production(_planes(u1.coefficients), u1.L, slip))


def _production(planes: np.ndarray, L: float, slip: SlipPair):
    """``boundary_production`` of the real planes (..., p, rows, P) of u1
    Chebyshev rows 0 .. rows-1 (``sim.field._planes``), whose squared wall
    traces are summed over p, one value per index of the leading axes."""
    sq = (wall_values(planes) ** 2).sum(axis=-2)
    wts = np.full(sq.shape[-1], 2.0)
    wts[0] = 1.0
    # one (2, rows) product per record, bottom then top
    traces = np.moveaxis(sq, 0, -2) @ wts
    return 2.0 * math.pi * L * (slip.xi_plus * traces[..., 1] + slip.xi_minus * traces[..., 0])


def gradient_dissipation(u1: SpectralField2D, u2: SpectralField2D, mu: float) -> float:
    """mu times the squared L2 norm of the full velocity gradient."""
    return float(_dissipation(_field_forms((u1, u2)), u1.L, mu))


def _dissipation(q: np.ndarray, L: float, mu: float):
    """``gradient_dissipation`` from the velocity's per-mode forms q (..., 3, n)
    (``sim.field._forms``), one value per index of the leading axes."""
    q0, q1 = q[..., 0, :], q[..., 1, :]
    return mu * (_dot(q0, _kappa_sq(q.shape[-1], L)) + q1.sum(axis=-1))


@dataclass(frozen=True)
class EnergyCheck:
    lhs: float
    rhs: float
    norm_sq: float
    holds: bool


def energy_inequality_check(
    u1: SpectralField2D,
    u2: SpectralField2D,
    mu: float,
    slip: SlipPair,
    lam: float,
) -> EnergyCheck:
    """Evaluate production - dissipation <= lam * ||w||^2 by exact quadrature.

    ``holds`` allows a roundoff slack of 1e-8 * ||w||^2.

    Rejects inputs that are not discretely divergence free, that leak
    through the walls, or that carry a mean-flow component (the bound does
    not apply to mean shear; see the module docstring).
    """
    norm_sq = _sq_l2(u1) + _sq_l2(u2)
    scale = max(1.0, math.sqrt(norm_sq))
    div = divergence_max(u1, u2)
    if div > 1.0e-8 * scale:
        raise ValidationError(
            f"velocity is not divergence free: max divergence {div:.3e}"
        )
    wall_leak = float(np.abs(wall_values(u2.coefficients)).max(initial=0.0))
    if wall_leak > 1.0e-8 * scale:
        raise ValidationError(f"u2 does not vanish at the walls: {wall_leak:.3e}")
    mean_size = float(np.abs(u1.coefficients[0]).max(initial=0.0))
    if mean_size > 1.0e-10 * scale:
        raise ValidationError(
            "velocity carries a mean-flow component; the lattice bound does not "
            "apply to mean shear"
        )
    lhs = boundary_production(u1, slip) - gradient_dissipation(u1, u2, mu)
    rhs = lam * norm_sq
    return EnergyCheck(
        lhs=lhs, rhs=rhs, norm_sq=norm_sq, holds=bool(lhs <= rhs + 1.0e-8 * norm_sq)
    )


def random_solenoidal_field(rng, M: int, P: int, L: float):
    """Random unit-norm divergence-free velocity with no mean component.

    Draws a random streamfunction on modes n = 1..M with Chebyshev
    coefficients decaying like exp(-0.35 j), corrects the constant and
    linear terms so each mode profile vanishes at both walls, and returns
    the induced velocity pair normalized to unit L2 norm.
    """
    rows = np.zeros((M + 1, P), dtype=complex)
    amp = np.exp(-0.35 * np.arange(P))
    for n in range(1, M + 1):
        c = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) * amp
        bot, top = wall_values(c)
        c[0] -= 0.5 * (top + bot)
        c[1] -= 0.5 * (top - bot)
        rows[n] = c
    phi = SpectralField2D(rows, L)
    u1, u2 = velocity_from_streamfunction(phi)
    norm = math.sqrt(_sq_l2(u1) + _sq_l2(u2))
    if norm == 0.0:
        raise ValidationError("degenerate random field")
    return u1 * (1.0 / norm), u2 * (1.0 / norm)

"""Problem data for viscous flow in a slip channel.

The domain is a periodic channel ``(0, 2*pi*L) x (-1, 1)``: periodic in x1
with period ``2*pi*L``, walls at ``x2 = +/-1``.  The fluid has viscosity
``mu > 0`` and satisfies Navier-type slip conditions with friction
coefficients ``xi_plus`` (top wall) and ``xi_minus`` (bottom wall):

    u2 = 0           on both walls,
    mu * d2 u1 =  xi_plus  * u1   at x2 = +1,
    mu * d2 u1 = -xi_minus * u1   at x2 = -1.

The sign convention is the destabilizing one: the walls feed energy into
the fluid at rate ``xi_plus * u1(+1)**2 + xi_minus * u1(-1)**2``.  Both
coefficients must be nonnegative, and either or both may be zero: a zero
coefficient makes its wall free-slip (``d2 u1 = 0``) and inert.  With both
zero the walls feed no energy, so every growth rate is negative and the
critical viscosity is 0 at every wavenumber.

Perturbations are resolved in Fourier modes ``exp(i*n*x1/L)``, so the
admissible wavenumbers form the lattice ``k = n / L``, ``n = 1, 2, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SlipPair",
    "ChannelConfig",
    "ModeProblem",
    "LatticeSweep",
    "ValidationError",
]


class ValidationError(ValueError):
    """A model parameter is out of its admissible range."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite(x) -> bool:
    try:
        return x == x and abs(float(x)) != float("inf")
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class SlipPair:
    """Wall friction coefficients ``(xi_minus, xi_plus)``, both >= 0."""

    xi_minus: float
    xi_plus: float

    def __post_init__(self):
        _require(_finite(self.xi_minus), "slip.xi_minus: must be a finite number")
        _require(_finite(self.xi_plus), "slip.xi_plus: must be a finite number")
        _require(self.xi_minus >= 0.0, "slip.xi_minus: must be >= 0")
        _require(self.xi_plus >= 0.0, "slip.xi_plus: must be >= 0")

    @property
    def total(self) -> float:
        return self.xi_minus + self.xi_plus


@dataclass(frozen=True)
class ChannelConfig:
    """Channel geometry and fluid parameters: period ``2*pi*L``, viscosity ``mu``."""

    L: float
    mu: float
    slip: SlipPair

    def __post_init__(self):
        _require(_finite(self.L) and self.L > 0.0, "period_length: must be > 0")
        _require(_finite(self.mu) and self.mu > 0.0, "viscosity: must be > 0")


@dataclass(frozen=True)
class ModeProblem:
    """Single-wavenumber instability problem: wavenumber ``k``, viscosity, slip."""

    k: float
    mu: float
    slip: SlipPair

    def __post_init__(self):
        _require(_finite(self.k) and self.k > 0.0, "k: must be > 0")
        _require(_finite(self.mu) and self.mu > 0.0, "viscosity: must be > 0")


@dataclass(frozen=True)
class LatticeSweep:
    """Range of lattice modes ``n = 1 .. n_max`` of a channel."""

    L: float
    mu: float
    slip: SlipPair
    n_max: int

    def __post_init__(self):
        _require(_finite(self.L) and self.L > 0.0, "period_length: must be > 0")
        _require(_finite(self.mu) and self.mu > 0.0, "viscosity: must be > 0")
        _require(
            int(self.n_max) == self.n_max and self.n_max >= 1,
            "n_max: must be an integer >= 1",
        )

    def problem(self, n: int) -> ModeProblem:
        """The instability problem of lattice mode n, wavenumber ``k = n / L``."""
        _require(1 <= n <= self.n_max, "n: mode index out of sweep range")
        return ModeProblem(k=n / self.L, mu=self.mu, slip=self.slip)

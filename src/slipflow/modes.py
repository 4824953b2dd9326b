"""Physical normal modes, mode packets, the growth envelope, and escape time.

A growth-rate eigenpair (lambda, phi) of wavenumber k lifts to the physical
perturbation triple

    u1 = e^{lambda t} sin(k x1) psi(x2),      psi = -phi'/k,
    u2 = e^{lambda t} cos(k x1) phi(x2),
    q  = e^{lambda t} cos(k x1) pi(x2),       pi = (lambda psi + mu (k^2 psi - psi'')) / k,

which satisfies the linearized momentum equations

    lambda psi - k pi  + mu (k^2 psi - psi'') = 0,
    lambda phi + pi'   + mu (k^2 phi - phi'') = 0,
    k psi + phi' = 0,

together with the wall conditions phi(+/-1) = 0 and mu psi'(+/-1) =
+/- xi_{+/-} psi(+/-1).  (The pressure profile is determined by the first
momentum equation; its sign pairs with the +mu Laplacian of that system.)
The three profiles are ``numpy.polynomial.Chebyshev`` series on [-1, 1]:
phi is the trial-space eigenfunction, and psi and pi follow from it by
exact series differentiation.

Packets of the first N modes of one wavenumber, ordered by increasing
growth rate, drive the nonlinear separation experiment: their envelope
F_N(t) = sum_j |c_j| e^{lambda_j t} defines the escape time T^delta as the
unique solution of delta * F_N(T) = epsilon0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from .model import LatticeSweep, ModeProblem, ValidationError
from .numerics import (
    ChebBasis,
    find_root_bracketed,
    gauss_legendre,
    slip_defects,
    wall_values,
)
from .spectrum import MARGINAL_TOL, Spectrum, lambda1_variational, operator_eigenvalues

__all__ = [
    "NormalMode",
    "ModePacket",
    "Grid2D",
    "build_mode",
    "mode_residuals",
    "build_packet",
    "reduced_packet",
    "modes_from_spectrum",
    "sample_field",
    "sample_packet_field",
    "compute_capital_lambda",
    "packet_envelope_value",
    "packet_l2_norm",
    "default_epsilon0",
    "escape_time",
    "packet_streamfunction_profile",
]


@dataclass(frozen=True)
class NormalMode:
    """One physical normal mode: growth rate and the three x2-profiles.

    ``phi``, ``psi`` and ``pi`` are ``numpy.polynomial.Chebyshev`` series on
    [-1, 1]: ``p(x)`` evaluates a profile and ``p.deriv(n)`` differentiates
    it exactly.  phi vanishes at the walls; psi and pi in general do not.
    """

    problem: ModeProblem
    lam: float
    phi: Chebyshev
    psi: Chebyshev
    pi: Chebyshev


@dataclass(frozen=True)
class ModePacket:
    """Modes of one wavenumber ordered by strictly increasing growth rate.

    May be empty (the reduced packet of a single-mode spectrum).  All modes
    share the same ModeProblem.
    """

    modes: tuple
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=float)
        )
        if len(self.modes) != self.coefficients.size:
            raise ValueError("one coefficient per mode required")
        if len(self.modes) > 1:
            first = self.modes[0].problem
            for m in self.modes[1:]:
                if m.problem != first:
                    raise ValueError("packet modes must share one ModeProblem")
        lams = self.lambdas
        if np.any(np.diff(lams) < 0):
            raise ValueError("packet modes must be ordered by increasing growth rate")
        ties = np.nonzero(np.diff(lams) == 0)[0]
        if ties.size:
            warnings.warn(
                "degenerate growth rates in packet; keeping the deterministic "
                "eigensolver order",
                RuntimeWarning,
            )

    @property
    def count(self) -> int:
        return len(self.modes)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])

    @property
    def top_lambda(self) -> float:
        if not self.modes:
            raise ValueError("empty packet has no top growth rate")
        return self.modes[-1].lam


def packet_envelope_value(packet: ModePacket, t):
    """Envelope F_N(t) = sum_j |c_j| e^{lambda_j t}."""
    t = np.asarray(t, dtype=float)
    lams = packet.lambdas
    absc = np.abs(packet.coefficients)
    return (absc * np.exp(np.multiply.outer(t, lams))).sum(axis=-1)


def packet_l2_norm(packet: ModePacket, L: float = 1.0) -> float:
    """L2 norm over the channel of the packet velocity at t = 0.

    The x1 integral of sin^2 or cos^2 over the 2 pi L period is pi L for
    every lattice mode, so the norm reduces to a Gauss-Legendre quadrature
    (``numerics.gauss_legendre``, the rule of the modes' basis) of the
    profile polynomials |sum c_j psi_j|^2 + |sum c_j phi_j|^2.
    """
    if packet.count == 0:
        return 0.0
    n_gl = max(m.phi.coef.size for m in packet.modes) + 2
    x, w = gauss_legendre(n_gl)
    su = np.zeros_like(x)
    sv = np.zeros_like(x)
    for cj, mode in zip(packet.coefficients, packet.modes):
        su += cj * mode.psi(x)
        sv += cj * mode.phi(x)
    return math.sqrt(math.pi * L * float(w @ (su**2 + sv**2)))


def default_epsilon0(packet: ModePacket, L: float = 1.0) -> float:
    """Escape amplitude: one percent of the unit packet's L2 size."""
    size = packet_l2_norm(packet, L)
    if not size > 0.0:
        raise ValueError("epsilon0 default needs a nonempty packet")
    return 0.01 * size


def build_mode(problem: ModeProblem, lam: float, phi: Chebyshev) -> NormalMode:
    """Lift an eigenpair to the physical mode profiles by exact differentiation."""
    k, mu = problem.k, problem.mu
    if k == 0.0:
        raise ValueError("normal modes require k > 0")
    psi = -phi.deriv() / k
    pi = (lam * psi + mu * k * k * psi - mu * psi.deriv(2)) / k
    return NormalMode(problem=problem, lam=float(lam), phi=phi, psi=psi, pi=pi)


def mode_residuals(mode: NormalMode):
    """Residuals of a mode triple in the linearized system and wall conditions.

    Returns (line1, line2, wall, slip): the L2 norms over [-1, 1] of the two
    momentum lines, max |phi(+/-1)|, and the larger slip defect
    |mu psi'(+/-1) -/+ xi_{+/-} psi(+/-1)| (``slip_defects`` of u1 = psi).
    The quadrature is the Gauss-Legendre rule with four points more than
    the trial basis size, the basis's own (``numerics.gauss_legendre``).
    """
    prob = mode.problem
    k, mu, lam = prob.k, prob.mu, mode.lam
    psi, phi, pi = mode.psi, mode.phi, mode.pi
    x, w = gauss_legendre(phi.coef.size + 2)
    r1 = lam * psi(x) - k * pi(x) + mu * (k * k * psi(x) - psi.deriv(2)(x))
    r2 = lam * phi(x) + pi.deriv()(x) + mu * (k * k * phi(x) - phi.deriv(2)(x))
    wall = float(np.abs(wall_values(phi.coef)).max())
    slip = float(slip_defects(psi.coef, mu, prob.slip).max())
    return math.sqrt(float(w @ r1**2)), math.sqrt(float(w @ r2**2)), wall, slip


def modes_from_spectrum(spectrum: Spectrum, count: int | None = None):
    """The positive-growth modes of a spectrum, ordered by increasing rate."""
    n_pos = spectrum.positive_count
    take = n_pos if count is None else min(count, n_pos)
    out = []
    for i in range(take - 1, -1, -1):  # ascending lambda
        lam = float(spectrum.eigenvalues[i])
        phi = Chebyshev(spectrum.coefficients[:, i] @ spectrum.basis.cheb_coeffs)
        out.append(build_mode(spectrum.problem, lam, phi))
    return out


def build_packet(spectrum: Spectrum, count: int | None = None) -> ModePacket:
    """Packet of the unstable modes of one wavenumber, every c_j = 1.

    Uses all positive growth rates when ``count`` is None; fewer positive
    modes than requested is not an error, the packet simply carries what
    exists.  A wavenumber has at most two unstable modes: B = R - mu E adds
    the rank <= 2 slip boundary form R to a negative definite form, so B has
    at most two positive eigenvalues, and by Sylvester's law of inertia so
    has the pencil B v = lambda A v.  A ``count`` below 1 is refused, and so
    is a spectrum with no positive growth rate.
    """
    if count is not None and count < 1:
        raise ValidationError(f"count: must be >= 1, got {count}")
    modes = modes_from_spectrum(spectrum, count)
    if not modes:
        problem = spectrum.problem
        raise ValidationError(
            f"no unstable mode at k = {problem.k:g}, mu = {problem.mu:g}: "
            "the spectrum has no positive growth rate"
        )
    return ModePacket(modes=modes, coefficients=np.ones(len(modes)))


def reduced_packet(packet: ModePacket) -> ModePacket:
    """Drop the fastest mode: the second branch of the separation experiment."""
    if packet.count == 0:
        raise ValueError("cannot reduce an empty packet")
    return ModePacket(modes=packet.modes[:-1], coefficients=packet.coefficients[:-1])


@dataclass(frozen=True)
class Grid2D:
    """Sampling grid: n1 uniform periodic points in x1, n2 points in x2."""

    n1: int
    n2: int
    L: float = 1.0

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError("grid resolutions must be >= 4 in each direction")

    @property
    def x1(self) -> np.ndarray:
        return 2.0 * math.pi * self.L * np.arange(self.n1) / self.n1

    @property
    def x2(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n2)


def sample_field(mode: NormalMode, t: float, grid: Grid2D):
    """Pointwise samples (u1, u2, q), each shaped (n1, n2)."""
    k = mode.problem.k
    amp = math.exp(mode.lam * t)
    x1, x2 = grid.x1, grid.x2
    s, c = np.sin(k * x1)[:, None], np.cos(k * x1)[:, None]
    u1 = amp * s * mode.psi(x2)[None, :]
    u2 = amp * c * mode.phi(x2)[None, :]
    q = amp * c * mode.pi(x2)[None, :]
    return u1, u2, q


def sample_packet_field(packet: ModePacket, t: float, grid: Grid2D):
    """Coefficient-weighted sum of the packet's mode samples."""
    shape = (grid.n1, grid.n2)
    u1 = np.zeros(shape)
    u2 = np.zeros(shape)
    q = np.zeros(shape)
    for cj, mode in zip(packet.coefficients, packet.modes):
        a, b, d = sample_field(mode, t, grid)
        u1 += cj * a
        u2 += cj * b
        q += cj * d
    return u1, u2, q


def packet_streamfunction_profile(packet: ModePacket) -> np.ndarray:
    """Chebyshev coefficients of the packet streamfunction x2-profile.

    The packet velocity at t = 0 is the curl of
    Phi = -(1/k) sin(k x1) * sum_j c_j phi_j(x2); this returns the series of
    the x2 factor -(1/k) sum_j c_j phi_j.
    """
    if packet.count == 0:
        raise ValueError("empty packet has no streamfunction profile")
    k = packet.modes[0].problem.k
    acc = None
    for cj, mode in zip(packet.coefficients, packet.modes):
        acc = cj * mode.phi.coef if acc is None else acc + cj * mode.phi.coef
    return -acc / k


def compute_capital_lambda(sweep: LatticeSweep, basis: ChebBasis):
    """Maximal growth rate over the wavenumber lattice: (Lambda, argmax k).

    Reads lambda_1 at every k = n/L, n = 1..n_max, from the discrete slip
    operator K_N (``spectrum.lambda1_variational``), with no dense solve.
    Raises if the top rate at the last lattice point is positive on a branch
    that is not marginal (``spectrum.determinant_roots``'s rule): the max may
    be unconverged.  Warns if the rates fail to decrease along the sweep.
    """
    problems = [sweep.problem(n) for n in range(1, sweep.n_max + 1)]
    lam1 = np.array([lambda1_variational(problem, basis) for problem in problems])
    if lam1[-1] > 0.0 and abs(operator_eigenvalues(0.0, problems[-1])[0] - 1.0) >= MARGINAL_TOL:
        raise ValueError(
            f"lambda_1 = {lam1[-1]:g} still positive at the last lattice point "
            f"k = {sweep.n_max / sweep.L:g}; increase n_max"
        )
    if np.any(np.diff(lam1) > 0.0):
        warnings.warn("lambda_1 is not decreasing along the wavenumber sweep", RuntimeWarning)
    best = int(np.argmax(lam1))
    return float(lam1[best]), (best + 1) / sweep.L


def escape_time(packet: ModePacket, delta: float, epsilon0: float) -> float:
    """The unique T with delta * F_N(T) = epsilon0, by bracketed root finding."""
    if packet.count < 1:
        raise ValueError("escape time needs a nonempty packet")
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if not epsilon0 > 0.0:
        raise ValueError(f"epsilon0 must be > 0, got {epsilon0}")
    lams = packet.lambdas
    if np.any(lams <= 0.0):
        raise ValueError("escape time requires every packet growth rate > 0")
    f0 = delta * packet_envelope_value(packet, 0.0)
    if not f0 < epsilon0:
        raise ValueError(
            f"already escaped at t = 0: delta * F_N(0) = {f0:g} >= epsilon0 = {epsilon0:g}"
        )
    cmin = np.abs(packet.coefficients).min()
    hi = math.log(epsilon0 / (delta * cmin)) / lams[0] + 1.0

    def g(t: float) -> float:
        return delta * packet_envelope_value(packet, t) - epsilon0

    return find_root_bracketed(g, 0.0, hi, tol=1e-14 * hi)

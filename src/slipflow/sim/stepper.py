"""Streamfunction-vorticity channel stepper with Navier-slip walls.

Prognostic variables, per Fourier mode n in x1:

  * n >= 1: vorticity values omega_n(x2) at the P Chebyshev-Gauss-Lobatto
    nodes.  Each step solves the Crank-Nicolson Helmholtz problem
    (I - (mu dt/2)(D^2 - kappa^2)) omega^{m+1} = explicit part at interior
    nodes, with the two unknown wall values of omega fixed by requiring the
    induced streamfunction (the Poisson-Dirichlet solve of
    (D^2 - kappa^2) Phi = -omega) to satisfy the slip conditions
    mu Phi'' = +xi_+ Phi' at x2 = +1 and mu Phi'' = -xi_- Phi' at x2 = -1.
    That transfer is a precomputed 2x2 influence matrix per mode (Kleiser &
    Schumann 1980).  The update is linear in the explicit part, so it is
    composed once into one real P x P operator per mode (see ChannelStepper).
    The operators depend only on (M, P, L, mu, xi_-, xi_+, dt): they are
    built once per configuration, shared read-only by every stepper that has
    it (the branches of an experiment, a stepper read from a checkpoint),
    and a small cache keeps the last few configurations.
  * n = 0: the x1-mean of u1, advanced by Crank-Nicolson diffusion with the
    Robin slip rows mu u' = +xi_+ u (top) and mu u' = -xi_- u (bottom)
    replacing the wall equations, forced by -d2 mean(u1 u2).  Its
    Crank-Nicolson inverse is operator 0 of the same per-mode stack.

Advection uses second-order Adams-Bashforth extrapolation (first step:
plain Euler weights), evaluated pseudospectrally on a grid padded to 4M
points in x1 and ceil(3P/2) Chebyshev nodes in x2, which removes quadratic
aliasing in both directions.  The x2 half of the padding is two fixed real
matrices built with the operators: the pad matrix maps the P node values to
the ceil(3P/2) padded node values of the same polynomial, and the unpad
matrix maps padded node values to the P node values of their truncation to
P Chebyshev coefficients.  A step transforms only in x1, never in x2.

A locked stepper (see below) forms its products on half the x1 period.
In the locked class every product in u . grad omega is a sine series in x1,
so the factors are evaluated at the n1/2 - 1 interior points
0 < x1 < pi L of the same padded grid by fixed real sine and cosine
synthesis matrices, and the product returns through the matching sine
analysis matrix; the mean flux mean(u1 u2) is exactly zero and is not
formed.  A locked step is thus a chain of small real matrix products with
no transform call, and it runs in real arithmetic end to end: the state,
streamfunction and advection rows are i times real rows, the operators are
real, so the step advances the imaginary block alone and never forms the
zero real parts.  These dense matrices cost O(M^2) per x2 node where a
fast transform costs O(M log M).  On a 2-vCPU host with one BLAS thread
the matrix step is still the faster one at M = 128, P = 96 and is not
faster at M = 256, P = 128, where the DST-I/DCT-I form wins 2 of 3 runs.
The CFL estimate of a locked state is matrix products too: in the class u1
is a sine and u2 a cosine series in x1, so every sample value of the padded
grid is taken at one of the points 0 <= x1 <= pi L, where the same cached
synthesis matrices (the cosine one with both end points) evaluate them.

A linearized stepper has no advection, so its Fourier rows decouple and a
row that is zero stays exactly zero.  Its step solves no streamfunction and
applies the explicit part and T only to the span of rows that hold a
nonzero entry (for a one-mode packet, a single row).  Its diagnostics work
on the prefix of rows 0 .. b-1 that ends with the last live row: every
later row of the streamfunction, the velocity, the viscous tendency and
that tendency's velocity is exactly zero, and the first b rows of a field
are still a field (row n is still mode n), so norms and inner products of
the prefix equal those of the full rows.  The methods below take their b
from the row count of the array they are given.

The streamfunction is never stored: it is reconstructed from the vorticity
at the start of every nonlinear step, so the trajectory is a pure function
of (omega, advection history) and restarting from a checkpoint reproduces
the original run bit for bit.

A state exactly in the invariant class {phi rows pure imaginary, zero mean
flow} (physically: u2 even and u1 odd under x1 -> -x1, no mean shear) is
locked, and every mode packet starts there.  The half-period products map
the class into itself exactly, so a locked run stays in it with no
projection, and no roundoff seeds the faster-growing mean-shear
instability of long runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..model import ChannelConfig, ValidationError
from .field import (
    SpectralField2D,
    cgl_nodes,
    cheb_coeffs_from_values,
    cheb_values_from_coeffs,
    slip_residuals,
)

__all__ = [
    "SimConfig",
    "ChannelStepper",
    "SimulationBlowupError",
    "InfluenceConditioningError",
    "check_boundary_conditions",
    "cheb_diff_matrix",
]


class SimulationBlowupError(RuntimeError):
    """Raised when the state stops being finite or the CFL bound is lost."""


class InfluenceConditioningError(RuntimeError):
    """Raised when a per-mode influence matrix is too ill-conditioned to invert."""


# Largest accepted 2-norm condition number of a per-mode influence matrix G.
# Test and benchmark configurations read below 1e3.  At mu = 0.5, xi = (1, 1),
# P = 24, mode 1 is singular at dt = 4.29371901504907, where G reads 6.9e14;
# at dt = 4.293719 it reads 8.7e8.
INFLUENCE_COND_MAX = 1.0e8

# Largest advective CFL number a run may start from (see stability_bound).
CFL_LIMIT = 0.3


@dataclass(frozen=True)
class SimConfig:
    """Resolution and stepping parameters for one run."""

    channel: ChannelConfig
    M: int = 32
    P: int = 64
    dt: float = 4.0e-3
    t_end: float = 1.0
    linearized: bool = False
    diagnostics_stride: int = 25

    def __post_init__(self):
        if self.M < 2:
            raise ValidationError(f"M: need at least 2 Fourier modes, got {self.M}")
        if self.P < 16:
            raise ValidationError(f"P: need at least 16 Chebyshev points, got {self.P}")
        if not self.dt > 0.0:
            raise ValidationError(f"dt: must be > 0, got {self.dt}")
        if not self.t_end >= self.dt:
            raise ValidationError(f"t_end: must be >= dt, got {self.t_end}")
        if self.diagnostics_stride < 1:
            raise ValidationError("diagnostics_stride: must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.t_end / self.dt - 1.0e-12))


def cheb_diff_matrix(P: int) -> np.ndarray:
    """Collocation differentiation matrix on the descending CGL nodes."""
    x = cgl_nodes(P)
    c = np.ones(P)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** np.arange(P)
    X = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (X + np.eye(P))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _apply(ops: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row n of complex ``rows`` through real operator ``ops[n]``, as one matmul.

    A single (P, P) ``ops`` is applied to every row.

    The rows are viewed as (M, P, 2) floats, so the real and imaginary parts
    share the product and nothing is upcast to complex.
    """
    x = np.ascontiguousarray(rows, dtype=complex)
    y = ops @ x.view(np.float64).reshape(*x.shape, 2)
    return y.view(complex).reshape(x.shape)


@functools.lru_cache(maxsize=4)
def _operators(M: int, P: int, L: float, mu: float, xi_minus: float,
               xi_plus: float, dt: float) -> dict:
    """The operators of one stepper configuration, by ChannelStepper attribute name.

    Built once per configuration and shared by every stepper that has it,
    so every array is read-only.  An ill-conditioned influence matrix raises
    InfluenceConditioningError, and a raise is not cached, so each
    construction of such a stepper raises.
    """
    x2 = cgl_nodes(P)
    D = cheb_diff_matrix(P)
    D2 = D @ D
    kappa = np.arange(M + 1) / L
    alpha = 0.5 * mu * dt

    # slip functionals acting on a streamfunction node vector
    slip_plus = mu * D2[0] - xi_plus * D[0]
    slip_minus = mu * D2[-1] + xi_minus * D[-1]

    eye = np.eye(P)
    # Per-mode Poisson-Dirichlet (K, modes 1..M) and Crank-Nicolson
    # Helmholtz (A, modes 0..M) matrices with identity wall rows, except
    # the mean mode's Robin rows; zeroing the wall columns of their
    # inverses folds in the zeroed wall rows of every right-hand side.
    K = D2 - (kappa[1:] ** 2)[:, None, None] * eye
    A = eye - alpha * np.concatenate([D2[None], K])
    for mat in (A, K):
        mat[:, 0], mat[:, -1] = eye[0], eye[-1]
    A[0, 0] = mu * D[0] - xi_plus * eye[0]
    A[0, -1] = mu * D[-1] + xi_minus * eye[-1]
    # each matrix is dropped once inverted and T is formed in place, so
    # at most three (M, P, P) arrays are live during the build
    a_inv = np.linalg.inv(A)
    del A
    og = a_inv[1:, :, [0, -1]]  # unit omega wall values through the solve
    a_inv[:, :, [0, -1]] = 0.0
    k_inv = np.linalg.inv(K)
    del K
    k_inv *= -1.0
    k_inv[:, :, [0, -1]] = 0.0
    S = np.stack([slip_plus, slip_minus])
    SK = S @ k_inv
    G = SK @ og
    finite = np.isfinite(G).all(axis=(1, 2))
    cond = np.full(M, np.inf)
    cond[finite] = np.linalg.cond(G[finite])
    bad = cond > INFLUENCE_COND_MAX
    if bad.any():
        i = int(np.argmax(bad))
        raise InfluenceConditioningError(
            f"influence matrix for mode n = {i + 1} is ill-conditioned "
            f"(cond = {cond[i]:.3g} > {INFLUENCE_COND_MAX:g})"
        )
    # new[n] = T[n] @ rhs[n]: Helmholtz solve, then the wall-omega
    # correction that zeroes the slip functionals of its streamfunction
    a_inv[1:] -= og @ np.linalg.solve(G, SK @ a_inv[1:])

    # product grid padded against quadratic aliasing in x1 and x2
    n1 = max(4 * M, 8)
    p_pad = math.ceil(3 * P / 2)
    pad_coeffs = np.zeros((p_pad, P))
    pad_coeffs[:P] = cheb_coeffs_from_values(eye, axis=0)
    pad = cheb_values_from_coeffs(pad_coeffs, axis=0)
    unpad = cheb_values_from_coeffs(
        cheb_coeffs_from_values(np.eye(p_pad), axis=0)[:P], axis=0
    )
    # locked class: pad fused with d/dx2, and the sine and cosine series
    # at x1_j = j pi L / (n1/2), j = 0 .. n1/2, with n j reduced mod n1
    # so every angle lies in [0, 2 pi); the products use the interior
    # points j = 1 .. n1/2 - 1, the CFL estimate the closed half period
    half = n1 // 2
    angle = (np.pi / half) * (np.outer(np.arange(half + 1), np.arange(1, M + 1)) % n1)
    half_sin = 2.0 * np.sin(angle[1:-1])
    closed_cos = 2.0 * np.cos(angle) * kappa[1:]
    ops = {
        "x2": x2, "D": D, "D2": D2, "kappa": kappa, "_alpha": alpha,
        "_slip_plus": slip_plus, "_slip_minus": slip_minus,
        "_explicit_base": eye + alpha * D2,  # row form handles kappa in step
        "_T": a_inv, "_K": k_inv,
        "_n1": n1, "_pad": pad, "_unpad": unpad,
        "_pad_with_d": np.hstack([pad.T, (pad @ D).T]),
        "_half_sin": half_sin, "_closed_cos": closed_cos,
        "_half_cos": closed_cos[1:-1], "_half_fwd": half_sin.T / -n1,
    }
    for value in ops.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ops


class ChannelStepper:
    """Time stepper over the stacked per-mode operators, owning the state.

    ``_T`` (M+1, P, P) maps the explicit right-hand side row n to the new
    state row, ``new[n] = T[n] @ rhs[n]``.  With Z zeroing the two wall
    rows, Ainv = A^-1 Z for the Crank-Nicolson Helmholtz matrix A,
    Kinv = -K^-1 Z for the Poisson-Dirichlet matrix K, og = A^-1 [e_0, e_P-1]
    the wall-omega Green columns and S the two slip functionals,
    T[n] = Ainv - og G^-1 S Kinv Ainv with the influence matrix G = S Kinv og
    for n >= 1.  The mean row's A has the two Robin rows as its wall rows
    and no influence correction, so T[0] = Ainv.  ``_K`` (M, P, P) holds
    Kinv, so ``phi[n] = K[n-1] @ omega[n]``.  A G whose condition number
    exceeds INFLUENCE_COND_MAX raises InfluenceConditioningError when the
    operators are built.

    ``_pad`` (ceil(3P/2), P) takes the P CGL node values of a polynomial to
    its values at the ceil(3P/2) padded CGL nodes (DCT-I, zero-pad, inverse
    DCT-I); ``_unpad`` (P, ceil(3P/2)) takes padded node values to the P
    node values of their first P Chebyshev coefficients.

    The operators come from ``_operators``, one read-only build per
    (M, P, L, mu, xi_-, xi_+, dt) shared by every stepper of that
    configuration; the state ``_omega`` and history ``_n_prev`` are the
    stepper's own.

    ``_locked`` says whether the state block is exactly in the locked class;
    ``_set_state`` decides it when the stepper is built or a checkpoint is
    loaded, never in a step.  A locked stepper steps the imaginary parts of
    its rows in real arithmetic (``_locked_step``) and runs the advection
    and the CFL estimate on half the x1 period (``_locked_advection``,
    ``cfl_number``); any other stepper steps complex rows and uses the
    full-period ``_to_phys`` and ``_from_phys``.  The locked paths use five
    more cached matrices, with the points x1_j = j pi L / (n1/2),
    j = 0 .. n1/2, of which the h = n1/2 - 1 interior ones carry the
    products:
    ``_pad_with_d`` (P, 2 ceil(3P/2)) is ``[_pad.T | (_pad @ D).T]``, so
    one product pads node values and their x2 derivative; ``_half_sin``
    (h, M) holds 2 sin(kappa_n x1_j) and ``_half_cos`` (h, M) holds
    2 kappa_n cos(kappa_n x1_j), the DST-I and (kappa-weighted) DCT-I
    syntheses of rows 1 .. M at the interior points; ``_closed_cos``
    (h + 2, M) is the same cosine synthesis at every point j = 0 .. n1/2,
    with ``_half_cos`` its interior rows; ``_half_fwd`` (M, h) is
    ``_half_sin.T / -n1``, the forward DST-I back to rows 1 .. M.
    """

    def __init__(self, cfg: SimConfig, initial: SpectralField2D):
        if initial.M != cfg.M or initial.P != cfg.P:
            raise ValidationError(
                f"initial field is ({initial.M}, {initial.P}), config wants "
                f"({cfg.M}, {cfg.P})"
            )
        if initial.L != cfg.channel.L:
            raise ValidationError("initial field and config disagree on L")
        self.cfg = cfg
        self.L = cfg.channel.L
        self.mu = cfg.channel.mu
        self.slip = cfg.channel.slip
        self.t = 0.0
        self._build_operators()
        self._set_state(self._state_from_streamfunction(initial))
        self._n_prev = np.zeros_like(self._omega)
        self._have_history = False

    # -- operator setup ------------------------------------------------

    def _build_operators(self):
        cfg, slip = self.cfg, self.slip
        vars(self).update(_operators(cfg.M, cfg.P, self.L, self.mu,
                                     slip.xi_minus, slip.xi_plus, cfg.dt))

    # -- representation changes ----------------------------------------

    def _state_from_streamfunction(self, field: SpectralField2D) -> np.ndarray:
        """Internal state (vorticity rows + mean-u1 row) from coefficients."""
        from .field import _chebder_rows

        c = field.coefficients
        omega_c = -(_chebder_rows(c, 2) - (self.kappa**2)[:, None] * c)
        state = cheb_values_from_coeffs(omega_c, axis=1)
        state[0] = cheb_values_from_coeffs(c[0].real[None, :], axis=1)[0]
        return np.ascontiguousarray(state)

    def _set_state(self, omega: np.ndarray):
        """Install state rows and pick the advection path their class allows."""
        self._omega = omega
        self._locked = not omega[0].any() and not omega[1:].real.any()

    def _diagnostic_rows(self) -> np.ndarray:
        """The state rows diagnostics read: all M+1, or on a linearized
        stepper the prefix of rows 0 .. b-1 ending with the last live row
        (b >= 1, so the mean row stays)."""
        if self.cfg.linearized:
            return self._omega[: max(self._live_rows().stop, 1)]
        return self._omega

    def _solve_phi(self, omega: np.ndarray) -> np.ndarray:
        """Poisson-Dirichlet streamfunction node values from vorticity rows.

        ``omega`` holds the first b >= 1 rows of a state, all of them or a
        prefix; row n is solved with K[n-1] either way.
        """
        phi = np.zeros_like(omega)
        phi[1:] = _apply(self._K[: omega.shape[0] - 1], omega[1:])
        return phi

    def _velocity_nodes(self, phi: np.ndarray, mean_row: np.ndarray):
        """(u1, u2) node values of streamfunction rows; u1 row 0 is ``mean_row``.

        Leading axes of ``phi`` and ``mean_row`` stack independent fields.
        """
        u1 = phi @ self.D.T
        u1[..., 0, :] = mean_row
        u2 = -(1j * self.kappa[: phi.shape[-2]])[:, None] * phi
        u2[..., 0, :] = 0.0
        return u1, u2

    def _velocity_fields(self, rows: np.ndarray, phi: np.ndarray):
        """(u1, u2) coefficient fields of state-shaped rows with streamfunction phi."""
        # both components go through one transform, laid out as in a record
        nodes = np.stack(self._velocity_nodes(phi, rows[0]))
        u = cheb_coeffs_from_values(nodes, axis=-1)
        return SpectralField2D(u[0], self.L), SpectralField2D(u[1], self.L)

    def streamfunction(self) -> SpectralField2D:
        """Public state: streamfunction rows plus the mean-u1 row."""
        phi = self._solve_phi(self._omega)
        coeffs = cheb_coeffs_from_values(phi, axis=1)
        coeffs[0] = cheb_coeffs_from_values(self._omega[0].real[None, :], axis=1)[0]
        return SpectralField2D(coeffs, self.L)

    def velocity(self, phi: np.ndarray | None = None):
        """(u1, u2) as coefficient-space fields.

        ``phi`` passes the state's streamfunction rows if already solved;
        on a linearized stepper it may hold only the first b rows, up to the
        last live one, and the fields then have those b rows.
        """
        if phi is None:
            phi = self._solve_phi(self._omega)
        return self._velocity_fields(self._omega[: phi.shape[0]], phi)

    # -- pseudospectral products ----------------------------------------

    def _to_phys(self, rows: np.ndarray) -> np.ndarray:
        """Real values on the padded product grid of the first node-value rows."""
        spec = np.zeros((self._n1 // 2 + 1, self.cfg.P), dtype=complex)
        spec[: rows.shape[0]] = rows
        return (np.fft.irfft(spec, n=self._n1, axis=0) * self._n1) @ self._pad.T

    def _from_phys(self, vals: np.ndarray) -> np.ndarray:
        """Node-value rows of padded product-grid values, truncated to (M+1, P)."""
        return np.fft.rfft(vals @ self._unpad.T, axis=0)[: self.cfg.M + 1] / self._n1

    def _advection(self, phi: np.ndarray) -> np.ndarray:
        """Advection rows: n >= 1 carry u . grad omega at the nodes,
        row 0 carries +d2 mean(u1 u2) (the negated mean-flow forcing)."""
        if self._locked:
            adv = np.zeros_like(self._omega)
            adv.imag[1:] = self._locked_advection(phi.imag[1:], self._omega.imag[1:])
            return adv
        u1, u2 = self._velocity_nodes(phi, self._omega[0])
        wtot = self._omega.copy()
        wtot[0] = -(self._omega[0].real @ self.D.T)
        w1 = (1j * self.kappa)[:, None] * wtot
        w2 = wtot @ self.D.T
        u1p = self._to_phys(u1)
        u2p = self._to_phys(u2)
        adv = self._from_phys(u1p * self._to_phys(w1) + u2p * self._to_phys(w2))
        # the truncated flux has degree < P, so collocation is exact
        flux = self._from_phys(u1p * u2p)
        adv[0] = flux[0].real @ self.D.T
        return adv

    def _locked_advection(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Advection of a locked state on half the x1 period, as a real block.

        ``b`` and ``c`` are the real (M, P) blocks of a locked state's rows
        1 .. M: phi_n = i b_n and omega_n = i c_n, and the mean row is zero.
        Then u1 and d2 omega are sine series in x1 and u2 and d1 omega
        cosine series.  Each product in u . grad omega is a sine series, so
        the advection rows 1 .. M are i a_n and returned as the real block
        a, and mean(u1 u2) = 0 makes row 0 exactly zero.  The factors are
        evaluated at the interior points j = 1 .. n1/2 - 1 of the padded
        grid, where a series with rows i s_n takes the values -``_half_sin``
        @ s and one with real rows kappa_n a_n the values ``_half_cos`` @ a,
        and the product returns through ``_half_fwd``.  Every step is a real
        matrix product.
        """
        M, pp = self.cfg.M, self._pad.shape[0]
        sine, cosine = self._half_sin, self._half_cos
        # b, d2 b, c and d2 c at the padded x2 nodes
        f = np.concatenate([b, c]) @ self._pad_with_d
        b, db, c, dc = f[:M, :pp], f[:M, pp:], f[M:, :pp], f[M:, pp:]
        # u1 w1 + u2 w2 with u1 = -sine @ b', w1 = -cosine @ c,
        # u2 = cosine @ b, w2 = -sine @ c'
        prod = (sine @ db) * (cosine @ c) - (cosine @ b) * (sine @ dc)
        return (self._half_fwd @ prod) @ self._unpad.T

    # -- stepping --------------------------------------------------------

    def _live_rows(self) -> slice:
        """The span of rows from the first to the last one with a nonzero entry."""
        live = np.flatnonzero(self._omega.view(np.float64).any(axis=1))
        if live.size == 0:
            return slice(0, 0)
        return slice(int(live[0]), int(live[-1]) + 1)

    def step(self):
        """Advance one dt (Euler-weight bootstrap on the very first step).

        A linearized step reads neither the streamfunction nor the advection
        (both would be zero), and its rows decouple, so a row that is zero
        stays exactly zero: only the span of live rows is advanced.  A
        locked step works on real arrays alone (``_locked_step``).
        """
        cfg = self.cfg
        if self._locked:
            new = self._locked_step()
        else:
            rows = self._live_rows() if cfg.linearized else slice(None)
            w = self._omega[rows]
            rhs = _apply(self._explicit_base, w)
            rhs -= self._alpha * (self.kappa[rows] ** 2)[:, None] * w
            if not cfg.linearized:
                adv = self._advection(self._solve_phi(self._omega))
                if self._have_history:
                    adv_x = 1.5 * adv - 0.5 * self._n_prev
                else:
                    adv_x = adv
                rhs -= cfg.dt * adv_x
                self._n_prev = adv
            self._omega[rows] = _apply(self._T[rows], rhs)
            new = self._omega
        self._have_history = True
        self.t += cfg.dt
        if not np.isfinite(new).all():
            raise SimulationBlowupError(
                f"state stopped being finite at t = {self.t:.6g}"
            )

    def _locked_step(self) -> np.ndarray:
        """The step of a locked state, on the imaginary parts of its rows.

        The state rows are i c_n, the streamfunction rows i b_n with
        b = K c, and the advection rows i a_n; the operators are real, so
        the real parts and row 0 stay exactly zero and are never formed.
        The step advances rows 1 .. M, or the live span on a linearized
        stepper: c becomes T (c E^T - alpha kappa^2 c - dt AB2(a)), every
        per-mode product a stacked real (..., P, 1) matmul.  The AB2 history
        a is kept in the imaginary parts of rows 1 .. M of ``_n_prev``, the
        block a checkpoint stores.  Returns the new block of c, the only
        part of the state that can stop being finite.
        """
        cfg = self.cfg
        rows = self._live_rows() if cfg.linearized else slice(1, None)
        c = np.ascontiguousarray(self._omega.imag[rows])
        rhs = c @ self._explicit_base.T
        rhs -= self._alpha * (self.kappa[rows] ** 2)[:, None] * c
        if not cfg.linearized:
            adv = self._locked_advection((self._K @ c[..., None])[..., 0], c)
            history = self._n_prev.imag[1:]
            if self._have_history:
                rhs -= cfg.dt * (1.5 * adv - 0.5 * history)
            else:
                rhs -= cfg.dt * adv
            history[...] = adv
        new = (self._T[rows] @ rhs[..., None])[..., 0]
        self._omega.imag[rows] = new
        return new

    # -- safety estimates -------------------------------------------------

    def cfl_number(self, phi: np.ndarray | None = None) -> float:
        """Advective CFL of the current state at the configured dt.

        Uses the largest |u1| and |u2| on the product grid; ``phi`` as in
        ``velocity``.  A locked state reads them off the closed half period
        j = 0 .. n1/2, which holds every sample value of the full one: u1 is
        a sine series in x1 (odd about x1 = 0 and x1 = pi L, so zero at both
        ends, where ``initial=0.0`` stands in for it) and u2 a cosine series
        (even about both).  Its rows 1 .. b-1 are padded in x2 by
        ``_pad_with_d``, then synthesized by the first b-1 columns of
        ``_half_sin`` and ``_closed_cos``: the same padded grid points as the
        full period, with no transform.  Any other state transforms the full
        period with ``_to_phys``.
        """
        if phi is None:
            phi = self._solve_phi(self._omega)
        if self._locked:
            # phi_n = i b_n: u1 has rows i (D b)_n and u2 rows kappa_n b_n
            pp = self._pad.shape[0]
            f = phi.imag[1:] @ self._pad_with_d
            n = f.shape[0]
            u1 = self._half_sin[:, :n] @ f[:, pp:]
            u2 = self._closed_cos[:, :n] @ f[:, :pp]
        else:
            u1, u2 = self._velocity_nodes(phi, self._omega[0])
            u1, u2 = self._to_phys(u1), self._to_phys(u2)
        m1 = float(np.abs(u1).max(initial=0.0))
        m2 = float(np.abs(u2).max(initial=0.0))
        dx1 = 2.0 * math.pi * self.L / self._n1
        dx2_min = abs(self.x2[0] - self.x2[1])
        return self.cfg.dt * (m1 / dx1 + m2 / dx2_min)

    def stability_bound(self) -> float:
        """Largest dt with advective CFL <= CFL_LIMIT at the current state."""
        cfl = self.cfl_number()
        if cfl == 0.0:
            return math.inf
        return self.cfg.dt * CFL_LIMIT / cfl

    # -- instantaneous tendencies (for the energy budget) -----------------

    def tendency_split(self, phi: np.ndarray | None = None):
        """Viscous and advective tendency rows of the semi-discrete system.

        Returns (visc, adv) shaped like ``phi``: rows n >= 1 give
        d omega_n/dt contributions, row 0 gives d ubar/dt contributions;
        ``phi`` as in ``velocity``.  A linearized stepper has no advective
        tendency, so its adv is zero.
        """
        if phi is None:
            phi = self._solve_phi(self._omega)
        w = self._omega[: phi.shape[0]]
        visc = self.mu * (w @ self.D2.T - (self.kappa[: w.shape[0]] ** 2)[:, None] * w)
        visc[0] = self.mu * (w[0].real @ self.D2.T)
        if self.cfg.linearized:
            return visc, np.zeros_like(w)
        return visc, -self._advection(phi)

    def tendency_velocity(self, rows: np.ndarray):
        """Velocity-space image of tendency rows (same mapping as the state)."""
        return self._velocity_fields(rows, self._solve_phi(rows))


def check_boundary_conditions(state: SpectralField2D, cfg: SimConfig):
    """Raise unless the streamfunction state satisfies walls + slip.

    The residual may reach 1e-8 times the state's own scale.
    """
    s = cfg.channel
    res = slip_residuals(state, s.mu, s.slip.xi_minus, s.slip.xi_plus)
    scale = max(1.0, float(np.abs(state.coefficients).max(initial=0.0)))
    worst = max(res)
    if worst > 1.0e-8 * scale:
        raise ValidationError(
            f"state violates the boundary conditions: residual {worst:.3e} "
            f"exceeds 1e-08 x scale {scale:.3e}"
        )

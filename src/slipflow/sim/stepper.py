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
    The streamfunction itself is solved by matrix diagonalization (Haidvogel
    & Zang 1979): the interior D^2 with Dirichlet rows is V diag(lam) V^-1
    with real, negative, distinct lam (Gottlieb & Lustman 1983) and
    cond(V) about 2.3 at P = 64, so -(D^2 - kappa_n^2)^-1 is one product
    with V^-1 shared by every mode, a per-mode diagonal, and V, which is
    folded into every map that reads the streamfunction.
    The channel build (``_operators``) depends on (M, P, L, mu, xi_-, xi_+),
    the step map (``_step_map``, the one builder of ``_T``) also on the step
    length h.  A stepper installs the build of its channel and the map of its
    dt, each shared read-only by the steppers that have it (the branches of
    an experiment, a stepper read from a checkpoint); a last step builds the
    map of its h alone.  D, D2 and the Dirichlet eigenbasis are ``_grid``'s.
  * n = 0: the x1-mean of u1, advanced by Crank-Nicolson diffusion with the
    Robin slip rows mu u' = +xi_+ u (top) and mu u' = -xi_- u (bottom)
    replacing the wall equations, unforced: only a linearized state has a
    mean flow (see below).  Its Crank-Nicolson inverse is operator 0 of the
    same per-mode stack.

Advection uses second-order Adams-Bashforth extrapolation (first step:
plain Euler weights), evaluated pseudospectrally on a grid padded to 4M
points in x1 and ceil(3P/2) Chebyshev nodes in x2, which removes quadratic
aliasing in both directions.  The x2 half of the padding is two fixed real
matrices: the pad matrix maps the P node values to
the ceil(3P/2) padded node values of the same polynomial, and the unpad
matrix maps padded node values to the P node values of their truncation to
P Chebyshev coefficients.  The x1 half is the sine and cosine table below.
These advection and CFL tables (``_n1``, ``_pad``, ``_unpad``,
``_pad_with_d``, ``_phi_pad``, ``_half_sin``, ``_closed_cos``,
``_half_cos``, ``_half_fwd``) depend on the grid (M, P, L) alone: one
read-only build per grid (``_advection_tables``), which a nonlinear
stepper installs and ``cfl_number`` reads.  A linearized step forms no
advection, so a linearized run never builds them.  ``_pad_with_d`` is
stored C-ordered and ``_unpad`` Fortran-ordered, so each right operand of
the step is C-contiguous as read, the layout BLAS multiplies fastest.

The state and the AB2 advection history are real (2, M+1, P) arrays, the
real and the imaginary parts of the rows.  Building the stepper or loading
a checkpoint fixes, once, the box of the state that can be nonzero,
(components, rows): the imaginary plane alone for a locked state (see
below), else both; the live span of rows (first to last nonzero one) on a
linearized stepper, whose rows decouple so that a zero row stays zero, and
rows 1 .. M on a nonlinear one.  A step advances the box alone, by stacked
real matmuls.  One call may step a group of steppers that share the
step map, the ``linearized`` flag, the box and whether they have an
AB2 history (the branches of a separation sweep): their boxes lie on a
leading branch axis and every product broadcasts over it, making for each
branch the BLAS call of a lone step, so each advances bit for bit as it
would alone.  A lone step is the one-branch group.  The diagnostics read
rows 0 .. b-1, b the end of the box:
every later row of each field they form is zero, and the first b rows of a
field are still a field (row n is still mode n), with the same norms and
inner products.  The methods below take their b from the row count of the
array they are given.

A nonlinear box forms its advection on half the x1 period: in the class
every product in u . grad omega is a sine series in x1, so the factors are
evaluated at the n1/2 - 1 interior points 0 < x1 < pi L of the padded grid
by fixed real sine and cosine synthesis matrices and return through the
sine analysis matrix, with no transform call; the mean flux mean(u1 u2) is
exactly zero and is not formed.  The dense matrices cost O(M^2) per x2 node
where a fast transform costs O(M log M); on a 2-vCPU host with one BLAS
thread they still win at M = 128, P = 96, and at M = 256, P = 128 the
DST-I/DCT-I form wins 2 of 3 runs.  They are row slices of one sine and
cosine table over the closed half period 0 <= x1 <= pi L, which holds
every sample value of the full one, and the CFL estimate applies them
there.  It bounds the advection, so only nonlinear runs read it, and it
refuses a state outside the locked class.  The stepper calls no FFT.

The streamfunction is never stored: it is reconstructed from the vorticity
at the start of every nonlinear step, so the trajectory is a pure function
of (omega, advection history) and restarting from a checkpoint reproduces
the original run bit for bit.  It is never formed at the nodes either: the
step, the CFL estimate and every streamfunction and velocity reported (the
methods below, ``sim.run``'s record, the separation experiment) come from
one solve of real planes into the eigenbasis, ``_solve_planes``, and read
it through maps with V folded in, ``_advection``'s pad and
``_velocity_coeffs``.

A state exactly in the invariant class {phi rows pure imaginary, zero mean
flow} (physically: u2 even and u1 odd under x1 -> -x1, no mean shear) is
locked, and every mode packet starts there.  The half-period products map
the class into itself exactly, so a locked run stays in it with no
projection, and no roundoff seeds the faster-growing mean-shear
instability of long runs.  The constructor and a checkpoint read refuse a
nonlinear state outside the class with ValidationError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..model import ChannelConfig, ValidationError
from .field import (
    SpectralField2D,
    _cheb_transform_matrix,
    _planes,
    cgl_nodes,
    cheb_coeffs_from_values,
    cheb_values_from_coeffs,
    relative_boundary_residual,
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
    """Raised when the state stops being finite or the CFL bound is lost.

    ``steppers`` holds the steppers of a step whose state stopped being
    finite, and is empty for a lost CFL bound.
    """

    def __init__(self, message: str, steppers: tuple = ()):
        super().__init__(message)
        self.steppers = steppers


class InfluenceConditioningError(RuntimeError):
    """Raised when a per-mode influence matrix is too ill-conditioned to invert."""


# Largest accepted 2-norm condition number of a per-mode influence matrix G.
# Test and benchmark configurations read below 1e3.  At mu = 0.5, xi = (1, 1),
# P = 24, mode 1 is singular at dt = 4.29371901504907, where G reads 6.9e14;
# at dt = 4.293719 it reads 8.7e8.
INFLUENCE_COND_MAX = 1.0e8

# Largest advective CFL number a nonlinear run may start from (see sim.run._start).
CFL_LIMIT = 0.3
# Largest CFL number a nonlinear record may read, or a sweep's delta predict.
CFL_ABORT = 1.0


@dataclass(frozen=True)
class SimConfig:
    """Resolution and stepping parameters for one run.

    A run takes ``n_steps`` = ceil(t_end / dt) steps of dt, so it ends past
    t_end when t_end is not a multiple of dt."""

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
    """Collocation differentiation matrix on the descending CGL nodes.

    The stepper's wall rows, Helmholtz operators and Dirichlet eigenbasis
    are built from D and D @ D, so every DNS output bit rests on this
    matrix; it is not built from ``numerics.chebder_map``.  The node-space
    D2 that the exact map gives, values <- d2/dx2 <- coefficients, is no
    less accurate: against a long-double D @ D its largest entry error,
    relative to the largest entry, reads 1.0e-14 (4.5e-14 for this one) at
    P = 64 and 1.5e-14 (1.5e-13) at P = 96.
    """
    x = cgl_nodes(P)
    c = np.ones(P)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** np.arange(P)
    X = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (X + np.eye(P))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _complex(planes: np.ndarray) -> np.ndarray:
    """Complex rows of real (2, ...) ``planes``, the inverse of ``_planes``.

    The parts are assigned, not added, so every bit (signed zeros included)
    is the one stored.
    """
    rows = np.empty(planes.shape[1:], dtype=complex)
    rows.real, rows.imag = planes
    return rows


def _on_leading_axis(arrays: list) -> np.ndarray:
    """``arrays`` stacked on a leading (branch or record) axis: a view of a
    lone one, else a stacked copy (the group step writes its results back)."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _dirichlet_eigenbasis(A: np.ndarray):
    """Eigenvalues lam and eigenvectors V, V^-1 of the interior Chebyshev D2
    with Dirichlet rows, A = V diag(lam) V^-1.

    A is centrosymmetric (J A J = A, J the flip, up to roundoff), so the
    orthonormal even and odd vectors Q split it into two half-size blocks,
    each decomposed by one ``eig``; the even-odd coupling Q^T A Q leaves is
    roundoff and is dropped.  The eigenvalues are real, negative and
    distinct (Gottlieb & Lustman 1983), so ``eig`` returns real arrays.
    """
    n = A.shape[0]
    m, e = n // 2, n - n // 2  # odd and even vector counts
    j = np.arange(m)
    Q = np.zeros((n, n))
    Q[j, j] = Q[n - 1 - j, j] = Q[j, e + j] = math.sqrt(0.5)
    Q[n - 1 - j, e + j] = -math.sqrt(0.5)
    if n % 2:
        Q[m, m] = 1.0
    B = Q.T @ A @ Q
    lam, V, V_inv = np.empty(n), np.zeros((n, n)), np.zeros((n, n))
    for half in (slice(0, e), slice(e, n)):
        w, v = np.linalg.eig(B[half, half])
        if np.iscomplexobj(w):
            raise RuntimeError("the Dirichlet D2 has a complex eigenvalue pair")
        lam[half], V[half, half], V_inv[half, half] = w, v, np.linalg.inv(v)
    return lam, Q @ V, V_inv @ Q.T


def _read_only(tables: dict) -> dict:
    """``tables`` with every array made read-only: a build is shared."""
    for value in tables.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=4)
def _grid(P: int) -> tuple:
    """The x2 tables of P nodes that both builds read, read-only: the CGL
    nodes x2, D, D2 = D @ D and the Dirichlet eigenbasis (lam, V, V^-1) of
    the interior D2 (``_dirichlet_eigenbasis``), formed once per P."""
    x2 = cgl_nodes(P)
    D = cheb_diff_matrix(P)
    D2 = D @ D
    lam, V, V_inv = _dirichlet_eigenbasis(D2[1:-1, 1:-1])
    out = (x2, D, D2, lam, V, V_inv)
    for value in out:
        value.flags.writeable = False
    return out


def _channel_key(cfg: SimConfig) -> tuple:
    """(M, P, L, mu, xi_-, xi_+) of ``cfg``: the arguments of ``_operators``."""
    slip = cfg.channel.slip
    return (cfg.M, cfg.P, cfg.channel.L, cfg.channel.mu, slip.xi_minus, slip.xi_plus)


def _operator_set(cfg: SimConfig) -> dict:
    """The cached step map of ``cfg``'s dt, the one its steppers hold."""
    return _dt_map(*_channel_key(cfg), cfg.dt)


def _last_step_operators(cfg: SimConfig, h: float) -> dict:
    """The step map of a last step of length ``h`` (``ChannelStepper.step``'s
    ``last``), not cached: each delta of a sweep ends with its own h."""
    return _step_map(*_channel_key(cfg), h)


@functools.lru_cache(maxsize=4)
def _operators(M: int, P: int, L: float, mu: float, xi_minus: float,
               xi_plus: float) -> dict:
    """The dt-free operators of one channel and grid, by ChannelStepper
    attribute name, read-only: shared by its steppers, whatever their dt,
    and its step maps.  The advection tables are ``_advection_tables``."""
    x2, D, D2, lam, V, V_inv = _grid(P)
    kappa = np.arange(M + 1) / L

    # slip functionals acting on a streamfunction node vector
    slip_plus = mu * D2[0] - xi_plus * D[0]
    slip_minus = mu * D2[-1] + xi_minus * D[-1]

    eye = np.eye(P)
    # The slip rows S Kinv of the Poisson-Dirichlet inverse Kinv = -K^-1 Z,
    # K = D2 - kappa_n^2 (n >= 1) with identity wall rows, from the inverse
    # of K.  Slip rows from the eigenbasis below, or from one solve with
    # K^T, lose up to two digits to cancellation in S phi (see
    # TestExtendedPrecision).
    K = D2 - (kappa[1:] ** 2)[:, None, None] * eye
    K[:, 0], K[:, -1] = eye[0], eye[-1]
    k_inv = np.linalg.inv(K)
    k_inv[:, :, [0, -1]] = 0.0
    slip_kinv = np.stack([slip_plus, slip_minus]) @ np.negative(k_inv, out=k_inv)

    # The Poisson-Dirichlet solve in the shared eigenbasis of the interior
    # D2 (Haidvogel & Zang 1979): the eigen-coordinates V^-1 omega_int of a
    # node row are one product with V^-T embedded with zero wall rows, the
    # solve is the per-mode diagonal -1 / (lam - kappa_n^2) (zero on the
    # mean row), and every map that reads the streamfunction takes
    # eigen-coordinates, V folded into it
    to_eig = np.zeros((P, P - 2))
    to_eig[1:-1] = V_inv.T
    eig_solve = np.zeros((M + 1, P - 2))
    eig_solve[1:] = -1.0 / (lam - (kappa[1:] ** 2)[:, None])
    C = _cheb_transform_matrix(P, False)
    return _read_only({
        "x2": x2, "D": D, "D2": D2, "kappa": kappa,
        "_slip_plus": slip_plus, "_slip_minus": slip_minus, "_slip_kinv": slip_kinv,
        "_to_eig": to_eig, "_eig_solve": eig_solve,
        "_coeff_map": V.T @ np.hstack([(C @ D).T, C.T])[1:-1], "_node_coeffs": C.T,
    })


def _step_map(M: int, P: int, L: float, mu: float, xi_minus: float,
              xi_plus: float, h: float) -> dict:
    """The Crank-Nicolson/influence-matrix map of one step of length ``h``,
    read-only, by ChannelStepper attribute name: ``_T``, ``_explicit_base``
    (Fortran-ordered: ``step`` reads its ``.T``), ``_alpha`` = mu h / 2,
    ``_influence_cond`` and ``_h``.  The one builder of ``_T``, on the
    channel build (``_operators``); an ill-conditioned influence matrix
    raises InfluenceConditioningError."""
    ops = _operators(M, P, L, mu, xi_minus, xi_plus)
    D, D2, kappa, SK = ops["D"], ops["D2"], ops["kappa"], ops["_slip_kinv"]
    alpha = 0.5 * mu * h
    eye = np.eye(P)
    # the Crank-Nicolson matrices A = I - alpha (D2 - kappa_n^2) with identity
    # wall rows, except the mean mode's Robin rows; zeroing the wall columns
    # of A^-1 folds in the zeroed wall rows of every right-hand side.  A and
    # T are formed in place, so at most two (M+1, P, P) arrays are live
    A = D2 - (kappa**2)[:, None, None] * eye
    A *= -alpha
    A += eye
    A[:, 0], A[:, -1] = eye[0], eye[-1]
    A[0, 0] = mu * D[0] - xi_plus * eye[0]
    A[0, -1] = mu * D[-1] + xi_minus * eye[-1]
    a_inv = np.linalg.inv(A)
    del A
    og = a_inv[1:, :, [0, -1]]  # unit omega wall values through the solve
    a_inv[:, :, [0, -1]] = 0.0
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
    return _read_only({
        "_T": a_inv, "_influence_cond": cond, "_alpha": alpha, "_h": h,
        "_explicit_base": np.asfortranarray(eye + alpha * D2),  # row form handles kappa in step
    })


# a stepper's step map; a raise is not cached, so each ill-conditioned stepper raises
_dt_map = functools.lru_cache(maxsize=4)(_step_map)


@functools.lru_cache(maxsize=4)
def _advection_tables(M: int, P: int, L: float) -> dict:
    """The advection and CFL tables of one grid, by ChannelStepper attribute name.

    They depend on (M, P, L) alone, so steppers of one grid share one
    read-only build whatever their viscosity, slip and dt: a nonlinear
    stepper installs it, ``cfl_number`` reads it, and a linearized run,
    which forms no advection, never builds it.
    """
    _, D, _, _, V, _ = _grid(P)
    kappa = np.arange(M + 1) / L
    # product grid padded against quadratic aliasing in x1 and x2
    n1 = max(4 * M, 8)
    p_pad = math.ceil(3 * P / 2)
    pad_coeffs = np.zeros((p_pad, P))
    pad_coeffs[:P] = cheb_coeffs_from_values(np.eye(P), axis=0)
    pad = cheb_values_from_coeffs(pad_coeffs, axis=0)
    unpad = np.asfortranarray(cheb_values_from_coeffs(
        cheb_coeffs_from_values(np.eye(p_pad), axis=0)[:P], axis=0
    ))
    pad_with_d = np.ascontiguousarray(np.hstack([pad.T, (pad @ D).T]))
    # x1 synthesis at x1_j = j pi L / (n1/2), j = 0 .. n1/2: 2 sin and
    # 2 cos of kappa_n x1_j, n = 1 .. M, with n j reduced mod n1 so every
    # angle lies in [0, 2 pi).  The products take the interior points
    # j = 1 .. n1/2 - 1 of the half period, the CFL estimate all of them
    half = n1 // 2
    angle = (np.pi / half) * (np.outer(np.arange(half + 1), np.arange(1, M + 1)) % n1)
    sin, cos = 2.0 * np.sin(angle), 2.0 * np.cos(angle)
    closed_cos = cos * kappa[1:]
    return _read_only({
        "_n1": n1, "_pad": pad, "_unpad": unpad,
        "_pad_with_d": pad_with_d, "_phi_pad": V.T @ pad_with_d[1:-1],
        "_half_sin": sin[1:half], "_closed_cos": closed_cos,
        "_half_cos": closed_cos[1:-1], "_half_fwd": sin[1:half].T / -n1,
    })


class ChannelStepper:
    """Time stepper over the per-mode operators, owning the state.

    ``_T`` (M+1, P, P) maps the explicit right-hand side row n to the new
    state row, ``new[n] = T[n] @ rhs[n]``.  With Z zeroing the two wall
    rows, Ainv = A^-1 Z for the Crank-Nicolson Helmholtz matrix A,
    Kinv = -K^-1 Z for the Poisson-Dirichlet matrix K, og = A^-1 [e_0, e_P-1]
    the wall-omega Green columns and S the two slip functionals,
    T[n] = Ainv - og G^-1 S Kinv Ainv with the influence matrix G = S Kinv og
    for n >= 1; S Kinv (``_slip_kinv``) comes from the dense inverse of K.
    The mean row's A has the two Robin rows as its wall rows and no
    influence correction, so T[0] = Ainv.  ``_T`` is the one per-mode
    (M+1, P, P) stack.  A G whose condition number exceeds
    INFLUENCE_COND_MAX raises InfluenceConditioningError when the step map
    is built; modes 1 .. M keep theirs as ``_influence_cond`` (M,).

    The streamfunction is solved in the eigenbasis of the interior D2,
    D2_int = V diag(lam) V^-1 (Haidvogel & Zang 1979), taken from its
    centrosymmetric even and odd halves.  ``_to_eig`` (P, P-2) is V^-T with
    zero wall rows, so a node row times it gives the eigen-coordinates
    V^-1 omega_int, and ``_eig_solve`` (M+1, P-2) is the diagonal
    -1 / (lam - kappa_n^2), zero on the mean row:
    ``phi[n] = (omega[n] @ _to_eig) * _eig_solve[n]`` (``_solve_planes``)
    are the eigen-coordinates of the streamfunction, whose node values are
    V phi[n] inside and zero at the walls.  No map reads node values of
    phi: V is folded into each.

    ``_pad`` (ceil(3P/2), P) takes the P CGL node values of a polynomial to
    its values at the ceil(3P/2) padded CGL nodes (DCT-I, zero-pad, inverse
    DCT-I); ``_unpad`` (P, ceil(3P/2)) takes padded node values to the P
    node values of their first P Chebyshev coefficients.

    The operators come from the channel build and the step map of dt (see
    the module docstring).  The advection tables below come from
    ``_advection_tables``, one read-only build per grid (M, P, L): a
    nonlinear stepper installs them, a linearized one holds none, and
    ``cfl_number`` reads the build of its grid.  The state planes
    ``_state``, the history planes ``_history`` and the box ``_box`` are the
    stepper's own and set by ``_install`` alone, which refuses a nonlinear
    state outside the locked class; readers get complex rows from ``_rows``
    and ``_blocks``.

    ``step(*others)`` advances this stepper and ``others`` in one group
    step.  Steppers may share a step when they share the step map (one
    build), the ``linearized`` flag, the box and whether they have an AB2
    history; ``step`` refuses any other group with ValueError.  Each product
    broadcasts over the group's leading branch axis instead of forming one
    wider product, so a branch's result does not depend on the others.
    Each step counts in ``steps`` and sets ``t = steps * dt`` (a last step
    of length h, ``t = (steps - 1) * dt + h``), so the clock gathers no
    rounding from repeated sums.

    The x1 synthesis is one table of 2 sin(kappa_n x1_j) and
    2 cos(kappa_n x1_j), n = 1 .. M, at x1_j = j pi L / (n1/2),
    j = 0 .. n1/2, the closed half period.  A locked box (``_locked``)
    advects on its h = n1/2 - 1 interior rows and estimates the CFL number
    on all of them (``_advection``, ``cfl_number``): ``_half_sin`` (h, M) is
    the sine table's interior rows, the DST-I synthesis of rows 1 .. M;
    ``_closed_cos`` (h + 2, M) is the cosine table times kappa_n and
    ``_half_cos`` its interior rows, the kappa-weighted DCT-I synthesis;
    ``_half_fwd`` (M, h) is ``_half_sin.T / -n1``, the forward DST-I back to
    rows 1 .. M; ``_pad_with_d`` (P, 2 ceil(3P/2)) is
    ``[_pad.T | (_pad @ D).T]``, so one product pads node values of omega
    and their x2 derivative, and ``_phi_pad`` (P-2, 2 ceil(3P/2)) is
    ``V.T @ _pad_with_d[1:-1]``, the same for the eigen-coordinates of phi.

    Every reported quantity reads two more fixed maps.  With C the (P, P)
    node-to-Chebyshev-coefficient matrix, ``_coeff_map`` (P-2, 2P) is
    ``V.T @ [(C D).T | C.T][1:-1]``: the eigen-coordinates of a
    streamfunction row times it give the Chebyshev coefficients of
    u1 = d2 phi and of phi = u2 / (-i kappa_n).  The mean row, u1 itself,
    reads its coefficients through ``_node_coeffs`` (P, P), C.T.  The
    quadratic forms of those coefficients come from ``sim.field._forms``.
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
        self.steps = 0
        self.t = 0.0
        self._build_operators()
        self._install(self._state_from_streamfunction(initial))

    # -- operator setup ------------------------------------------------

    def _build_operators(self):
        vars(self).update(_operators(*_channel_key(self.cfg)), **_operator_set(self.cfg))
        if not self.cfg.linearized:
            vars(self).update(_advection_tables(self.cfg.M, self.cfg.P, self.L))

    # -- representation changes ----------------------------------------

    def _state_from_streamfunction(self, field: SpectralField2D) -> np.ndarray:
        """Internal state (vorticity rows + mean-u1 row) from coefficients."""
        from .field import _chebder_rows

        c = field.coefficients
        omega_c = -(_chebder_rows(c, 2) - (self.kappa**2)[:, None] * c)
        state = cheb_values_from_coeffs(omega_c, axis=1)
        state[0] = cheb_values_from_coeffs(c[0].real[None, :], axis=1)[0]
        return state

    def _install(self, state: np.ndarray, history: np.ndarray | None = None):
        """Store complex state rows, and the AB2 history of a stepper that has
        stepped, as real planes, and fix the box (see the module docstring).
        A locked box takes plane 1 by index, so it is a 2-D view.  A
        nonlinear state outside the locked class raises ValidationError."""
        planes = _planes(state)
        locked = not planes[0].any() and not planes[1, 0].any()
        if not (locked or self.cfg.linearized):
            raise ValidationError("a nonlinear state must lie in the odd-in-x1 class "
                                  "(pure imaginary mode rows, zero mean flow)")
        self._state = planes
        self._have_history = history is not None
        self._history = np.zeros_like(planes) if history is None else _planes(history)
        if self.cfg.linearized:
            live = np.flatnonzero(planes.any(axis=(0, 2)))
            rows = slice(int(live[0]), int(live[-1]) + 1) if live.size else slice(0, 0)
        else:
            rows = slice(1, self.cfg.M + 1)
        self._box = (1 if locked else slice(None), rows)

    @property
    def _locked(self) -> bool:
        """Whether the state is in the locked class: the box is its imaginary plane."""
        return self._box[0] == 1

    def _rows(self) -> np.ndarray:
        """The complex state rows."""
        return _complex(self._state)

    def _blocks(self) -> list:
        """The complex blocks a checkpoint stores: the state rows, then the
        AB2 history once the stepper has stepped (``_install`` takes them back)."""
        planes = [self._state, self._history] if self._have_history else [self._state]
        return [_complex(p) for p in planes]

    def _diagnostic_planes(self) -> np.ndarray:
        """The real planes (p, b, P) of the rows 0 .. b-1 diagnostics read,
        a view, b the end of the box and at least 1, so the mean row stays:
        the imaginary plane alone (p = 1) for a locked state, the real one
        being zero, else both."""
        planes = self._state[1:] if self._locked else self._state
        return planes[:, : max(self._box[1].stop, 1)]

    def _solve_planes(self, planes: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """The streamfunction of real state-shaped planes (..., b, P) in the
        eigenbasis, (..., b, P-2): one product with ``_to_eig`` and the
        diagonal ``_eig_solve`` of each row's mode.  The planes hold the
        state rows ``rows``, 0 .. b-1 by default; a mean row reads zero
        (it has no streamfunction)."""
        solve = self._eig_solve[: planes.shape[-2]] if rows is None else self._eig_solve[rows]
        return (planes @ self._to_eig) * solve

    def _velocity_coeffs(self, planes: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The (..., b, 2, P) Chebyshev coefficients of u1 and of
        u2 / (-i kappa_n) of real state-shaped planes (..., b, P) with
        solved rows ``phi`` (``_solve_planes``), by one product with
        ``_coeff_map``.  Row 0 is the mean row, u1 itself, in both halves
        (the coefficients of its node values, ``_node_coeffs``); its second
        half is weighted by kappa_0 = 0."""
        P = self.cfg.P
        c = phi @ self._coeff_map
        c[..., 0, :P] = c[..., 0, P:] = planes[..., 0, :] @ self._node_coeffs
        return c.reshape(*c.shape[:-1], 2, P)

    def streamfunction(self) -> SpectralField2D:
        """Public state: streamfunction rows plus the mean-u1 row, the
        second half of ``_velocity_coeffs`` of the state planes."""
        x = self._state
        return SpectralField2D(_complex(self._velocity_coeffs(x, self._solve_planes(x))[..., 1, :]),
                               self.L)

    def velocity(self):
        """(u1, u2) of the state as coefficient-space fields."""
        return self.tendency_velocity(self._rows())

    # -- pseudospectral products ----------------------------------------

    def _advection(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Advection of a nonlinear box on half the x1 period, as a real block.

        ``b`` (..., M, P-2) and ``c`` (..., M, P) are the real blocks of the
        state's rows 1 .. M: phi_n = i b_n in the eigenbasis
        (``_solve_planes``) and omega_n = i c_n at the nodes, and the mean
        row is zero.
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
        pp = self._pad.shape[0]
        sine, cosine = self._half_sin, self._half_cos
        # b, d2 b, c and d2 c at the padded x2 nodes
        fb, fc = b @ self._phi_pad, c @ self._pad_with_d
        b, db = fb[..., :pp], fb[..., pp:]
        c, dc = fc[..., :pp], fc[..., pp:]
        # u1 w1 + u2 w2 with u1 = -sine @ b', w1 = -cosine @ c,
        # u2 = cosine @ b, w2 = -sine @ c'
        prod = (sine @ db) * (cosine @ c) - (cosine @ b) * (sine @ dc)
        return (self._half_fwd @ prod) @ self._unpad.T

    # -- stepping --------------------------------------------------------

    def step(self, *others: ChannelStepper, last: dict | None = None):
        """Advance the box x of the state by the step map's length h,
        x <- T (x E^T - alpha kappa^2 x - h AB2(adv)), with the AB2 history in
        the same box of ``_history``: weights (1 + h / 2dt, -h / 2dt), Euler
        on the very first step.  A linearized step forms no streamfunction
        and no advection (both would be zero).  The map is the stepper's own,
        h = dt, or ``last`` (``_last_step_operators``), that of a run's last
        step, of length h, whose clock then reads (steps - 1) dt + h.

        ``others`` join the step as one group (see the class docstring); a
        lone stepper is the one-branch group, its box a view with no copy.
        Every branch steps; then SimulationBlowupError names in ``steppers``
        those whose state stopped being finite."""
        group = (self, *others)
        for st in others:
            if (st._T is not self._T or st.cfg.linearized != self.cfg.linearized
                    or st._box != self._box or st._have_history != self._have_history):
                raise ValueError("steppers in one step must share the operators, the "
                                 "linearized flag, the box and the AB2 history")
        cfg, box = self.cfg, self._box
        # the step map and the AB2 weight r of (1 + r, -r), exactly 0.5 at h = dt
        ops = vars(self) if last is None else last
        h, T, base, alpha = ops["_h"], ops["_T"], ops["_explicit_base"], ops["_alpha"]
        r = 0.5 * h / cfg.dt
        rows = box[1]
        x = _on_leading_axis([st._state[box] for st in group])
        rhs = x @ base.T
        rhs -= alpha * (self.kappa[rows] ** 2)[:, None] * x
        if not cfg.linearized:
            adv = self._advection(self._solve_planes(x, rows), x)
            if self._have_history:
                rhs -= h * ((1.0 + r) * adv - r * _on_leading_axis(
                    [st._history[box] for st in group]))
            else:
                rhs -= h * adv
            for st, a in zip(group, adv):
                st._history[box] = a
        new = (T[rows] @ rhs[..., None])[..., 0]
        for st, s in zip(group, new):
            st._state[box] = s
            st._have_history = True
            st.steps += 1
            st.t = st.steps * cfg.dt if last is None else (st.steps - 1) * cfg.dt + h
        if not np.isfinite(new).all():
            bad = tuple(st for st, s in zip(group, new) if not np.isfinite(s).all())
            raise SimulationBlowupError(
                f"state stopped being finite at t = {bad[0].t:.6g}", bad
            )

    # -- safety estimates -------------------------------------------------

    def cfl_number(self, phi: np.ndarray | None = None) -> float:
        """Advective CFL of the current state at the configured dt.

        Uses the largest |u1| and |u2| on the product grid of the grid's
        advection tables (``_advection_tables``, built on a first read by a
        linearized stepper, which does not hold them); ``phi`` holds
        the imaginary plane of the state's M+1 streamfunction rows, real
        (M+1, P-2) rows b_n of phi_n = i b_n in the eigenbasis
        (``_solve_planes`` of the state's, by default).  They are
        read off the closed half period j = 0 .. n1/2, which holds every
        sample value of the full one: u1 is a sine series in x1 (odd about
        x1 = 0 and x1 = pi L, so zero at both ends, where ``initial=0.0``
        stands in for it) and u2 a cosine series (even about both).  Rows
        1 .. M are padded in x2 by ``_phi_pad``, then synthesized by
        ``_half_sin`` and ``_closed_cos``: the same padded grid points as the
        full period.  A state outside the locked class raises ValueError.
        """
        if not self._locked:
            raise ValueError("the CFL number is read only for a state in the "
                             "odd-in-x1 class (pure imaginary mode rows, zero mean flow)")
        if phi is None:
            phi = self._solve_planes(self._state[1])
        tables = _advection_tables(self.cfg.M, self.cfg.P, self.L)
        # phi_n = i b_n: u1 has rows i (D b)_n and u2 rows kappa_n b_n
        pp = tables["_pad"].shape[0]
        f = phi[1:] @ tables["_phi_pad"]
        u1 = tables["_half_sin"] @ f[:, pp:]
        u2 = tables["_closed_cos"] @ f[:, :pp]
        m1 = float(np.abs(u1).max(initial=0.0))
        m2 = float(np.abs(u2).max(initial=0.0))
        dx1 = 2.0 * math.pi * self.L / tables["_n1"]
        dx2_min = abs(self.x2[0] - self.x2[1])
        return self.cfg.dt * (m1 / dx1 + m2 / dx2_min)

    # -- instantaneous tendencies (for the energy budget) -----------------

    def _tendency_planes(self, x: np.ndarray, phi: np.ndarray | None, out: np.ndarray):
        """Write the viscous tendency planes of real state planes ``x``
        (..., p, b, P) into out[..., 0, :, :, :] and, given the solved planes
        ``phi`` of a nonlinear (so locked, p = 1) state, the advective ones,
        -i a_n with a from ``_advection``, into out[..., 1, :, :, :], zeroed,
        whose row 0 stays zero.  Leading axes broadcast, as in ``step``."""
        visc = out[..., 0, :, :, :]
        np.matmul(x, self.D2.T, out=visc)
        visc -= (self.kappa[: x.shape[-2]] ** 2)[:, None] * x
        visc *= self.mu
        if phi is not None:
            out[..., 1, 0, 1:, :] = -self._advection(phi[..., 0, 1:, :], x[..., 0, 1:, :])

    def tendency_split(self):
        """Viscous and advective tendency rows of the semi-discrete system.

        Returns complex (visc, adv), M+1 rows each: rows n >= 1 give
        d omega_n/dt contributions, row 0 gives d ubar/dt contributions.  A
        linearized stepper has no advective tendency, so its adv is zero.
        """
        x = self._state
        out = np.zeros((2,) + x.shape)
        if self.cfg.linearized:
            self._tendency_planes(x, None, out)
        else:
            # a nonlinear state is locked: its imaginary plane alone
            self._tendency_planes(x[1:], self._solve_planes(x[1:]), out[:, 1:])
        return _complex(out[0]), _complex(out[1])

    def tendency_velocity(self, rows: np.ndarray):
        """(u1, u2) coefficient fields of complex state-shaped rows (b, P),
        the state's own or tendency rows: their real planes solved by
        ``_solve_planes`` and mapped by ``_velocity_coeffs``."""
        x = _planes(rows)
        c = _complex(self._velocity_coeffs(x, self._solve_planes(x)))
        u2 = -1j * self.kappa[: rows.shape[0], None] * c[:, 1]
        return SpectralField2D(c[:, 0], self.L), SpectralField2D(u2, self.L)


def check_boundary_conditions(state: SpectralField2D, cfg: SimConfig):
    """Raise unless the streamfunction state satisfies walls + slip: its
    ``relative_boundary_residual`` may reach 1e-8."""
    residual = relative_boundary_residual(state, cfg.channel.mu, cfg.channel.slip)
    if residual > 1.0e-8:
        raise ValidationError(
            f"state violates the boundary conditions: relative residual "
            f"{residual:.3e} exceeds 1e-08"
        )

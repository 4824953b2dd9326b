"""Fourier x Chebyshev scalar fields on the periodic channel.

A real scalar field on [0, 2 pi L) x [-1, 1] is stored as the half spectrum

    f(x1, x2) = row_0(x2) + 2 Re sum_{n=1..M} row_n(x2) exp(i n x1 / L),

one complex row per Fourier mode, each row a Chebyshev-T coefficient vector
of length P.  Conjugate symmetry of the full spectrum is built into the
storage (mode -n is never stored); reality of the field is equivalent to
row 0 having zero imaginary part.

Physical x2 nodes are the P Chebyshev-Gauss-Lobatto points in descending
order (node 0 at x2 = +1, node P-1 at x2 = -1).  Node/coefficient
transforms apply a cached real (P, P) matrix, the type-I DCT of the
identity, so they are exact for the represented polynomials.

Every L2 quantity (the norms below, the energy terms of ``sim.energy``, each
record of ``sim.run`` and the experiment's distances) comes from one
quadratic-form engine, ``_forms``, on real coefficient planes (``_planes``)
laid out (..., plane, mode, component, P).  One product with the cached
``_gram_stack`` [G0 | G1 | G2] applies the Gram matrices
G_k[i, j] = int T_i^(k) T_j^(k) dx2, integrated by P-point Gauss-Legendre
quadrature, exact for the degree <= 2P - 2 integrands, and one contraction
with per-mode weights gives each mode's forms; an x1 derivative is a
kappa_n^2 weight, so the norms are exact.  A record and the experiment pass
the stepper's velocity coefficients (``_velocity_weights``) and build no
fields.

Streamfunction convention used by the solver: a field interpreted as a
streamfunction carries the perturbation streamfunction in rows n >= 1 and
the x1-mean of u1 itself in row 0 (the mean flow has no canonical
streamfunction).  velocity_from_streamfunction implements that reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as C

from ..model import SlipPair, ValidationError
from ..modes import ModePacket, packet_streamfunction_profile
from ..numerics import chebder_map, gauss_legendre, slip_defects, wall_values

__all__ = [
    "SpectralField2D",
    "cgl_nodes",
    "cheb_coeffs_from_values",
    "cheb_values_from_coeffs",
    "field_from_values",
    "scalar_inner",
    "scalar_norms",
    "velocity_norms",
    "velocity_from_streamfunction",
    "divergence_max",
    "field_from_mode_profile",
    "field_from_packet",
    "slip_residuals",
    "relative_boundary_residual",
]


def cgl_nodes(P: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto nodes, descending from +1 to -1."""
    if P < 4:
        raise ValueError("at least 4 Chebyshev points required")
    return np.cos(math.pi * np.arange(P) / (P - 1))


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized type-I DCT along axis 0 (``scipy.fft.dct(x, type=1, axis=0)``):
    the real FFT of the even extension x_0 .. x_(P-1), x_(P-2) .. x_1."""
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]]), axis=0).real


@lru_cache(maxsize=32)
def _cheb_transform_matrix(P: int, to_values: bool) -> np.ndarray:
    """(P, P) map from CGL node values to Chebyshev-T coefficients, or back.

    Built once per P from the type-I DCT of the identity, ``_dct1``.
    """
    scale = np.ones(P)
    if to_values:
        scale[[0, -1]] = 2.0
        out = 0.5 * _dct1(np.diag(scale))
    else:
        scale[[0, -1]] = 0.5
        out = scale[:, None] * _dct1(np.eye(P)) / (P - 1)
    out.flags.writeable = False
    return out


def _along_axis(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Real ``mat`` applied along ``axis`` of ``arr``, as one real matmul.

    A complex array is viewed as interleaved floats, so nothing is upcast.
    """
    x = np.ascontiguousarray(np.moveaxis(arr, axis, 0))
    flat = x.reshape(x.shape[0], -1)
    if np.iscomplexobj(flat):
        y = (mat @ flat.view(np.float64)).view(complex)
    else:
        y = mat @ flat
    return np.moveaxis(y.reshape(x.shape), 0, axis)


def cheb_coeffs_from_values(vals: np.ndarray, axis: int = -1) -> np.ndarray:
    """Chebyshev-T coefficients from values at the matching CGL nodes (exact)."""
    return _along_axis(_cheb_transform_matrix(vals.shape[axis], False), vals, axis)


def cheb_values_from_coeffs(coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Values at the CGL nodes of the coefficients' own length (exact inverse)."""
    return _along_axis(_cheb_transform_matrix(coeffs.shape[axis], True), coeffs, axis)


@lru_cache(maxsize=16)
def _chebder_matrix(P: int, order: int) -> np.ndarray:
    """(P, P) map from Chebyshev coefficients to those of the order-th
    derivative: the product of ``order`` exact ``chebder_map`` steps, zero
    padded to P rows."""
    der = np.eye(P)
    for _ in range(order):
        der = chebder_map(der.shape[0]) @ der
    out = np.zeros((P, P))
    out[: der.shape[0]] = der
    out.flags.writeable = False
    return out


def _chebder_rows(rows: np.ndarray, order: int = 1) -> np.ndarray:
    """Chebyshev derivative along axis 1, zero padded back to P columns."""
    return rows @ _chebder_matrix(rows.shape[1], order).T


@lru_cache(maxsize=4)
def _legendre_vander(P: int) -> np.ndarray:
    """Read-only (P, P) table of T_0..T_(P-1) at the P Gauss-Legendre nodes
    of ``gauss_legendre(P)``."""
    out = C.chebvander(gauss_legendre(P)[0], P - 1)
    out.flags.writeable = False
    return out


def _gram_matrix(P: int, order: int) -> np.ndarray:
    """(P, P) Gram matrix int T_i^(order) T_j^(order) dx2 over [-1, 1].

    B holds the order-th derivatives of T_0..T_(P-1) at the P Gauss-Legendre
    nodes x with weights w, and G = B^T diag(w) B is exact for these
    degree <= 2P - 2 integrands.  The rule and the Chebyshev table at its
    nodes are cached (``gauss_legendre``, ``_legendre_vander``), so the
    three orders of ``_gram_stack``, its one caller, share them; the
    matrix itself is not cached: the stack is.
    """
    B = _legendre_vander(P) @ _chebder_matrix(P, order)
    return B.T @ (gauss_legendre(P)[1][:, None] * B)


@dataclass
class SpectralField2D:
    """Half-spectrum Fourier x Chebyshev scalar field, period 2 pi L in x1."""

    coefficients: np.ndarray
    L: float

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 2:
            raise ValueError("coefficients must be a 2D (mode, chebyshev) array")
        if not self.L > 0.0:
            raise ValueError(f"period scale L must be > 0, got {self.L}")

    @property
    def M(self) -> int:
        return self.coefficients.shape[0] - 1

    @property
    def P(self) -> int:
        return self.coefficients.shape[1]

    @property
    def reality_defect(self) -> float:
        """Max imaginary magnitude of the mean row (0 for a real field)."""
        return float(np.abs(self.coefficients[0].imag).max(initial=0.0))

    def __add__(self, other: "SpectralField2D") -> "SpectralField2D":
        self._check_compatible(other)
        return SpectralField2D(self.coefficients + other.coefficients, self.L)

    def __sub__(self, other: "SpectralField2D") -> "SpectralField2D":
        self._check_compatible(other)
        return SpectralField2D(self.coefficients - other.coefficients, self.L)

    def __mul__(self, scalar) -> "SpectralField2D":
        return SpectralField2D(self.coefficients * float(scalar), self.L)

    __rmul__ = __mul__

    def _check_compatible(self, other: "SpectralField2D"):
        if self.coefficients.shape != other.coefficients.shape or self.L != other.L:
            raise ValueError("fields have mismatched resolutions or period")

    def d_x1(self) -> "SpectralField2D":
        n = np.arange(self.M + 1)
        return SpectralField2D(
            (1j * n / self.L)[:, None] * self.coefficients, self.L
        )

    def d_x2(self, order: int = 1) -> "SpectralField2D":
        return SpectralField2D(_chebder_rows(self.coefficients, order), self.L)

    def values(self, n1: int | None = None, x2: np.ndarray | None = None) -> np.ndarray:
        """Real physical samples, shape (n1, len(x2)).

        Defaults: n1 = 4M (alias-free for quadratic products), x2 = the P
        CGL nodes.
        """
        if n1 is None:
            n1 = max(4 * self.M, 8)
        if n1 < 2 * self.M + 1:
            raise ValueError("n1 too small to represent the stored modes")
        if x2 is None:
            rows_at_nodes = cheb_values_from_coeffs(self.coefficients, axis=1)
        else:
            rows_at_nodes = C.chebval(np.asarray(x2, dtype=float), self.coefficients.T)
        spec = np.zeros((n1 // 2 + 1, rows_at_nodes.shape[1]), dtype=complex)
        spec[: self.M + 1] = rows_at_nodes
        return np.fft.irfft(spec, n=n1, axis=0) * n1


def field_from_values(vals: np.ndarray, M: int, P: int, L: float) -> SpectralField2D:
    """Forward transform from samples on (n1 uniform) x (CGL of vals' width).

    Truncates to M+1 Fourier rows and P Chebyshev columns; exact when the
    sampled field is band limited below the sampling resolutions.
    """
    n1 = vals.shape[0]
    if n1 < 2 * M + 1:
        raise ValueError("not enough x1 samples for the requested mode count")
    spec = np.fft.rfft(vals, axis=0)[: M + 1] / n1
    rows = cheb_coeffs_from_values(spec, axis=1)
    return SpectralField2D(rows[:, :P], L)


def _kappa_sq(rows: int, L: float) -> np.ndarray:
    """Squared x1 wavenumbers n / L of the first ``rows`` Fourier rows."""
    return (np.arange(rows) / L) ** 2


def _planes(rows: np.ndarray) -> np.ndarray:
    """The real (2, ...) planes of complex ``rows``, real parts then imaginary
    parts, in C order (a box's products then make the same BLAS calls
    whatever the layout of ``rows``)."""
    return np.ascontiguousarray(np.stack([rows.real, rows.imag]))


@lru_cache(maxsize=32)
def _gram_stack(P: int) -> np.ndarray:
    """(P, 3P) ``[G0 | G1 | G2]``, the ``_gram_matrix`` of each order side by
    side: the matrices are symmetric, so one product of coefficient rows with
    it applies all three."""
    out = np.hstack([_gram_matrix(P, k) for k in (0, 1, 2)])
    out.flags.writeable = False
    return out


def _forms(c: np.ndarray, weights: np.ndarray, other: np.ndarray | None = None,
           lead: int = 0):
    """G0, G1 and G2 applied to real coefficient planes ``c`` (..., p, n, j, P)
    by one product with ``_gram_stack``, g (..., p, n, j, 3, P), and the
    per-mode forms q (..., 3, n), q[k, n] the sum over the planes p and
    components j of weights[n, j] <G_k c[p, n, j], other[p, n, j]>.

    ``other`` (default ``c``) is a stack of planes that broadcasts against
    ``c``, and ``weights`` (n', j), n' >= n, weights the rows of each
    component; with the w_n of ``_velocity_weights`` a sum over n is the
    exact channel inner product.  The first ``lead`` axes of ``c`` index a
    block of independent records: the product broadcasts over them, so each
    record makes the one BLAS call it makes alone.
    """
    P = c.shape[-1]
    rows = c.reshape(*c.shape[:lead], -1, P)
    g = (rows @ _gram_stack(P)).reshape(*c.shape[:-1], 3, P)
    w = weights[: c.shape[-3]]
    return g, np.einsum("...pnckj,...pncj,nc->...kn", g, c if other is None else other, w)


@lru_cache(maxsize=32)
def _velocity_weights(rows: int, L: float) -> np.ndarray:
    """(rows, 2) weights of the forms of u1 and of u2 / (-i kappa_n) rows
    (``ChannelStepper._velocity_coeffs``): w_n and w_n kappa_n^2, w_n the
    channel integral of row n's forms over x1, 2 pi L for the mean row and
    4 pi L for n >= 1, which count mode -n too."""
    w = np.full(rows, 4.0 * math.pi * L)
    w[0] = 2.0 * math.pi * L
    out = np.stack([w, w * _kappa_sq(rows, L)], axis=-1)
    out.flags.writeable = False
    return out


def _field_forms(fields: tuple, other: tuple | None = None) -> np.ndarray:
    """``_forms`` q (3, M + 1) of compatible fields taken as the components
    of one stack, summed over them; ``other``, a like tuple, gives their
    cross forms with its fields."""
    for f in fields[1:] + (other or ()):
        fields[0]._check_compatible(f)

    def planes(fs):
        return None if fs is None else _planes(np.stack([f.coefficients for f in fs], axis=1))

    w = _velocity_weights(fields[0].M + 1, fields[0].L)[:, [0] * len(fields)]
    return _forms(planes(fields), w, planes(other))[1]


def _dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dot products (...) of the rows of ``a`` (..., n) with ``v`` (n,),
    each the BLAS dot of one 1-D pair, as ``v @ a`` makes for a lone row (a
    product of the stacked rows would be one gemv, summed in another order)."""
    return (a[..., None, :] @ v)[..., 0]


def _sobolev_norms(q: np.ndarray, L: float):
    """(l2, h1, h2) from per-mode forms q (..., 3, n), one value per index of
    the leading axes; h2 uses the full multi-index sum."""
    q0, q1, q2 = q[..., 0, :], q[..., 1, :], q[..., 2, :]
    k2 = _kappa_sq(q.shape[-1], L)
    sq = q0.sum(axis=-1)
    sq1 = sq + _dot(q0, k2) + q1.sum(axis=-1)
    sq2 = sq1 + _dot(q0, k2 * k2) + _dot(q1, k2) + q2.sum(axis=-1)
    return np.sqrt(sq), np.sqrt(sq1), np.sqrt(sq2)


def _sq_l2(field: SpectralField2D) -> float:
    """Exact squared L2 norm over the channel."""
    return float(_field_forms((field,))[0].sum())


def scalar_inner(f: SpectralField2D, g: SpectralField2D) -> float:
    """Exact L2 inner product of two real fields."""
    return float(_field_forms((f,), (g,))[0].sum())


def scalar_norms(field: SpectralField2D):
    """(l2, h1, h2) of one scalar field; h2 uses the full multi-index sum."""
    return tuple(map(float, _sobolev_norms(_field_forms((field,)), field.L)))


def velocity_norms(u1: SpectralField2D, u2: SpectralField2D):
    """(l2, h1, h2) of the velocity pair, components summed in quadrature."""
    return tuple(map(float, _sobolev_norms(_field_forms((u1, u2)), u1.L)))


def velocity_from_streamfunction(phi: SpectralField2D):
    """(u1, u2) from a streamfunction-convention field.

    Rows n >= 1 of ``phi`` hold streamfunction modes (u1 = d2 phi,
    u2 = -d1 phi); row 0 holds the x1-mean of u1 directly, so it is copied
    into u1 and contributes nothing to u2.
    """
    du = _chebder_rows(phi.coefficients)
    u1c = du.copy()
    u1c[0] = phi.coefficients[0]
    n = np.arange(phi.M + 1)
    u2c = -(1j * n / phi.L)[:, None] * phi.coefficients
    u2c[0] = 0.0
    return SpectralField2D(u1c, phi.L), SpectralField2D(u2c, phi.L)


def divergence_max(u1: SpectralField2D, u2: SpectralField2D) -> float:
    """Max-norm of d1 u1 + d2 u2 sampled on the quadrature grid."""
    div = u1.d_x1() + u2.d_x2()
    return float(np.abs(div.values()).max())


def field_from_mode_profile(
    profile_coeffs: np.ndarray, n_mode: int, M: int, P: int, L: float
) -> SpectralField2D:
    """Single-Fourier-mode field g(x2) * sin(n x1 / L) without truncation.

    ``profile_coeffs`` is a real Chebyshev series for g.  Raises if the
    profile degree does not fit in P columns (initial data must embed
    exactly; no silent truncation).
    """
    profile_coeffs = np.asarray(profile_coeffs, dtype=float)
    if profile_coeffs.size > P:
        raise ValueError(
            f"profile degree {profile_coeffs.size - 1} does not fit in P = {P} "
            "Chebyshev columns"
        )
    if not 1 <= n_mode <= M:
        raise ValueError(f"mode index {n_mode} outside 1..{M}")
    rows = np.zeros((M + 1, P), dtype=complex)
    rows[n_mode, : profile_coeffs.size] = -0.5j * profile_coeffs
    return SpectralField2D(rows, L)


def field_from_packet(packet: ModePacket, M: int, P: int, L: float) -> SpectralField2D:
    """Streamfunction of a mode packet at t = 0, embedded at resolution (M, P).

    The packet wavenumber k must be a lattice wavenumber n / L; the profile
    lands in Fourier row n as a sin(n x1 / L) mode, exactly (see
    ``field_from_mode_profile``).
    """
    profile = packet_streamfunction_profile(packet)
    k = packet.modes[0].problem.k
    n_mode = round(k * L)
    if abs(k * L - n_mode) > 1.0e-9 or n_mode < 1:
        raise ValidationError(f"k = {k:g} is not a lattice wavenumber n / L with L = {L:g}")
    return field_from_mode_profile(profile, n_mode=n_mode, M=M, P=P, L=L)


def slip_residuals(phi: SpectralField2D, mu: float, slip: SlipPair):
    """Boundary-condition residuals of a streamfunction-convention field.

    Returns (dirichlet, slip_minus, slip_plus): the max over modes n >= 1 of
    |phi| at the walls, and the max over all rows of the ``slip_defects`` at
    x2 = -1 and +1 of the u1 rows, phi' for n >= 1 and the mean flow row 0.
    """
    c = phi.coefficients
    u1 = _chebder_rows(c)
    u1[0] = c[0]
    dirichlet = float(np.abs(wall_values(c[1:])).max(initial=0.0))
    slip_m, slip_p = slip_defects(u1, mu, slip).max(axis=1)
    return dirichlet, float(slip_m), float(slip_p)


def relative_boundary_residual(phi: SpectralField2D, mu: float, slip: SlipPair) -> float:
    """The largest ``slip_residuals`` entry over the field's size max(1, max |c|)."""
    scale = max(1.0, float(np.abs(phi.coefficients).max(initial=0.0)))
    return max(slip_residuals(phi, mu, slip)) / scale

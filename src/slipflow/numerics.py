"""Shared numerical kernels: wall-clamped Chebyshev basis, symmetric pencils, roots.

The x2 discretization used throughout is the polynomial trial space

    phi_j(x) = (1 - x**2) * T_j(x),    j = 0 .. N-1,

with T_j the Chebyshev polynomial of the first kind.  The quadratic factor
enforces the essential conditions phi(+/-1) = 0 exactly; slip conditions are
natural and never imposed on the trial space.  All inner products are formed
with a Gauss-Legendre rule on N + 4 nodes, which is exact for polynomials of
degree 2(N + 4) - 1 = 2N + 7, enough for every form assembled here (degree
at most 2N + 6).  Each rule comes from ``gauss_legendre``, one read-only
rule per node count, which the DNS Gram matrices and the mode quadratures
read too.

Derivative values of the basis are tabulated once, up to fourth order, at
the quadrature nodes and at the walls; assembly and residual evaluation are
then plain weighted matrix products.  The coefficient rows are written in
closed form, (1 - x**2) T_j = T_j / 2 - (T_{j+2} + T_{|j-2|}) / 4, and each
derivative series is one product with ``chebder_map``, the integer matrix of
d/dx on Chebyshev-T coefficients.  The DNS's ``sim.field._chebder_matrix``
is built from it; the mode profiles of ``modes.build_mode`` differentiate
with numpy's ``Chebyshev.deriv`` and the stepper with the collocation
matrix ``sim.stepper.cheb_diff_matrix`` (see there).  Every series entry
is a dyadic rational with few bits, so the tables' series are exact, not
rounded.  Each basis also carries its k-independent Gram blocks
G_d = int(phi^(d) phi^(d)), d = 0, 1, 2, so the Gram form A and the
energy form E of one more k (``PencilTable``) are sums of three scaled
blocks.

Every symmetric pencil B v = lambda A v is reduced to a standard one the
way LAPACK's ``sygvd`` does it: A = L L^T by Cholesky, then the whitened
W = L^-1 B L^-T.  The forms of one wavenumber, their factors L^-1 and the
discrete slip operator's table live in the basis's ``PencilTable`` of that
wavenumber, so the dense solve and the discrete slip operator, which gives
lambda_1 and mu_c on the trial space, factor each form once for as long as
the basis lives.
Everything here is numpy; the package needs no scipy at run time.

Every wall check, of eigenfunctions (u1 = phi'), modes (u1 = psi) and DNS
fields (their u1 rows), goes through ``wall_values`` (values at x = -1, +1)
and ``slip_defects`` (|mu u1' -/+ xi_{+/-} u1| there), which take
Chebyshev-T series along the last axis with any leading shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import legendre

__all__ = [
    "ChebBasis",
    "PencilTable",
    "build_basis",
    "chebder_map",
    "gauss_legendre",
    "solve_generalized_symmetric",
    "inverse_cholesky",
    "whiten",
    "find_root_bracketed",
    "boundary_form",
    "wall_values",
    "slip_defects",
    "NonSymmetricError",
    "NotPositiveDefiniteError",
    "BracketError",
    "MAX_DERIVATIVE",
]

MAX_DERIVATIVE = 4


class NonSymmetricError(ValueError):
    """A matrix that must be symmetric is not (beyond roundoff)."""


class NotPositiveDefiniteError(ValueError):
    """The mass side of a pencil is not positive definite: assembly bug."""


class BracketError(ValueError):
    """A root bracket does not actually bracket a sign change."""


@dataclass(eq=False)
class ChebBasis:
    """Tabulated wall-clamped Chebyshev basis of dimension ``size``.

    Bases compare and hash by identity.  ``table(k)`` is the basis's own
    ``PencilTable`` of wavenumber k, made on first use: O(N^2) floats per
    built member per wavenumber, freed with the basis.

    ``node_tables[d][q, j]`` is the d-th derivative of phi_j at quadrature
    node q; ``wall_tables[d][s, j]`` the same at the wall x2 = -1 (s = 0)
    and x2 = +1 (s = 1).  ``cheb_coeffs[j]`` holds the raw Chebyshev-T
    coefficients of phi_j (length size + 2), so the trial function with
    coefficient vector v is the series ``numpy.polynomial.Chebyshev(v @
    cheb_coeffs)``.  ``gram_blocks[d]`` is the read-only Gram matrix
    int(phi_i^(d) phi_j^(d)), d = 0, 1, 2, formed from the node tables and
    the quadrature weights whenever a basis is made, so a basis built from
    tables of another trial space has its own.
    """

    size: int
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    node_tables: list = field(repr=False)
    wall_tables: list = field(repr=False)
    cheb_coeffs: np.ndarray = field(repr=False)
    gram_blocks: tuple = field(init=False, repr=False)
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        w = self.quad_weights[:, None]
        blocks = []
        for T in self.node_tables[:3]:
            G = (T * w).T @ T
            G = 0.5 * (G + G.T)  # kill roundoff asymmetry
            G.flags.writeable = False
            blocks.append(G)
        self.gram_blocks = tuple(blocks)

    def table(self, k: float) -> PencilTable:
        """The ``PencilTable`` of wavenumber k on this basis."""
        if k not in self._tables:
            self._tables[k] = PencilTable(k, self.gram_blocks, self.wall_tables[1].T)
        return self._tables[k]


class PencilTable:
    """The forms of wavenumber k on one basis, each built on first use and
    read-only: ``energy`` E and ``gram`` A (sums of the Gram blocks), their
    inverse Cholesky factors ``energy_factor`` and ``gram_factor``, and
    ``slip``, (sigma, G) of the discrete slip operator: with L_E^-1 A L_E^-T
    = Y diag(sigma) Y^T, sigma ascending, G = Y^T L_E^-1 D, D the wall
    slopes (factoring A instead reads up to 4.4e-7 relative from the dense
    lambda_1 at N = 96).  It holds no reference to the basis."""

    def __init__(self, k: float, gram_blocks: tuple, slopes: np.ndarray):
        self.k, self._blocks, self._slopes = k, gram_blocks, slopes

    @cached_property
    def energy(self) -> np.ndarray:
        """E_ij = int(phi_i'' phi_j'' + 2 k^2 phi_i' phi_j' + k^4 phi_i phi_j),
        the SPD k-energy form."""
        G0, G1, G2 = self._blocks
        E = G2 + (2.0 * self.k * self.k) * G1 + self.k ** 4 * G0
        E.flags.writeable = False
        return E

    @cached_property
    def gram(self) -> np.ndarray:
        """A_ij = int(phi_i' phi_j' + k^2 phi_i phi_j), the SPD mass side of
        the pencil."""
        G0, G1, _ = self._blocks
        A = G1 + (self.k * self.k) * G0
        A.flags.writeable = False
        return A

    @cached_property
    def energy_factor(self) -> np.ndarray:
        return inverse_cholesky(self.energy)

    @cached_property
    def gram_factor(self) -> np.ndarray:
        return inverse_cholesky(self.gram)

    @cached_property
    def slip(self):
        inv = self.energy_factor
        X = inv @ self.gram @ inv.T
        sigma, Y = np.linalg.eigh(0.5 * (X + X.T))
        G = Y.T @ (inv @ self._slopes)
        sigma.flags.writeable = G.flags.writeable = False
        return sigma, G


@lru_cache(maxsize=32)
def chebder_map(n: int) -> np.ndarray:
    """Read-only (n-1, n) matrix taking the Chebyshev-T coefficients of a
    degree n-1 series to those of its derivative.

    Column j holds T_j' = sum of 2 j T_i over i < j with j - i odd, the
    i = 0 term halved.  Every entry is an integer, so applied to series of
    dyadic rationals whose values stay below 2**53 the products are exact.
    An entry depends on (i, j) alone, so the map of a shorter length m is
    the leading (m-1, m) block.
    """
    i = np.arange(n - 1)[:, None]
    j = np.arange(n)[None, :]
    D = np.where((i < j) & ((j - i) % 2 == 1), 2.0 * j, 0.0)
    D[0] *= 0.5
    D.flags.writeable = False
    return D


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule
    (``legendre.leggauss``), exact for polynomials of degree <= 2n - 1.

    Built once per node count and shared by every reader: ``build_basis``,
    the DNS Gram matrices (``sim.field._gram_matrix``) and the mode
    quadratures (``modes.packet_l2_norm``, ``modes.mode_residuals``).
    """
    nodes, weights = legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _basis_series(N: int):
    """Yield the Chebyshev-T series of phi_j^(d), d = 0 .. MAX_DERIVATIVE, as
    (N, N+2-d) row arrays: phi_j = (1 - x**2) T_j = T_j / 2 - (T_{j+2} +
    T_{|j-2|}) / 4, then one product with a leading block of
    ``chebder_map(N + 2)`` per order."""
    j = np.arange(N)
    series = np.zeros((N, N + 2))
    series[j, j] = 0.5
    series[j, j + 2] = -0.25
    series[j, np.abs(j - 2)] -= 0.25  # j = 0: T_2 twice; j = 1: -T_1 / 4
    D = chebder_map(N + 2)
    yield series
    for _ in range(MAX_DERIVATIVE):
        m = series.shape[1]
        series = series @ D[: m - 1, :m].T
        yield series


def build_basis(N: int) -> ChebBasis:
    """Tabulate the wall-clamped Chebyshev basis of dimension N (N >= 4)."""
    if int(N) != N or N < 4:
        raise ValueError(f"basis size must be an integer >= 4, got {N}")
    N = int(N)

    nodes, weights = gauss_legendre(N + 4)
    # Vandermonde of T_0 .. T_{N+1} at the quadrature nodes and the walls;
    # the table of each derivative order is one matmul with its leading columns
    node_vander = C.chebvander(nodes, N + 1)
    wall_vander = C.chebvander(np.array([-1.0, 1.0]), N + 1)
    node_tables, wall_tables = [], []
    for d, series in enumerate(_basis_series(N)):
        cols = series.shape[1]
        node_tables.append(node_vander[:, :cols] @ series.T)
        wall_tables.append(wall_vander[:, :cols] @ series.T)
        if d == 0:
            coeff_rows = series

    for arr in (coeff_rows, *node_tables, *wall_tables):
        arr.flags.writeable = False

    return ChebBasis(
        size=N,
        quad_nodes=nodes,
        quad_weights=weights,
        node_tables=node_tables,
        wall_tables=wall_tables,
        cheb_coeffs=coeff_rows,
    )


def _fix_signs(vectors: np.ndarray, threshold: float = 1e-8) -> np.ndarray:
    """Deterministic sign convention: first significant entry positive."""
    out = np.array(vectors)
    mag = np.abs(out)
    # a zero column has no significant entry; argmax then picks its 0, kept
    first = np.argmax(mag > threshold * mag.max(axis=0), axis=0)
    flip = out[first, np.arange(out.shape[1])] < 0
    out[:, flip] = -out[:, flip]
    return out


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the nonsingular lower-triangular L, lower-triangular.

    Blocked by halves, [[L11, 0], [L21, L22]]^-1 = [[X11, 0],
    [-X22 L21 X11, X22]] with Xii = Lii^-1, down to blocks of at most 32
    rows inverted densely: numpy has no triangular solver, and its dense
    inverse costs about twice the two half-size inverses and products at
    N = 96.
    """
    n = L.shape[0]
    if n <= 32:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = X11 = _lower_inverse(L[:h, :h])
    out[h:, h:] = X22 = _lower_inverse(L[h:, h:])
    out[h:, :h] = -(X22 @ (L[h:, :h] @ X11))
    return out


def inverse_cholesky(A: np.ndarray) -> np.ndarray:
    """L^-1 of the symmetric positive definite A = L L^T, read-only.

    L comes from ``np.linalg.cholesky`` and its inverse from
    ``_lower_inverse``; ``PencilTable`` keeps the factors of its forms.
    Raises ``NotPositiveDefiniteError`` when A is not positive definite.
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite; the trial basis or assembly is broken"
        ) from None
    inv = _lower_inverse(L)
    inv.flags.writeable = False
    return inv


def whiten(B: np.ndarray, A: np.ndarray, inv: np.ndarray | None = None):
    """The standard form ``(W, L^-1)`` of the pencil (B, A): W = L^-1 B L^-T
    symmetric, L^-1 the given ``inv`` or, when None, ``inverse_cholesky(A)``."""
    inv = inverse_cholesky(A) if inv is None else inv
    W = inv @ B @ inv.T
    return 0.5 * (W + W.T), inv


def solve_generalized_symmetric(B: np.ndarray, A: np.ndarray, _inv: np.ndarray | None = None):
    """All eigenpairs of B v = lambda A v, B symmetric, A symmetric positive definite.

    B may be indefinite.  Returns ``(eigenvalues, eigenvectors)``: the
    eigenvalues in descending order, and ``eigenvectors[:, i]`` belonging to
    ``eigenvalues[i]``, the columns A-orthonormal, each signed so that its
    first significant entry is positive.  The steps are those of LAPACK's
    ``sygvd``: W = L^-1 B L^-T (``whiten``), W = Y diag(w) Y^T by
    ``np.linalg.eigh``, V = L^-T Y, L^-1 being ``_inv`` when the caller
    holds it.  A that is not positive definite raises
    ``NotPositiveDefiniteError``; a failure of the eigensolver itself
    propagates as ``np.linalg.LinAlgError``.
    """
    B = np.asarray(B, dtype=float)
    A = np.asarray(A, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape != A.shape:
        raise ValueError(f"pencil matrices must be square and same shape, got {B.shape} and {A.shape}")
    for name, M in (("B", B), ("A", A)):
        scale = np.abs(M).max() or 1.0
        if np.abs(M - M.T).max() > 1e-12 * scale:
            raise NonSymmetricError(f"matrix {name} is not symmetric to relative 1e-12")
    W, inv = whiten(B, A, _inv)
    w, Y = np.linalg.eigh(W)
    order = np.argsort(w)[::-1]  # descending, stable for exact ties
    return w[order], _fix_signs(inv.T @ Y[:, order])


# ---------------------------------------------------------------------------
# The boundary form of the stability problem, assembled in the trial basis;
# the energy and Gram forms are ``PencilTable.energy`` and ``.gram``.  All
# three are exact: integrands are polynomials within the quadrature degree.
# ---------------------------------------------------------------------------


def boundary_form(slip, basis: ChebBasis) -> np.ndarray:
    """R_ij = xi_minus phi_i'(-1) phi_j'(-1) + xi_plus phi_i'(1) phi_j'(1).

    Rank <= 2, positive semidefinite: the boundary production quadratic form.
    """
    dm = basis.wall_tables[1][0]
    dp = basis.wall_tables[1][1]
    return slip.xi_minus * np.outer(dm, dm) + slip.xi_plus * np.outer(dp, dp)


@lru_cache(maxsize=16)
def _wall_signs(n: int) -> np.ndarray:
    """Read-only (2, n) table of T_j(-1) = (-1)^j and T_j(+1) = 1."""
    signs = np.stack([(-1.0) ** np.arange(n), np.ones(n)])
    signs.flags.writeable = False
    return signs


def wall_values(coeffs: np.ndarray) -> np.ndarray:
    """Values at x = -1 ([0]) and x = +1 ([1]) of series along the last axis:
    the products of ``coeffs`` with (-1)^j and with ones (``_wall_signs``)."""
    bottom, top = _wall_signs(np.shape(coeffs)[-1])
    return np.stack([coeffs @ bottom, coeffs @ top])


def slip_defects(u1: np.ndarray, mu: float, slip) -> np.ndarray:
    """|mu u1'(-1) + xi_minus u1(-1)| ([0]) and |mu u1'(+1) - xi_plus u1(+1)|
    ([1]) of series along the last axis.  T_j'(+/-1) = (+/-1)^(j+1) j^2, so
    the slopes are +/- the wall values of the series j^2 c_j."""
    u1 = np.asarray(u1)
    xi = np.array([slip.xi_minus, slip.xi_plus]).reshape((2,) + (1,) * (u1.ndim - 1))
    slopes = wall_values(u1 * np.arange(u1.shape[-1]) ** 2.0)
    return np.abs(mu * slopes - xi * wall_values(u1))


def find_root_bracketed(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of a continuous scalar function inside a sign-changing bracket.

    Requires lo < hi and f(lo) * f(hi) <= 0; returns x with the final
    bracket width below ``tol`` plus 4 eps |x|, found by Brent's method
    (``_brent``).
    """
    if not lo < hi:
        raise BracketError(f"invalid bracket: lo = {lo} must be < hi = {hi}")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if not np.sign(flo) * np.sign(fhi) < 0.0:  # also refuses a NaN end
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo) = {flo:g}, f(hi) = {fhi:g}")
    return _brent(f, float(lo), float(hi), float(flo), float(fhi), tol)


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brent(f, xpre: float, xcur: float, fpre: float, fcur: float, xtol: float) -> float:
    """Brent's method on a bracket with f(xpre), f(xcur) nonzero and of opposite sign.

    The steps of scipy's ``brentq`` (Brent 1973, "Algorithms for Minimization
    without Derivatives", ch. 4) at its default rtol = 4 eps and 100
    iterations: inverse quadratic or secant steps when they shrink the
    bracket fast enough, bisection otherwise.  Raises RuntimeError when it
    does not converge and ValueError when f returns NaN.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"f({xcur!r}) is NaN; the root search cannot continue")
    raise RuntimeError(f"no convergence in {_BRENT_MAXITER} iterations, last x = {xcur!r}")

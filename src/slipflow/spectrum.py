"""Growth-rate spectrum of a single wavenumber: Galerkin pencil plus exact oracle.

A normal-mode perturbation of the rest state with wavenumber k and vertical
velocity profile phi(x2) grows like e^{lambda t} where phi solves

    lambda (k^2 phi - phi'') + mu (phi'''' - 2 k^2 phi'' + k^4 phi) = 0,
    phi(+/-1) = 0,
    mu phi''(+1) =  xi_plus  phi'(+1),
    mu phi''(-1) = -xi_minus phi'(-1).

Weak form: lambda * int(phi' theta' + k^2 phi theta) equals the bilinear form

    B_k(phi, theta) = xi_- phi'(-1) theta'(-1) + xi_+ phi'(1) theta'(1)
                      - mu int(phi'' theta'' + 2 k^2 phi' theta' + k^4 phi theta)

for all wall-vanishing theta; the slip conditions are natural.  Projected on
the trial basis this is the symmetric pencil B v = lambda A v with B = R -
mu E indefinite and A the SPD Gram form, solved densely.

Two independent cross-checks are provided.  First, the equation has the
explicit solution basis {cosh kx, sinh kx, cosh mx, sinh mx} with
m = sqrt(k^2 + lambda/mu) (the characteristic quartic mu r^4 - (2 mu k^2 +
lambda) r^2 + k^2 (mu k^2 + lambda) factors with discriminant lambda^2), so
positive eigenvalues are exactly the roots of a 4x4 boundary-condition
determinant.  Second, lambda_1 equals the maximum of the Rayleigh quotient
B_k(phi,phi) / int((phi')^2 + k^2 phi^2), computed here by Lanczos iteration
with full reorthogonalization and a Sturm-sequence bisection.  The whitened
operator L^-1 B L^-T (A = L L^T) is formed once per call, so each Lanczos
step is one matrix-vector product.  The path factors A itself and calls no
dense eigensolver, so it shares no factorization or eigensolver with the
dense solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .model import ModeProblem
from .numerics import (
    ChebBasis,
    boundary_form,
    energy_form,
    find_root_bracketed,
    gram_form,
    solve_generalized_symmetric,
)

__all__ = [
    "AssembledPencil",
    "Spectrum",
    "DeterminantTrace",
    "assemble",
    "solve_spectrum",
    "lambda1_variational",
    "characteristic_determinant",
    "determinant_roots",
    "oracle_agreement",
    "spectrum_residuals",
    "gram_defects",
    "resolved_count",
]


@dataclass(frozen=True)
class AssembledPencil:
    """Discrete pencil (B, A) of one ModeProblem in a given trial basis."""

    B: np.ndarray
    A: np.ndarray
    problem: ModeProblem
    basis: ChebBasis


@dataclass(frozen=True)
class Spectrum:
    """Full discrete spectrum, sorted by descending growth rate.

    ``coefficients[:, i]`` are the trial-basis coefficients of the i-th
    eigenfunction, normalized to int((phi')^2 + k^2 phi^2) = 1.
    """

    problem: ModeProblem
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    positive_count: int
    basis: ChebBasis

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class DeterminantTrace:
    """Positive roots of the characteristic determinant, ascending."""

    problem: ModeProblem
    roots: np.ndarray


def assemble(problem: ModeProblem, basis: ChebBasis) -> AssembledPencil:
    """Assemble B = R - mu E and the Gram form A for the problem's wavenumber."""
    k = problem.k
    R = boundary_form(problem.slip, basis)
    E = energy_form(k, basis)
    return AssembledPencil(B=R - problem.mu * E, A=gram_form(k, basis), problem=problem, basis=basis)


def _refine_leading_pairs(pencil: AssembledPencil, lams: np.ndarray, V: np.ndarray, count: int):
    """One inverse-iteration / Rayleigh-quotient step on the leading pairs.

    The dense solve leaves a backward error of order eps * ||B|| per pair,
    which the strong-form residual inherits through the fourth derivative.
    Solving (B - lambda A) y = A v once per pair and taking the Rayleigh
    quotient of the A-normalized result squares that error.  A refined pair
    replaces the original only when its pencil residual strictly improves,
    so the step can never degrade a converged pair.
    """
    A, B = pencil.A, pencil.B
    lams = lams.copy()
    V = V.copy()
    for j in range(min(count, lams.size)):
        lam = lams[j]
        v = V[:, j]
        Av = A @ v
        r_old = np.linalg.norm(B @ v - lam * Av)
        try:
            y = np.linalg.solve(B - lam * A, Av)
        except np.linalg.LinAlgError:
            continue
        nrm = float(y @ (A @ y))
        if not (np.isfinite(nrm) and nrm > 0.0):
            continue
        y = y / math.sqrt(nrm)
        lam_new = float(y @ (B @ y))
        r_new = np.linalg.norm(B @ y - lam_new * (A @ y))
        if r_new < r_old:
            if float(y @ Av) < 0.0:
                y = -y
            lams[j] = lam_new
            V[:, j] = y
    order = np.argsort(-lams, kind="stable")
    return lams[order], V[:, order]


def solve_spectrum(pencil: AssembledPencil) -> Spectrum:
    """All eigenpairs of the pencil, descending, A-normalized, signs fixed."""
    res = solve_generalized_symmetric(pencil.B, pencil.A)
    n_refine = min(pencil.basis.size // 2, 16)
    lams, V = _refine_leading_pairs(pencil, res.eigenvalues, res.eigenvectors, n_refine)
    return Spectrum(
        problem=pencil.problem,
        eigenvalues=lams,
        coefficients=V,
        positive_count=int(np.count_nonzero(lams > 0.0)),
        basis=pencil.basis,
    )


def resolved_count(spectrum: Spectrum) -> int:
    """How many leading modes the residual quality gates apply to.

    The top min(size/2, 16) of the descending spectrum: the trailing discrete
    modes of any Galerkin method are discretization artifacts and are not
    held to strong-form accuracy.
    """
    return min(spectrum.basis.size // 2, 16)


def spectrum_residuals(spectrum: Spectrum):
    """Strong-form and boundary residuals of every eigenpair.

    Returns (strong, bc_minus, bc_plus): the L2 norm of
    lambda (k^2 phi - phi'') + mu (phi'''' - 2 k^2 phi'' + k^4 phi) and the
    absolute slip-condition defects |mu phi''(-1) + xi_- phi'(-1)| and
    |mu phi''(+1) - xi_+ phi'(+1)| per mode.
    """
    basis = spectrum.basis
    prob = spectrum.problem
    k2, mu = prob.k ** 2, prob.mu
    V = spectrum.coefficients
    vals = [basis.node_tables[d] @ V for d in range(5)]
    r = spectrum.eigenvalues * (k2 * vals[0] - vals[2]) + mu * (
        vals[4] - 2.0 * k2 * vals[2] + k2 * k2 * vals[0]
    )
    strong = np.sqrt(np.maximum(spectrum.basis.quad_weights @ (r * r), 0.0))
    wall = [basis.wall_tables[d] @ V for d in range(3)]
    bc_minus = np.abs(mu * wall[2][0] + prob.slip.xi_minus * wall[1][0])
    bc_plus = np.abs(mu * wall[2][1] - prob.slip.xi_plus * wall[1][1])
    return strong, bc_minus, bc_plus


def gram_defects(spectrum: Spectrum, n: int):
    """A-normalization and orthogonality defects of the leading n eigenvectors.

    Returns (norm, orthogonality): the largest |G_ii - 1| and |G_ij|, i != j,
    of the Gram matrix G = V^T A V of the first n coefficient columns V.
    """
    V = spectrum.coefficients[:, :n]
    gram = V.T @ gram_form(spectrum.problem.k, spectrum.basis) @ V
    diag = np.diag(gram)
    return float(np.abs(diag - 1.0).max()), float(np.abs(gram - np.diag(diag)).max())


# ---------------------------------------------------------------------------
# Independent variational path for lambda_1: Lanczos + Sturm bisection.
# ---------------------------------------------------------------------------


def _largest_tridiagonal_eigenvalue(alpha: np.ndarray, beta: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric tridiagonal matrix by Sturm bisection.

    LAPACK's stebz bisects with the smallest absolute tolerance it accepts,
    so the eigenvalue keeps its digits even when it is small beside the
    Gershgorin bound of the whole matrix.
    """
    n = alpha.size
    if n == 1:
        return float(alpha[0])
    top = linalg.eigh_tridiagonal(
        alpha, beta, eigvals_only=True, select="i", select_range=(n - 1, n - 1),
        lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny,
    )
    return float(top[0])


def lambda1_variational(problem: ModeProblem, basis: ChebBasis, *, seed: int = 0) -> float:
    """Maximum of the Rayleigh quotient B_k(phi,phi)/int((phi')^2+k^2 phi^2).

    Independent of the dense pencil solver: the quotient is maximized by
    Lanczos iterations (random start, full reorthogonalization) on the
    A-whitened operator W = L^-1 B L^-T, with the tridiagonal maximum
    extracted by Sturm bisection.  W is formed once from the Cholesky factor
    A = L L^T by two triangular solves on matrices, so a Lanczos step is one
    matrix-vector product; no eigensolver of the dense path is involved.
    Two random starts guard against an unlucky start vector.
    """
    pencil = assemble(problem, basis)
    n = basis.size
    L = linalg.cholesky(pencil.A, lower=True)
    X = linalg.solve_triangular(L, pencil.B, lower=True)  # L^-1 B
    W = linalg.solve_triangular(L, X.T, lower=True)  # L^-1 B L^-T, B symmetric

    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(2):
        q = rng.standard_normal(n)
        q /= np.linalg.norm(q)
        Q = np.empty((n, n))  # Lanczos vectors by rows
        alpha = np.empty(n)
        beta = np.empty(n)
        m = 0
        for j in range(n):
            Q[j] = q
            w = W @ q
            alpha[j] = q @ w
            Qj = Q[: j + 1]
            w -= (Qj @ w) @ Qj  # full reorthogonalization
            w -= (Qj @ w) @ Qj
            m = j + 1
            b = math.sqrt(w @ w)
            if j + 1 == n or b < 1e-14 * max(abs(alpha[j]), 1.0):
                break
            beta[j] = b
            q = w / b
        best = max(best, _largest_tridiagonal_eigenvalue(alpha[:m], beta[: max(m - 1, 0)]))
    return float(best)


# ---------------------------------------------------------------------------
# Exact-solution oracle: characteristic determinant and its positive roots.
# ---------------------------------------------------------------------------


def characteristic_determinant(lam: float, problem: ModeProblem) -> float:
    """Boundary-condition determinant whose positive roots are the growth rates.

    For lambda > 0 the solution space of the mode equation is spanned by
    cosh(kx), sinh(kx), cosh(mx), sinh(mx) with m = sqrt(k^2 + lambda/mu) > k.
    Columns are scaled by cosh(k) and cosh(m) (folded in analytically via
    tanh), so every entry stays polynomially bounded in m and the scan never
    overflows.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be > 0 for the real exponent basis, got {lam}")
    k, mu = problem.k, problem.mu
    xm, xp = problem.slip.xi_minus, problem.slip.xi_plus
    m = math.sqrt(k * k + lam / mu)
    tk, tm = math.tanh(k), math.tanh(m)
    k2, m2 = mu * k * k, mu * m * m
    # rows: phi(1)=0, phi(-1)=0, mu phi''(1)-xi_+ phi'(1)=0, mu phi''(-1)+xi_- phi'(-1)=0
    mat = np.array(
        [
            [1.0, tk, 1.0, tm],
            [1.0, -tk, 1.0, -tm],
            [k2 - xp * k * tk, k2 * tk - xp * k, m2 - xp * m * tm, m2 * tm - xp * m],
            [k2 - xm * k * tk, -(k2 * tk - xm * k), m2 - xm * m * tm, -(m2 * tm - xm * m)],
        ]
    )
    return float(np.linalg.det(mat))


def determinant_roots(problem: ModeProblem) -> DeterminantTrace:
    """Scan the determinant on a geometric grid and refine every sign change.

    The window is (1e-10, 1] * 1e4 * mu * k^2 with 512 points, geometric so
    the bracket resolution is uniform in m ~ sqrt(lambda/mu).  An empty root
    list is a valid outcome (stable wavenumber).  The scan misses roots above
    the window (the leading root once mu <= 0.01 mu_c) and pairs of roots
    closer than a grid cell (near-degenerate equal-slip pairs).
    """
    lambda_max = 1e4 * problem.mu * problem.k ** 2
    grid = np.geomspace(1e-10 * lambda_max, lambda_max, 512)
    values = np.array([characteristic_determinant(x, problem) for x in grid])

    def f(lam: float) -> float:
        return characteristic_determinant(lam, problem)

    roots = []
    for i in range(grid.size - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = values[i], values[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fb == 0.0:
            continue  # captured as the left endpoint of the next interval
        if np.sign(fa) != np.sign(fb):
            roots.append(find_root_bracketed(f, a, b, tol=1e-14 * b))
    return DeterminantTrace(problem=problem, roots=np.array(sorted(set(roots))))


def oracle_agreement(spectrum: Spectrum):
    """Pair the positive Galerkin eigenvalues with the determinant roots.

    Returns (galerkin_count, oracle_count, max_rel_mismatch): the two positive
    counts and the largest |lambda_j - root_j| / root_j over the leading
    min(galerkin_count, oracle_count) pairs, both in descending order; the
    mismatch is 0 when there is no pair.
    """
    roots = determinant_roots(spectrum.problem).roots[::-1]
    n = min(spectrum.positive_count, roots.size)
    rel = np.abs(spectrum.eigenvalues[:n] - roots[:n]) / roots[:n]
    return spectrum.positive_count, int(roots.size), float(rel.max()) if n else 0.0

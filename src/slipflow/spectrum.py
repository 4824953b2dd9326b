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
mu E indefinite and A the SPD Gram form, solved densely through its
A-whitened standard form W = U Xi U^T - mu M, a rank-2 update of tables
that hold no mu and no xi (below).  The leading pairs
then take one correction step: their residual is formed from B and A
themselves, where the dense solver's backward error shows in full, and is
corrected through the computed eigenbasis, which squares that error for
O(N^2) work per pair and factors no shifted pencil.  No pair is corrected
against one whose eigenvalue coincides with its own to 1e-10 max|lambda|,
so coinciding pairs stay A-orthogonal.  A pair keeps its dense value when
the step does not strictly lower its residual.

Two slip operators live here.  First, the exact oracle, the operator
method of Lafitte & Nguyen: lambda >= 0 is a growth rate exactly when 1 is
an eigenvalue of a compact self-adjoint operator, and because the slip
boundary form has rank 2 that operator is the 2x2 matrix
K(lambda) = Xi^(1/2) G(lambda) Xi^(1/2), Xi = diag(xi_minus, xi_plus).
With m = sqrt(k^2 + lambda/mu), the even and odd wall responses
e = (m tanh m - k tanh k)/lambda and o = (m coth m - k coth k)/lambda give
G = [[e+o, o-e], [o-e, e+o]] / 2.  The eigenvalues kappa_1 >= kappa_2 of K
do not increase with lambda, so each branch with kappa_i(0) > 1 crosses 1
exactly once: there are at most two growth rates, and mu kappa_1(0) is
mu_c(k).  ``slipflow spectrum`` checks the dense solve against these roots.
Second, the same method on the trial space: with D the wall slopes,
B = D Xi D^T - mu E, so lambda_1 of the pencil is the unit crossing of the
top eigenvalue of the 2x2 discrete slip operator
K_N(lambda) = Xi^(1/2) D^T (lambda A + mu E)^-1 D Xi^(1/2)
(``lambda1_variational``), and mu kappa_1(0) of K_N is mu_c on the trial
space (``critical.mu_c_variational``).  K_N is the one owner of both:
``dispersion`` and Lambda (``modes.compute_capital_lambda``) read lambda_1
from it, and the dense solve serves only the callers that read
eigenvectors or the whole spectrum: the packets, ``slipflow spectrum``, and
``slipflow verify``'s dense cross-checks, one of which holds lambda_1 of
K_N to the dense lambda_1.  K_N is the Galerkin restriction of K, so the
Galerkin kappa_1 lies below the exact one.

Both paths read the basis's table of the wavenumber (``ChebBasis.table``,
a ``numerics.PencilTable``), which needs no mu and no xi and is built once
for as long as the caller holds the basis: E and A, A factored once;
M = L_A^-1 E L_A^-T and U = L_A^-1 D, so that each case's standard form is
the rank-2 update W = U Xi U^T - mu M, and the dense solve of a case runs
one eigh and no O(N^3) whitening; and sigma with K_N's unit-slip rows
(G_0^2, G_1^2, G_0 G_1), so that each evaluation of K_N is one O(N) row
product, its eigensolve not the dense solve's.  When kappa1_N(0) > 1,
lambda_1 is found by Newton's method on 1/kappa1_N - 1, concave and
increasing in lambda, from lambda = 0 with no bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .findings import Finding, bounded
from .model import ModeProblem
from .numerics import (
    ChebBasis,
    boundary_form,
    chebder_map,
    eigh_whitened,
    find_root_bracketed,
    slip_defects,
)

__all__ = [
    "AssembledPencil",
    "Spectrum",
    "DeterminantTrace",
    "assemble",
    "solve_spectrum",
    "lambda1_variational",
    "operator_eigenvalues",
    "characteristic_determinant",
    "determinant_roots",
    "oracle_findings",
    "spectrum_residuals",
    "gram_defects",
    "resolved_count",
]


@dataclass(frozen=True)
class AssembledPencil:
    """One ModeProblem on a trial basis; its forms live in the basis's table."""

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


# a branch with |kappa_i(0) - 1| below this is marginal: its growth rate is roundoff
MARGINAL_TOL = 1e-8

# the most positive growth rates a pencil can have: B = R - mu E with R of
# rank 2 and E positive definite, so by Sylvester's law of inertia B, and
# the pencil B v = lambda A v, has at most two positive eigenvalues
INERTIA_BOUND = 2


@dataclass(frozen=True)
class DeterminantTrace:
    """Positive roots of det(I - K(lambda)), ascending, and the marginal branch count."""

    roots: np.ndarray
    marginal: int


def assemble(problem: ModeProblem, basis: ChebBasis) -> AssembledPencil:
    """The pencil of the problem on the basis; it forms nothing."""
    return AssembledPencil(problem=problem, basis=basis)


_CLUSTER_RTOL = 1e-10  # eigenvalues this close, relative to max|lambda|, coincide


def _refine_leading_pairs(B: np.ndarray, A: np.ndarray, lams: np.ndarray, V: np.ndarray, count: int):
    """One stacked correction step on the leading pairs of (B, A), through the dense eigenbasis.

    The dense solve returns pairs (w, V) that are exact for a nearby pencil
    (B + dB, A + dA) with |dB| of order eps ||B||, and the strong-form
    residual inherits that backward error through the fourth derivative.
    For the leading pairs X = V[:, :n] with eigenvalues lambda_j, the
    residual R = B X - A X diag(lambda) is formed from B and A themselves:
    in the computed coordinates it would read zero, here it carries the
    backward error in full.  Since V^T (B + dB) V = diag(w) and
    V^T (A + dA) V = I, B - lambda_j A = V^-T (diag(w) - lambda_j) V^-1
    - (dB - lambda_j dA), so the Newton correction of pair j,
    -V [(V^T r_j) / (w_i - lambda_j)], is exact but for dB and dA acting on
    a correction that is itself of their order.  The corrected pair's error
    is therefore of order the squared backward error over the eigenvalue
    gaps, as after one inverse-iteration step, for O(N^2) work per pair
    instead of an O(N^3) factorization.  Each corrected column is
    A-normalized and its Rayleigh quotient taken.

    The sum skips every i with |w_i - lambda_j| <= ``_CLUSTER_RTOL`` max|w|,
    the pair's own entry and coinciding pairs alike: only a cluster's span is
    determined (Davis-Kahan), so each pair keeps its dense components inside
    its cluster, and the cluster stays A-orthogonal.

    A pair is replaced only when its pencil residual strictly falls, so the
    step never degrades a converged pair, and a replaced vector keeps the
    sign with y^T A v >= 0.  The replaced pairs are written into ``lams``
    and ``V`` in place; the pairs are copied in descending order only when
    a replaced eigenvalue has left it.
    """
    n = min(count, lams.size)
    X, lam = V[:, :n], lams[:n]
    AX = A @ X
    R = B @ X - AX * lam
    gap = lams[:, None] - lam
    gap[np.abs(gap) <= _CLUSTER_RTOL * np.abs(lams).max()] = np.inf
    Y = X - V @ ((V.T @ R) / gap)
    AY = A @ Y
    scale = np.sqrt(np.einsum("ij,ij->j", Y, AY))
    Y, AY = Y / scale, AY / scale
    BY = B @ Y
    lam_new = np.einsum("ij,ij->j", Y, BY)
    r_new = np.linalg.norm(BY - AY * lam_new, axis=0)
    better = np.flatnonzero(r_new < np.linalg.norm(R, axis=0))
    Y = Y[:, better]
    Y *= np.where(np.einsum("ij,ij->j", Y, AX[:, better]) < 0.0, -1.0, 1.0)
    lams[better], V[:, better] = lam_new[better], Y
    if np.all(lams[1:] <= lams[:-1]):
        return lams, V
    order = np.argsort(-lams, kind="stable")
    return lams[order], V[:, order]


def solve_spectrum(pencil: AssembledPencil) -> Spectrum:
    """All eigenpairs of the pencil, descending, A-normalized, signs fixed.

    Its A-whitened standard form is the rank-2 update W = U Xi U^T - mu M
    of the wavenumber table's ``whitened_slopes`` U and ``whitened_energy``
    M, formed as -mu M + s_- s_-^T + s_+ s_+^T with s the columns of
    U Xi^(1/2), so W is symmetric to the bit and no O(N^3) whitening runs
    per case; one ``eigh_whitened`` solves it.  B = R - mu E, from
    ``boundary_form`` and the table's ``energy``, and the table's ``gram``
    A serve the refinement's residual (``_refine_leading_pairs``).
    """
    problem, basis = pencil.problem, pencil.basis
    table = basis.table(problem.k)
    S = table.whitened_slopes * np.sqrt([problem.slip.xi_minus, problem.slip.xi_plus])
    W = table.whitened_energy * -problem.mu
    W += np.outer(S[:, 0], S[:, 0])
    W += np.outer(S[:, 1], S[:, 1])
    lams, V = eigh_whitened(W, table.gram_factor)
    B = boundary_form(problem.slip, basis) - problem.mu * table.energy
    lams, V = _refine_leading_pairs(B, table.gram, lams, V, resolved_count(pencil))
    return Spectrum(problem, lams, V, int(np.count_nonzero(lams > 0.0)), basis)


def resolved_count(spectrum: Spectrum | AssembledPencil) -> int:
    """How many leading modes ``solve_spectrum`` refines and the residual
    quality gates apply to, for a spectrum or the pencil it is solved from.

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
    |mu phi''(+1) - xi_+ phi'(+1)| per mode (``slip_defects`` of u1 = phi').
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
    series = V.T @ basis.cheb_coeffs
    bc_minus, bc_plus = slip_defects(series @ chebder_map(series.shape[1]).T, mu, prob.slip)
    return strong, bc_minus, bc_plus


def gram_defects(spectrum: Spectrum, n: int):
    """A-normalization and orthogonality defects of the leading n eigenvectors.

    Returns (norm, orthogonality): the largest |G_ii - 1| and |G_ij|, i != j,
    of the Gram matrix G = V^T A V of the first n coefficient columns V.
    """
    V = spectrum.coefficients[:, :n]
    gram = V.T @ spectrum.basis.table(spectrum.problem.k).gram @ V
    diag = np.diag(gram)
    return float(np.abs(diag - 1.0).max()), float(np.abs(gram - np.diag(diag)).max())


# ---------------------------------------------------------------------------
# Exact oracle: the rank-2 slip operator K(lambda) and its unit crossings.
# ---------------------------------------------------------------------------


# Taylor coefficients a_n = 2^(2n) B_2n / (2n)! of x coth x = 1 + sum_n a_n x^(2n)
_XCOTHX_TAYLOR = (
    1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
    4 / 18243225, -3617 / 162820783125, 87734 / 38979295480125,
    -349222 / 1531329465290625, 310732 / 13447856940643125,
    -472728182 / 201919571963756521875,
)
_ODD_SERIES_M = 0.5


def _wall_responses(lam: float, k: float, mu: float):
    """Even and odd wall responses (e, o) of the mode equation at rate lam >= 0.

    With m = sqrt(k^2 + lam/mu), e = (m tanh m - k tanh k)/lam and
    o = (m coth m - k coth k)/lam.  Both are divided differences
    (h(m) - h(k)) / ((m - k) mu (m + k)), evaluated as
    h1(m) + k (h1(m) - h1(k)) / (m - k) with h1 = tanh or coth, each written
    through 1 - e^{-2x} so that nothing overflows, and with
    h1(m) - h1(k) carried by (e^{-2k} - e^{-2m}) / (m - k) = e^{-2k}
    (1 - e^{-2(m-k)}) / (m - k), whose limit 2 e^{-2k} at lam = 0 (m = k) is
    exact.  That form of the odd part loses about eps / m^2 to cancellation,
    so for m <= 1/2 it is summed instead as (h(m) - h(k)) / (m^2 - k^2) =
    sum_n a_n s_n with h = x coth x = 1 + sum_n a_n x^(2n) and
    s_n = (m^(2n) - k^(2n)) / (m^2 - k^2), a sum of positive terms; twelve
    terms reach roundoff, and above m = 1/2 the direct form is at roundoff too.
    """
    d = lam / (mu * (math.sqrt(k * k + lam / mu) + k))  # m - k, without cancellation
    m = k + d
    om, ok = -math.expm1(-2.0 * m), -math.expm1(-2.0 * k)  # tanh x = om / (2 - om)
    gap = math.exp(-2.0 * k) * (-math.expm1(-2.0 * d) / d if d > 0.0 else 2.0)
    even = om / (2.0 - om) + 2.0 * k * gap / ((2.0 - om) * (2.0 - ok))
    scale = mu * (m + k)
    if m <= _ODD_SERIES_M:
        msq, ksq = k * k + lam / mu, k * k
        s, kpow, odd = 0.0, 1.0, 0.0
        for a in _XCOTHX_TAYLOR:
            s = msq * s + kpow  # s_n = m^2 s_(n-1) + k^(2(n-1))
            kpow *= ksq
            odd += a * s
        return even / scale, odd / mu
    odd = (2.0 - om) / om - 2.0 * k * gap / (om * ok)
    return even / scale, odd / scale


def operator_eigenvalues(lam: float, problem: ModeProblem):
    """Eigenvalues kappa_1 >= kappa_2 >= 0 of the slip operator K(lam), lam >= 0.

    K = Xi^(1/2) G Xi^(1/2) with Xi = diag(xi_minus, xi_plus) and
    G = [[e+o, o-e], [o-e, e+o]] / 2 (walls ordered -1, +1).  G_ij is the
    slope at wall i of the exact response of lam (k^2 - D^2) + mu (D^2 - k^2)^2
    to a unit slope load at wall j, so lam > 0 is a growth rate exactly when
    1 is an eigenvalue of K.  kappa_2 comes from det K = xi_- xi_+ e o, so it
    keeps its digits when it is small beside kappa_1.
    """
    if not lam >= 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    e, o = _wall_responses(lam, problem.k, problem.mu)
    xm, xp = problem.slip.xi_minus, problem.slip.xi_plus
    half_sum = 0.25 * (xm + xp) * (e + o)
    spread = math.hypot(0.25 * (xm - xp) * (e + o), 0.5 * math.sqrt(xm * xp) * (o - e))
    kappa1 = half_sum + spread
    kappa2 = min(xm * xp * e * o / kappa1, kappa1) if kappa1 > 0.0 else 0.0
    return kappa1, kappa2


def characteristic_determinant(lam: float, problem: ModeProblem) -> float:
    """det(I - K(lam)) = (1 - kappa_1)(1 - kappa_2); its positive roots are the growth rates.

    K(lam) is the rank-2 slip operator of ``operator_eigenvalues``.  The
    factored form keeps the sign exact near a root of either branch.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    kappa1, kappa2 = operator_eigenvalues(lam, problem)
    return (1.0 - kappa1) * (1.0 - kappa2)


def _unit_crossing(excess, start: float) -> float:
    """The one root in (0, inf) of ``excess``, nonincreasing there with
    excess(0+) > 0: bracketed by factors of 4 from ``start``, up while
    excess > 0 and then down while excess <= 0, and solved by Brent's method
    to 1e-14 of the bracket's upper end."""
    hi = start
    while excess(hi) > 0.0:
        hi *= 4.0
    lo = 0.25 * hi
    while lo > 0.0 and excess(lo) <= 0.0:
        hi, lo = lo, 0.25 * lo
    return find_root_bracketed(excess, lo, hi, tol=1e-14 * hi)


def determinant_roots(problem: ModeProblem) -> DeterminantTrace:
    """Growth rates as the unit crossings of the eigenvalue branches of K(lam).

    Each branch kappa_i(lam) is nonincreasing in lam and tends to 0, so it
    crosses 1 exactly once when kappa_i(0) > 1 and never otherwise: at most
    two roots (Sylvester inertia).  K(0) = Xi^(1/2) G(0) Xi^(1/2) is the
    lam -> 0 limit, and mu kappa_1(0) is mu_c(k).  A branch with
    |kappa_i(0) - 1| < MARGINAL_TOL is marginal: its crossing is roundoff,
    so it is counted in ``marginal`` and gives no root.  Each crossing is
    bracketed by factors of 4 from lam = mu k^2 and solved by Brent's method
    (``_unit_crossing``); one determinant evaluation confirms every root.
    """
    kappa0 = operator_eigenvalues(0.0, problem)
    roots = []
    for branch, top in enumerate(kappa0):
        if not top > 1.0 + MARGINAL_TOL:
            continue

        def excess(lam: float, branch=branch) -> float:
            return operator_eigenvalues(lam, problem)[branch] - 1.0

        roots.append(_unit_crossing(excess, problem.mu * problem.k ** 2))
    for lam in roots:
        det = characteristic_determinant(lam, problem)
        if abs(det) > 1e-10 * max(1.0, operator_eigenvalues(lam, problem)[0]):
            raise FloatingPointError(f"root {lam!r} leaves det(I - K) = {det:g}")
    marginal = sum(abs(top - 1.0) < MARGINAL_TOL for top in kappa0)
    return DeterminantTrace(roots=np.array(sorted(roots)), marginal=marginal)


def oracle_findings(spectrum: Spectrum, tol: float) -> list:
    """The count rule: findings ``positive_count``, ``inertia_bound`` and
    ``max_rel_mismatch`` of the positive Galerkin eigenvalues against the
    determinant roots, paired in descending order.  Positives beyond the
    roots, up to ``DeterminantTrace.marginal``, are excused as the roundoff
    rates of marginal branches; a count above INERTIA_BOUND fails whatever
    the oracle says.  The largest |lambda_j - root_j| / root_j (0 with no
    pair) is held to ``tol``, and a miss names whether every mismatched rate
    lies below its root, as a Rayleigh-Ritz value must, or one lies above."""
    trace = determinant_roots(spectrum.problem)
    roots = trace.roots[::-1]
    n_gal, n_oracle = spectrum.positive_count, int(roots.size)
    n = min(n_gal, n_oracle)
    gap = (spectrum.eigenvalues[:n] - roots[:n]) / roots[:n]
    rel = float(np.abs(gap).max()) if n else 0.0
    excused = int(min(max(n_gal - n_oracle, 0), trace.marginal))
    detail = {"positive_count_oracle": n_oracle, "marginal_branches_oracle": trace.marginal}
    if excused:
        detail["marginal_positives_excused"] = excused
    agree = n_gal == n_oracle + excused
    below = bool(np.all(gap[np.abs(gap) > tol] < 0.0))
    return [
        Finding("positive_count", n_gal, None, "ok" if agree else "fail", None if agree else
                f"{n_oracle} oracle roots and {excused} marginal excused", detail),
        bounded("inertia_bound", n_gal, INERTIA_BOUND,
                cause=f"positive count {n_gal} exceeds {INERTIA_BOUND}, the inertia bound"),
        bounded("max_rel_mismatch", rel, tol, cause=(
            "every mismatched rate lies below its root: under-resolved, as Rayleigh-Ritz "
            "requires" if below else "a Galerkin rate lies above its root")),
    ]


# ---------------------------------------------------------------------------
# Discrete slip operator K_N(lambda): lambda_1 of the Galerkin pencil.
# ---------------------------------------------------------------------------


def _discrete_kappa1(problem: ModeProblem, basis: ChebBasis):
    """(kappa1_N, pole): lam -> the top eigenvalue of K_N(lam), and -mu / sigma_max.

    K_N(lam) = Xi^(1/2) G^T diag(1 / (lam sigma + mu)) G Xi^(1/2), (sigma,
    G) of the table's ``slip``, for lam above the pole, where lam A + mu E
    is definite: one product of the unit-slip rows G_0^2, G_1^2, G_0 G_1
    with 1 / (lam sigma + mu), its entries scaled by xi_-, xi_+ and
    sqrt(xi_- xi_+), and the closed form of a 2x2 top eigenvalue, a sum of
    nonnegative terms.  ``kappa1(lam, slope=True)`` returns (kappa1_N,
    dkappa1_N/dlam), the slope from one more row product, with
    sigma / (lam sigma + mu)^2 for dK_N/dlam; at a double eigenvalue of K_N
    it is the right derivative, the top eigenvalue of dK_N/dlam.
    """
    sigma, rows = basis.table(problem.k).slip
    xm, xp, mu = problem.slip.xi_minus, problem.slip.xi_plus, problem.mu
    xb = math.sqrt(xm * xp)

    def kappa1(lam: float, slope: bool = False):
        d = 1.0 / (lam * sigma + mu)
        a, c, b = (rows @ d).tolist()
        a, c, b = xm * a, xp * c, xb * b
        h = math.hypot(0.5 * (a - c), b)
        if not slope:
            return 0.5 * (a + c) + h
        da, dc, db = (rows @ (sigma * d * d)).tolist()
        da, dc, db = -xm * da, -xp * dc, -xb * db
        if h == 0.0:
            dh = math.hypot(0.5 * (da - dc), db)
        else:
            dh = (0.25 * (a - c) * (da - dc) + b * db) / h
        return 0.5 * (a + c) + h, 0.5 * (da + dc) + dh

    return kappa1, -mu / sigma[-1]


_NEWTON_RTOL = 4.0 * np.finfo(float).eps
_NEWTON_MAXITER = 50


def _newton_crossing(kappa1, kappa: float, slope: float) -> float:
    """The unit crossing of kappa1_N when kappa1_N(0) > 1, by Newton's
    method on g(lam) = 1 / kappa1_N(lam) - 1 from lam = 0.

    With H = G Xi^(1/2) and Sigma = diag(sigma), 1 / kappa1_N =
    lambda_min((H^T (lam Sigma + mu)^-1 H)^-1), and D -> (H^T D^-1 H)^-1
    is matrix concave and increasing, so g is concave and increasing:
    each tangent lies on or above g, and the iterates rise monotonically to
    the root, none passing it but by roundoff, with no bracket.  The step
    -g / g' is kappa1 (kappa1 - 1) / (-dkappa1).  The search stops on a
    step below 4 eps of the new iterate, which it returns unevaluated, or
    on an iterate where kappa1_N <= 1; RuntimeError after
    ``_NEWTON_MAXITER`` steps.  ``kappa`` and ``slope`` are kappa1_N and
    its slope at 0.
    """
    lam = 0.0
    for _ in range(_NEWTON_MAXITER):
        step = kappa * (kappa - 1.0) / -slope
        lam_next = lam + step
        if step <= _NEWTON_RTOL * lam_next:
            return lam_next
        lam = lam_next
        kappa, slope = kappa1(lam, slope=True)
        if kappa <= 1.0:
            return lam
    raise RuntimeError(f"no convergence in {_NEWTON_MAXITER} Newton steps, last lambda = {lam!r}")


def lambda1_variational(problem: ModeProblem, basis: ChebBasis, *, seed: int = 0) -> float:
    """lambda_1 of the pencil, the maximum of B_k(phi,phi)/int((phi')^2+k^2 phi^2)
    on the trial space, as the unit crossing of kappa1_N (``_discrete_kappa1``).

    Above the pole the pencil has as many eigenvalues above lam as K_N(lam)
    has above 1 (Sylvester), and kappa1_N falls from +inf to 0.  When
    kappa1_N(0) > 1 the crossing is found by Newton's method from 0
    (``_newton_crossing``); otherwise it lies in (pole, 0], bracketed as
    the oracle's roots are (``_unit_crossing``) towards 0 when
    kappa1_N(pole / 2) > 1 and towards the pole when not.  With no slip
    lambda_1 is the pole.  The path reaches neither ``whiten`` nor the dense
    solve.  ``seed`` is ignored, as there is no random start; it stays
    because the benchmark's ``spectrum`` workload passes it.
    """
    kappa1, pole = _discrete_kappa1(problem, basis)
    if problem.slip.total == 0.0:
        return pole

    kappa, slope = kappa1(0.0, slope=True)
    if kappa > 1.0:
        return _newton_crossing(kappa1, kappa, slope)

    def excess(lam: float) -> float:
        return kappa1(lam) - 1.0

    # measured from the nearer end, t = -lam or u = lam - pole, each bracket
    # keeps the relative digits of a lambda_1 near that end
    if excess(0.5 * pole) > 0.0:
        return -_unit_crossing(lambda t: -excess(-t), -0.5 * pole)
    return pole + _unit_crossing(lambda u: excess(pole + u), -0.5 * pole)

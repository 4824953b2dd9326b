"""Galerkin spectrum against the rank-2 slip-operator oracle, lambda_1 of the
discrete slip operator, and a Lanczos reference."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from conftest import oracle_counts, standard_cases

from slipflow.model import ModeProblem, SlipPair
from slipflow.numerics import (
    boundary_form,
    build_basis,
    eigh_whitened,
    solve_generalized_symmetric,
    whiten,
)
from slipflow.spectrum import (
    Spectrum,
    _discrete_kappa1,
    _refine_leading_pairs,
    assemble,
    characteristic_determinant,
    determinant_roots,
    gram_defects,
    lambda1_variational,
    operator_eigenvalues,
    resolved_count,
    solve_spectrum,
    spectrum_residuals,
)


@pytest.mark.parametrize("k,mu,slip", standard_cases((0.5, 0.9)))
def test_positive_eigenvalues_match_oracle(k, mu, slip, basis64):
    spectrum = solve_spectrum(assemble(ModeProblem(k=k, mu=mu, slip=slip), basis64))
    n_gal, n_oracle, rel, _ = oracle_counts(spectrum)
    assert n_gal == n_oracle
    assert n_oracle >= 1
    assert rel <= 1e-8


@pytest.mark.parametrize("k,mu,slip", standard_cases((1.1,)))
def test_supercritical_cases_have_no_positive_eigenvalues(k, mu, slip, basis64):
    spectrum = solve_spectrum(assemble(ModeProblem(k=k, mu=mu, slip=slip), basis64))
    assert spectrum.lambda1 < 0.0
    assert oracle_counts(spectrum)[:2] == (0, 0)


@pytest.mark.parametrize("mu", [0.5, 0.05])
def test_positive_set_converged_in_basis_size(mu, basis32, basis64):
    problem = ModeProblem(k=1.0, mu=mu, slip=SlipPair(1.0, 1.0))
    coarse = solve_spectrum(assemble(problem, basis32))
    fine = solve_spectrum(assemble(problem, basis64))
    assert coarse.positive_count == fine.positive_count
    n = fine.positive_count
    assert n >= 1
    gap = np.abs(coarse.eigenvalues[:n] - fine.eigenvalues[:n])
    assert gap.max() <= 1e-9 * max(1.0, np.abs(fine.eigenvalues[:n]).max())


def test_eigenvalues_sorted_descending(basis64):
    spectrum = solve_spectrum(
        assemble(ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0)), basis64)
    )
    assert np.all(np.diff(spectrum.eigenvalues) <= 0.0)
    assert spectrum.lambda1 == spectrum.eigenvalues[0]


def test_resolved_modes_meet_residual_gates(basis64):
    spectrum = solve_spectrum(
        assemble(ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0)), basis64)
    )
    strong, bc_minus, bc_plus = spectrum_residuals(spectrum)
    n = resolved_count(spectrum)
    assert n >= 8
    assert strong[:n].max() <= 1e-6
    assert bc_minus[:n].max() <= 1e-8
    assert bc_plus[:n].max() <= 1e-8


def test_normalization_and_orthogonality(basis64):
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    spectrum = solve_spectrum(assemble(problem, basis64))
    norm, orthogonality = gram_defects(spectrum, basis64.size)
    assert norm <= 1e-10
    assert orthogonality <= 1e-8


def _largest_tridiagonal_eigenvalue(alpha: np.ndarray, beta: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``alpha`` and off-diagonal ``beta``, by ``np.linalg.eigvalsh`` of the
    n x n matrix.

    Its error is of order eps times the norm of T, the order of the error
    with which the whitened W, and so T, is formed.  Just below mu_c, where
    lambda_1 is small beside that norm, the gap to the refined Galerkin
    lambda_1 at N = 96 and mu = 0.999 mu_c reads at most 4.4e-9 relative
    over the cases and start seeds of
    ``test_lanczos_reference_keeps_digits_near_mu_c`` (bound 1e-8).
    """
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return float(np.linalg.eigvalsh(T)[-1])


def _lanczos_top_eigenvalue(W: np.ndarray, rng) -> float:
    """Largest eigenvalue of the symmetric W by n = size Lanczos steps.

    Full reorthogonalization (two passes) keeps the n Lanczos vectors
    orthonormal.  A step whose new direction vanishes (b below 1e-14
    max(|alpha_j|, 1)) has found an invariant subspace; the run then
    restarts from a fresh random vector, orthogonalized twice against the
    vectors so far, with beta_j = 0.  The n x n tridiagonal T is therefore
    orthogonally similar to W for every start, and its largest eigenvalue
    (``_largest_tridiagonal_eigenvalue``) is the top eigenvalue of W.
    """
    n = W.shape[0]
    Q = np.empty((n, n))  # Lanczos vectors by rows
    alpha = np.empty(n)
    beta = np.empty(n - 1)
    w = rng.standard_normal(n)
    b = math.sqrt(w @ w)
    for j in range(n):
        Q[j] = q = w / b
        w = W @ q
        alpha[j] = q @ w
        if j + 1 == n:
            break
        Qj = Q[: j + 1]
        w -= (Qj @ w) @ Qj  # full reorthogonalization
        w -= (Qj @ w) @ Qj
        b = math.sqrt(w @ w)
        if b < 1e-14 * max(abs(alpha[j]), 1.0):
            beta[j] = 0.0
            w = rng.standard_normal(n)
            w -= (Qj @ w) @ Qj
            w -= (Qj @ w) @ Qj
            b = math.sqrt(w @ w)
        else:
            beta[j] = b
    return _largest_tridiagonal_eigenvalue(alpha, beta)


def _pencil_forms(problem, basis):
    """(B, A) of the problem on the basis: B = R - mu E from
    ``boundary_form`` and the table's energy form, A the table's gram."""
    table = basis.table(problem.k)
    return boundary_form(problem.slip, basis) - problem.mu * table.energy, table.gram


def lanczos_lambda1(problem, basis, seed=0) -> float:
    """Reference lambda_1: Lanczos from one random start on the A-whitened
    W = L^-1 B L^-T of the pencil, with no dense eigensolve of W."""
    W, _ = whiten(*_pencil_forms(problem, basis))
    return _lanczos_top_eigenvalue(W, np.random.default_rng(seed))


def test_lambda1_variational_matches_pencil(basis64):
    for k, mu, slip in standard_cases((0.5,)):
        problem = ModeProblem(k=k, mu=mu, slip=slip)
        lam_g = solve_spectrum(assemble(problem, basis64)).lambda1
        lam_v = lambda1_variational(problem, basis64)
        assert abs(lam_v - lam_g) <= 1e-10 * abs(lam_g)


def test_lambda1_variational_calls_no_dense_eigensolver(monkeypatch):
    # the K_N path reaches neither the dense solve nor the whitening of
    # (B, A); once the (k, basis) table is built, a new mu and slip call no
    # eigensolver and factor nothing
    basis64 = build_basis(64)  # a fresh basis: its table is not built yet
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    warm = ModeProblem(k=1.0, mu=0.3, slip=SlipPair(0.5, 3.0))
    lam_g = solve_spectrum(assemble(problem, basis64)).lambda1
    lam_w = solve_spectrum(assemble(warm, basis64)).lambda1

    def forbidden(*args, **kwargs):
        raise AssertionError("the K_N path reached a forbidden routine")

    for target in (
        "slipflow.numerics.whiten",
        "slipflow.numerics.solve_generalized_symmetric",
        "slipflow.numerics.eigh_whitened",
        "slipflow.spectrum.eigh_whitened",
    ):
        monkeypatch.setattr(target, forbidden)
    lam_v = lambda1_variational(problem, basis64)
    assert abs(lam_v - lam_g) <= 1e-10 * abs(lam_g)
    for target in ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.eig",
                   "numpy.linalg.cholesky", "scipy.linalg.eigh"):
        monkeypatch.setattr(target, forbidden)
    lam_v = lambda1_variational(warm, basis64)
    assert abs(lam_v - lam_w) <= 1e-10 * abs(lam_w)


def test_lanczos_reference_calls_no_dense_eigensolver(basis64, monkeypatch):
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    lam_g = solve_spectrum(assemble(problem, basis64)).lambda1

    def forbidden(*args, **kwargs):
        raise AssertionError("the Lanczos path reached a dense eigensolver")

    for target in (
        "scipy.linalg.eigh",
        "numpy.linalg.eigh",
        "slipflow.numerics.solve_generalized_symmetric",
        "slipflow.numerics.eigh_whitened",
        "slipflow.spectrum.eigh_whitened",
    ):
        monkeypatch.setattr(target, forbidden)
    lam_v = lanczos_lambda1(problem, basis64)
    assert abs(lam_v - lam_g) <= 1e-8 * abs(lam_g)


BENCHMARK_KS = (0.05, 0.5, 1.0, 4.0, 16.0)
BENCHMARK_SLIPS = ((1.0, 1.0), (0.0, 3.0), (10.0, 0.1))
BENCHMARK_FRACTIONS = (1.0e-3, 1.0e-2, 0.1, 0.5, 0.999)


def test_assemble_is_cached_and_read_only(basis32):
    # a pencil forms nothing: it names its problem and basis, and the forms
    # the solve reads are the basis's table's, built once and read-only
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    pencil = assemble(problem, basis32)
    assert pencil.problem is problem and pencil.basis is basis32
    table = basis32.table(1.0)
    for name in ("gram", "energy", "gram_factor", "whitened_energy", "whitened_slopes"):
        M = getattr(table, name)
        assert getattr(table, name) is M
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def _benchmark_cases():
    from slipflow.critical import mu_c_closed_form

    return [(n, ModeProblem(k=k, mu=f * mu_c_closed_form(k, SlipPair(*xi)), slip=SlipPair(*xi)))
            for n in (48, 64, 96) for k in BENCHMARK_KS for xi in BENCHMARK_SLIPS
            for f in BENCHMARK_FRACTIONS]


def test_each_basis_builds_one_table_per_wavenumber_in_any_order(monkeypatch):
    # the benchmark's 225 cases, shuffled: every dense solve runs its own
    # eigh through the one eigensolve owner, eigh_whitened, and each of the
    # 15 (k, basis) tables factors A and E and runs the eigh of K_N once,
    # whatever the order
    from slipflow.critical import mu_c_variational

    bases = {n: build_basis(n) for n in (48, 64, 96)}
    cases = _benchmark_cases()
    order = np.random.default_rng(11).permutation(len(cases))
    counts = {"eigh": 0, "cholesky": 0, "dense": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr("numpy.linalg.eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr("numpy.linalg.cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr("slipflow.spectrum.eigh_whitened", counted("dense", eigh_whitened))
    for i in order:
        n, problem = cases[i]
        solve_spectrum(assemble(problem, bases[n]))
        lambda1_variational(problem, bases[n])
        mu_c_variational(problem.k, problem.slip, bases[n])
    assert counts["dense"] == 225
    assert counts["eigh"] - counts["dense"] == 15  # K_N tables
    assert counts["cholesky"] == 30


def _whitened_reference(problem, basis):
    """Reference spectrum of the whitened pencil: W = L_A^-1 B L_A^-T by two
    products (``whiten``), its dense eigenpairs, then the same refinement.
    Returns (W, ||W||_2, Spectrum)."""
    B, A = _pencil_forms(problem, basis)
    W, inv = whiten(B, A)
    lams, V = eigh_whitened(W, inv)
    norm = float(np.abs(lams).max())
    lams, V = _refine_leading_pairs(B, A, lams, V, resolved_count(assemble(problem, basis)))
    count = int(np.count_nonzero(lams > 0.0))
    return W, norm, Spectrum(problem, lams, V, count, basis)


def _verify_defects(spectrum):
    """Each resolved-mode defect of ``slipflow verify``'s eigenfunction check
    over its bound: strong residual 1e-6, slip defects 1e-8, A-norm 1e-10,
    orthogonality 1e-8."""
    n = resolved_count(spectrum)
    strong, bc_minus, bc_plus = spectrum_residuals(spectrum)
    norm, orthogonality = gram_defects(spectrum, n)
    return np.array([strong[:n].max() / 1e-6, max(bc_minus[:n].max(), bc_plus[:n].max()) / 1e-8,
                     norm / 1e-10, orthogonality / 1e-8])


def test_table_standard_form_matches_the_whitened_pencil(monkeypatch):
    # the rank-2 update W = U Xi U^T - mu M of the tables against the
    # whitening of (B, A) by two products, over the benchmark's 225 cases
    # (shuffled by seed 1) and the two N = 256 cases of the CI.  Measured:
    # |W_table - W_whiten|_max at most 0.47 eps ||W||_2, the resolved
    # eigenvalues at most 0.13 of their bound apart.  In every case whose
    # reference meets all four verify bounds the table path does too.  The
    # equal-slip pair at k = 16, whose two rates coincide to roundoff, stays
    # A-orthogonal on either path (to 2.6e-15 at N = 48), in a case whose
    # strong residual, 7.3e-5 on both, is outside the verify bound
    from slipflow.critical import mu_c_closed_form

    eps = np.finfo(float).eps
    bases = {n: build_basis(n) for n in (48, 64, 96, 256)}
    cases = _benchmark_cases()
    cases = [cases[i] for i in np.random.default_rng(1).permutation(len(cases))]
    cases += [(256, ModeProblem(k=16.0, mu=3.125e-4, slip=SlipPair(1.0, 1.0))),
              (256, ModeProblem(k=16.0, mu=0.003125, slip=SlipPair(10.0, 0.1)))]
    assert mu_c_closed_form(16.0, SlipPair(10.0, 0.1)) > 0.003125
    solved = []

    def recorded(W, inv):
        solved.append(W.copy())
        return eigh_whitened(W, inv)

    monkeypatch.setattr("slipflow.spectrum.eigh_whitened", recorded)
    for n, problem in cases:
        spec = solve_spectrum(assemble(problem, bases[n]))
        W = solved.pop()
        W_ref, norm, ref = _whitened_reference(problem, bases[n])
        assert np.array_equal(W, W.T)
        assert np.abs(W - W_ref).max() <= 2.0 * eps * norm, (n, problem)
        assert spec.positive_count == ref.positive_count, (n, problem)
        m = resolved_count(spec)
        gap = np.abs(spec.eigenvalues[:m] - ref.eigenvalues[:m])
        bound = np.maximum(1e-12 * np.abs(ref.eigenvalues[:m]), 100.0 * eps * norm)
        assert np.all(gap <= bound), (n, problem)
        if np.all(_verify_defects(ref) <= 1.0):
            assert np.all(_verify_defects(spec) <= 1.0), (n, problem)


def _bracketed_crossing(kappa1, start: float):
    """Reference for the crossing of kappa1_N when kappa1_N(0) > 1: the
    bracketed path ``lambda1_variational`` took before Newton's method,
    the bracket grown by factors of 4 from ``start`` and solved by Brent's
    method to 1e-14 of its upper end.  Returns (crossing, upper end)."""
    from slipflow.numerics import find_root_bracketed

    def excess(lam):
        return kappa1(lam) - 1.0

    hi = start
    while excess(hi) > 0.0:
        hi *= 4.0
    lo = 0.25 * hi
    while lo > 0.0 and excess(lo) <= 0.0:
        hi, lo = lo, 0.25 * lo
    return find_root_bracketed(excess, lo, hi, tol=1e-14 * hi), hi


def _crossing_cases():
    grid = [(problem, n) for n, problem in _benchmark_cases()]
    lattices = [(ModeProblem(k=float(n), mu=mu, slip=SlipPair(1.0, 1.0)), 48)
                for mu, n_max in ((0.5, 8), (0.1, 12)) for n in range(1, n_max + 1)]
    return grid + lattices


def test_newton_crossing_meets_the_bracketed_reference(monkeypatch):
    # the benchmark's 225 cases and the Lambda lattices of the acceptance
    # channel (mu 0.5, n <= 8) and the smoke channel (mu 0.1, n <= 12), each
    # on its basis.  Newton's lambda_1 lies within 1e-14 hi + 8 eps lambda_1
    # of the bracketed one.  Only where kappa1_N reads exactly 1 at the
    # bracketed root is that widened by 16 eps / |kappa1_N'|: near
    # mu = 0.999 mu_c kappa1_N reads 1 to the last bit over a band of
    # lambda up to 13.7 eps / |kappa1_N'| wide, so two root finders may
    # land 3e-13 relative apart there (measured: 38 of the 231 crossings
    # need the widening, all in such a band, and each lies within
    # 0.9 eps / |kappa1_N'| of the reference).  Every evaluated iterate rises and
    # keeps kappa1_N >= 1 - 4 eps (measured: 1 - 2 eps), and a crossing
    # takes at most 12 evaluations (measured: 9), the one at 0 included
    import slipflow.spectrum as spectrum_mod

    eps = np.finfo(float).eps
    bases = {n: build_basis(n) for n in (48, 64, 96)}
    original = spectrum_mod._discrete_kappa1
    iterates = []

    def recorded(problem, basis):
        kappa1, pole = original(problem, basis)

        def kappa1_recorded(lam, slope=False):
            out = kappa1(lam, slope)
            if slope:
                iterates.append((lam, out[0]))
            return out

        return kappa1_recorded, pole

    monkeypatch.setattr(spectrum_mod, "_discrete_kappa1", recorded)
    newton = 0
    for problem, n in _crossing_cases():
        basis = bases[n]
        kappa1, _ = original(problem, basis)
        iterates.clear()
        lam = lambda1_variational(problem, basis)
        if kappa1(0.0) <= 1.0:
            continue  # the stable branches keep the bracketed path
        newton += 1
        ref, hi = _bracketed_crossing(kappa1, problem.mu * problem.k ** 2)
        _, slope = kappa1(ref, slope=True)
        bound = 1e-14 * hi + 8.0 * eps * abs(ref)
        if kappa1(ref) == 1.0:
            bound += 16.0 * eps / abs(slope)
        assert abs(lam - ref) <= bound, (n, problem)
        steps = np.array([x for x, _ in iterates])
        assert steps[0] == 0.0 and np.all(np.diff(steps) >= 0.0), (n, problem)
        assert min(k for _, k in iterates) >= 1.0 - 4.0 * eps, (n, problem)
        assert len(iterates) <= 12, (n, problem)
    assert newton == 225 + 1 + 5  # the lattices are unstable at k <= 1 and k <= 5


def test_kappa1_slope_matches_a_difference_quotient(basis64):
    # dkappa1_N/dlam against a central difference on a benchmark table, and
    # at a double eigenvalue of K_N (h = 0: rows G_0^2 = G_1^2, G_0 G_1 = 0,
    # equal slip), where the right derivative, the top eigenvalue of
    # dK_N/dlam, is taken; Newton's crossing there meets the bracketed one
    problem = ModeProblem(k=1.0, mu=0.3, slip=SlipPair(0.5, 3.0))
    kappa1, _ = _discrete_kappa1(problem, basis64)
    for lam in (0.0, 0.1, 1.0, 10.0):
        lo, hi = max(lam - 1e-6 * max(lam, 1.0), 0.0), lam + 1e-6 * max(lam, 1.0)
        quotient = (kappa1(hi) - kappa1(lo)) / (hi - lo)
        value, slope = kappa1(lam, slope=True)
        assert value == kappa1(lam)
        assert abs(slope - quotient) <= 1e-6 * abs(slope), lam
    basis = build_basis(8)
    sigma = np.array([0.5, 1.0, 2.0])
    squares = np.array([1.0, 2.0, 1.0])
    basis.table(1.0).__dict__["slip"] = (sigma, np.stack([squares, squares, np.zeros(3)]))
    double = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(2.0, 2.0))
    kappa1, _ = _discrete_kappa1(double, basis)
    for lam in (0.0, 0.7):
        value, slope = kappa1(lam, slope=True)
        exact = -2.0 * np.sum(squares * sigma / (lam * sigma + 0.5) ** 2)
        assert value == 2.0 * np.sum(squares / (lam * sigma + 0.5))
        assert abs(slope - exact) <= 1e-14 * abs(exact)
    ref, _ = _bracketed_crossing(kappa1, double.mu * double.k ** 2)
    assert abs(lambda1_variational(double, basis) - ref) <= 1e-14 * ref


def test_newton_crossing_meets_the_half_space_law():
    # where tanh k and coth k are 1 to roundoff, each wall's slip mode is
    # that of a half-space, and kappa = 1 reads lambda = xi (xi / mu - 2 k):
    # at mu = 0.02, xi = 1, k = 16 .. 24 the crossing runs from lambda = 18
    # down to 2 (the CI's dispersion check; measured 2.0e-12 relative)
    basis = build_basis(64)
    for k in range(16, 25):
        lam = lambda1_variational(ModeProblem(k=float(k), mu=0.02, slip=SlipPair(1.0, 1.0)), basis)
        assert abs(lam - (50.0 - 2.0 * k)) <= 1e-10 * (50.0 - 2.0 * k), k


def test_a_table_dies_with_its_basis():
    from slipflow.critical import mu_c_variational

    basis = build_basis(32)
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    solve_spectrum(assemble(problem, basis))
    lambda1_variational(problem, basis)
    mu_c_variational(problem.k, problem.slip, basis)
    refs = [weakref.ref(basis), weakref.ref(basis.table(1.0)), weakref.ref(basis.table(1.0).energy)]
    del basis
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_warm_table_gives_the_bits_of_a_fresh_one():
    from slipflow.critical import mu_c_variational

    problem = ModeProblem(k=1.0, mu=0.3, slip=SlipPair(1.0, 2.0))
    warm = build_basis(48)
    for k in np.linspace(0.25, 5.0, 20):
        other = ModeProblem(k=float(k), mu=0.3, slip=problem.slip)
        solve_spectrum(assemble(other, warm))
        lambda1_variational(other, warm)
    assert len(warm._tables) == 20
    results = []
    for basis in (warm, build_basis(48)):
        spec = solve_spectrum(assemble(problem, basis))
        results.append((spec.eigenvalues, spec.coefficients, lambda1_variational(problem, basis),
                        mu_c_variational(problem.k, problem.slip, basis)))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_leading_eigenvalues_do_not_fall_as_the_basis_grows():
    # Rayleigh-Ritz on nested trial spaces: the j-th Galerkin eigenvalue does
    # not decrease with N, up to the roundoff of the whitened pencil, here
    # 20 eps ||W||_2 with ||W||_2 the largest |eigenvalue|; one basis per N
    # serves the three cases
    from slipflow.critical import mu_c_closed_form

    cases = [(0.5, (1.0, 1.0), 0.1), (4.0, (0.0, 3.0), 0.01), (16.0, (10.0, 0.1), 0.5)]
    problems = [ModeProblem(k=k, mu=f * mu_c_closed_form(k, SlipPair(*xi)), slip=SlipPair(*xi))
                for k, xi, f in cases]
    eps = np.finfo(float).eps
    previous = [None] * len(problems)
    for n in (32, 48, 64, 96, 128, 256):
        basis = build_basis(n)
        for i, problem in enumerate(problems):
            lams = solve_spectrum(assemble(problem, basis)).eigenvalues
            scale = np.abs(lams).max()
            if previous[i] is not None:
                fall = previous[i][0] - lams[:4]
                assert np.all(fall <= 20.0 * eps * max(scale, previous[i][1])), (n, problem)
            previous[i] = (lams[:4], scale)


def _lu_refined(B, A, lams, V, count):
    """Reference: one LU inverse-iteration / Rayleigh-quotient step per leading pair."""
    lams, V = lams.copy(), V.copy()
    for j in range(min(count, lams.size)):
        v = V[:, j]
        Av = A @ v
        y = np.linalg.solve(B - lams[j] * A, Av)
        y = y / math.sqrt(y @ (A @ y))
        lam = float(y @ (B @ y))
        if np.linalg.norm(B @ y - lam * (A @ y)) < np.linalg.norm(B @ v - lams[j] * Av):
            lams[j], V[:, j] = lam, y if y @ Av >= 0.0 else -y
    order = np.argsort(-lams, kind="stable")
    return lams[order], V[:, order]


@pytest.mark.parametrize("k", BENCHMARK_KS)
@pytest.mark.parametrize("xi", BENCHMARK_SLIPS)
def test_refinement_matches_lu_inverse_iteration_on_benchmark_grid(k, xi, basis48):
    # the stacked step through the dense eigenbasis against one LU solve per
    # pair: residuals within 1.5x, eigenvalues to 1e-12 relative or, when an
    # eigenvalue is small beside the pencil, to the roundoff of one Rayleigh
    # quotient, eps |v|^T |B| |v|, which either path carries
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    mu_c = mu_c_closed_form(k, slip)
    for f in BENCHMARK_FRACTIONS:
        problem = ModeProblem(k=k, mu=f * mu_c, slip=slip)
        spec = solve_spectrum(assemble(problem, basis48))
        n = resolved_count(spec)
        B, A = _pencil_forms(problem, basis48)
        lams, V = _lu_refined(B, A, *solve_generalized_symmetric(B, A), n)
        reference = Spectrum(problem, lams, V, int(np.count_nonzero(lams > 0.0)), basis48)
        strong = spectrum_residuals(spec)[0][:n]
        assert np.all(strong <= 1.5 * spectrum_residuals(reference)[0][:n]), f
        assert spec.positive_count == reference.positive_count
        pos = slice(reference.positive_count)
        absV = np.abs(V[:, pos])
        roundoff = np.finfo(float).eps * np.einsum("ij,ij->j", absV, np.abs(B) @ absV)
        gap = np.abs(spec.eigenvalues[pos] - lams[pos])
        assert np.all(gap <= np.maximum(1e-12 * np.abs(lams[pos]), roundoff)), f


def test_refinement_keeps_exactly_tied_pairs_without_warning():
    # (diag, I) with exact eigenvalues, so equal entries are exact ties, and
    # vectors off by 1e-7; the refinement writes into the arrays it is
    # given, so it gets copies and the originals stay the reference
    lams = np.array([5.0, 5.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0])
    V = np.eye(8) + 1e-7 * np.random.default_rng(3).standard_normal((8, 8))
    B = np.diag(lams)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refined, W = _refine_leading_pairs(B, np.eye(8), lams.copy(), V.copy(), 4)
    # the tie w_0 = w_1 is skipped: each tied pair is corrected outside its
    # eigenspace, span(e_0, e_1), and not against its partner
    assert np.abs(refined[:2] - 5.0).max() <= 4.0 * np.finfo(float).eps * 5.0
    assert np.abs(W[2:, :2]).max() <= 1e-12
    # the untied pairs are corrected to far below the perturbation, signs kept
    residual = np.linalg.norm(B @ W[:, 2:4] - W[:, 2:4] * refined[2:4], axis=0)
    assert residual.max() <= 1e-12
    assert np.all(np.einsum("ij,ij->j", W[:, :4], V[:, :4]) > 0.0)


def test_refinement_keeps_a_pair_whose_residual_does_not_fall():
    # pair 0 leans 1e-6 towards e_1, and pair 1 states 3.75 for the eigenvalue
    # 3: the correction of pair 0 divides by the wrong gap and triples its
    # residual, so pair 0 stays; pair 1's own correction lowers its residual
    eps = 1e-6
    lams = np.array([4.0, 3.75, 2.0, 1.0])
    V = np.eye(4)
    V[1, 0] = eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refined, W = _refine_leading_pairs(np.diag([4.0, 3.0, 2.0, 1.0]), np.eye(4), lams.copy(),
                                           V.copy(), 2)
    assert refined[0] == lams[0]
    assert np.array_equal(W[:, 0], V[:, 0])
    assert abs(refined[1] - 3.0) <= 1e-10


@pytest.mark.parametrize("n", (48, 64, 96))
@pytest.mark.parametrize("fraction", (0.5, 0.999))
def test_coinciding_branches_stay_a_orthogonal(n, fraction):
    # at equal slip and k = 16 the even and odd branches coincide to
    # e^(-2k): the refinement corrects neither against the other, so the
    # resolved pairs stay A-normalized and A-orthogonal (at most 1.7e-14
    # and 5.3e-15 measured); dividing by their near-zero gap read 1.37e-7
    # at N = 48, mu = 0.5 mu_c, and 1.8e-9 at N = 96, mu = 0.999 mu_c
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(1.0, 1.0)
    problem = ModeProblem(k=16.0, mu=fraction * mu_c_closed_form(16.0, slip), slip=slip)
    spec = solve_spectrum(assemble(problem, build_basis(n)))
    assert spec.eigenvalues[0] - spec.eigenvalues[1] <= 1e-12 * np.abs(spec.eigenvalues).max()
    norm, orthogonality = gram_defects(spec, resolved_count(spec))
    assert norm <= 1e-10 and orthogonality <= 1e-10


def test_solve_spectrum_factors_no_shifted_pencil(basis64, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the refinement factored a shifted pencil")

    monkeypatch.setattr("numpy.linalg.solve", forbidden)
    monkeypatch.setattr("scipy.linalg.lu_factor", forbidden)
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    spectrum = solve_spectrum(assemble(problem, basis64))
    n_gal, n_oracle, rel, _ = oracle_counts(spectrum)
    assert n_gal == n_oracle >= 1
    assert rel <= 1e-8


@pytest.mark.parametrize("k", BENCHMARK_KS)
@pytest.mark.parametrize("xi", BENCHMARK_SLIPS)
def test_lambda1_variational_matches_pencil_on_benchmark_grid(k, xi, basis48, basis64, basis96):
    # the worst gap to the refined dense lambda_1 reads 2.4e-12, 2.7e-12 and
    # 8.0e-12 at N = 48, 64 and 96 (the Lanczos reference: 1.3e-10 to 4.9e-10)
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    mu_c = mu_c_closed_form(k, slip)
    for basis in (basis48, basis64, basis96):
        for f in BENCHMARK_FRACTIONS:
            problem = ModeProblem(k=k, mu=f * mu_c, slip=slip)
            lam_g = solve_spectrum(assemble(problem, basis)).lambda1
            lam_v = lambda1_variational(problem, basis)
            assert abs(lam_v - lam_g) <= 1e-10 * abs(lam_g), (basis.size, f)


@pytest.mark.parametrize("k", [0.5, 4.0])
@pytest.mark.parametrize("xi", BENCHMARK_SLIPS + ((0.0, 0.0),))
def test_lambda1_variational_matches_pencil_when_stable(k, xi, basis64):
    # above mu_c lambda_1 < 0 lies in (-mu / sigma_max, 0], and with no slip
    # it is -mu / sigma_max itself
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    mu_c = mu_c_closed_form(k, slip) if slip.total else 0.5
    for f in (1.1, 2.0, 10.0):
        problem = ModeProblem(k=k, mu=f * mu_c, slip=slip)
        lam_g = solve_spectrum(assemble(problem, basis64)).lambda1
        assert lam_g < 0.0
        lam_v = lambda1_variational(problem, basis64)
        assert abs(lam_v - lam_g) <= 1e-10 * abs(lam_g), f


@pytest.fixture(scope="module")
def basis96():
    return build_basis(96)


@pytest.mark.parametrize("k", [0.05, 0.5])
@pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 3.0), (10.0, 0.1)])
def test_lambda1_variational_keeps_digits_near_mu_c(k, xi, basis96):
    # just below mu_c, lambda_1 is small beside the pencil; the K_N crossing
    # keeps it to 1e-10 relative, and the ignored seed changes no bit
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    problem = ModeProblem(k=k, mu=0.999 * mu_c_closed_form(k, slip), slip=slip)
    lam_g = solve_spectrum(assemble(problem, basis96)).lambda1
    lam_v = lambda1_variational(problem, basis96)
    assert abs(lam_v - lam_g) <= 1e-10 * abs(lam_g)
    assert all(lambda1_variational(problem, basis96, seed=seed) == lam_v for seed in (1, 11))


@pytest.mark.parametrize("k", [0.05, 0.5])
@pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 3.0), (10.0, 0.1)])
def test_lanczos_reference_keeps_digits_near_mu_c(k, xi, basis96):
    # just below mu_c, lambda_1 is small beside the spread of the whitened
    # operator, so the tridiagonal eigenvalue must keep digits on the
    # eigenvalue's own scale; the mismatch depends on the random start, so
    # several start seeds are held to it
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    problem = ModeProblem(k=k, mu=0.999 * mu_c_closed_form(k, slip), slip=slip)
    lam_g = solve_spectrum(assemble(problem, basis96)).lambda1
    for seed in (0, 1, 2, 3, 11):
        lam_v = lanczos_lambda1(problem, basis96, seed=seed)
        assert abs(lam_v - lam_g) <= 1e-8 * abs(lam_g), seed


def test_discrete_operator_lies_below_the_exact_one_at_every_oracle_root(basis48, basis64,
                                                                        basis96):
    # K_N is the Galerkin restriction of K, so kappa1_N <= kappa_1.  Over the
    # benchmark grid the largest kappa1_N - kappa_1 at a root reads 8.1e-11,
    # at kappa_1 = 100 (k = 4, xi = (10, 0.1), mu = 1e-3 mu_c, N = 64, the
    # second root), and at most 1.2e-12 relative to kappa_1: roundoff, which
    # 2e-11 kappa_1 bounds on other BLAS builds too.  mu kappa1_N(0) is the
    # mu_c quotient, read through another factor product (1.3e-15 apart)
    from slipflow.critical import mu_c_closed_form, mu_c_variational

    roots = 0
    for basis in (basis48, basis64, basis96):
        for k in BENCHMARK_KS:
            for xi in BENCHMARK_SLIPS:
                slip = SlipPair(*xi)
                mu_c = mu_c_closed_form(k, slip)
                for f in BENCHMARK_FRACTIONS:
                    problem = ModeProblem(k=k, mu=f * mu_c, slip=slip)
                    kappa1_n, _ = _discrete_kappa1(problem, basis)
                    for root in determinant_roots(problem).roots:
                        kappa1 = operator_eigenvalues(root, problem)[0]
                        assert kappa1_n(root) - kappa1 <= 2e-11 * kappa1, (basis.size, k, xi, f)
                        roots += 1
                    mu_v = mu_c_variational(k, slip, basis)
                    assert abs(problem.mu * kappa1_n(0.0) - mu_v) <= 1e-14 * mu_v
    assert roots == 294


class _StartAt:
    """A generator whose first draw is ``start``; later draws are random."""

    def __init__(self, start):
        self.start = np.array(start, dtype=float)
        self.rng = np.random.default_rng(0)
        self.draws = 0

    def standard_normal(self, n):
        self.draws += 1
        return self.start if self.draws == 1 else self.rng.standard_normal(n)


def test_lanczos_restarts_from_an_eigenvector_of_a_repeated_eigenvalue():
    # e_2 spans an invariant subspace of diag(5, 1, ..., 1): the first step
    # breaks down, and the restarts must still reach the eigenvalue 5
    n = 40
    start = np.zeros(n)
    start[1] = 1.0
    rng = _StartAt(start)
    top = _lanczos_top_eigenvalue(np.diag([5.0] + [1.0] * (n - 1)), rng)
    assert abs(top - 5.0) <= 1e-14 * 5.0
    assert rng.draws > 2


def test_lanczos_restarts_from_a_repeated_eigenspace():
    # the start lies in the eigenspace of the double eigenvalue 3, which is
    # invariant: one restart must reach the eigenvalue 7
    n = 40
    X = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))[0]
    lam = np.concatenate([[7.0, 3.0, 3.0], np.linspace(-2.0, 2.0, n - 3)])
    W = (X * lam) @ X.T
    rng = _StartAt(X[:, 1] + 2.0 * X[:, 2])
    top = _lanczos_top_eigenvalue(0.5 * (W + W.T), rng)
    assert abs(top - 7.0) <= 1e-14 * 7.0
    assert rng.draws == 2


def test_find_root_bracketed_is_scipy_brentq_on_the_benchmark_grid(basis48, monkeypatch):
    # every determinant root of the benchmark grid and every escape time
    from scipy.optimize import brentq

    from slipflow.critical import mu_c_closed_form
    from slipflow.modes import build_packet, escape_time
    from slipflow.numerics import find_root_bracketed

    roots = []

    def checked(f, lo, hi, tol=1e-12):
        root = find_root_bracketed(f, lo, hi, tol)
        assert root == brentq(f, lo, hi, xtol=tol)
        roots.append(root)
        return root

    monkeypatch.setattr("slipflow.spectrum.find_root_bracketed", checked)
    monkeypatch.setattr("slipflow.modes.find_root_bracketed", checked)
    for k in BENCHMARK_KS:
        for xi in BENCHMARK_SLIPS:
            slip = SlipPair(*xi)
            mu_c = mu_c_closed_form(k, slip)
            for f in BENCHMARK_FRACTIONS:
                determinant_roots(ModeProblem(k=k, mu=f * mu_c, slip=slip))
    count = len(roots)
    assert count == 98
    for mu in (0.5, 0.1):
        problem = ModeProblem(k=1.0, mu=mu, slip=SlipPair(1.0, 1.0))
        packet = build_packet(solve_spectrum(assemble(problem, basis48)))
        for delta in (1e-3, 1e-5, 1e-7):
            escape_time(packet, delta, 2e-2)
    assert len(roots) == count + 6


def test_characteristic_determinant_requires_positive_lambda():
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    with pytest.raises(ValueError):
        characteristic_determinant(0.0, problem)
    with pytest.raises(ValueError):
        characteristic_determinant(-0.1, problem)


def test_determinant_sign_change_at_root(basis64):
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    lam1 = solve_spectrum(assemble(problem, basis64)).lambda1
    below = characteristic_determinant(0.9 * lam1, problem)
    above = characteristic_determinant(1.1 * lam1, problem)
    assert below * above < 0.0


OPERATOR_SLIPS = ((1.0, 1.0), (0.0, 3.0), (10.0, 0.1), (0.5, 3.0))


# k -> mu_c(k) for each slip pair of OPERATOR_SLIPS, rounded to doubles from a
# 50-digit mpmath 1.3.0 evaluation (mp.dps = 50) of the textbook closed form
#   mu_c = [(sinh2k cosh2k - 2k) sig + sqrt((sinh2k - 2k cosh2k)^2 sig^2
#           + sinh^2(2k) (sinh^2(2k) - 4k^2) dif^2)] / (4 k sinh^2(2k)),
# sig = xi_+ + xi_-, dif = xi_+ - xi_-.  The k near 0.04 are where a series
# and the direct formula used to meet.
MU_C_REFERENCE = {
    0.001: (0.9999993333337334, 1.999998933333943, 6.683455381185643, 2.094626204828974),
    0.0376: (0.9990582922107111, 1.9984932066812156, 6.678404743712744, 2.092947866625017),
    0.039: (0.9989869246173829, 1.9983790089543785, 6.678021692646877, 2.0928205812031915),
    0.041: (0.9988804626131864, 1.998208654159092, 6.6774502752862945, 2.0926307037330103),
    0.05: (0.9983358299645837, 1.9973371377841833, 6.674526970640385, 2.091659328980326),
    0.5: (0.8553410237429735, 1.7669208735990625, 5.901879290138492, 1.8359633683566587),
    4.0: (0.12558663780889634, 0.37499873397899, 1.2499960584271894, 0.3750003882441095),
    16.0: (0.031250000000024536, 0.09375, 0.3125, 0.09375),
    60.0: (0.008333333333333333, 0.025, 0.08333333333333333, 0.025),
    300.0: (0.0016666666666666668, 0.005, 0.016666666666666666, 0.005),
}


@pytest.mark.parametrize("k", MU_C_REFERENCE)
def test_operator_at_zero_gives_mu_c(k):
    from slipflow.critical import mu_c_closed_form

    for xi, ref in zip(OPERATOR_SLIPS, MU_C_REFERENCE[k]):
        slip = SlipPair(*xi)
        assert abs(mu_c_closed_form(k, slip) - ref) <= 2e-15 * ref, xi
        problem = ModeProblem(k=k, mu=0.5 * ref, slip=slip)
        kappa1, kappa2 = operator_eigenvalues(0.0, problem)
        assert abs(problem.mu * kappa1 - ref) <= 2e-15 * ref, xi
        assert 0.0 <= kappa2 <= kappa1


@pytest.mark.parametrize("k", BENCHMARK_KS)
def test_operator_branches_do_not_increase(k):
    from slipflow.critical import mu_c_closed_form

    for xi in OPERATOR_SLIPS:
        slip = SlipPair(*xi)
        problem = ModeProblem(k=k, mu=0.1 * mu_c_closed_form(k, slip), slip=slip)
        grid = np.concatenate(([0.0], np.geomspace(1e-10, 1e8, 400) * problem.mu * k * k))
        kappa = np.array([operator_eigenvalues(lam, problem) for lam in grid])
        # nonincreasing up to roundoff, which reaches 1e-13 relative at k = 0.05
        assert np.all(np.diff(kappa, axis=0) <= 1e-12 * kappa[:-1]), xi
        assert kappa[0, 0] > 1.0 > kappa[-1, 0]  # the leading branch crosses 1 on the grid
        assert np.all(kappa[:, 0] >= kappa[:, 1])


# (k, lam / (mu k^2), e, o) at mu = 0.5, from a 50-digit mpmath evaluation of
# e = (m tanh m - k tanh k)/lam and o = (m coth m - k coth k)/lam, or of
# their lam -> 0 limits (h'(k) / (2 k mu), h = x tanh x or x coth x)
WALL_RESPONSES_MU = 0.5
WALL_RESPONSES = (
    (0.0001, 0.0, 1.9999999866666667, 0.6666666657777778),
    (0.0001, 0.01, 1.9999999866, 0.6666666657733333),
    (0.0001, 1.0, 1.9999999800000001, 0.6666666653333333),
    (0.0001, 100.0, 1.9999993200002748, 0.6666666213333377),
    (0.0001, 10000.0, 1.9999333226673588, 0.6666622213756737),
    (0.001, 0.0, 1.9999986666674667, 0.6666665777777905),
    (0.001, 0.01, 1.999998660000808, 0.6666665773333461),
    (0.001, 1.0, 1.9999980000018667, 0.666666533333363),
    (0.001, 100.0, 1.9999320027473544, 0.6666621333769435),
    (0.001, 10000.0, 1.9933585671236196, 0.666222556317731),
    (0.01, 0.0, 1.999866674666235, 0.6666577779047602),
    (0.01, 0.01, 1.9998660080798285, 0.6666577334615899),
    (0.01, 1.0, 1.9998000186650478, 0.6666533336296233),
    (0.01, 100.0, 1.9932273628053319, 0.6662137689991351),
    (0.01, 10000.0, 1.523106472974456, 0.6260628017997425),
    (0.05, 0.0, 1.9966716599291674, 0.6664445237830772),
    (0.05, 0.01, 1.9966550433274728, 0.666443413467863),
    (0.05, 1.0, 1.995011641421904, 0.666333518419364),
    (0.05, 100.0, 1.8455795804177657, 0.6555991883272639),
    (0.05, 10000.0, 0.3997838640436008, 0.3199896491931317),
    (0.5, 0.0, 1.710682047485947, 0.6452124506461364),
    (0.5, 0.01, 1.7094301360878743, 0.6451089192692212),
    (0.5, 1.0, 1.5957600572821515, 0.6350909028870969),
    (0.5, 100.0, 0.3834756148228424, 0.3154716150265256),
    (0.5, 10000.0, 0.039817153087098496, 0.03913641858450704),
)


@pytest.mark.parametrize("k,ratio,even,odd", WALL_RESPONSES)
def test_wall_responses_against_extended_precision(k, ratio, even, odd):
    from slipflow.spectrum import _wall_responses

    lam = ratio * WALL_RESPONSES_MU * k * k
    e, o = _wall_responses(lam, k, WALL_RESPONSES_MU)
    assert abs(e - even) <= 1e-13 * even
    assert abs(o - odd) <= 1e-13 * odd


@pytest.mark.parametrize("k", BENCHMARK_KS)
@pytest.mark.parametrize("xi", BENCHMARK_SLIPS + ((0.5, 3.0),))
def test_root_count_is_branches_above_one(k, xi):
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    mu_c = mu_c_closed_form(k, slip)
    for f in BENCHMARK_FRACTIONS + (1.1,):
        problem = ModeProblem(k=k, mu=f * mu_c, slip=slip)
        trace = determinant_roots(problem)
        above = sum(kappa > 1.0 for kappa in operator_eigenvalues(0.0, problem))
        assert trace.roots.size == above <= 2, f
        assert np.all(trace.roots > 0.0) and np.all(np.diff(trace.roots) >= 0.0)


@pytest.mark.parametrize("k,expected", [(4.0, (7.93333116, 7.91717832)), (16.0, (32.0, 32.0))])
def test_equal_slip_pairs_match_galerkin(k, expected, basis96):
    # the two rates of an equal-slip pair lie closer than any scan cell
    # (at k = 16 they coincide to roundoff); each branch has its own root
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(1.0, 1.0)
    problem = ModeProblem(k=k, mu=0.5 * mu_c_closed_form(k, slip), slip=slip)
    roots = determinant_roots(problem).roots[::-1]
    assert roots == pytest.approx(expected, rel=1e-8)
    spectrum = solve_spectrum(assemble(problem, basis96))
    n_gal, n_oracle, rel, _ = oracle_counts(spectrum)
    assert n_gal == n_oracle == 2
    assert rel <= 1e-8


@pytest.fixture(scope="module")
def basis256():
    return build_basis(256)


@pytest.mark.parametrize("k", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("xi", BENCHMARK_SLIPS)
def test_leading_root_far_below_mu_c_matches_galerkin(k, xi, basis256):
    # at mu = 1e-3 mu_c the leading rate is 1e6 times mu k^2 or more
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    problem = ModeProblem(k=k, mu=1e-3 * mu_c_closed_form(k, slip), slip=slip)
    top = determinant_roots(problem).roots[-1]
    lam1 = solve_spectrum(assemble(problem, basis256)).lambda1
    assert abs(top - lam1) <= 1e-9 * top


def test_marginal_branch_gives_no_root():
    # here mu_c2 / mu = 1 - 5e-15: the second branch starts at 1 to roundoff,
    # and the Galerkin count of the matching eigenvalue flips with N
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(10.0, 0.1)
    problem = ModeProblem(k=16.0, mu=0.01 * mu_c_closed_form(16.0, slip), slip=slip)
    trace = determinant_roots(problem)
    assert trace.marginal == 1
    assert trace.roots.size == 1
    kappa2 = operator_eigenvalues(0.0, problem)[1]
    assert abs(kappa2 - 1.0) < 1e-8


@pytest.mark.parametrize("size, resolved", [(256, True), (64, False)])
def test_marginal_positive_is_excused(size, resolved):
    # the marginal branch's Galerkin eigenvalue, about 1e-12, is a second
    # positive beside the one root: excused, not a count mismatch, at every
    # basis size; the top rate meets the root only on the resolving basis
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(10.0, 0.1)
    problem = ModeProblem(k=16.0, mu=0.01 * mu_c_closed_form(16.0, slip), slip=slip)
    spectrum = solve_spectrum(assemble(problem, build_basis(size)))
    n_gal, n_oracle, rel, excused = oracle_counts(spectrum)
    assert (n_gal, n_oracle, excused) == (2, 1, 1)
    assert abs(spectrum.eigenvalues[1]) < 1e-10
    assert (rel <= 1e-8) == resolved


"""Wall-clamped Chebyshev basis, quadratic forms, and the pencil solver."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.chebyshev as C
import pytest

from conftest import exact_chebder, lopsided_basis
from slipflow.model import ModeProblem, SlipPair
from slipflow.modes import build_packet
from slipflow.numerics import (
    BracketError,
    NonSymmetricError,
    MAX_DERIVATIVE,
    NotPositiveDefiniteError,
    _basis_series,
    _fix_signs,
    _lower_inverse,
    _wall_signs,
    boundary_form,
    build_basis,
    chebder_map,
    find_root_bracketed,
    inverse_cholesky,
    slip_defects,
    solve_generalized_symmetric,
    wall_values,
)
from slipflow.spectrum import assemble, resolved_count, solve_spectrum


def test_basis_vanishes_at_walls(basis32):
    assert np.abs(basis32.wall_tables[0]).max() < 1e-13


def test_basis_derivative_tables_match_chebder(basis32):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(basis32.size)
    series = c @ basis32.cheb_coeffs
    for d in (1, 2, 3):
        direct = C.chebval(basis32.quad_nodes, C.chebder(series, d))
        table = basis32.node_tables[d] @ c
        assert np.allclose(table, direct, rtol=1e-10, atol=1e-8)


def test_basis_series_are_exact_chebyshev_derivatives():
    # exact rationals: phi_j = (T_0 - T_2) / 2 * T_j by the product rule
    # T_a T_b = (T_(a+b) + T_|a-b|) / 2, then the downward recurrence
    N = 96
    series = list(_basis_series(N))
    for j in range(N):
        exact = [Fraction(0)] * (N + 2)
        for a, c in ((0, Fraction(1, 2)), (2, Fraction(-1, 2))):
            exact[a + j] += c / 2
            exact[abs(a - j)] += c / 2
        for d in range(MAX_DERIVATIVE + 1):
            assert [Fraction(v) for v in series[d][j]] == exact, (j, d)
            exact = exact_chebder(exact)


def test_chebder_map_is_cached_read_only_and_nested():
    # the basis differentiates every order with leading blocks of one map
    D = chebder_map(7)
    assert D.shape == (6, 7) and D is chebder_map(7)
    assert not D.flags.writeable
    assert np.array_equal(chebder_map(98)[:6, :7], D)


@pytest.mark.parametrize("k", [0.05, 1.0, 16.0])
@pytest.mark.parametrize("lopsided", [False, True], ids=["basis", "lopsided"])
def test_forms_equal_their_quadrature_sums(k, lopsided, basis48):
    # the forms at k from the basis's Gram blocks against the weighted
    # quadrature sum of each form's own integrand at that k
    basis = lopsided_basis(basis48) if lopsided else basis48
    w = basis.quad_weights[:, None]

    def quadrature(*terms):
        return sum(c * (basis.node_tables[d] * w).T @ basis.node_tables[d] for d, c in terms)

    for got, want in (
        (basis.table(k).gram, quadrature((1, 1.0), (0, k * k))),
        (basis.table(k).energy, quadrature((2, 1.0), (1, 2.0 * k * k), (0, k ** 4))),
    ):
        assert got.shape == (basis.size, basis.size)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert all(not G.flags.writeable for G in basis.gram_blocks)


def test_quadrature_exact_for_polynomials(basis32):
    vals = basis32.quad_nodes ** 6
    assert abs(basis32.quad_weights @ vals - 2.0 / 7.0) < 1e-14


def test_first_basis_function_is_parabola(basis32):
    c = np.zeros(basis32.size)
    c[0] = 1.0
    f = np.polynomial.Chebyshev(c @ basis32.cheb_coeffs)
    x = np.array([-0.5, 0.0, 0.5])
    assert np.allclose(f(x), 1.0 - x ** 2, atol=1e-14)
    assert np.allclose(f.deriv()(x), -2.0 * x, atol=1e-13)


def test_build_basis_validates_size():
    with pytest.raises(ValueError):
        build_basis(3)


def test_generalized_eig_against_residuals():
    rng = np.random.default_rng(7)
    n = 12
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    S = rng.standard_normal((n, n))
    B = 0.5 * (S + S.T)
    w, V = solve_generalized_symmetric(B, A)
    assert np.all(np.diff(w) <= 0)
    R = B @ V - A @ V * w
    assert np.abs(R).max() < 1e-10
    G = V.T @ A @ V
    assert np.abs(G - np.eye(n)).max() < 1e-10


def test_generalized_eig_rejects_bad_input():
    with pytest.raises(NonSymmetricError):
        solve_generalized_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        solve_generalized_symmetric(np.eye(2), -np.eye(2))
    with pytest.raises(ValueError):
        solve_generalized_symmetric(np.eye(3), np.eye(2))


def test_generalized_eig_factors_the_mass_side_once(monkeypatch):
    # the dense solve of one pencil factors its read-only Gram form A once;
    # lambda_1 of the discrete slip operator factors the read-only energy
    # form E once, and the mu_c quotient of the same wavenumber reuses it
    from slipflow.critical import mu_c_variational
    from slipflow.spectrum import lambda1_variational

    calls = []
    cholesky = np.linalg.cholesky

    def counted(A):
        calls.append(A)
        return cholesky(A)

    monkeypatch.setattr("numpy.linalg.cholesky", counted)
    w, _ = solve_generalized_symmetric(np.diag([3.0, 1.0]), np.diag([1.0, 2.0]))
    assert np.allclose(w, [3.0, 0.5], rtol=1e-15, atol=0.0)
    assert len(calls) == 1
    calls.clear()
    basis = build_basis(20)  # a fresh basis: its forms are not cached yet
    problem = ModeProblem(k=0.7, mu=0.3, slip=SlipPair(1.0, 2.0))
    pencil = assemble(problem, basis)
    lam_g = solve_spectrum(pencil).lambda1
    assert len(calls) == 1 and calls[0] is pencil.A
    lam_v = lambda1_variational(problem, basis)
    mu_c_variational(problem.k, problem.slip, basis)
    assert len(calls) == 2 and calls[1] is basis.table(problem.k).energy
    assert abs(lam_v - lam_g) <= 1e-10 * abs(lam_g)
    monkeypatch.undo()

    # a failure of the eigensolver itself is not a mass-side failure
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr("numpy.linalg.eigh", no_convergence)
    with pytest.raises(np.linalg.LinAlgError) as info:
        solve_generalized_symmetric(np.eye(2), np.eye(2))
    assert not isinstance(info.value, NotPositiveDefiniteError)


@pytest.mark.parametrize("N", [20, 48, 65, 96])
def test_lower_inverse_matches_a_triangular_solve(N):
    # the blocked inverse against LAPACK's triangular solve, on the Cholesky
    # factors of the two forms the package inverts
    from scipy.linalg import solve_triangular

    basis = build_basis(N)
    for form in (basis.table(0.05).gram, basis.table(0.05).energy):
        L = np.linalg.cholesky(form)
        inv = _lower_inverse(L)
        assert np.array_equal(inv, np.tril(inv))
        ref = solve_triangular(L, np.eye(N), lower=True)
        assert np.abs(inv - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(inv @ L - np.eye(N)).max() <= 1e-13


def test_inverse_cholesky_is_cached_for_read_only_forms_only():
    # the basis's table serves one factor per form; inverse_cholesky itself
    # keeps nothing, whatever array it is given
    basis = build_basis(12)
    table = basis.table(0.3)
    for form, factor in (("gram", "gram_factor"), ("energy", "energy_factor")):
        M, inv = getattr(table, form), getattr(table, factor)
        assert basis.table(0.3) is table and getattr(table, factor) is inv
        assert not M.flags.writeable and not inv.flags.writeable
        assert np.array_equal(inverse_cholesky(M), inv)
        assert np.abs(inv @ M @ inv.T - np.eye(12)).max() <= 1e-12 * np.abs(M).max()
    A = table.gram
    assert inverse_cholesky(A) is not inverse_cholesky(A)
    with pytest.raises(NotPositiveDefiniteError):
        inverse_cholesky(-np.eye(3))


def test_sign_convention_deterministic():
    B = np.diag([3.0, 2.0, 1.0])
    _, V = solve_generalized_symmetric(B, np.eye(3))
    assert np.array_equal(V, np.eye(3))
    _, again = solve_generalized_symmetric(B, np.eye(3))
    assert np.array_equal(V, again)


def test_fix_signs_matches_the_column_by_column_rule():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((12, 6))
    V[:3, 1] = 1.0e-12  # below the threshold: the first significant entry is row 3
    V[:, 2] = 0.0  # nothing significant: left as it is
    V[0, 4] = -0.0
    expected = np.array(V)
    for col in expected.T:
        big = np.abs(col) > 1e-8 * np.abs(col).max()
        if big.any() and col[np.argmax(big)] < 0:
            col[:] = -col
    assert _fix_signs(V).tobytes() == expected.tobytes()


def test_wall_values_match_chebval_on_stacked_complex_series():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((3, 2, 12)) + 1j * rng.standard_normal((3, 2, 12))
    minus, plus = wall_values(c)
    assert minus.shape == plus.shape == (3, 2)
    cols = np.moveaxis(c, -1, 0)
    assert np.allclose(minus, C.chebval(-1.0, cols), rtol=0.0, atol=1e-13)
    assert np.allclose(plus, C.chebval(1.0, cols), rtol=0.0, atol=1e-13)


def test_wall_values_share_one_read_only_sign_table():
    # the cached table gives the bits of the products with freshly built signs
    rng = np.random.default_rng(6)
    c = rng.standard_normal((2, 5, 17))
    got = wall_values(c)
    assert got.tobytes() == np.stack([c @ (-1.0) ** np.arange(17), c @ np.ones(17)]).tobytes()
    signs = _wall_signs(17)
    assert _wall_signs(17) is signs
    assert not signs.flags.writeable


class TestSlipDefectsFlagAWrongPair:
    """The slip condition is right for SlipPair(1, 1); a wrong xi at one wall
    shows up at that wall alone."""

    RIGHT = SlipPair(1.0, 1.0)

    @pytest.fixture(scope="class")
    def spectrum(self, basis48):
        return solve_spectrum(assemble(ModeProblem(k=1.0, mu=0.5, slip=self.RIGHT), basis48))

    def test_galerkin_eigenfunction_columns(self, spectrum):
        n = resolved_count(spectrum)
        dphi = C.chebder(spectrum.coefficients[:, :n].T @ spectrum.basis.cheb_coeffs, axis=1)
        assert slip_defects(dphi, 0.5, self.RIGHT).shape == (2, n)
        assert slip_defects(dphi, 0.5, self.RIGHT).max() < 1e-8
        minus, plus = slip_defects(dphi, 0.5, SlipPair(1.0, 2.0))
        assert minus.max() < 1e-8
        assert plus.max() > 1e-3

    def test_normal_mode_psi(self, spectrum):
        psi = build_packet(spectrum).modes[-1].psi.coef
        assert slip_defects(psi, 0.5, self.RIGHT).max() < 1e-8
        minus, plus = slip_defects(psi, 0.5, SlipPair(2.0, 1.0))
        assert minus > 1e-3
        assert plus < 1e-8


def test_boundary_form_rank_and_psd(basis32):
    R = boundary_form(SlipPair(1.0, 2.0), basis32)
    assert np.linalg.matrix_rank(R) <= 2
    assert np.linalg.eigvalsh(R).min() > -1e-12
    assert np.abs(boundary_form(SlipPair(0.0, 0.0), basis32)).max() == 0.0


def test_forms_closed_form_entries(basis32):
    # phi_0 = 1 - x^2: int phi'^2 = 8/3, int phi^2 = 16/15, int phi''^2 = 8
    k = 1.3
    A = basis32.table(k).gram
    E = basis32.table(k).energy
    assert abs(A[0, 0] - (8.0 / 3.0 + k ** 2 * 16.0 / 15.0)) < 1e-12
    assert abs(E[0, 0] - (8.0 + 2.0 * k ** 2 * 8.0 / 3.0 + k ** 4 * 16.0 / 15.0)) < 1e-11
    assert np.abs(A - A.T).max() == 0.0
    assert np.linalg.eigvalsh(A).min() > 0.0
    assert np.linalg.eigvalsh(E).min() > 0.0


def test_forms_are_cached_read_only_per_basis(basis32):
    for form in ("energy", "gram"):
        M = getattr(basis32.table(1.3), form)
        assert M is getattr(basis32.table(1.3), form)
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    # bases are keys by identity: an equal basis built twice is two keys
    first, second = build_basis(48), build_basis(48)
    assert first.table(1.3).energy is not second.table(1.3).energy
    assert np.array_equal(first.table(1.3).energy, second.table(1.3).energy)


def test_find_root_bracketed_refuses_nan_values():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        find_root_bracketed(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0)


def test_find_root_bracketed():
    root = find_root_bracketed(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < 1e-11
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x, 1.0, -1.0)


def test_find_root_exact_endpoint():
    assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

"""Galerkin spectrum against the shooting-determinant oracle."""

import numpy as np
import pytest
from conftest import standard_cases

from slipflow.model import ModeProblem, SlipPair
from slipflow.numerics import build_basis
from slipflow.spectrum import (
    assemble,
    characteristic_determinant,
    gram_defects,
    lambda1_variational,
    oracle_agreement,
    resolved_count,
    solve_spectrum,
    spectrum_residuals,
)


@pytest.mark.parametrize("k,mu,slip", standard_cases((0.5, 0.9)))
def test_positive_eigenvalues_match_oracle(k, mu, slip, basis64):
    spectrum = solve_spectrum(assemble(ModeProblem(k=k, mu=mu, slip=slip), basis64))
    n_gal, n_oracle, rel = oracle_agreement(spectrum)
    assert n_gal == n_oracle
    assert n_oracle >= 1
    assert rel <= 1e-8


@pytest.mark.parametrize("k,mu,slip", standard_cases((1.1,)))
def test_supercritical_cases_have_no_positive_eigenvalues(k, mu, slip, basis64):
    spectrum = solve_spectrum(assemble(ModeProblem(k=k, mu=mu, slip=slip), basis64))
    assert spectrum.lambda1 < 0.0
    assert oracle_agreement(spectrum)[:2] == (0, 0)


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


def test_lambda1_variational_matches_pencil(basis64):
    for k, mu, slip in standard_cases((0.5,)):
        problem = ModeProblem(k=k, mu=mu, slip=slip)
        lam_g = solve_spectrum(assemble(problem, basis64)).lambda1
        lam_v = lambda1_variational(problem, basis64)
        assert abs(lam_v - lam_g) <= 1e-8 * max(abs(lam_g), 1e-6)


def test_lambda1_variational_calls_no_dense_eigensolver(basis64, monkeypatch):
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    lam_g = solve_spectrum(assemble(problem, basis64)).lambda1

    def forbidden(*args, **kwargs):
        raise AssertionError("the Lanczos path reached a dense eigensolver")

    for target in (
        "scipy.linalg.eigh",
        "numpy.linalg.eigh",
        "slipflow.numerics.solve_generalized_symmetric",
        "slipflow.spectrum.solve_generalized_symmetric",
    ):
        monkeypatch.setattr(target, forbidden)
    lam_v = lambda1_variational(problem, basis64)
    assert abs(lam_v - lam_g) <= 1e-8 * abs(lam_g)


BENCHMARK_KS = (0.05, 0.5, 1.0, 4.0, 16.0)
BENCHMARK_SLIPS = ((1.0, 1.0), (0.0, 3.0), (10.0, 0.1))
BENCHMARK_FRACTIONS = (1.0e-3, 1.0e-2, 0.1, 0.5, 0.999)


@pytest.mark.parametrize("k", BENCHMARK_KS)
@pytest.mark.parametrize("xi", BENCHMARK_SLIPS)
def test_lambda1_variational_matches_pencil_on_benchmark_grid(k, xi, basis48):
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    mu_c = mu_c_closed_form(k, slip)
    for f in BENCHMARK_FRACTIONS:
        problem = ModeProblem(k=k, mu=f * mu_c, slip=slip)
        lam_g = solve_spectrum(assemble(problem, basis48)).lambda1
        lam_v = lambda1_variational(problem, basis48)
        assert abs(lam_v - lam_g) <= 1e-8 * max(abs(lam_g), 1e-6)


@pytest.fixture(scope="module")
def basis96():
    return build_basis(96)


@pytest.mark.parametrize("k", [0.05, 0.5])
@pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 3.0), (10.0, 0.1)])
def test_lambda1_variational_keeps_digits_near_mu_c(k, xi, basis96):
    # just below mu_c, lambda_1 is small beside the spread of the whitened
    # operator, so the tridiagonal bisection must stop on the eigenvalue's
    # own scale, not on a fraction of the Gershgorin bound
    from slipflow.critical import mu_c_closed_form

    slip = SlipPair(*xi)
    problem = ModeProblem(k=k, mu=0.999 * mu_c_closed_form(k, slip), slip=slip)
    lam_g = solve_spectrum(assemble(problem, basis96)).lambda1
    lam_v = lambda1_variational(problem, basis96)
    assert abs(lam_v - lam_g) <= 1e-8 * abs(lam_g)


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

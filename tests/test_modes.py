"""Normal-mode profiles, packets, growth envelopes, and escape times."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import standard_cases

from slipflow.model import LatticeSweep, ModeProblem, SlipPair, ValidationError
from slipflow.modes import (
    Grid2D,
    ModePacket,
    build_packet,
    compute_capital_lambda,
    default_epsilon0,
    escape_time,
    mode_residuals,
    modes_from_spectrum,
    packet_envelope_value,
    packet_l2_norm,
    packet_streamfunction_profile,
    reduced_packet,
    sample_field,
    sample_packet_field,
)
from slipflow.spectrum import (
    MARGINAL_TOL,
    assemble,
    lambda1_variational,
    operator_eigenvalues,
    solve_spectrum,
)

STD_SLIP = SlipPair(1.0, 1.0)


def _packet(basis, mu=0.5, k=1.0):
    spectrum = solve_spectrum(assemble(ModeProblem(k=k, mu=mu, slip=STD_SLIP), basis))
    return build_packet(spectrum)


def test_mode_triple_satisfies_the_system(basis48):
    """(psi, phi, pi) solve both momentum lines and the wall conditions."""
    problem = ModeProblem(k=1.0, mu=0.5, slip=SlipPair(0.5, 3.0))
    packet = build_packet(solve_spectrum(assemble(problem, basis48)))
    assert packet.count >= 1
    for mode in packet.modes:
        line1, line2, wall, slip = mode_residuals(mode)
        assert line1 <= 1e-7
        assert line2 <= 1e-7
        assert wall <= 1e-10
        assert slip <= 1e-8


def test_psi_is_minus_phi_prime_over_k(basis48):
    packet = _packet(basis48)
    mode = packet.modes[0]
    x = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(mode.psi(x), -mode.phi.deriv()(x) / 1.0, atol=1e-12)


def test_packet_ordering_and_top_lambda(basis48):
    packet = _packet(basis48, mu=0.1)
    assert packet.count >= 2
    lams = packet.lambdas
    assert np.all(np.diff(lams) > 0.0)
    assert packet.top_lambda == lams[-1]


def test_packet_requires_matching_problems(basis48):
    a = _packet(basis48, k=1.0).modes[0]
    b = _packet(basis48, k=2.0, mu=0.1).modes[0]
    with pytest.raises(ValueError):
        ModePacket(modes=(a, b), coefficients=np.ones(2))
    with pytest.raises(ValueError):
        ModePacket(modes=(a,), coefficients=np.ones(2))


def test_build_packet_coefficients(basis48):
    spectrum = solve_spectrum(assemble(ModeProblem(k=1.0, mu=0.1, slip=STD_SLIP), basis48))
    packet = build_packet(spectrum)
    assert np.all(packet.coefficients == 1.0)
    packet2 = ModePacket(modes=build_packet(spectrum, count=1).modes, coefficients=np.array([0.5]))
    assert packet2.count == 1
    assert packet2.coefficients[0] == 0.5
    # count=1 keeps the fastest mode
    assert packet2.modes[0].lam == packet.top_lambda


@pytest.mark.parametrize(
    "k,mu,slip", standard_cases() + [(1.0, 0.05, STD_SLIP), (1.0, 0.1, STD_SLIP)]
)
def test_packet_keeps_every_unstable_mode(k, mu, slip, basis48):
    # the rank <= 2 boundary form allows at most two unstable modes
    spectrum = solve_spectrum(assemble(ModeProblem(k=k, mu=mu, slip=slip), basis48))
    assert 1 <= spectrum.positive_count <= 2
    packet = build_packet(spectrum)
    assert packet.count == spectrum.positive_count
    assert np.array_equal(packet.lambdas, spectrum.eigenvalues[: packet.count][::-1])


@pytest.mark.parametrize("count", [0, -1])
def test_build_packet_refuses_a_count_below_one(basis48, count):
    spec = solve_spectrum(assemble(ModeProblem(k=1.0, mu=0.5, slip=SlipPair(1.0, 1.0)), basis48))
    with pytest.raises(ValidationError, match=f"count: must be >= 1, got {count}"):
        build_packet(spec, count=count)


def test_modes_from_spectrum_caps_at_positive_count(basis48):
    spectrum = solve_spectrum(assemble(ModeProblem(k=1.0, mu=0.5, slip=STD_SLIP), basis48))
    modes = modes_from_spectrum(spectrum, count=10)
    assert len(modes) == spectrum.positive_count == 1


def test_reduced_packet(basis48):
    packet = _packet(basis48, mu=0.1)
    reduced = reduced_packet(packet)
    assert reduced.count == packet.count - 1
    assert np.all(reduced.lambdas < packet.top_lambda)
    single = _packet(basis48, mu=0.5)
    assert reduced_packet(single).count == 0
    with pytest.raises(ValueError):
        reduced_packet(reduced_packet(single))


def test_packet_l2_norm_closed_form(basis48):
    # A-normalized modes make the packet L2 norm sqrt(pi L sum c^2) / k
    for mu, L in ((0.5, 1.0), (0.1, 1.0), (0.5, 2.0)):
        k = 1.0 / L
        spectrum = solve_spectrum(
            assemble(ModeProblem(k=k, mu=mu, slip=STD_SLIP), basis48)
        )
        packet = build_packet(spectrum)
        expected = math.sqrt(math.pi * L * float(packet.coefficients @ packet.coefficients)) / k
        assert abs(packet_l2_norm(packet, L) - expected) <= 1e-12 * expected
    assert packet_l2_norm(ModePacket(modes=(), coefficients=np.zeros(0)), 1.0) == 0.0


def test_default_epsilon0(basis48):
    packet = _packet(basis48)
    eps = default_epsilon0(packet, 1.0)
    assert abs(eps - 0.01 * packet_l2_norm(packet, 1.0)) < 1e-15
    with pytest.raises(ValueError):
        default_epsilon0(ModePacket(modes=(), coefficients=np.zeros(0)), 1.0)


def test_envelope_value(basis48):
    packet = _packet(basis48, mu=0.1)
    assert abs(packet_envelope_value(packet, 0.0) - np.abs(packet.coefficients).sum()) < 1e-14
    t = np.array([0.0, 0.5, 1.0])
    vals = packet_envelope_value(packet, t)
    assert np.all(np.diff(vals) > 0.0)


def test_escape_time_single_mode_closed_form(basis48):
    packet = _packet(basis48)
    lam = packet.top_lambda
    exact = math.log(1.0e4) / lam
    assert abs(escape_time(packet, 1.0e-6, 1.0e-2) - exact) <= 1e-10 * exact


def test_escape_time_defining_equation_two_modes(basis48):
    packet = _packet(basis48, mu=0.1)
    T = escape_time(packet, 1.0e-4, 2.0e-2)
    assert abs(1.0e-4 * packet_envelope_value(packet, T) - 2.0e-2) <= 1e-12


@given(ratio=st.floats(min_value=1.5, max_value=1.0e4))
@settings(max_examples=25, deadline=None)
def test_escape_time_decreasing_in_delta(ratio, basis48):
    packet = _packet(basis48)
    eps = 1.0e-2
    t_lo = escape_time(packet, 1.0e-7, eps)
    t_hi = escape_time(packet, 1.0e-7 * ratio, eps)
    assert t_hi < t_lo


def test_escape_time_validation(basis48):
    packet = _packet(basis48)
    with pytest.raises(ValueError, match="already escaped"):
        escape_time(packet, 2.0e-2, 1.0e-2)
    with pytest.raises(ValueError, match="delta"):
        escape_time(packet, 0.0, 1.0e-2)
    with pytest.raises(ValueError, match="epsilon0"):
        escape_time(packet, 1.0e-6, 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        escape_time(ModePacket(modes=(), coefficients=np.zeros(0)), 1.0e-6, 1.0e-2)


def test_compute_capital_lambda(basis48):
    sweep = LatticeSweep(L=1.0, mu=0.5, slip=STD_SLIP, n_max=8)
    cap, k_star = compute_capital_lambda(sweep, basis48)
    assert k_star == 1.0
    # lambda_1 is K_N's (lambda1_variational), which meets the dense one
    problem = ModeProblem(k=1.0, mu=0.5, slip=STD_SLIP)
    assert cap == lambda1_variational(problem, basis48)
    spectrum = solve_spectrum(assemble(problem, basis48))
    assert abs(cap - spectrum.lambda1) <= 1e-12 * abs(spectrum.lambda1)
    with pytest.raises(ValueError):
        # sweep too short: the last lattice point is still unstable
        compute_capital_lambda(LatticeSweep(L=1.0, mu=0.05, slip=STD_SLIP, n_max=1), basis48)


def test_capital_lambda_excuses_a_marginal_last_point(basis48):
    # at mu = 0.02 the point k = 25 is marginal (kappa_1(0) = 1 to
    # roundoff): its lambda_1 on 48 functions reads +3.8e-12, roundoff, so
    # the sweep to n_max = 25 is complete; k = 24, the critical
    # wavenumber, is genuinely unstable
    mu = 0.02
    last = ModeProblem(k=25.0, mu=mu, slip=STD_SLIP)
    assert abs(operator_eigenvalues(0.0, last)[0] - 1.0) < MARGINAL_TOL
    assert 0.0 < lambda1_variational(last, basis48) < 1e-10
    cap, k_star = compute_capital_lambda(LatticeSweep(L=1.0, mu=mu, slip=STD_SLIP, n_max=25),
                                         basis48)
    assert cap > 0.0 and k_star < 25.0
    with pytest.raises(ValueError, match="k = 24; increase n_max"):
        compute_capital_lambda(LatticeSweep(L=1.0, mu=mu, slip=STD_SLIP, n_max=24), basis48)


def test_capital_lambda_refuses_a_small_genuine_positive(basis48):
    # at mu = 0.05, k = 10 sits 7.8e-8 above marginal, beyond MARGINAL_TOL,
    # and lambda_1 = 1.57e-6 is a growth rate, so n_max = 10 is too short
    top = operator_eigenvalues(0.0, ModeProblem(k=10.0, mu=0.05, slip=STD_SLIP))[0]
    assert MARGINAL_TOL < top - 1.0 < 1e-7
    with pytest.raises(ValueError, match="k = 10; increase n_max"):
        compute_capital_lambda(LatticeSweep(L=1.0, mu=0.05, slip=STD_SLIP, n_max=10), basis48)


def test_sample_field_structure(basis48):
    packet = _packet(basis48)
    grid = Grid2D(n1=16, n2=9)
    u1, u2, q = sample_field(packet.modes[0], 0.0, grid)
    assert u1.shape == u2.shape == q.shape == (16, 9)
    # u1 ~ sin(k x1): zero at x1 = 0; u2 vanishes at the walls
    assert np.abs(u1[0]).max() <= 1e-13
    assert np.abs(u2[:, 0]).max() <= 1e-10
    assert np.abs(u2[:, -1]).max() <= 1e-10
    # growth factor between t = 0 and t = 1
    lam = packet.modes[0].lam
    u1_later = sample_field(packet.modes[0], 1.0, grid)[0]
    assert np.allclose(u1_later, math.exp(lam) * u1, rtol=1e-12, atol=1e-14)


def test_sample_packet_field_is_coefficient_linear(basis48):
    packet = _packet(basis48, mu=0.1)
    grid = Grid2D(n1=8, n2=7)
    total = sample_packet_field(packet, 0.3, grid)
    parts = [sample_field(m, 0.3, grid) for m in packet.modes]
    for i in range(3):
        acc = sum(c * p[i] for c, p in zip(packet.coefficients, parts))
        assert np.allclose(total[i], acc, atol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(n1=2, n2=9)


def test_packet_streamfunction_profile_consistency(basis48):
    # the curl of the profile reproduces the packet velocity samples
    packet = _packet(basis48)
    coeffs = packet_streamfunction_profile(packet)
    x = np.linspace(-1.0, 1.0, 9)
    prof_deriv = np.polynomial.chebyshev.chebval(x, np.polynomial.chebyshev.chebder(coeffs))
    psi_sum = sum(c * m.psi(x) for c, m in zip(packet.coefficients, packet.modes))
    assert np.allclose(prof_deriv, psi_sum, atol=1e-12)


def test_degenerate_rates_warn():
    problem = ModeProblem(k=1.0, mu=0.5, slip=STD_SLIP)
    from slipflow.numerics import build_basis

    packet = _packet(build_basis(48))
    mode = packet.modes[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ModePacket(modes=(mode, mode), coefficients=np.ones(2))
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)

"""Critical viscosity: closed form, variational agreement, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lopsided_basis
from slipflow.critical import (
    critical_curve,
    critical_wavenumber,
    mu_c_closed_form,
    mu_c_global,
    mu_c_variational,
)
from slipflow.model import ChannelConfig, ModeProblem, SlipPair
from slipflow.numerics import (
    NotPositiveDefiniteError,
    boundary_form,
    build_basis,
    solve_generalized_symmetric,
)
from slipflow.spectrum import _discrete_kappa1


def test_equal_slip_identity():
    for xi in (0.25, 1.0, 3.0):
        assert abs(mu_c_global(SlipPair(xi, xi)) - xi) <= 1e-12 * max(xi, 1.0)


def test_swap_symmetry_exact():
    for k in (0.5, 2.0, 8.0):
        assert mu_c_closed_form(k, SlipPair(0.5, 3.0)) == mu_c_closed_form(
            k, SlipPair(3.0, 0.5)
        )


def test_small_k_approaches_global():
    slip = SlipPair(0.5, 3.0)
    target = mu_c_global(slip)
    assert abs(mu_c_closed_form(1.0e-4, slip) - target) <= 1e-3 * target


def test_large_k_decay():
    slip = SlipPair(0.5, 3.0)
    assert mu_c_closed_form(50.0, slip) < 0.02 * mu_c_global(slip)


@pytest.mark.parametrize("k", [300.0, 500.0, 1e4, 1e6])
def test_large_k_reaches_asymptote(k):
    for slip in (SlipPair(1.0, 1.0), SlipPair(0.0, 3.0), SlipPair(10.0, 0.1), SlipPair(0.5, 3.0)):
        ratio = mu_c_closed_form(k, slip) * 2.0 * k / max(slip.xi_minus, slip.xi_plus)
        assert abs(ratio - 1.0) <= 1e-15, slip


def test_zero_slip_gives_zero_threshold():
    assert mu_c_closed_form(1.0, SlipPair(0.0, 0.0)) == 0.0
    assert mu_c_global(SlipPair(0.0, 0.0)) == 0.0


@given(
    k=st.floats(min_value=0.05, max_value=1e4),
    xm=st.floats(min_value=0.0, max_value=5.0),
    xp=st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_mu_c_positive_and_below_global(k, xm, xp):
    slip = SlipPair(xm, xp)
    muc = mu_c_closed_form(k, slip)
    assert 0.0 < muc < mu_c_global(slip) * (1.0 + 1e-12)


@given(
    k=st.floats(min_value=0.05, max_value=1e4),
    step=st.floats(min_value=0.01, max_value=2.0),
    xm=st.floats(min_value=0.0, max_value=4.0),
    xp=st.floats(min_value=0.05, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_mu_c_strictly_decreasing_in_k(k, step, xm, xp):
    slip = SlipPair(xm, xp)
    assert mu_c_closed_form(k + step, slip) < mu_c_closed_form(k, slip)


def test_variational_agreement(basis64):
    for k in (0.5, 2.0, 8.0):
        for slip in (SlipPair(1.0, 1.0), SlipPair(0.5, 3.0), SlipPair(0.0, 2.0)):
            closed = mu_c_closed_form(k, slip)
            var = mu_c_variational(k, slip, basis64)
            assert abs(var - closed) <= 1e-6 * closed


PENCIL_KS = (0.05, 0.5, 4.0, 16.0, 60.0)
PENCIL_SLIPS = (SlipPair(1.0, 1.0), SlipPair(0.0, 3.0), SlipPair(10.0, 0.1))
PENCIL_SIZES = (16, 48, 96)


def _slip_id(slip):
    return f"xi={slip.xi_minus:g},{slip.xi_plus:g}"


@pytest.fixture(scope="module")
def pencil_bases():
    return {n: build_basis(n) for n in PENCIL_SIZES}


def _mu_c_full_pencil(k, slip, basis):
    # the reference: top eigenvalue of the full N x N pencil (R, E)
    R = boundary_form(slip, basis)
    E = basis.table(k).energy
    return max(solve_generalized_symmetric(R, E)[0][0], 0.0)


@pytest.mark.parametrize("k", PENCIL_KS)
@pytest.mark.parametrize("slip", PENCIL_SLIPS, ids=_slip_id)
def test_variational_matches_full_pencil(k, slip, pencil_bases):
    for n in PENCIL_SIZES:
        ref = _mu_c_full_pencil(k, slip, pencil_bases[n])
        var = mu_c_variational(k, slip, pencil_bases[n])
        assert abs(var - ref) <= 1e-12 * ref


@pytest.mark.parametrize("k", PENCIL_KS)
@pytest.mark.parametrize("slip", PENCIL_SLIPS, ids=_slip_id)
def test_variational_nondecreasing_in_basis_size(k, slip, pencil_bases):
    values = [mu_c_variational(k, slip, pencil_bases[n]) for n in PENCIL_SIZES]
    for coarse, fine in zip(values, values[1:]):
        assert fine >= coarse * (1.0 - 1e-12)


@pytest.mark.parametrize("k", PENCIL_KS)
@pytest.mark.parametrize("slip", PENCIL_SLIPS, ids=_slip_id)
def test_variational_is_the_discrete_slip_operator_at_unit_viscosity(k, slip, pencil_bases,
                                                                     monkeypatch):
    # mu_c on the trial space is mu kappa_1(0) of K_N at mu = 1, read off the
    # basis's table as mu_c_closed_form reads K, with no 2x2 eigensolve
    def forbidden(*args, **kwargs):
        raise AssertionError("mu_c_variational reached numpy.linalg.eigvalsh")

    monkeypatch.setattr("numpy.linalg.eigvalsh", forbidden)
    for n in PENCIL_SIZES:
        kappa1, _ = _discrete_kappa1(ModeProblem(k=k, mu=1.0, slip=slip), pencil_bases[n])
        assert mu_c_variational(k, slip, pencil_bases[n]) == kappa1(0.0)


@pytest.mark.parametrize("k", PENCIL_KS)
def test_variational_matches_full_pencil_on_lopsided_space(k, pencil_bases):
    # on the full wall-clamped space mu_c is swap-symmetric, so only a
    # lopsided space tells xi_- and xi_+ apart
    basis = lopsided_basis(pencil_bases[16])
    slip, swapped = SlipPair(0.0, 3.0), SlipPair(3.0, 0.0)
    ref = _mu_c_full_pencil(k, slip, basis)
    assert abs(_mu_c_full_pencil(k, swapped, basis) - ref) > 1e-6 * ref
    assert abs(mu_c_variational(k, slip, basis) - ref) <= 1e-12 * ref


def test_variational_zero_slip_is_exactly_zero(pencil_bases):
    for k in PENCIL_KS:
        for n in PENCIL_SIZES:
            assert mu_c_variational(k, SlipPair(0.0, 0.0), pencil_bases[n]) == 0.0


def test_variational_usage_errors(basis64, monkeypatch):
    slip = SlipPair(1.0, 1.0)
    with pytest.raises(ValueError):
        mu_c_variational(0.0, slip, basis64)
    with pytest.raises(ValueError):
        mu_c_variational(1.0, slip, build_basis(7))
    # a fresh basis, whose table of k = 1 holds -E before it factors E
    basis = build_basis(64)
    table = basis.table(1.0)
    monkeypatch.setattr(table, "energy", -table.energy)
    with pytest.raises(NotPositiveDefiniteError):
        mu_c_variational(1.0, slip, basis)


def test_critical_wavenumber_bisection():
    slip = SlipPair(1.0, 1.0)
    config = ChannelConfig(L=1.0, mu=0.5, slip=slip)
    kc = critical_wavenumber(config)
    assert kc == 1.0
    assert mu_c_closed_form(kc, slip) > config.mu
    assert mu_c_closed_form(kc + 1.0, slip) < config.mu


def test_critical_wavenumber_long_channel():
    slip = SlipPair(1.0, 1.0)
    config = ChannelConfig(L=10.0, mu=0.2, slip=slip)
    kc = critical_wavenumber(config)
    assert kc is not None
    assert mu_c_closed_form(kc, slip) > 0.2
    assert mu_c_closed_form(kc + 0.1, slip) < 0.2


def test_critical_wavenumber_stable_channel():
    slip = SlipPair(1.0, 1.0)
    assert critical_wavenumber(ChannelConfig(L=1.0, mu=1.5, slip=slip)) is None


def test_critical_curve_monotone():
    curve = critical_curve(SlipPair(1.0, 1.0), 0.1, 10.0, 50)
    assert curve.ks.size == 50
    assert np.all(np.diff(curve.mu_cs) < 0.0)
    assert np.all(np.diff(curve.ks) > 0.0)


def test_critical_curve_zero_slip():
    curve = critical_curve(SlipPair(0.0, 0.0), 0.5, 2.0, 5)
    assert np.all(curve.mu_cs == 0.0)


def test_critical_curve_usage_errors():
    with pytest.raises(ValueError):
        critical_curve(SlipPair(1.0, 1.0), -1.0, 10.0, 50)
    with pytest.raises(ValueError):
        critical_curve(SlipPair(1.0, 1.0), 2.0, 1.0, 50)
    with pytest.raises(ValueError):
        critical_curve(SlipPair(1.0, 1.0), 0.1, 10.0, 1)

"""Energy budget pieces and the sharp lattice bound on production minus dissipation."""

import math

import numpy as np
import pytest
from conftest import mode_field

from slipflow.model import (
    ChannelConfig,
    LatticeSweep,
    SlipPair,
    ValidationError,
)
from slipflow.modes import compute_capital_lambda
from slipflow.numerics import wall_values
from slipflow.sim import (
    boundary_production,
    energy_inequality_check,
    gradient_dissipation,
    random_solenoidal_field,
)
from slipflow.sim.energy import _dissipation, _production
from slipflow.sim.field import (
    SpectralField2D,
    cgl_nodes,
    cheb_coeffs_from_values,
    divergence_max,
    scalar_norms,
    velocity_from_streamfunction,
)


@pytest.fixture(scope="module")
def channel():
    return ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))


@pytest.fixture(scope="module")
def top_mode_velocity(channel, basis48):
    phi, lam = mode_field(channel, basis48, M=8, P=64)
    u1, u2 = velocity_from_streamfunction(phi)
    return u1, u2, lam


class TestBudgetPieces:
    def test_boundary_production_closed_form(self):
        # streamfunction (1 - x2^2) on mode 1 gives u1 wall traces of unit
        # modulus, so production = 2 pi L (2 xi_+ + 2 xi_-)
        P = 32
        x2 = cgl_nodes(P)
        rows = np.zeros((5, P), dtype=complex)
        rows[1] = -0.5j * (1.0 - x2**2)
        phi = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0)
        u1, _ = velocity_from_streamfunction(phi)
        slip = SlipPair(0.5, 3.0)
        expected = 2.0 * math.pi * (2.0 * 3.0 + 2.0 * 0.5)
        assert boundary_production(u1, slip) == pytest.approx(expected, rel=1.0e-12)

    def test_gradient_dissipation_matches_sobolev_norms(self, top_mode_velocity):
        u1, u2, _ = top_mode_velocity
        mu = 0.5
        grad_sq = 0.0
        for comp in (u1, u2):
            l2, h1, _ = scalar_norms(comp)
            grad_sq += h1 * h1 - l2 * l2
        assert gradient_dissipation(u1, u2, mu) == pytest.approx(
            mu * grad_sq, rel=1.0e-12
        )


class TestEigenmodeRate:
    def test_top_mode_attains_its_eigenvalue(self, channel, top_mode_velocity):
        u1, u2, lam1 = top_mode_velocity
        check = energy_inequality_check(u1, u2, channel.mu, channel.slip, lam1)
        assert check.holds
        assert check.lhs / check.norm_sq == pytest.approx(lam1, rel=1.0e-8)

    def test_equality_case_fails_a_smaller_constant(self, channel, top_mode_velocity):
        u1, u2, lam1 = top_mode_velocity
        check = energy_inequality_check(
            u1, u2, channel.mu, channel.slip, lam1 - 1.0e-3
        )
        assert not check.holds


class TestLatticeBound:
    def test_random_fields_respect_capital_lambda(self, channel, basis48):
        sweep = LatticeSweep(L=channel.L, mu=channel.mu, slip=channel.slip, n_max=8)
        lam, k_star = compute_capital_lambda(sweep, basis48)
        assert k_star == 1.0
        rng = np.random.default_rng(2026)
        for _ in range(30):
            u1, u2 = random_solenoidal_field(rng, M=12, P=48, L=channel.L)
            check = energy_inequality_check(u1, u2, channel.mu, channel.slip, lam)
            assert check.holds
            assert check.norm_sq == pytest.approx(1.0, rel=1.0e-12)

    def test_stable_regime_dissipates_every_field(self, basis48):
        # above the critical viscosity the sharp constant is negative, so
        # production - dissipation < 0 for every admissible field
        channel = ChannelConfig(L=1.0, mu=2.0, slip=SlipPair(1.0, 1.0))
        rng = np.random.default_rng(7)
        for _ in range(10):
            u1, u2 = random_solenoidal_field(rng, M=12, P=48, L=channel.L)
            check = energy_inequality_check(u1, u2, channel.mu, channel.slip, 0.0)
            assert check.holds
            assert check.lhs < 0.0


class TestRandomFieldGenerator:
    def test_structure_and_determinism(self):
        rng = np.random.default_rng(11)
        u1, u2 = random_solenoidal_field(rng, M=10, P=40, L=2.0)
        l2_sq = scalar_norms(u1)[0] ** 2 + scalar_norms(u2)[0] ** 2
        assert l2_sq == pytest.approx(1.0, rel=1.0e-12)
        assert divergence_max(u1, u2) < 1.0e-12
        assert np.abs(wall_values(u2.coefficients)).max() < 1.0e-13
        assert np.all(u1.coefficients[0] == 0.0)
        v1, v2 = random_solenoidal_field(np.random.default_rng(11), M=10, P=40, L=2.0)
        assert np.array_equal(u1.coefficients, v1.coefficients)
        assert np.array_equal(u2.coefficients, v2.coefficients)


class TestRejections:
    def test_rejects_mean_flow_component(self, channel):
        P = 32
        rows = np.zeros((3, P), dtype=complex)
        rows[0] = 1.0  # uniform shear-free mean flow
        u1 = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0)
        u2 = SpectralField2D(np.zeros_like(rows), 1.0)
        with pytest.raises(ValidationError, match="mean"):
            energy_inequality_check(u1, u2, channel.mu, channel.slip, 1.0)

    def test_rejects_divergent_velocity(self, channel):
        rng = np.random.default_rng(3)
        u1, _ = random_solenoidal_field(rng, M=8, P=32, L=1.0)
        with pytest.raises(ValidationError, match="divergence"):
            energy_inequality_check(u1, u1, channel.mu, channel.slip, 1.0)

    def test_rejects_wall_leak(self, channel):
        # a streamfunction profile that does not vanish at the walls gives a
        # divergence-free field with u2 leaking through them
        P = 32
        rows = np.zeros((3, P), dtype=complex)
        rows[1] = 1.0
        phi = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0)
        u1, u2 = velocity_from_streamfunction(phi)
        with pytest.raises(ValidationError, match="walls"):
            energy_inequality_check(u1, u2, channel.mu, channel.slip, 1.0)


@pytest.mark.parametrize("p, rows, P", [(1, 9, 17), (2, 17, 32), (1, 33, 64)])
def test_a_block_of_records_gets_each_records_own_budget_terms(p, rows, P):
    # production and dissipation of records on a leading axis are those of
    # each record alone, bit for bit: the wall sums and the dot with the
    # kappa^2 weights are taken per record; one gemv over all records'
    # rows rounds these wide-range data differently
    rng = np.random.default_rng(rows)
    planes = rng.standard_normal((9, p, rows, P)) * np.exp(3.0 * rng.standard_normal((9, p, rows, 1)))
    q = np.exp(5.0 * rng.standard_normal((9, 3, rows)))
    slip = SlipPair(0.7, 2.5)
    bp, diss = _production(planes, 1.3, slip), _dissipation(q, 1.3, 0.3)
    for i in range(planes.shape[0]):
        assert bp[i].view(np.uint64) == np.float64(_production(planes[i], 1.3, slip)).view(np.uint64)
        assert diss[i].view(np.uint64) == np.float64(_dissipation(q[i], 1.3, 0.3)).view(np.uint64)

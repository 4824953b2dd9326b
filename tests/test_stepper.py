"""Time stepper: scheme order, exact invariants, and analytic decay/growth rates."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    CFL_ULPS,
    dct_coeffs_from_values,
    dct_values_from_coeffs,
    mode_field,
    solve_streamfunction,
    velocity_nodes,
)
from scipy import fft as sfft
from scipy import linalg as sla
from scipy.optimize import brentq

from slipflow.model import ChannelConfig, SlipPair, ValidationError
from slipflow.sim import (
    ChannelStepper,
    InfluenceConditioningError,
    SimConfig,
    SimulationBlowupError,
    check_boundary_conditions,
    run,
)
from slipflow.sim.field import (
    SpectralField2D,
    cgl_nodes,
    cheb_coeffs_from_values,
    scalar_norms,
    slip_residuals,
)
from slipflow.sim.run import read_checkpoint, write_checkpoint
from slipflow.sim.stepper import _advection_tables, _complex, _last_step_operators, _planes


@pytest.fixture(scope="module")
def channel():
    return ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))


class TestSimConfigValidation:
    def test_accepts_defaults(self, channel):
        cfg = SimConfig(channel=channel)
        assert cfg.M == 32 and cfg.P == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"M": 1},
            {"P": 8},
            {"dt": 0.0},
            {"dt": -1.0e-3},
            {"dt": 0.5, "t_end": 0.25},
            {"diagnostics_stride": 0},
        ],
    )
    def test_rejects_bad_parameters(self, channel, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(channel=channel, **kwargs)

    def test_n_steps_covers_t_end(self, channel):
        assert SimConfig(channel=channel, dt=0.5, t_end=1.0).n_steps == 2
        assert SimConfig(channel=channel, dt=0.4, t_end=1.0).n_steps == 3
        # no spurious extra step from roundoff in t_end / dt
        assert SimConfig(channel=channel, dt=0.1, t_end=0.3).n_steps == 3


class TestStepperBasics:
    def test_zero_state_is_a_fixed_point(self, channel):
        cfg = SimConfig(channel=channel, M=4, P=24, dt=1.0e-2, t_end=0.1)
        zero = SpectralField2D(np.zeros((5, 24), dtype=complex), channel.L)
        stepper = ChannelStepper(cfg, zero)
        for _ in range(5):
            stepper.step()
        assert np.all(stepper.streamfunction().coefficients == 0.0)
        assert stepper.cfl_number() == 0.0

    def test_rejects_mismatched_initial_field(self, channel):
        cfg = SimConfig(channel=channel, M=4, P=24)
        wrong_shape = SpectralField2D(np.zeros((6, 24), dtype=complex), channel.L)
        with pytest.raises(ValidationError):
            ChannelStepper(cfg, wrong_shape)
        wrong_length = SpectralField2D(np.zeros((5, 24), dtype=complex), 2.0)
        with pytest.raises(ValidationError):
            ChannelStepper(cfg, wrong_length)

    def test_ill_conditioned_influence_matrix_is_refused(self, channel):
        # mode 1 of G is singular at dt = 4.29371901504907 for this channel;
        # 1e-8 away it reads cond 8.7e8, while dt = 4.29 reads 3.5e3
        zero = SpectralField2D(np.zeros((3, 24), dtype=complex), channel.L)
        near = SimConfig(channel=channel, M=2, P=24, dt=4.293719, t_end=4.293719)
        with pytest.raises(InfluenceConditioningError, match="mode n = 1"):
            ChannelStepper(near, zero)
        ChannelStepper(replace(near, dt=4.29, t_end=4.29), zero)

    def test_cfl_number_scales_with_dt(self, channel, basis48):
        field, _ = mode_field(channel, basis48, amplitude=0.05)
        cfl = []
        for dt in (1.0e-3, 2.0e-3):
            cfg = SimConfig(channel=channel, M=16, P=56, dt=dt, t_end=1.0)
            cfl.append(ChannelStepper(cfg, field).cfl_number())
        assert cfl[1] == pytest.approx(2.0 * cfl[0], rel=1.0e-12)


class TestAnalyticRates:
    def test_linearized_growth_matches_top_eigenvalue(self, channel, basis48):
        field, lam = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.6,
                        linearized=True, diagnostics_stride=25)
        diag = run(field, cfg).diagnostics
        rate = (math.log(diag.l2_norm[-1]) - math.log(diag.l2_norm[0])) / (
            diag.times[-1] - diag.times[0]
        )
        assert rate == pytest.approx(lam, rel=1.0e-5)

    def test_mean_mode_grows_at_robin_rate(self):
        # x1-independent shear u1 = cosh(a x2) with mu a sinh a = xi cosh a
        # is an exact Robin eigenmode of the mean-flow heat equation, so the
        # simulator must reproduce the growth rate mu a^2.
        mu, xi = 0.5, 1.0
        a = brentq(lambda s: s * math.tanh(s) - xi / mu, 1.0e-8, 50.0)
        channel = ChannelConfig(L=1.0, mu=mu, slip=SlipPair(xi, xi))
        P = 64
        rows = np.zeros((5, P), dtype=complex)
        rows[0] = np.cosh(a * cgl_nodes(P))
        field = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0)
        # a pure mean flow has exactly zero advection, so the linearized
        # run has the nonlinear dynamics
        cfg = SimConfig(channel=channel, M=4, P=P, dt=5.0e-4, t_end=0.1,
                        linearized=True, diagnostics_stride=20)
        diag = run(field, cfg).diagnostics
        rate = (math.log(diag.l2_norm[-1]) - math.log(diag.l2_norm[0])) / (
            diag.times[-1] - diag.times[0]
        )
        assert rate == pytest.approx(mu * a * a, rel=1.0e-5)

    def test_free_slip_energy_decays_monotonically(self):
        # With xi = 0 the boundary production vanishes and the nonlinear
        # term conserves energy, so ||u||_2 must decrease along the run.
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(0.0, 0.0))
        P = 64
        x2 = cgl_nodes(P)
        rows = np.zeros((9, P), dtype=complex)
        rows[1] = -0.5j * (1.0 - x2**2) ** 3  # psi'' = 0 at both walls
        field = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0) * 0.1
        cfg = SimConfig(channel=channel, M=8, P=P, dt=1.0e-3, t_end=0.5,
                        diagnostics_stride=25)
        l2 = run(field, cfg).diagnostics.l2_norm
        assert np.all(np.diff(l2) < 0.0)
        assert l2[-1] < 0.5 * l2[0]

    def test_scheme_is_second_order_in_time(self, channel, basis48):
        field, _ = mode_field(channel, basis48, amplitude=0.05)
        finals = {}
        for dt in (4.0e-3, 2.0e-3, 1.0e-3):
            cfg = SimConfig(channel=channel, M=16, P=56, dt=dt, t_end=0.4,
                            diagnostics_stride=1000)
            finals[dt] = run(field, cfg).final_state
        coarse = scalar_norms(finals[4.0e-3] - finals[2.0e-3])[0]
        fine = scalar_norms(finals[2.0e-3] - finals[1.0e-3])[0]
        order = math.log2(coarse / fine)
        assert abs(order - 2.0) < 0.3


class TestInvariantsPreserved:
    def test_reality_and_boundary_conditions_hold_after_run(self, channel, basis48):
        field, _ = mode_field(channel, basis48, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=4.0e-3, t_end=0.4,
                        diagnostics_stride=1000)
        final = run(field, cfg).final_state
        assert final.reality_defect < 1.0e-15
        res = slip_residuals(final, channel.mu, channel.slip)
        scale = np.abs(final.coefficients).max()
        assert max(res) < 1.0e-8 * max(scale, 1.0e-300)

    def test_symmetry_lock_pins_the_invariant_class(self, channel, basis48):
        # a packet starts in the class, so it steps on the half period alone
        field, _ = mode_field(channel, basis48, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=4.0e-3, t_end=0.4,
                        diagnostics_stride=1000)
        stepper = ChannelStepper(cfg, field)
        for _ in range(3):
            stepper.step()
        assert stepper._locked
        final = run(field, cfg).final_state
        assert np.all(final.coefficients[0] == 0.0)
        assert np.all(final.coefficients[1:].real == 0.0)

    @pytest.mark.parametrize("entry", [(1, 0), (0, 0)], ids=["real-entry", "mean-row"])
    def test_state_off_the_class_is_refused(self, channel, basis48, entry):
        field, _ = mode_field(channel, basis48, amplitude=0.05)
        coeffs = field.coefficients.copy()
        coeffs[entry] += 1.0e-30
        cfg = SimConfig(channel=channel, M=16, P=56, dt=4.0e-3, t_end=0.4)
        off = SpectralField2D(coeffs, channel.L)
        with pytest.raises(ValidationError, match="odd-in-x1"):
            ChannelStepper(cfg, off)
        with pytest.raises(ValidationError, match="odd-in-x1"):
            run(off, cfg)
        # the linearized stepper takes any state
        stepper = ChannelStepper(replace(cfg, linearized=True), off)
        stepper.step()
        assert not stepper._locked


class TestPureStepFunction:
    @staticmethod
    def _one_step(field, cfg):
        stepper = ChannelStepper(cfg, field)
        stepper.step()
        return stepper.streamfunction()

    def test_step_is_deterministic(self, channel, basis48):
        field, _ = mode_field(channel, basis48, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=4.0e-3, t_end=0.4)
        first = self._one_step(field, cfg)
        second = self._one_step(field, cfg)
        assert np.array_equal(first.coefficients, second.coefficients)

    def test_step_growth_factor_tracks_eigenvalue(self, channel, basis48):
        field, lam = mode_field(channel, basis48, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=4.0e-3, t_end=0.4)
        after = self._one_step(field, cfg)
        growth = scalar_norms(after)[0] / scalar_norms(field)[0]
        assert growth == pytest.approx(math.exp(lam * cfg.dt), rel=1.0e-6)

    def test_step_rejects_boundary_violating_state(self, channel):
        P = 56
        x2 = cgl_nodes(P)
        rows = np.zeros((17, P), dtype=complex)
        rows[1] = -0.5j * (1.0 - x2**2)  # parabola violates slip at xi = 1
        bad = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0)
        cfg = SimConfig(channel=channel, M=16, P=P, dt=1.0e-3, t_end=0.1)
        with pytest.raises(ValidationError, match="boundary"):
            check_boundary_conditions(bad, cfg)


class _PerModeReference(ChannelStepper):
    """The stepper with its implicit part done mode by mode with scipy LU.

    Helmholtz solve, Poisson solve, slip functionals and the 2x2 influence
    correction are applied in sequence for every Fourier mode, the way the
    composed operator ``T`` is defined, and the mean row is solved with an
    LU of its Robin-row Crank-Nicolson matrix, so the stacked path can be
    checked against it.
    """

    def _build_operators(self):
        super()._build_operators()
        P = self.cfg.P
        eye = np.eye(P)
        xi = self.slip
        A0 = eye - self._alpha * self.D2
        A0[0] = self.mu * self.D[0] - xi.xi_plus * eye[0]
        A0[-1] = self.mu * self.D[-1] + xi.xi_minus * eye[-1]
        self.mean_lu = sla.lu_factor(A0)
        self.ref = []
        for n in range(1, self.cfg.M + 1):
            H = self.D2 - self.kappa[n] ** 2 * eye
            A = eye - self._alpha * H
            K = H.copy()
            for mat in (A, K):
                mat[0], mat[-1] = eye[0], eye[-1]
            alu, klu = sla.lu_factor(A), sla.lu_factor(K)
            og = sla.lu_solve(alu, eye[:, [0, -1]])
            G = np.array([[f @ self._poisson(klu, og[:, j]) for j in (0, 1)]
                          for f in (self._slip_plus, self._slip_minus)])
            self.ref.append((alu, klu, og, G))

    @staticmethod
    def _poisson(klu, omega):
        rhs = -omega
        rhs[0] = rhs[-1] = 0.0
        return sla.lu_solve(klu, rhs)

    def _poisson_rows(self, omega):
        phi = np.zeros_like(omega)
        for n, (_, klu, _, _) in enumerate(self.ref, start=1):
            phi[n] = self._poisson(klu, omega[n])
        return phi

    def step(self):
        cfg = self.cfg
        w = self._rows()
        if cfg.linearized:
            adv = np.zeros_like(w)
        else:
            adv = _advection_rows(self, self._poisson_rows(w) @ self._to_eig)
        blocks = self._blocks()  # the history block once the reference has stepped
        adv_x = 1.5 * adv - 0.5 * blocks[1] if len(blocks) == 2 else adv
        rhs = (w + self._alpha * (w @ self.D2.T - (self.kappa**2)[:, None] * w)
               - cfg.dt * adv_x)
        new = np.empty_like(w)
        for n, (alu, klu, og, G) in enumerate(self.ref, start=1):
            b = rhs[n].copy()
            b[0] = b[-1] = 0.0
            w_p = sla.lu_solve(alu, b)
            phi_p = self._poisson(klu, w_p)
            s = np.array([self._slip_plus @ phi_p, self._slip_minus @ phi_p])
            new[n] = w_p - og @ np.linalg.solve(G, s)
        b0 = rhs[0].real.copy()
        b0[0] = b0[-1] = 0.0
        new[0] = sla.lu_solve(self.mean_lu, b0)
        self._install(new, adv)
        self.t += cfg.dt


class TestStackedOperators:
    @pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 3.0), (10.0, 0.1)])
    @pytest.mark.parametrize("linearized", [True, False])
    def test_matches_per_mode_influence_solves(self, xi, linearized):
        M, P = 6, 24
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(*xi))
        rng = np.random.default_rng(7)
        decay = np.exp(-0.4 * np.arange(P))
        rows = 1j * rng.standard_normal((M + 1, P)) * decay * 1.0e-3
        if linearized:
            rows = rows + rng.standard_normal((M + 1, P)) * decay * 1.0e-3
            rows[0] = rng.standard_normal(P) * decay * 1.0e-3
        else:
            rows[0] = 0.0
        field = SpectralField2D(rows, channel.L)
        cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, t_end=0.05,
                        linearized=linearized)
        stacked = ChannelStepper(cfg, field)
        reference = _PerModeReference(cfg, field)
        for _ in range(50):
            stacked.step()
            reference.step()
        scale = np.abs(reference._rows()).max()
        assert np.abs(stacked._rows() - reference._rows()).max() <= 1.0e-10 * scale
        got = stacked.streamfunction().coefficients
        want = reference.streamfunction().coefficients
        assert np.abs(got - want).max() <= 1.0e-10 * np.abs(want).max()


def _solve_long(A, B):
    """X with A[n] @ X[n] = B[n] for stacked A (m, k, k) and B (m, k, r), by
    Gaussian elimination with partial pivoting in np.longdouble."""
    A = np.array(A, dtype=np.longdouble)
    X = np.array(B, dtype=np.longdouble)
    m, k = A.shape[:2]
    stack = np.arange(m)
    for j in range(k):
        p = j + np.argmax(np.abs(A[:, j:, j]), axis=1)
        for arr in (A, X):
            row = arr[stack, p].copy()
            arr[stack, p] = arr[:, j]
            arr[:, j] = row
        f = A[:, j + 1:, j:j + 1] / A[:, j:j + 1, j:j + 1]
        A[:, j + 1:, j:] -= f * A[:, j:j + 1, j:]
        X[:, j + 1:] -= f * X[:, j:j + 1]
    for j in range(k - 1, -1, -1):
        X[:, j] = (X[:, j] - (A[:, j:j + 1, j + 1:] @ X[:, j + 1:])[:, 0]) / A[:, j, j:j + 1]
    return X


def _mode_error(got, want):
    """The largest per-mode relative error, max_n |got_n - want_n| / |want_n|
    in the max norm over the rows n of the last two axes."""
    want = np.asarray(want, dtype=np.longdouble)
    err = np.abs(got - want).max(axis=-1) / np.abs(want).max(axis=-1)
    return float(err.max())


def _coupled_system(st, n):
    """The (2P, 2P) system of mode n >= 1 of a Crank-Nicolson step whose
    unknowns are (omega, phi): Helmholtz rows and Poisson rows inside, then
    phi = 0 and the two slip functionals of phi at the walls.  The
    right-hand side is the explicit part in the interior Helmholtz rows."""
    P = st.cfg.P
    eye, inner = np.eye(P), slice(1, P - 1)
    H = st.D2 - st.kappa[n] ** 2 * eye
    system = np.zeros((2 * P, 2 * P))
    system[inner, :P] = (eye - st._alpha * H)[inner]
    system[P + 1:2 * P - 1, :P] = eye[inner]
    system[P + 1:2 * P - 1, P:] = H[inner]
    system[[0, P - 1, P, 2 * P - 1], P:] = [eye[0], eye[-1], st._slip_plus, st._slip_minus]
    return system


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
class TestExtendedPrecision:
    """The solve, one nonlinear step and a linear run at M = 32, P = 64
    against a long-double reference on the same double operators: Gaussian
    elimination for the Poisson-Dirichlet solve, and for a step the coupled
    system of each mode (``_coupled_system``).

    The bounds sit between the stepper and slip rows S K^-1 built another
    way, whose errors grow by cancellation in S phi.  On these states the
    nonlinear step reads 2.2e-13 and 2.0e-13 off for the two slip pairs and
    the linear run 7.1e-14.  With slip rows from the eigenbasis they read
    1.2e-12, 1.2e-12 and 8.5e-12; from a solve with K^T in place of the
    inverse of K, 8.7e-13, 2.7e-12 and 8.1e-13."""

    M, P = 32, 64

    def _stepper(self, xi=(1.0, 1.0), linearized=False):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(*xi))
        cfg = SimConfig(channel=channel, M=self.M, P=self.P, dt=4.0e-3, t_end=0.1,
                        linearized=linearized)
        rows = _locked_rows(self.M, self.P, 2)
        if linearized:
            rows[2:] = 0.0
        return ChannelStepper(cfg, SpectralField2D(rows, 1.0))

    def _poisson_long(self, st, omega):
        """Node rows 1 .. M of phi, (D2 - kappa_n^2) phi = -omega inside and
        phi = 0 at the walls, in long double."""
        H = st.D2[1:-1, 1:-1] - (st.kappa[1:] ** 2)[:, None, None] * np.eye(self.P - 2)
        phi = np.zeros((self.M, self.P), dtype=np.longdouble)
        phi[:, 1:-1] = _solve_long(H, -omega[1:, 1:-1, None])[..., 0]
        return phi

    def test_solve_matches_long_double(self):
        st = self._stepper()
        omega = st._state[1]
        want = self._poisson_long(st, omega) @ st._node_coeffs.astype(np.longdouble)
        # the reported streamfunction: the solve, then the folded coefficient map
        got = st._velocity_coeffs(omega, st._solve_planes(omega))[1:, 1]
        assert _mode_error(got, want) <= 1.0e-12

    @pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 3.0)])
    def test_step_matches_long_double(self, xi):
        st = self._stepper(xi)
        P, ld = self.P, np.longdouble
        omega = st._state[1].astype(ld)
        # the advection of the padded products, as ``_advection`` forms it
        pp = st._pad.shape[0]
        fb = self._poisson_long(st, st._state[1]) @ st._pad_with_d.astype(ld)
        fc = omega[1:] @ st._pad_with_d.astype(ld)
        sine, cosine = st._half_sin.astype(ld), st._half_cos.astype(ld)
        prod = ((sine @ fb[:, pp:]) * (cosine @ fc[:, :pp])
                - (cosine @ fb[:, :pp]) * (sine @ fc[:, pp:]))
        adv = (st._half_fwd.astype(ld) @ prod) @ st._unpad.T.astype(ld)
        rhs = (omega[1:] @ st._explicit_base.T.astype(ld)
               - ld(st._alpha) * (st.kappa[1:, None] ** 2) * omega[1:] - ld(st.cfg.dt) * adv)
        b = np.zeros((self.M, 2 * P, 1), dtype=ld)
        b[:, 1:P - 1, 0] = rhs[:, 1:-1]
        system = np.stack([_coupled_system(st, n) for n in range(1, self.M + 1)])
        want = _solve_long(system, b)[:, :P, 0]
        st.step()
        assert _mode_error(st._state[1, 1:], want) <= 5.0e-13

    def test_linear_run_matches_long_double(self):
        # 25 steps of the one live row: T's error accumulates along its
        # growing direction
        st = self._stepper((0.0, 3.0), linearized=True)
        P, ld = self.P, np.longdouble
        assert st._box == (1, slice(1, 2))
        select = np.zeros((2 * P, P - 2))
        select[1:P - 1] = np.eye(P - 2)
        step = _solve_long(_coupled_system(st, 1)[None], select[None])[0, :P]
        explicit = (st._explicit_base - st._alpha * st.kappa[1] ** 2 * np.eye(P))[1:-1]
        want = st._state[1, 1].astype(ld)
        for _ in range(25):
            want = step @ (explicit.astype(ld) @ want)
            st.step()
        assert _mode_error(st._state[1, 1], want) <= 5.0e-13


class TestLinearizedStep:
    """A linearized step advances only its live rows and reads no streamfunction."""

    @staticmethod
    def _stepper(live):
        M, P = 6, 24
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(0.0, 3.0))
        rng = np.random.default_rng(13)
        decay = np.exp(-0.4 * np.arange(P))
        rows = np.zeros((M + 1, P), dtype=complex)
        for n in live:
            rows[n] = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) * decay
        cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, t_end=0.2,
                        linearized=True)
        field = SpectralField2D(rows * 1.0e-3, channel.L)
        return cfg, field, ChannelStepper(cfg, field)

    def test_step_never_solves_the_streamfunction(self):
        _, _, stepper = self._stepper((1, 3))
        calls = []
        solve, advection = stepper._solve_planes, stepper._advection
        stepper._solve_planes = lambda rows: calls.append(1) or solve(rows)
        stepper._advection = lambda phi, w: calls.append(2) or advection(phi, w)
        for _ in range(5):
            stepper.step()
        assert calls == []

    def test_zero_rows_stay_exactly_zero(self):
        _, _, stepper = self._stepper((1, 3))
        for _ in range(200):
            stepper.step()
        dead = [0, 2, 4, 5, 6]
        assert np.all(stepper._state[:, dead] == 0.0)
        assert (np.abs(stepper._rows()[[1, 3]]).max(axis=1) > 0.0).all()
        assert np.all(stepper._history == 0.0)

    def test_zero_state_stays_zero(self):
        _, _, stepper = self._stepper(())
        stepper.step()
        assert np.all(stepper._state == 0.0)

    def test_live_rows_match_per_mode_reference(self):
        cfg, field, stepper = self._stepper((1, 3))
        reference = _PerModeReference(cfg, field)
        for _ in range(100):
            stepper.step()
            reference.step()
        scale = np.abs(reference._rows()).max()
        assert np.abs(stepper._rows() - reference._rows()).max() <= 1.0e-10 * scale

    def test_mid_run_checkpoint_resumes_bit_exactly(self, tmp_path):
        cfg, _, straight = self._stepper((1, 3))
        for _ in range(50):
            straight.step()
        path = write_checkpoint(tmp_path / "mid.bin", straight)
        resumed = read_checkpoint(path, cfg)
        for _ in range(50):
            straight.step()
            resumed.step()
        assert resumed.t == straight.t
        assert np.array_equal(resumed._rows(), straight._rows())
        assert np.array_equal(resumed.streamfunction().coefficients,
                              straight.streamfunction().coefficients)


def _apply(ops, rows):
    """Row n of complex ``rows`` through real operator ``ops[n]``, as one matmul.

    A single (P, P) ``ops`` is applied to every row.  The rows are viewed
    as (M, P, 2) floats, so the real and imaginary parts share the product.
    """
    x = np.ascontiguousarray(rows, dtype=complex)
    y = ops @ x.view(np.float64).reshape(*x.shape, 2)
    return y.view(complex).reshape(x.shape)


def _advection_rows(stepper, phi):
    """The complex advection rows of the stepper's locked state with
    streamfunction rows ``phi`` in the eigenbasis (``_solve_planes``): i a_n
    in rows 1 .. M, a from ``_advection``, and a zero mean row."""
    adv = np.zeros((stepper.cfg.M + 1, stepper.cfg.P), dtype=complex)
    adv[1:] = 1j * stepper._advection(phi.imag[1:], stepper._rows().imag[1:])
    return adv


class _ComplexLockedStep(ChannelStepper):
    """A stepper that steps complex rows through ``_apply``: all of them, or
    on a linearized stepper the rows of its box, with the advection rows of
    the whole state."""

    def step(self):
        cfg = self.cfg
        rows = self._box[1] if cfg.linearized else slice(None)
        omega = self._rows()
        w = omega[rows]
        rhs = _apply(self._explicit_base, w)
        rhs -= self._alpha * (self.kappa[rows] ** 2)[:, None] * w
        history = np.zeros_like(omega)
        if not cfg.linearized:
            history = _advection_rows(self, _complex(self._solve_planes(_planes(omega))))
            blocks = self._blocks()
            ab2 = 1.5 * history - 0.5 * blocks[1] if len(blocks) == 2 else history
            rhs -= cfg.dt * ab2
        omega[rows] = _apply(self._T[rows], rhs)
        self._install(omega, history)
        self.t += cfg.dt


def _locked_rows(M, P, seed):
    """A random decaying state in the locked class: imaginary rows, zero mean row."""
    rng = np.random.default_rng(seed)
    rows = 1.0e-2j * rng.standard_normal((M + 1, P)) * np.exp(-0.3 * np.arange(P))
    rows[0] = 0.0
    return rows


class TestRealLockedStep:
    """A locked step runs on the imaginary block alone and matches the complex rows."""

    @pytest.mark.parametrize("linearized", [False, True], ids=["nonlinear", "linearized"])
    @pytest.mark.parametrize("M, P, L", [(6, 24, 1.0), (16, 56, 1.0), (32, 64, 1.0)])
    def test_matches_the_complex_path(self, M, P, L, linearized):
        channel = ChannelConfig(L=L, mu=0.5, slip=SlipPair(1.0, 1.0))
        cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, t_end=0.2,
                        linearized=linearized)
        # rows 1, M - 1 and M start at zero, so a linearized step has a span
        dead = [0, 1, M - 1, M]
        rows = _locked_rows(M, P, seed=M + P)
        rows[dead] = 0.0
        field = SpectralField2D(rows, L)
        real, ref = ChannelStepper(cfg, field), _ComplexLockedStep(cfg, field)
        assert real._locked and ref._locked
        for _ in range(200):
            real.step()
            ref.step()
        assert len(real._blocks()) == len(ref._blocks()) == 2
        for got, want in zip(real._blocks(), ref._blocks()):
            assert np.abs(got - want).max() <= 1.0e-12 * np.abs(want).max(initial=0.0)
        for planes in (real._state, real._history):
            assert not planes[0].any()
            assert not planes[1, 0].any()
        assert real._history.any() != linearized
        assert real._state[:, dead].any() != linearized


class TestGroupStep:
    """One step of a group of steppers advances each one bit for bit as its
    lone step does, from the first (Euler) step on."""

    @staticmethod
    def _steppers(M, P, B, linearized, seed):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, t_end=0.1,
                        linearized=linearized)
        fields = []
        for i in range(B):
            rows = _locked_rows(M, P, seed=seed + i)
            if linearized:
                rows[[1, 2, M - 1, M]] = 0.0  # live rows 3 .. M - 2
            fields.append(SpectralField2D(rows, 1.0))
        return [ChannelStepper(cfg, f) for f in fields]

    @pytest.mark.parametrize("linearized", [False, True], ids=["nonlinear", "twins"])
    @pytest.mark.parametrize("B", [2, 3, 4])
    @pytest.mark.parametrize("M, P", [(16, 56), (32, 64)])
    def test_matches_lone_steps(self, M, P, B, linearized):
        group = self._steppers(M, P, B, linearized, seed=M + P)
        lone = self._steppers(M, P, B, linearized, seed=M + P)
        if linearized:
            assert group[0]._box[1] == slice(3, M - 1)
        for _ in range(4):
            group[0].step(*group[1:])
            for st in lone:
                st.step()
            for g, one in zip(group, lone):
                assert g.t == one.t and g._have_history
                assert np.array_equal(g._state, one._state)
                assert np.array_equal(g._history, one._history)
        assert group[0]._history.any() != linearized

    def test_non_finite_branch_is_named(self):
        group = self._steppers(16, 56, 3, False, seed=5)
        group[1]._state[1, 1, 0] = np.nan
        with pytest.raises(SimulationBlowupError,
                           match="state stopped being finite at t = 0.001") as err:
            group[0].step(*group[1:])
        assert err.value.steppers == (group[1],)
        # every branch stepped
        assert all(st.t == 1.0e-3 for st in group)

    def test_blow_up_raises_without_floating_point_warnings(self):
        # a locked state scaled to 1e200 overflows the advection's products
        # and leaves inf - inf in them: the step reports that as
        # SimulationBlowupError, not as numpy RuntimeWarnings first
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        cfg = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, t_end=0.1)
        stepper = ChannelStepper(cfg, SpectralField2D(1.0e200 * _locked_rows(16, 56, 5), 1.0))
        assert stepper._locked
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationBlowupError, match="state stopped being finite"):
                stepper.step()

    @pytest.mark.parametrize("other", ["linearized", "box", "operators", "history"])
    def test_mixed_group_is_refused(self, other):
        first = self._steppers(16, 56, 1, other == "box", seed=1)[0]
        if other == "linearized":
            second = self._steppers(16, 56, 1, True, seed=2)[0]
        elif other == "box":
            rows = _locked_rows(16, 56, seed=2)
            rows[[1, 16]] = 0.0
            second = ChannelStepper(first.cfg, SpectralField2D(rows, 1.0))
        elif other == "operators":
            second = ChannelStepper(replace(first.cfg, dt=2.0e-3),
                                    SpectralField2D(_locked_rows(16, 56, 2), 1.0))
        else:
            second = self._steppers(16, 56, 1, False, seed=2)[0]
            second.step()
        before = [st._state.copy() for st in (first, second)]
        with pytest.raises(ValueError, match="must share the operators"):
            first.step(second)
        for st, state in zip((first, second), before):
            assert np.array_equal(st._state, state)


class TestSharedOperators:
    """Steppers of one configuration share one read-only build of the operators."""

    @staticmethod
    def _cfg(**kwargs):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        return SimConfig(**{"channel": channel, "M": 6, "P": 24, "dt": 1.0e-3,
                            "t_end": 0.1, **kwargs})

    def test_equal_configurations_share_one_build(self):
        zero = SpectralField2D(np.zeros((7, 24), dtype=complex), 1.0)
        first = ChannelStepper(self._cfg(), zero)
        # the linearized flag and t_end are not part of the operators
        second = ChannelStepper(self._cfg(linearized=True, t_end=0.5), zero)
        for name in ("_T", "_to_eig", "_eig_solve", "_coeff_map", "_influence_cond"):
            assert getattr(second, name) is getattr(first, name)
        # the channel build is dt-free: a stepper of another dt shares it
        # and holds its own step map
        other = ChannelStepper(self._cfg(dt=2.0e-3), zero)
        for name in ("_to_eig", "_eig_solve", "_coeff_map", "_slip_kinv"):
            assert getattr(other, name) is getattr(first, name)
        assert other._T is not first._T
        assert np.abs(other._T - first._T).max() > 0.0
        # the advection tables depend on the grid alone: two nonlinear
        # steppers that differ in dt share them
        for name in ("_phi_pad", "_pad", "_unpad", "_half_sin", "_half_fwd"):
            assert getattr(other, name) is getattr(first, name)

    def test_linearized_stepper_holds_no_advection_table(self):
        _advection_tables.cache_clear()
        zero = SpectralField2D(np.zeros((7, 24), dtype=complex), 1.0)
        stepper = ChannelStepper(self._cfg(linearized=True), zero)
        tables = ("_n1", "_pad", "_unpad", "_pad_with_d", "_phi_pad", "_half_sin",
                  "_closed_cos", "_half_cos", "_half_fwd")
        assert not set(tables) & set(vars(stepper))
        assert _advection_tables.cache_info().currsize == 0
        # its CFL number still reads the tables of its grid
        assert stepper.cfl_number() == 0.0
        assert _advection_tables.cache_info().currsize == 1

    def test_linearized_run_leaves_the_advection_tables_unbuilt(self, channel, basis48):
        field, _ = mode_field(channel, basis48, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, t_end=5.0e-3,
                        linearized=True, diagnostics_stride=1)
        _advection_tables.cache_clear()
        result = run(field, cfg)
        assert result.diagnostics.times.size == 6
        assert _advection_tables.cache_info().currsize == 0

    def test_cached_operators_are_read_only(self):
        stepper = ChannelStepper(self._cfg(), SpectralField2D(_locked_rows(6, 24, 1), 1.0))
        state = {"_state", "_history"}
        ops = {k: v for k, v in vars(stepper).items()
               if isinstance(v, np.ndarray) and k not in state}
        assert {"_T", "_to_eig", "_eig_solve", "_phi_pad", "_node_coeffs",
                "_influence_cond", "_explicit_base", "_pad_with_d", "_half_cos",
                "_coeff_map"} <= set(ops)
        assert not any(v.flags.writeable for v in ops.values())
        with pytest.raises(ValueError, match="read-only"):
            stepper._T[1, 0, 0] = stepper._T[1, 0, 0]
        # the state is the stepper's own and stays writable
        stepper.step()
        assert stepper._state.flags.writeable

    @pytest.mark.parametrize("M, P", [(16, 56), (32, 64)])
    def test_right_operands_of_a_step_are_c_contiguous(self, M, P):
        # BLAS multiplies a C-contiguous right operand fastest, so every table
        # a nonlinear step multiplies from the right is C-contiguous as read,
        # the transposed ones stored Fortran-ordered; a last step's too
        cfg = self._cfg(M=M, P=P)
        stepper = ChannelStepper(cfg, SpectralField2D(np.zeros((M + 1, P), dtype=complex), 1.0))
        last = _last_step_operators(cfg, 4.0e-4)
        operands = {"_pad_with_d": stepper._pad_with_d, "_phi_pad": stepper._phi_pad,
                    "_to_eig": stepper._to_eig, "_unpad.T": stepper._unpad.T,
                    "_explicit_base.T": stepper._explicit_base.T,
                    "last _explicit_base.T": last["_explicit_base"].T}
        assert [k for k, v in operands.items() if not v.flags.c_contiguous] == []

    def test_one_per_mode_matrix_stack(self):
        # the Poisson solve is the shared eigenbasis and a per-mode diagonal,
        # so the Crank-Nicolson/influence stack T is the one (M+1, P, P) array
        M, P = 6, 24
        stepper = ChannelStepper(self._cfg(), SpectralField2D(_locked_rows(M, P, 1), 1.0))
        stacks = [k for k, v in vars(stepper).items()
                  if isinstance(v, np.ndarray) and v.ndim == 3 and v.shape[-2:] == (P, P)]
        assert stacks == ["_T"] and stepper._T.shape == (M + 1, P, P)
        assert stepper._to_eig.shape == (P, P - 2)
        assert stepper._eig_solve.shape == (M + 1, P - 2)
        assert not stepper._to_eig[[0, -1]].any() and not stepper._eig_solve[0].any()

    def test_last_step_of_length_h(self):
        # a last step of length dt is a step, bit for bit; one of length h
        # builds the operators of h and ends at (steps - 1) dt + h
        rows = _locked_rows(6, 24, 3)
        steppers = [ChannelStepper(self._cfg(), SpectralField2D(rows, 1.0)) for _ in range(3)]
        for st in steppers:
            st.step()
        a, b, c = steppers
        a.step()
        b.step(last=_last_step_operators(b.cfg, 1.0e-3))
        assert np.array_equal(a._state, b._state) and np.array_equal(a._history, b._history)
        assert a.t == b.t == 2.0e-3 and a.steps == b.steps == 2
        c.step(last=_last_step_operators(c.cfg, 4.0e-4))
        assert c.steps == 2 and c.t == 1.0e-3 + 4.0e-4
        assert np.abs(c._state - a._state).max() > 0.0

    def test_last_step_reuses_the_channel_build(self, monkeypatch):
        # a last step inverts its Crank-Nicolson stack alone: the Poisson
        # inverse behind S Kinv is the cached channel build's
        cfg = self._cfg()
        ChannelStepper(cfg, SpectralField2D(np.zeros((7, 24), dtype=complex), 1.0))
        inverted = []
        inv = np.linalg.inv

        def counting(a):
            inverted.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        last = _last_step_operators(cfg, 4.0e-4)
        assert inverted == [(7, 24, 24)]
        assert last["_h"] == 4.0e-4 and last["_alpha"] == 0.5 * 0.5 * 4.0e-4

    def test_ill_conditioned_configuration_raises_on_every_construction(self, channel):
        zero = SpectralField2D(np.zeros((3, 24), dtype=complex), channel.L)
        near = SimConfig(channel=channel, M=2, P=24, dt=4.293719, t_end=4.293719)
        for _ in range(2):
            with pytest.raises(InfluenceConditioningError, match="mode n = 1"):
                ChannelStepper(near, zero)


def _dct_to_phys(stepper, rows):
    """Padded product-grid values by DCT-I, zero-pad, inverse DCT-I, irfft."""
    M, P, n1 = stepper.cfg.M, stepper.cfg.P, stepper._n1
    p_pad = math.ceil(3 * P / 2)
    cpad = np.zeros((rows.shape[0], p_pad), dtype=complex)
    cpad[:, :P] = dct_coeffs_from_values(rows, axis=1)
    spec = np.zeros((n1 // 2 + 1, p_pad), dtype=complex)
    spec[: M + 1] = dct_values_from_coeffs(cpad, axis=1)
    return np.fft.irfft(spec, n=n1, axis=0) * n1


def _dct_from_phys(stepper, vals):
    """Node-value rows by rfft, DCT-I, truncation to P, inverse DCT-I."""
    M, P, n1 = stepper.cfg.M, stepper.cfg.P, stepper._n1
    spec = np.fft.rfft(vals, axis=0)[: M + 1] / n1
    c = dct_coeffs_from_values(spec, axis=1)[:, :P]
    return dct_values_from_coeffs(c, axis=1)


def _dct_advection(stepper, phi):
    """The u . grad omega rows 1 .. M of a state with no mean flow, with the
    DCT transforms."""
    u1, u2 = velocity_nodes(stepper, phi, stepper._rows()[0])
    omega = stepper._rows()
    w1 = (1j * stepper.kappa)[:, None] * omega
    w2 = omega @ stepper.D.T
    u1p, u2p = _dct_to_phys(stepper, u1), _dct_to_phys(stepper, u2)
    adv = _dct_from_phys(
        stepper,
        u1p * _dct_to_phys(stepper, w1) + u2p * _dct_to_phys(stepper, w2),
    )
    return adv[1:]


def _fft_to_phys(stepper, rows):
    """Padded product-grid values of the first node-value rows on the full
    x1 period: irfft, then the stepper's ``_pad``."""
    n1 = stepper._n1
    spec = np.zeros((n1 // 2 + 1, stepper.cfg.P), dtype=complex)
    spec[: rows.shape[0]] = rows
    return (np.fft.irfft(spec, n=n1, axis=0) * n1) @ stepper._pad.T


def _fft_from_phys(stepper, vals):
    """Node-value rows (M+1, P) of padded product-grid values: the
    stepper's ``_unpad``, then rfft."""
    n1 = stepper._n1
    return np.fft.rfft(vals @ stepper._unpad.T, axis=0)[: stepper.cfg.M + 1] / n1


def _transform_mismatch(stepper, rng):
    """Largest relative difference of the pad and unpad matrices, composed
    with x1 FFTs, from the DCT path."""
    M, P, n1 = stepper.cfg.M, stepper.cfg.P, stepper._n1
    rows = rng.standard_normal((M + 1, P)) + 1j * rng.standard_normal((M + 1, P))
    rows[0] = rows[0].real
    vals = rng.standard_normal((n1, math.ceil(3 * P / 2)))
    worst = 0.0
    for got, want in ((_fft_to_phys(stepper, rows), _dct_to_phys(stepper, rows)),
                      (_fft_from_phys(stepper, vals), _dct_from_phys(stepper, vals))):
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    return worst


class TestPaddedTransforms:
    """The pad and unpad matrices against the DCT-I composition they replace."""

    @staticmethod
    def _stepper(P):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        cfg = SimConfig(channel=channel, M=6, P=P, dt=1.0e-3, t_end=0.05)
        return ChannelStepper(cfg, SpectralField2D(np.zeros((7, P), dtype=complex), 1.0))

    @pytest.mark.parametrize("P", [24, 56, 64])
    def test_matrices_match_dct_path(self, P):
        stepper = self._stepper(P)
        assert stepper._pad.shape == (math.ceil(3 * P / 2), P)
        assert stepper._unpad.shape == (P, math.ceil(3 * P / 2))
        assert _transform_mismatch(stepper, np.random.default_rng(P)) <= 1.0e-13

    @pytest.mark.parametrize("P", [24, 56, 64])
    def test_perturbed_pad_matrix_is_caught(self, P):
        stepper = self._stepper(P)
        rng = np.random.default_rng(P + 1)
        stepper._pad = stepper._pad * (1.0 + 1.0e-9 * rng.standard_normal(stepper._pad.shape))
        assert _transform_mismatch(stepper, np.random.default_rng(P)) > 1.0e-13


class TestLockedAdvection:
    """A locked stepper forms its products on half the x1 period."""

    @staticmethod
    def _stepper(M, P, L=1.0, in_class=True, seed=0):
        """A random decaying state: in the locked class on a nonlinear
        stepper, or off it (real parts and a mean row) on a linearized one."""
        channel = ChannelConfig(L=L, mu=0.5, slip=SlipPair(1.0, 1.0))
        rng = np.random.default_rng(seed)
        decay = np.exp(-0.3 * np.arange(P))
        rows = rng.standard_normal((M + 1, P)) * decay
        if in_class:
            rows = 1j * rows
            rows[0] = 0.0
        else:
            rows = rows + 1j * rng.standard_normal((M + 1, P)) * decay
            rows[0] = rows[0].real
        cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, t_end=0.05,
                        linearized=not in_class)
        return ChannelStepper(cfg, SpectralField2D(rows * 1.0e-2, L))

    @pytest.mark.parametrize("M, P, L", [(2, 16, 1.0), (6, 24, 1.0), (5, 17, 2.0),
                                         (3, 23, 0.5), (9, 31, 1.0), (16, 56, 1.0),
                                         (32, 64, 1.0), (64, 64, 1.0)])
    def test_matches_dct_path(self, M, P, L):
        stepper = self._stepper(M, P, L, seed=M + P)
        # the public tendency against the DCT path on the reference solve
        got = -stepper.tendency_split()[1]
        want = _dct_advection(stepper, solve_streamfunction(stepper))
        assert np.abs(got[1:] - want).max() <= 1.0e-13 * np.abs(want).max()
        assert np.all(got[0] == 0.0)
        assert np.all(got.real == 0.0)

    @pytest.mark.parametrize("M", [2, 7, 32])
    def test_cached_matrices_are_the_transforms(self, M):
        stepper = self._stepper(M, 16)
        n1 = stepper._n1
        half = n1 // 2
        sine = sfft.dst(np.eye(M), type=1, n=half - 1, axis=0)
        cos_rows = np.zeros((M + 1, M))
        cos_rows[1:] = np.eye(M)
        cosine = sfft.dct(cos_rows, type=1, n=half + 1, axis=0)[1:-1]
        forward = sfft.dst(np.eye(half - 1), type=1, axis=0)[:M] / -n1
        assert np.abs(stepper._half_sin - sine).max() <= 1.0e-14
        assert np.abs(stepper._half_cos / stepper.kappa[1:] - cosine).max() <= 1.0e-14
        assert np.abs(stepper._half_fwd - forward).max() <= 1.0e-14

    @pytest.mark.parametrize("M", [2, 7, 32])
    def test_locked_matrices_are_slices_of_one_table(self, M):
        stepper = self._stepper(M, 16)
        n1 = stepper._n1
        half = n1 // 2
        # the table is the x1 synthesis of unit rows 1 .. M on the closed
        # half period, rows j = 0 .. n1/2 of the full-period irfft
        unit = np.zeros((half + 1, M), dtype=complex)
        unit[1 : M + 1] = np.eye(M)
        cos = (np.fft.irfft(unit, n=n1, axis=0) * n1)[: half + 1]
        sin = -(np.fft.irfft(1j * unit, n=n1, axis=0) * n1)[: half + 1]
        assert stepper._closed_cos.shape == (half + 1, M)
        assert np.abs(stepper._closed_cos / stepper.kappa[1:] - cos).max() <= 1.0e-14
        assert stepper._half_sin.shape == (half - 1, M)
        assert np.abs(stepper._half_sin - sin[1:half]).max() <= 1.0e-14
        for got, want in ((stepper._half_cos, stepper._closed_cos[1:-1]),
                          (stepper._half_fwd, stepper._half_sin.T / -n1)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_locked_step_calls_no_transform(self, monkeypatch):
        stepper = self._stepper(6, 24)
        # a linearized state off the class steps the same matrices
        off = self._stepper(6, 24, in_class=False)

        def refuse(*args, **kwargs):
            raise AssertionError("a step or a CFL estimate called a transform")

        for module, name in ((np.fft, "rfft"), (np.fft, "irfft"),
                             (sfft, "dst"), (sfft, "dct")):
            monkeypatch.setattr(module, name, refuse)
        stepper.step()
        stepper.tendency_split()
        assert stepper.cfl_number() > 0.0
        off.step()
        off.tendency_split()

    def test_locked_cfl_is_the_general_formula(self):
        locked = self._stepper(6, 24)
        for _ in range(3):
            locked.step()
        # the CFL formula on the whole period, after steps
        want = _full_period_cfl(locked, solve_streamfunction(locked))
        assert want > 0.0
        assert abs(locked.cfl_number() - want) <= CFL_ULPS * np.spacing(want)


def _full_period_cfl(stepper, phi):
    """The CFL formula on the whole padded grid of n1 = 4M points, by ``_fft_to_phys``.

    dt (max |u1| / dx1 + max |u2| / dx2_min), dx1 = 2 pi L / n1 and dx2_min
    the CGL spacing next to a wall.
    """
    u1, u2 = velocity_nodes(stepper, phi, stepper._rows()[0])
    m1 = np.abs(_fft_to_phys(stepper, u1)).max(initial=0.0)
    m2 = np.abs(_fft_to_phys(stepper, u2)).max(initial=0.0)
    x2 = cgl_nodes(stepper.cfg.P)
    dx1 = 2.0 * math.pi * stepper.L / max(4 * stepper.cfg.M, 8)
    return stepper.cfg.dt * (m1 / dx1 + m2 / (x2[0] - x2[1]))


class TestLockedCfl:
    """A locked stepper reads its CFL off the closed half x1 period."""

    @pytest.mark.parametrize("M, P, L", [(2, 16, 1.0), (6, 24, 1.0), (5, 17, 2.0),
                                         (16, 56, 1.0), (32, 64, 1.0)])
    def test_matches_the_full_period_on_every_prefix(self, M, P, L):
        # the streamfunction rows 0 .. b-1 of the state, the later rows zero
        stepper = TestLockedAdvection._stepper(M, P, L, seed=M + P)
        assert stepper._locked
        phi = solve_streamfunction(stepper)
        eig = stepper._solve_planes(stepper._state[1])
        for b in range(1, M + 2):
            prefix, eig_prefix = np.zeros_like(phi), np.zeros_like(eig)
            prefix[:b], eig_prefix[:b] = phi[:b], eig[:b]
            got, want = stepper.cfl_number(eig_prefix), _full_period_cfl(stepper, prefix)
            assert abs(got - want) <= CFL_ULPS * np.spacing(want), b

    def test_cfl_of_a_state_off_the_class_is_refused(self):
        # only a linearized stepper holds such a state, and it has no CFL bound
        stepper = TestLockedAdvection._stepper(6, 24, in_class=False)
        assert not stepper._locked
        with pytest.raises(ValueError, match="odd-in-x1"):
            stepper.cfl_number()

    @pytest.mark.parametrize("end", ["start", "middle"])
    def test_reads_both_ends_of_the_half_period(self, end):
        # phi_n = i g / kappa_n on rows 1 and 2 with g = 1 - x2^2 gives
        # u2 = 2 g (cos(x1 / L) + sign cos(2 x1 / L)), whose largest
        # magnitude is taken at x1 = 0 alone (sign +1) or x1 = pi L alone
        sign = 1.0 if end == "start" else -1.0
        M, P, L = 6, 24, 1.0
        channel = ChannelConfig(L=L, mu=0.5, slip=SlipPair(1.0, 1.0))
        g = np.zeros(P)
        g[0], g[2] = 0.5, -0.5
        rows = np.zeros((M + 1, P), dtype=complex)
        rows[1], rows[2] = 1j * L * g, sign * 0.5j * L * g
        cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3)
        stepper = ChannelStepper(cfg, SpectralField2D(rows, L))
        assert stepper._locked
        phi = solve_streamfunction(stepper)
        u2 = _fft_to_phys(stepper, velocity_nodes(stepper, phi, stepper._rows()[0])[1])
        peak = np.abs(u2).max(axis=1)
        j = 0 if end == "start" else stepper._n1 // 2
        assert np.argmax(peak) == j
        assert np.delete(peak, j).max() < 0.95 * peak[j]
        want = _full_period_cfl(stepper, phi)
        assert abs(stepper.cfl_number() - want) <= CFL_ULPS * np.spacing(want)

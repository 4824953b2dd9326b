"""Run driver: diagnostics files, checkpointing, restart exactness, failure paths."""

import importlib
import json
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import mode_field, node_velocity

from slipflow.model import ChannelConfig, SlipPair, ValidationError
from slipflow.numerics import build_basis
from slipflow.sim import (
    SimConfig,
    SimulationBlowupError,
    check_boundary_conditions,
    diagnostics_to_csv,
    energy_to_csv,
    read_checkpoint,
    run,
    write_checkpoint,
)
from slipflow.sim.run import (
    CHECKPOINT_HEADER_BYTES,
    CHECKPOINT_MAGIC,
    RunDiagnostics,
    _record_block,
    _Recorder,
    solver_health,
)
from slipflow.sim.stepper import CFL_ABORT, INFLUENCE_COND_MAX, ChannelStepper
from slipflow.sim.energy import boundary_production, gradient_dissipation
from slipflow.sim.field import (
    SpectralField2D,
    cgl_nodes,
    cheb_coeffs_from_values,
    scalar_inner,
    velocity_from_streamfunction,
    velocity_norms,
)


@pytest.fixture(scope="module")
def channel():
    return ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))


@pytest.fixture(scope="module")
def growing_run(channel, basis48):
    field, lam = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
    cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.5,
                    linearized=True, diagnostics_stride=10)
    return run(field, cfg), cfg, lam


# the module, not the function ``run`` the package exports under its name
run_mod = importlib.import_module("slipflow.sim.run")

# the RunDiagnostics series of each CSV's columns, in column order
_DIAGNOSTICS_SERIES = ("times", "l2_norm", "h1_norm", "h2_norm", "boundary_production",
                       "dissipation", "growth_rate_estimate")
_ENERGY_SERIES = ("times", "energy_rate", "boundary_production", "dissipation",
                  "nonlinear_flux", "energy_residual")


# the nine series a record appends, in its order
_RECORD_SERIES = ("times", "l2_norm", "h1_norm", "h2_norm", "boundary_production",
                  "dissipation", "nonlinear_flux", "energy_rate", "energy_residual")


def _record_row(diag, i):
    """Record ``i`` of ``diag``: its nine values, in the order a record appends them."""
    return tuple(float(getattr(diag, name)[i]) for name in _RECORD_SERIES)


def _assert_same_bits(a, b):
    """Every series of two RunDiagnostics (or arrays) is equal bit for bit."""
    pairs = ([(getattr(a, f.name), getattr(b, f.name)) for f in fields(RunDiagnostics)]
             if isinstance(a, RunDiagnostics) else [(a, b)])
    for x, y in pairs:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        assert x.shape == y.shape
        np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


def _assert_columns_are_series(path, diag, series):
    """Every column of the CSV at ``path`` is its series, bit for bit."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1)
    want = np.column_stack([getattr(diag, name) for name in series])
    assert arr.shape == want.shape
    np.testing.assert_array_equal(arr.view(np.uint64), want.view(np.uint64))


class TestDiagnostics:
    def test_time_axis_and_lengths(self, growing_run):
        result, cfg, _ = growing_run
        diag = result.diagnostics
        n_records = cfg.n_steps // cfg.diagnostics_stride + 1
        assert diag.times.shape == (n_records,)
        assert diag.times[0] == 0.0
        assert diag.times[-1] == pytest.approx(cfg.n_steps * cfg.dt, rel=1.0e-12)
        for col in (diag.l2_norm, diag.h1_norm, diag.h2_norm,
                    diag.boundary_production, diag.dissipation,
                    diag.growth_rate_estimate, diag.nonlinear_flux,
                    diag.energy_rate, diag.energy_residual):
            assert col.shape == diag.times.shape

    def test_growth_rate_estimate_tracks_eigenvalue(self, growing_run):
        result, _, lam = growing_run
        rates = result.diagnostics.growth_rate_estimate
        assert rates[-1] == pytest.approx(lam, rel=1.0e-3)

    def test_linearized_run_has_zero_nonlinear_flux(self, growing_run, tmp_path):
        result, _, _ = growing_run
        flux = result.diagnostics.nonlinear_flux
        assert (flux == 0.0).all()
        assert not np.signbit(flux).any()
        path = energy_to_csv(result.diagnostics, tmp_path / "energy.csv")
        column = [line.split(",")[4] for line in path.read_text().splitlines()[1:]]
        assert set(column) == {"0"}

    def test_diagnostics_csv_round_trips(self, growing_run, tmp_path):
        result, _, _ = growing_run
        path = diagnostics_to_csv(result.diagnostics, tmp_path / "diag.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,l2,h1,h2,boundary_production,dissipation,growth_rate"
        _assert_columns_are_series(path, result.diagnostics, _DIAGNOSTICS_SERIES)

    def test_energy_csv_round_trips(self, growing_run, tmp_path):
        result, _, _ = growing_run
        path = energy_to_csv(result.diagnostics, tmp_path / "energy.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,dEdt,boundary_production,dissipation,"
                            "nonlinear_flux,residual")
        _assert_columns_are_series(path, result.diagnostics, _ENERGY_SERIES)

    def test_nonlinear_run_csv_columns_are_its_series(self, channel, basis48, tmp_path):
        # a nonlinear run, so the nonlinear_flux column is not all zeros
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.05,
                        diagnostics_stride=5)
        result = run(field, cfg)
        diag = result.diagnostics
        assert (diag.nonlinear_flux != 0.0).any()
        # each series is the quantity its field names: the residual closes the
        # budget as recorded, and the last norms are the final state's
        np.testing.assert_array_equal(
            diag.energy_residual,
            np.abs(diag.energy_rate - diag.boundary_production + diag.dissipation
                   + diag.nonlinear_flux))
        final = velocity_norms(*velocity_from_streamfunction(result.final_state))
        np.testing.assert_allclose([diag.l2_norm[-1], diag.h1_norm[-1], diag.h2_norm[-1]],
                                   final, rtol=1.0e-10)
        _assert_columns_are_series(diagnostics_to_csv(diag, tmp_path / "diag.csv"),
                                   diag, _DIAGNOSTICS_SERIES)
        _assert_columns_are_series(energy_to_csv(diag, tmp_path / "energy.csv"),
                                   diag, _ENERGY_SERIES)

    def test_record_solves_the_state_once(self, channel, basis48, monkeypatch):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=0.1)
        stepper = ChannelStepper(SimConfig(channel=channel, M=8, P=56, dt=1.0e-3), field)
        # the CFL number of the solved imaginary plane, as the record gives it
        phi = stepper._solve_planes(stepper._state[1].copy())
        assert stepper.cfl_number(phi) == stepper.cfl_number() > 0.0
        assert all(np.abs(rows).max() > 0.0 for rows in stepper.tendency_split())

        solved = _count_solves(stepper, monkeypatch)
        rec = _Recorder(stepper)
        rec.record()
        rec.finish()
        # the locked state's imaginary plane: once alone at the capture, for
        # the CFL number and the advection, then its two tendencies in the
        # block of the one record
        state = stepper._state[1:]
        planes = [f for rows in solved for f in rows.reshape(-1, *state.shape)]
        assert [rows.shape for rows in solved] == [(1, 9, 56), (1, 2, 1, 9, 56)]
        assert sum(np.array_equal(f, state) for f in planes) == 1

    def test_linearized_record_reads_the_prefix_and_solves_the_state_once(
        self, channel, basis48, monkeypatch
    ):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=0.1)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=1.0e-3, linearized=True)
        stepper = ChannelStepper(cfg, field)
        assert stepper._box == (1, slice(1, 2))
        rec = _Recorder(stepper)
        rec.record()
        rec.evaluate()

        # a locked prefix record reads rows 0 .. 1 of the imaginary plane alone
        prefix = stepper._state[1:, :2].copy()
        stepper._state[0] = np.nan
        stepper._state[:, 2:] = np.nan
        solved = _count_solves(stepper, monkeypatch)
        rec.record()
        with np.errstate(invalid="ignore"):  # both records at one t: a 0/0 growth rate
            diag = rec.finish()
        assert _record_row(diag, 1) == _record_row(diag, 0)
        assert [rows.shape for rows in solved] == [(1, 2, 1, 2, 56)]
        np.testing.assert_array_equal(solved[0][0, 0], prefix)


def _count_solves(stepper, monkeypatch):
    """The list of copies of the arrays each later ``_solve_planes`` call is
    given, before it solves them in place."""
    solve, solved = stepper._solve_planes, []

    def counting(rows):
        solved.append(rows.copy())
        return solve(rows)

    monkeypatch.setattr(stepper, "_solve_planes", counting)
    return solved


def _random_stepper(channel, live, M=8, P=32, locked=False, linearized=True):
    """Stepper whose nonzero streamfunction rows are ``live``.

    Each row is a random decaying series, made to vanish at both walls for
    n >= 1; three steps then bring the state onto the slip conditions.
    ``locked`` keeps only the imaginary parts, so the state is in the
    locked class when row 0 is not live, as a nonlinear state must be.
    """
    rng = np.random.default_rng(len(live) + 10 * max(live))
    amp = 1.0e-2 * np.exp(-0.5 * np.arange(P))
    rows = np.zeros((M + 1, P), dtype=complex)
    for n in live:
        c = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) * amp
        if locked:
            c = 1j * c.imag
        if n == 0:
            c = c.real
        else:
            top, bot = c.sum(), (c * (-1.0) ** np.arange(P)).sum()
            c[0] -= 0.5 * (top + bot)
            c[1] -= 0.5 * (top - bot)
        rows[n] = c
    cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, linearized=linearized)
    stepper = ChannelStepper(cfg, SpectralField2D(rows, channel.L))
    for _ in range(3):
        stepper.step()
    return stepper


def _full_row_record(stepper):
    """The record's row on all M+1 rows from the per-field functions, with
    the velocities of the state and of ``tendency_split``'s rows built in
    node space (``conftest.node_velocity``), not by the stepper's map."""
    u1, u2 = node_velocity(stepper, stepper._rows())
    l2, h1, h2 = velocity_norms(u1, u2)
    bp = boundary_production(u1, stepper.slip)
    diss = gradient_dissipation(u1, u2, stepper.mu)
    visc, adv = stepper.tendency_split()
    v1, v2 = node_velocity(stepper, visc)
    dedt = scalar_inner(u1, v1) + scalar_inner(u2, v2)
    if stepper.cfg.linearized:
        assert not adv.any()
        nlf = 0.0
    else:
        a1, a2 = node_velocity(stepper, adv)
        nlf = -(scalar_inner(u1, a1) + scalar_inner(u2, a2))
        dedt -= nlf
    resid = abs(dedt - bp + diss + nlf)
    row = (stepper.t, l2, h1, h2, bp, diss, nlf, dedt, resid)
    return row, (u1, u2)


def _assert_record_matches(got, want):
    """Nine record fields against the reference row.

    t is exact; l2, h1, bp, diss and dedt agree to 1e-12 relative and h2 to
    1e-11.  nlf and resid cancel to roundoff, so they agree to 1e-12 of
    the dissipation, the scale of the energy rates.
    """
    diss = want[5]
    assert got[0] == want[0]
    for name, g, w in zip(("l2", "h1", "h2", "bp", "diss"), got[1:6], want[1:6]):
        tol = 1.0e-11 if name == "h2" else 1.0e-12
        assert abs(g - w) <= tol * abs(w), name
    assert abs(got[7] - want[7]) <= 1.0e-12 * abs(want[7]), "dedt"
    for name, i in (("nlf", 6), ("resid", 8)):
        assert abs(got[i] - want[i]) <= 1.0e-12 * diss, name


def _check_record(stepper):
    """The record of the stepper's state against ``_full_row_record``: the
    velocity coefficient planes its block evaluation gives have the b rows
    the diagnostics read, the imaginary plane alone for a locked state, each
    velocity coefficient within 1e-14 of the largest full-row one, and its
    row matches the reference's."""
    b = max(stepper._box[1].stop, 1)
    rec = _Recorder(stepper)
    rec.record()
    row = _record_row(rec.finish(), -1)
    x = stepper._diagnostic_planes()[None]
    values, s = _record_block(stepper, x,
                              None if stepper.cfg.linearized else stepper._solve_planes(x))
    c, norms = s[0], tuple(float(v[0]) for v in values[:3])
    want, full = _full_row_record(stepper)

    assert c.shape == (1 if stepper._locked else 2, b, 2, stepper.cfg.P)
    rows = 1j * c[0] if stepper._locked else c[0] + 1j * c[1]
    velocity = (rows[:, 0], -1j * stepper.kappa[:b, None] * rows[:, 1])
    for got, ref in zip(velocity, full):
        scale = np.abs(ref.coefficients).max()
        assert not ref.coefficients[b:].any()
        assert np.abs(got - ref.coefficients[:b]).max() <= 1.0e-14 * scale
    _assert_record_matches(row, want)
    assert norms == row[1:4]
    assert tuple(float(v[0]) for v in values) == row[1:]
    return row


class TestLinearizedPrefixRecord:
    """A linearized record works on rows 0 .. b-1 and matches the full rows."""

    @pytest.mark.parametrize(
        "live", [(1,), (1, 3), (0, 2), (0,)],
        ids=["row1", "rows1and3", "mean_row", "mean_row_only"],
    )
    def test_prefix_record_matches_full_rows(self, channel, live):
        stepper = _random_stepper(channel, live)
        assert not stepper._locked
        self._check_prefix_record(stepper, live)

    @pytest.mark.parametrize("live", [(1,), (1, 3)], ids=["row1", "rows1and3"])
    def test_locked_prefix_record_matches_full_rows(self, channel, live):
        stepper = _random_stepper(channel, live, locked=True)
        assert stepper._locked
        self._check_prefix_record(stepper, live)

    @staticmethod
    def _check_prefix_record(stepper, live):
        assert stepper._box[1] == slice(min(live), max(live) + 1)
        nlf = _check_record(stepper)[6]
        assert nlf == 0.0 and not np.signbit(nlf)

    def test_all_zero_state_records_zeros(self, channel):
        # a linearized zero state has an empty box and reads the mean row; a
        # nonlinear one has all its rows and an exactly zero advection
        M, P = 8, 32
        zero = SpectralField2D(np.zeros((M + 1, P), dtype=complex), channel.L)
        for linearized, rows in ((True, slice(0, 0)), (False, slice(1, M + 1))):
            cfg = SimConfig(channel=channel, M=M, P=P, dt=1.0e-3, linearized=linearized)
            stepper = ChannelStepper(cfg, zero)
            assert stepper._box == (1, rows)
            rec = _Recorder(stepper)
            rec.record()
            row = _record_row(rec.finish(), -1)
            assert row[1:4] == (0.0, 0.0, 0.0)
            assert row == (0.0,) * 9
            assert not np.signbit(row).any()


class TestNonlinearRecord:
    """The one-pass record of a nonlinear state matches the public functions."""

    def test_record_matches_full_rows(self, channel, basis48):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3)
        stepper = ChannelStepper(cfg, field)
        for _ in range(5):
            stepper.step()
        assert stepper._locked
        _check_record(stepper)

    def test_acceptance_grid_record_matches_full_rows(self, channel, basis48):
        field, _ = mode_field(channel, basis48, M=32, P=64, amplitude=0.05)
        stepper = ChannelStepper(SimConfig(channel=channel, M=32, P=64, dt=2.0e-3), field)
        for _ in range(5):
            stepper.step()
        assert stepper._locked
        _check_record(stepper)


class TestSmallGridRecord:
    """At M = 2, P = 17 and strongly unequal walls the record still matches."""

    @pytest.mark.parametrize("xi", [(0.0, 3.0), (10.0, 0.1)], ids=["xi0-3", "xi10-0.1"])
    @pytest.mark.parametrize(
        "live, locked, linearized",
        [((0, 1, 2), False, True), ((1, 2), True, False)],
        ids=["linearized", "locked-nonlinear"],
    )
    def test_record_matches_full_rows(self, xi, live, locked, linearized):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(*xi))
        stepper = _random_stepper(channel, live, M=2, P=17, locked=locked,
                                  linearized=linearized)
        assert stepper._locked == locked
        _check_record(stepper)


def _recorded_in_blocks(stepper, records, monkeypatch):
    """The diagnostics of ``records`` records of ``stepper``, one step apart,
    evaluated as one block and as one block per record."""
    monkeypatch.setattr(run_mod, "_BLOCK_BYTES", math.inf)
    whole, single = _Recorder(stepper), _Recorder(stepper)
    for m in range(records):
        if m:
            stepper.step()
        whole.record()
        single.record()
        single.evaluate()
    assert not whole.values and len(single.values) == records
    return whole.finish(), single.finish()


class TestBlockIndependence:
    """A record's row does not depend on the block it is evaluated in."""

    @pytest.mark.parametrize(
        "live, locked",
        [((1,), False), ((1, 3), False), ((0, 2), False), ((0,), False),
         ((1,), True), ((1, 3), True)],
        ids=["row1", "rows1and3", "mean_row", "mean_row_only",
             "locked-row1", "locked-rows1and3"],
    )
    def test_linearized_rows(self, channel, live, locked, monkeypatch):
        stepper = _random_stepper(channel, live, locked=locked)
        assert stepper._locked == locked
        whole, single = _recorded_in_blocks(stepper, 7, monkeypatch)
        assert (whole.l2_norm > 0.0).all()
        _assert_same_bits(whole, single)

    @pytest.mark.parametrize("M, P", [(8, 17), (16, 32)], ids=["M8-P17", "M16-P32"])
    @pytest.mark.parametrize("linearized", [True, False], ids=["linearized", "nonlinear"])
    def test_broadband_rows(self, channel, M, P, linearized, monkeypatch):
        # every row live with comparable sizes, so each sum and dot of a
        # record adds terms of every size, and an order other than a lone
        # record's (one gemv of the block's rows, one product of all its
        # coefficient rows) changes low bits of its row
        live = tuple(range(0 if linearized else 1, M + 1))
        stepper = _random_stepper(channel, live, M=M, P=P, locked=not linearized,
                                  linearized=linearized)
        whole, single = _recorded_in_blocks(stepper, 9, monkeypatch)
        if not linearized:
            assert (whole.nonlinear_flux != 0.0).all()
        _assert_same_bits(whole, single)

    @pytest.mark.parametrize("linearized", [True, False], ids=["linearized", "nonlinear"])
    def test_zero_state_rows(self, channel, linearized, monkeypatch):
        zero = SpectralField2D(np.zeros((9, 32), dtype=complex), channel.L)
        cfg = SimConfig(channel=channel, M=8, P=32, dt=1.0e-3, linearized=linearized)
        whole, single = _recorded_in_blocks(ChannelStepper(cfg, zero), 4, monkeypatch)
        assert not whole.l2_norm.any()
        _assert_same_bits(whole, single)

    def test_nonlinear_acceptance_grid_run(self, channel, basis48, monkeypatch):
        # M = 32, P = 64: a record stashes 33 KB, so the default cap already
        # evaluates one record per block; a cap of inf makes one block
        field, _ = mode_field(channel, basis48, M=32, P=64, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=32, P=64, dt=2.0e-3, t_end=0.02,
                        diagnostics_stride=1)
        results = []
        for cap in (0, math.inf):
            monkeypatch.setattr(run_mod, "_BLOCK_BYTES", cap)
            results.append(run(field, cfg))
        one, whole = results
        assert one.diagnostics.times.size == 11
        assert (one.diagnostics.nonlinear_flux != 0.0).any()
        _assert_same_bits(one.diagnostics, whole.diagnostics)
        _assert_same_bits(one.record_cfl, whole.record_cfl)

    @pytest.mark.parametrize("linearized", [True, False], ids=["linearized", "nonlinear"])
    def test_resumed_run_rows_equal_the_straight_runs(self, channel, basis48, tmp_path,
                                                      linearized):
        # a stepper read back from the step-17 checkpoint records the same
        # steps as the straight run, whose blocks start at step 0: 19 records
        # of the linearized run fill the 16 KiB cap and 3 of the nonlinear
        # one, so the two runs evaluate the records in different blocks
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1,
                        linearized=linearized, diagnostics_stride=1)
        straight = run(field, cfg, out_dir=tmp_path, checkpoint_stride=17)
        stepper = read_checkpoint(tmp_path / "checkpoint_00000017.bin", cfg)
        rec = _Recorder(stepper)
        rec.record()
        for _ in range(cfg.n_steps - 17):
            stepper.step()
            rec.record()
        resumed = rec.finish()
        assert len(rec.values) == (2 if linearized else 12)
        for name in _RECORD_SERIES:
            _assert_same_bits(getattr(resumed, name), getattr(straight.diagnostics, name)[17:])
        _assert_same_bits(rec.cfl, straight.record_cfl[17:])


def _packet_stepper(channel, basis48, locked, linearized, M=8, P=56):
    """A stepper on the k = 1 packet, or on the packet shifted in x1 (real
    mode rows, so off the locked class) when ``locked`` is False; only a
    linearized stepper takes a state off the class."""
    field, _ = mode_field(channel, basis48, M=M, P=P, amplitude=0.05)
    if not locked:
        field = SpectralField2D(field.coefficients * np.exp(0.3j), field.L)
    cfg = SimConfig(channel=channel, M=M, P=P, dt=2.0e-3, t_end=0.2,
                    linearized=linearized)
    return ChannelStepper(cfg, field), cfg


# (locked, linearized) of the states a stepper takes: a nonlinear one is locked
_BOXES = [pytest.param(True, False, id="locked-nonlinear"),
          pytest.param(True, True, id="locked-linearized"),
          pytest.param(False, True, id="unlocked-linearized")]


class TestStateBox:
    """The box a step advances is fixed once, when the state is installed."""

    @pytest.mark.parametrize("locked, linearized", _BOXES)
    def test_box_is_fixed_at_install_and_read_back(self, channel, basis48, tmp_path,
                                                   monkeypatch, locked, linearized):
        installs = []
        install = ChannelStepper._install

        def counting(self, *blocks):
            installs.append(len(blocks))
            return install(self, *blocks)

        monkeypatch.setattr(ChannelStepper, "_install", counting)
        stepper, cfg = _packet_stepper(channel, basis48, locked, linearized)
        box = stepper._box
        # the packet is mode 1 alone, so a linearized box is row 1
        rows = slice(1, 2) if linearized else slice(1, cfg.M + 1)
        assert box == (1 if locked else slice(None), rows)
        assert stepper._locked == locked
        rec = _Recorder(stepper)
        for m in range(1, 51):
            stepper.step()
            if m % 10 == 0:
                rec.record()
        assert installs == [1]
        assert stepper._box is box
        clone = read_checkpoint(write_checkpoint(tmp_path / "mid.bin", stepper), cfg)
        assert clone._box == box
        assert installs == [1, 1, 2]  # the clone's zero state, then the two blocks


class TestPublicVelocity:
    """velocity() and tendency_velocity() read the record's coefficient map."""

    @pytest.mark.parametrize("locked, linearized", _BOXES)
    def test_matches_the_node_space_reference(self, channel, basis48, locked, linearized):
        stepper, _ = _packet_stepper(channel, basis48, locked, linearized)
        for _ in range(5):
            stepper.step()
        visc, adv = stepper.tendency_split()
        pairs = [(stepper.velocity(), stepper._rows()), (stepper.tendency_velocity(visc), visc)]
        if not linearized:
            pairs.append((stepper.tendency_velocity(adv), adv))
        for fields, rows in pairs:
            for got, want in zip(fields, node_velocity(stepper, rows)):
                scale = np.abs(want.coefficients).max()
                assert got.M == want.M == stepper.cfg.M and scale > 0.0
                assert np.abs(got.coefficients - want.coefficients).max() <= 1.0e-14 * scale


class TestCheckpointing:
    def test_checkpoints_written_at_stride_and_final_step(
        self, channel, basis48, tmp_path
    ):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.05,
                        linearized=True, diagnostics_stride=5)
        result = run(field, cfg, out_dir=tmp_path, checkpoint_stride=10)
        names = [p.name for p in result.checkpoints]
        assert names == ["checkpoint_00000010.bin", "checkpoint_00000020.bin",
                         "checkpoint_00000025.bin"]
        assert all(p.exists() for p in result.checkpoints)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_checkpoint_stride_below_one_is_rejected(self, channel, basis48,
                                                     tmp_path, stride):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.02,
                        linearized=True)
        with pytest.raises(ValidationError, match="checkpoint_stride"):
            run(field, cfg, out_dir=tmp_path, checkpoint_stride=stride)
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_stride_without_out_dir_is_rejected(self, channel, basis48,
                                                           tmp_path, monkeypatch):
        # there is nowhere to write the checkpoints, so the run is refused
        # before it steps rather than returning an empty checkpoint list
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.02,
                        linearized=True)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="checkpoint_stride.*out_dir"):
            run(field, cfg, checkpoint_stride=5)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _assert_restart_bit_exact(field, cfg, tmp_path):
        """Resume from step 20 and match the straight run; return the resumed stepper."""
        reference = run(field, cfg, out_dir=tmp_path, checkpoint_stride=20)
        mid = tmp_path / "checkpoint_00000020.bin"
        stepper = read_checkpoint(mid, cfg)
        assert stepper.t == pytest.approx(20 * cfg.dt, rel=1.0e-12)
        for _ in range(cfg.n_steps - 20):
            stepper.step()
        resumed = stepper.streamfunction()
        assert np.array_equal(resumed.coefficients,
                              reference.final_state.coefficients)
        return stepper

    def test_clock_is_the_step_count_times_dt(self, channel, basis48, tmp_path):
        # repeated sums of dt = 2e-3 leave m dt from step 10 on; the stepper
        # counts its steps, and a checkpoint carries the count
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1,
                        linearized=True, diagnostics_stride=1)
        stepper, summed = ChannelStepper(cfg, field), 0.0
        for m in range(1, 51):
            stepper.step()
            summed += cfg.dt
            assert stepper.steps == m and stepper.t == m * cfg.dt
        assert summed != stepper.t
        clone = read_checkpoint(write_checkpoint(tmp_path / "s.bin", stepper), cfg)
        assert clone.steps == 50 and clone.t == stepper.t
        times = run(field, cfg).diagnostics.times
        assert np.array_equal(times, np.arange(51) * cfg.dt)

    def test_restart_is_bit_exact(self, channel, basis48, tmp_path):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1,
                        linearized=True, diagnostics_stride=10)
        self._assert_restart_bit_exact(field, cfg, tmp_path)

    # M = 7 forms the locked products at an odd count 2M - 1 of points; the
    # mode comes from a basis of size P - 2, whose profiles have P coefficients
    @pytest.mark.parametrize("M, P, N", [(8, 56, 48), (7, 33, 31)], ids=["M8-P56", "M7-P33"])
    def test_nonlinear_locked_restart_is_bit_exact(self, channel, tmp_path, M, P, N):
        # the AB2 advection history is restored from the checkpoint
        field, _ = mode_field(channel, build_basis(N), M=M, P=P, amplitude=0.05)
        cfg = SimConfig(channel=channel, M=M, P=P, dt=2.0e-3, t_end=0.1,
                        diagnostics_stride=10)
        assert self._assert_restart_bit_exact(field, cfg, tmp_path)._locked

    def test_nonlinear_off_class_checkpoint_is_refused(self, channel, basis48, tmp_path):
        # a nonlinear checkpoint whose blocks are the packet shifted in x1
        # (real mode rows) holds a state the nonlinear step cannot advance
        stepper, cfg = _packet_stepper(channel, basis48, True, False)
        stepper.step()
        path = write_checkpoint(tmp_path / "locked.bin", stepper)
        raw = path.read_bytes()
        body = np.frombuffer(raw[CHECKPOINT_HEADER_BYTES:], dtype=complex) * np.exp(0.3j)
        path.write_bytes(raw[:CHECKPOINT_HEADER_BYTES] + body.tobytes())
        with pytest.raises(ValidationError, match="odd-in-x1"):
            read_checkpoint(path, cfg)

    def test_write_read_checkpoint_preserves_state(self, channel, basis48, tmp_path):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1)
        from slipflow.sim import ChannelStepper

        stepper = ChannelStepper(cfg, field)
        stepper.step()
        stepper.step()
        path = write_checkpoint(tmp_path / "state.bin", stepper)
        clone = read_checkpoint(path, cfg)
        assert clone.t == stepper.t
        assert np.array_equal(clone.streamfunction().coefficients,
                              stepper.streamfunction().coefficients)

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("locked, linearized", _BOXES)
    def test_checkpoint_rewrites_byte_for_byte(self, channel, basis48, tmp_path,
                                               locked, linearized, steps):
        # the state and history planes survive a read exactly, signed zeros included
        stepper, cfg = _packet_stepper(channel, basis48, locked, linearized)
        for _ in range(steps):
            stepper.step()
        first = write_checkpoint(tmp_path / "first.bin", stepper)
        clone = read_checkpoint(first, cfg)
        second = write_checkpoint(tmp_path / "second.bin", clone)
        assert first.read_bytes() == second.read_bytes()
        blocks = 1 if steps == 0 else 2
        size = CHECKPOINT_HEADER_BYTES + blocks * (cfg.M + 1) * cfg.P * 16
        assert len(first.read_bytes()) == size

    def test_checkpoint_keeps_signed_zeros(self, channel, basis48, tmp_path):
        # -0.0 real parts leave a state locked, and a read keeps their sign bits
        stepper, cfg = _packet_stepper(channel, basis48, True, False)
        stepper.step()
        state, history = stepper._blocks()
        state.real = history.real = -0.0
        stepper._install(state, history)
        assert stepper._locked
        first = write_checkpoint(tmp_path / "first.bin", stepper)
        second = write_checkpoint(tmp_path / "second.bin", read_checkpoint(first, cfg))
        assert first.read_bytes() == second.read_bytes()
        body = np.frombuffer(first.read_bytes()[CHECKPOINT_HEADER_BYTES:], dtype=complex)
        assert np.signbit(body.real).all()

    def test_read_checkpoint_rejects_garbage(self, channel, tmp_path):
        cfg = SimConfig(channel=channel, M=8, P=56)
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"NOTACKPT" + b"\x00" * 80)
        with pytest.raises(ValidationError, match="not a checkpoint"):
            read_checkpoint(bad, cfg)

    def test_read_checkpoint_rejects_truncated_body(self, channel, tmp_path):
        cfg = SimConfig(channel=channel, M=8, P=56)
        header = CHECKPOINT_MAGIC + struct.pack(
            "<QQQddddddQ", 3, 8, 56, 1.0, 0.5, 1.0, 1.0, 0.0, cfg.dt, 0
        )
        assert len(header) == CHECKPOINT_HEADER_BYTES
        short = tmp_path / "short.bin"
        short.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ValidationError, match="truncated"):
            read_checkpoint(short, cfg)

    def test_read_checkpoint_rejects_mismatched_config(
        self, channel, basis48, tmp_path
    ):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1)
        from slipflow.sim import ChannelStepper

        path = write_checkpoint(tmp_path / "s.bin", ChannelStepper(cfg, field))
        other = ChannelConfig(L=1.0, mu=0.25, slip=channel.slip)
        with pytest.raises(ValidationError, match="differs"):
            read_checkpoint(path, SimConfig(channel=other, M=8, P=56))

    @pytest.mark.parametrize(
        "change", [{"dt": 1.0e-3}, {"linearized": True}]
    )
    def test_read_checkpoint_rejects_other_scheme(
        self, channel, basis48, tmp_path, change
    ):
        # the AB2 history only continues the scheme that wrote it
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1)
        from slipflow.sim import ChannelStepper

        stepper = ChannelStepper(cfg, field)
        stepper.step()
        path = write_checkpoint(tmp_path / "s.bin", stepper)
        with pytest.raises(ValidationError, match="differs"):
            read_checkpoint(path, replace(cfg, **change))

    @pytest.mark.parametrize("name, change", [
        ("M", {"M": 10}),
        ("P", {"P": 64}),
        ("L", {"channel": ChannelConfig(L=2.0, mu=0.5, slip=SlipPair(1.0, 1.0))}),
        ("mu", {"channel": ChannelConfig(L=1.0, mu=0.25, slip=SlipPair(1.0, 1.0))}),
        ("xi_minus", {"channel": ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(0.5, 1.0))}),
        ("xi_plus", {"channel": ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 0.5))}),
        ("dt", {"dt": 1.0e-3}),
        ("linearized", {"linearized": True}),
    ])
    def test_read_checkpoint_refuses_each_config_field(
        self, channel, basis48, tmp_path, name, change
    ):
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1)
        stepper = ChannelStepper(cfg, field)
        stepper.step()
        path = write_checkpoint(tmp_path / "s.bin", stepper)
        with pytest.raises(ValidationError, match=f"supplied config in {name}$") as err:
            read_checkpoint(path, replace(cfg, **change))
        assert "differs" in str(err.value)
        # the refusal names every config field the checkpoint was written for
        for field_name in ("M", "P", "L", "mu", "xi_minus", "xi_plus", "dt", "linearized"):
            assert f"{field_name}=" in str(err.value)

    def test_read_checkpoint_rejects_version_1(self, channel, tmp_path):
        cfg = SimConfig(channel=channel, M=8, P=56)
        header = CHECKPOINT_MAGIC + struct.pack(
            "<QQQddddd", 1, 8, 56, 1.0, 0.5, 1.0, 1.0, 0.0
        )
        old = tmp_path / "v1.bin"
        old.write_bytes(header + b"\x00" * (9 * 56 * 16))
        with pytest.raises(ValidationError, match="unsupported checkpoint version 1"):
            read_checkpoint(old, cfg)

    def test_read_checkpoint_rejects_version_2(self, channel, tmp_path):
        # version 2 carried a lock flag in a 96-byte header
        cfg = SimConfig(channel=channel, M=8, P=56)
        header = CHECKPOINT_MAGIC + struct.pack(
            "<QQQddddddQQ", 2, 8, 56, 1.0, 0.5, 1.0, 1.0, 0.0, cfg.dt, 0, 1
        )
        old = tmp_path / "v2.bin"
        old.write_bytes(header + b"\x00" * (9 * 56 * 16))
        with pytest.raises(ValidationError, match="unsupported checkpoint version 2"):
            read_checkpoint(old, cfg)


class TestFailurePaths:
    def test_boundary_check_rejects_incompatible_initial_data(self, channel):
        P = 56
        x2 = cgl_nodes(P)
        rows = np.zeros((9, P), dtype=complex)
        rows[1] = -0.5j * (1.0 - x2**2)
        bad = SpectralField2D(cheb_coeffs_from_values(rows, axis=1), 1.0)
        cfg = SimConfig(channel=channel, M=8, P=P, dt=1.0e-3, t_end=0.1)
        with pytest.raises(ValidationError):
            check_boundary_conditions(bad, cfg)
        with pytest.raises(ValidationError):
            run(bad, cfg)

    def test_dt_above_stability_bound_is_rejected(self, basis48):
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        field, _ = mode_field(channel, basis48, amplitude=5.0)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, t_end=1.0)
        with pytest.raises(ValidationError, match="stability bound"):
            run(field, cfg)

    def test_midrun_blowup_writes_failure_manifest(self, basis48, tmp_path):
        # A run deep in the unstable regime grows at least like exp(8.53 t);
        # starting just inside the advective stability bound (CFL 0.2) it
        # must cross CFL 1 mid-run, deterministically.
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        field, lam = mode_field(channel, basis48, amplitude=1.0)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, t_end=1.0,
                        diagnostics_stride=10)
        with pytest.raises(SimulationBlowupError, match="CFL"):
            run(field, cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "failure_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("SimulationBlowupError")
        assert 0.0 < manifest["t_reached"] < cfg.t_end
        assert manifest["steps_completed"] == round(manifest["t_reached"] / cfg.dt)
        # the crossing time is near the one the linear growth rate sets (the
        # run crosses at t = 0.14, lambda_1 predicts 0.19)
        expected = math.log(1.0 / 0.2) / lam
        assert manifest["t_reached"] == pytest.approx(expected, abs=0.1)
        truncated = (tmp_path / "diagnostics_truncated.csv").read_text().splitlines()
        assert truncated[0].startswith("t,")
        assert len(truncated) > 2

    def test_cfl_crossing_inside_a_block_ends_the_truncated_rows(self, basis48, tmp_path,
                                                                 monkeypatch):
        # the run above at M = 8 and stride 9: a record stashes 7.9 KB, so a
        # block holds 3 records, and the crossing at t = 0.144 is the second
        # record of its block.  The truncated rows end with it, one per
        # record, and are the rows a run of one record per block writes
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=1.0e-3, t_end=1.0,
                        diagnostics_stride=9)
        sizes, evaluate = [], _Recorder.evaluate

        def counting(rec):
            sizes.append(len(rec._stash))
            return evaluate(rec)

        monkeypatch.setattr(_Recorder, "evaluate", counting)
        outs = []
        for cap in (run_mod._BLOCK_BYTES, 0):
            monkeypatch.setattr(run_mod, "_BLOCK_BYTES", cap)
            outs.append(tmp_path / f"cap{cap}")
            sizes.clear()
            with pytest.raises(SimulationBlowupError,
                               match="CFL exceeded 1 at t = 0.144$"):
                run(field, cfg, out_dir=outs[-1])
            if cap:
                assert sizes == [3] * 5 + [2]
        assert sizes == [1] * 17
        manifest = json.loads((outs[0] / "failure_manifest.json").read_text())
        assert manifest == {"status": "failed",
                            "error": "SimulationBlowupError: advective CFL exceeded 1 at t = 0.144",
                            "t_reached": 144 * cfg.dt, "steps_completed": 144}
        rows = np.loadtxt(outs[0] / "diagnostics_truncated.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 0], np.arange(17) * 9 * cfg.dt)
        for name in ("diagnostics_truncated.csv", "failure_manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_failed_run_without_out_dir_writes_nothing(self, basis48, tmp_path,
                                                       monkeypatch):
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        field, _ = mode_field(channel, basis48, amplitude=1.0)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, t_end=1.0,
                        diagnostics_stride=10)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SimulationBlowupError):
            run(field, cfg)
        assert list(tmp_path.iterdir()) == []


class TestLinearizedRun:
    """A linearized run has no advection, so it has no CFL bound."""

    def test_never_reads_the_cfl_number(self, channel, basis48, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a linearized run read the CFL number")

        monkeypatch.setattr(ChannelStepper, "cfl_number", refuse)
        field, _ = mode_field(channel, basis48, M=8, P=56, amplitude=1.0e-3)
        cfg = SimConfig(channel=channel, M=8, P=56, dt=2.0e-3, t_end=0.1,
                        linearized=True, diagnostics_stride=5)
        assert run(field, cfg).diagnostics.times.size == 11

    def test_series_scale_with_the_amplitude(self, basis48):
        # 4 times the initial data (a power of 2, so every operation scales
        # exactly) gives exactly 4 times the norms and 16 times the quadratic
        # boundary production.  Both runs pass CFL 1, and the start at
        # amplitude 4 reads CFL 0.78, above the nonlinear start bound 0.3
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        field, _ = mode_field(channel, basis48, amplitude=1.0)
        cfg = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, t_end=0.5,
                        linearized=True, diagnostics_stride=10)
        one, four = (run(field * a, cfg).diagnostics for a in (1.0, 4.0))
        np.testing.assert_array_equal(four.l2_norm, 4.0 * one.l2_norm)
        np.testing.assert_array_equal(four.h2_norm, 4.0 * one.h2_norm)
        np.testing.assert_array_equal(four.boundary_production,
                                      16.0 * one.boundary_production)


class TestSolverHealth:
    """``solver_health``, the one owner of the health findings that
    ``simulate`` and ``experiment`` write."""

    def test_crank_nicolson_rate_is_infinite_at_the_pole(self, channel):
        def rate(lam, dt):
            cfg = SimConfig(channel=channel, M=2, P=16, dt=dt, t_end=dt)
            got = solver_health(cfg, lam, [], [])[0]
            assert got.name == "crank_nicolson_rate" and got.detail["lambda"] == lam
            return got.detail["lambda_run"], got.value, got.status

        # at the pole the gap is infinite: nothing measured, and no pass
        assert rate(8.0, 0.25) == (math.inf, None, "unavailable")
        lam_run, gap, status = rate(8.0, 0.5)  # past the pole: g = -3
        assert lam_run == pytest.approx(2.0 * math.log(3.0), rel=1.0e-15)
        assert gap == pytest.approx(lam_run / 8.0 - 1.0, rel=1.0e-15)
        assert status == "flagged"

    @pytest.mark.parametrize("lam_dt, status", [(0.1, "ok"), (0.12, "flagged")])
    def test_crank_nicolson_gap_above_1e_3_is_flagged(self, channel, lam_dt, status):
        # the gap is about (lambda dt)^2 / 12: 8.3e-4 at 0.1, 1.2e-3 at 0.12
        cfg = SimConfig(channel=channel, M=2, P=16, dt=1.0e-2, t_end=1.0e-2)
        got = solver_health(cfg, lam_dt / 1.0e-2, [], [])[0]
        assert (got.bound, got.status) == (1.0e-3, status)
        assert (got.cause is None) == (status == "ok")

    def test_refused_build_reads_null(self, channel):
        near = SimConfig(channel=channel, M=2, P=24, dt=4.293719, t_end=4.293719)
        cond = solver_health(near, 0.5, [], [])[1]
        assert (cond.name, cond.value, cond.status) == ("influence_cond_max", None, "unavailable")

    def test_bounds_are_the_abort_bounds(self, channel):
        cfg = SimConfig(channel=channel, M=2, P=16, dt=1.0e-2, t_end=1.0e-2)
        health = solver_health(cfg, 1.0, [np.array([1.0e-9])], [np.array([0.5, 1.5])])
        assert [f.name for f in health] == ["crank_nicolson_rate", "influence_cond_max",
                                           "record_cfl_max", "energy_residual_max"]
        _, cond, cfl, energy = health
        assert cond.bound == INFLUENCE_COND_MAX and cond.status == "ok"
        assert (cfl.value, cfl.bound, cfl.status) == (1.5, CFL_ABORT, "fail")
        assert (energy.value, energy.bound, energy.status) == (1.0e-9, None, "ok")

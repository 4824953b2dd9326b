"""Separation experiment: sweep structure, gates, outputs, failure isolation."""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from slipflow.cli import main
from slipflow.model import ChannelConfig, LatticeSweep, ModeProblem, SlipPair, ValidationError
from slipflow.numerics import build_basis
from slipflow.modes import build_packet, compute_capital_lambda
from slipflow.sim import (
    ChannelStepper,
    DeltaOutcome,
    SimConfig,
    SimulationBlowupError,
    SpectralField2D,
    StableRegimeError,
    field_from_packet,
    run,
    run_separation_experiment,
    velocity_from_streamfunction,
    velocity_norms,
    write_experiment_outputs,
)
from slipflow import spectrum as spectrum_mod
from slipflow.spectrum import assemble, solve_spectrum
from slipflow.sim import experiment as experiment_mod
from slipflow.sim.experiment import delta_dir_name
from slipflow.sim.run import _Recorder


class TestSmokeSweep:
    def test_structure_and_verdicts(self, smoke_experiment):
        exp, _ = smoke_experiment
        assert exp.deltas == (1.0e-3, 1.0e-4)
        assert len(exp.outcomes) == 2
        assert exp.k == 1.0
        # mu = 0.1 is deep in the unstable regime: two modes grow at k = 1
        assert exp.lambdas.size == 2
        assert np.all(exp.lambdas > 0.0)
        assert exp.capital_lambda == pytest.approx(exp.lambdas.max(), rel=1.0e-12)
        for o in exp.outcomes:
            assert o.error is None
            assert o.ok
        assert abs(exp.slope - 2.0) <= 0.2
        assert exp.slope_ok
        # the subdominant mode carries a third of the envelope here, so the
        # single-rate decade-spacing check genuinely misses its 5% window;
        # the recorded outcome documents that rather than hiding it
        assert exp.escape_increments.size == 1
        assert not exp.escape_ok
        assert not exp.verdict

    def test_gates_and_constants(self, smoke_experiment):
        exp, _ = smoke_experiment
        for o in exp.outcomes:
            assert o.gate_h2.held and o.gate_h2.first_violation_time is None
            assert o.gate_l2.held and o.gate_l2.first_violation_time is None
            assert 0.0 < o.gate_h2.max_ratio <= 1.0
            assert 0.0 < o.gate_l2.max_ratio <= 1.0
            assert o.separation_ok
            assert o.separation >= o.bound
            assert math.isfinite(o.c2) and o.c2 > 0.0
            assert math.isfinite(o.c3) and o.c3 > 0.0
            # c4 compares the envelope at t_delta with its top-mode term, so
            # it is 1 for a single mode and above 1 when a second one grows
            assert o.c4 >= 1.0 - 1.0e-12
            assert o.m0 == pytest.approx(o.separation / exp.epsilon0, rel=1.0e-12)

    def test_series_are_consistent(self, smoke_experiment):
        exp, _ = smoke_experiment
        for delta, o in zip(exp.deltas, exp.outcomes):
            assert o.delta == delta
            assert o.steps[0] == 0
            assert np.all(np.diff(o.times) > 0.0)
            n_steps = math.ceil(o.t_delta / 1.0e-3 - 1.0e-12)
            assert o.steps[-1] == n_steps
            # the last step has length h = T^delta - (n - 1) dt and ends at
            # T^delta exactly; every earlier record reads m dt
            h = o.t_delta - (n_steps - 1) * 1.0e-3
            assert 0.0 < h <= 1.0e-3
            assert o.t_final == o.times[-1] == (n_steps - 1) * 1.0e-3 + h == o.t_delta
            assert np.array_equal(o.times[:-1], o.steps[:-1] * 1.0e-3)
            # identical initial data: at t = 0 each linear twin takes its
            # nonlinear branch's velocity, so the distance is exactly zero
            assert o.d_from_linear_full[0] == 0.0
            assert o.d_from_linear_reduced[0] == 0.0
            # delta * F_N starts below epsilon0 and crosses it at t_delta
            assert o.delta_f[0] < exp.epsilon0
            assert o.delta_f[-1] >= exp.epsilon0 * (1.0 - 1.0e-9)
            assert o.separation == o.sep_l2[-1]

    def test_written_outputs(self, smoke_experiment):
        exp, out = smoke_experiment
        manifest = json.loads((out / "experiment_manifest.json").read_text())
        assert manifest["verdict"] is False
        assert manifest["slope_ok"] is True
        assert manifest["escape_ok"] is False
        assert manifest["k"] == 1.0
        assert len(manifest["lambdas"]) == 2
        assert manifest["dropped_lambdas"] == []
        assert manifest["channel"]["viscosity"] == 0.1
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "delta,T_delta,separation,bound,verdict"
        assert len(summary) == 3
        for o in exp.outcomes:
            sub = out / delta_dir_name(o.delta)
            per_delta = json.loads((sub / "manifest.json").read_text())
            assert per_delta["delta"] == o.delta
            assert per_delta["verdict"] is True
            assert per_delta["error"] is None
            series = (sub / "separation.csv").read_text().splitlines()
            assert series[0] == ("t,sep_l2,linear_prediction,"
                                 "d_from_linear_full,d_from_linear_reduced")
            assert len(series) == o.times.size + 1
            assert (sub / "diagnostics.csv").exists()

    def test_manifest_holds_every_experiment_field(self, smoke_experiment):
        exp, out = smoke_experiment
        manifest = json.loads((out / "experiment_manifest.json").read_text())
        names = {f.name for f in dataclasses.fields(exp)} - {"outcomes"}
        assert set(manifest) == names | {"verdict"}
        assert manifest["verdict"] is exp.verdict
        ch = exp.channel
        assert manifest["channel"] == {"period_length": ch.L, "viscosity": ch.mu,
                                       "xi_minus": ch.slip.xi_minus,
                                       "xi_plus": ch.slip.xi_plus}
        for name in names - {"channel"}:
            value = getattr(exp, name)
            if isinstance(value, (np.ndarray, tuple)):
                assert manifest[name] == list(value), name
            else:
                assert manifest[name] == value, name
                assert isinstance(manifest[name], bool) == isinstance(value, bool), name

    def test_rewriting_outputs_is_deterministic(self, smoke_experiment, tmp_path):
        exp, out = smoke_experiment
        write_experiment_outputs(exp, tmp_path)
        for rel in ("experiment_manifest.json", "summary.csv",
                    delta_dir_name(exp.deltas[0]) + "/separation.csv"):
            assert (tmp_path / rel).read_bytes() == (out / rel).read_bytes()

    def test_sweep_records_on_the_schedule_of_a_run(self, smoke_experiment, tmp_path):
        # a run of a delta's step count and stride records, and checkpoints,
        # at that delta's steps; neither delta's last step is a multiple of 25
        exp, _ = smoke_experiment
        zero = SpectralField2D(np.zeros((3, 16), dtype=complex), exp.channel.L)
        for o in exp.outcomes:
            n = int(o.steps[-1])
            assert n % 25 != 0
            cfg = SimConfig(channel=exp.channel, M=2, P=16, dt=1.0e-3,
                            t_end=(n - 0.5) * 1.0e-3, linearized=True,
                            diagnostics_stride=25)
            assert cfg.n_steps == n
            result = run(zero, cfg, out_dir=tmp_path / str(n), checkpoint_stride=25)
            steps = np.rint(result.diagnostics.times / 1.0e-3).astype(int)
            np.testing.assert_array_equal(steps, o.steps)
            written = [int(p.stem.split("_")[1]) for p in result.checkpoints]
            assert written == o.steps[1:].tolist()

    def test_slope_reads_the_last_step_both_deltas_recorded(self, smoke_experiment):
        # the record the stride arithmetic names: row (shortest last step) //
        # stride, step row * stride in every delta
        exp, _ = smoke_experiment
        row = min(int(o.steps[-1]) for o in exp.outcomes) // 25
        assert [int(o.steps[row]) for o in exp.outcomes] == [row * 25] * 2
        d = [math.log(o.d_from_linear_full[row]) for o in exp.outcomes]
        assert exp.slope == float(np.polyfit([math.log(x) for x in exp.deltas], d, 1)[0])


class TestRecordReference:
    def test_record_matches_the_per_field_functions(self, monkeypatch):
        # one record of the two-mode sweep against each branch's
        # streamfunction() through velocity_from_streamfunction and
        # velocity_norms, differences formed on the fields
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        sim = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, diagnostics_stride=25)
        steppers, states, nr_norms = [], [], []
        init, record = ChannelStepper.__init__, _Recorder.record

        def tracking(st, *args):
            init(st, *args)
            steppers.append(st)

        def snapshot(rec):
            states.append([st.streamfunction() for st in steppers])
            return record(rec)

        norms = experiment_mod._sobolev_norms
        monkeypatch.setattr(ChannelStepper, "__init__", tracking)
        monkeypatch.setattr(_Recorder, "record", snapshot)
        monkeypatch.setattr(experiment_mod, "_sobolev_norms",
                            lambda q, L: nr_norms.append(norms(q, L)) or nr_norms[-1])
        exp = run_separation_experiment(channel, sim=sim, deltas=(1.0e-3,),
                                        basis_size=48, n_max=12)
        (o,) = exp.outcomes
        assert o.error is None
        # one call per block of records, one value per record
        l2_nrs, _, h2_nrs = (np.concatenate(v) for v in zip(*nr_norms))
        assert len(steppers) == 4 and len(states) == l2_nrs.size == o.times.size
        assert o.d_from_linear_full[0] == 0.0
        assert o.d_from_linear_reduced[0] == 0.0

        # the branches were built nf, lf, nr, lr
        nf, lf, nr, lr = (velocity_from_streamfunction(f) for f in states[-1])

        def distance(a, b):
            return velocity_norms(a[0] - b[0], a[1] - b[1])[0]

        l2_nr, _, h2_nr = velocity_norms(*nr)
        want = (distance(nf, nr), distance(lf, lr), distance(nf, lf), distance(nr, lr),
                l2_nr, h2_nr)
        got = (o.sep_l2[-1], o.linear_prediction[-1], o.d_from_linear_full[-1],
               o.d_from_linear_reduced[-1], l2_nrs[-1], h2_nrs[-1])
        # h2 to 1e-11, as in the run record tests: the reference differentiates
        # the streamfunction's Chebyshev coefficients, which amplifies their
        # roundoff, so the two h2 evaluations differ by about 6e-12 and
        # neither is the more accurate (see sim.run._Recorder.record)
        names = ("sep", "linear_prediction", "d_full", "d_red", "l2_nr", "h2_nr")
        for name, g, w in zip(names, got, want):
            tol = 1.0e-11 if name == "h2_nr" else 1.0e-12
            assert abs(g - w) <= tol * w, name


class TestRecordBlocks:
    @pytest.mark.parametrize("cap", [40 * 1024, math.inf], ids=["two-per-block", "one-block"])
    def test_rows_do_not_depend_on_the_block(self, smoke_experiment, tmp_path,
                                             monkeypatch, cap):
        # the smoke sweep's records stash 31.7 KB each (nf and nr with their
        # solved planes, the twins' two rows), a block of one under the
        # 16 KiB cap; two records per block, or every record of a delta in
        # one block, writes the same bytes
        exp, out = smoke_experiment
        monkeypatch.setattr(importlib.import_module("slipflow.sim.run"), "_BLOCK_BYTES", cap)
        again = run_separation_experiment(exp.channel, sim=SimConfig(
            channel=exp.channel, M=16, P=56, dt=1.0e-3, diagnostics_stride=25),
            deltas=exp.deltas, basis_size=48, n_max=12, out_dir=tmp_path)
        assert [o.times.size for o in again.outcomes] == [14, 26]
        for d in exp.deltas:
            for name in ("separation.csv", "diagnostics.csv", "manifest.json"):
                rel = f"{delta_dir_name(d)}/{name}"
                assert (tmp_path / rel).read_bytes() == (out / rel).read_bytes(), rel


class TestAcceptanceSweepStructure:
    def test_single_mode_packet_and_verdict(self, acceptance_experiment):
        exp, _, _ = acceptance_experiment
        # at mu = 0.5 only the top mode at k = 1 satisfies 2 lambda > Lambda,
        # so the reduced packet is empty and the reduced twin stays zero
        assert exp.lambdas.size == 1
        assert exp.verdict
        assert exp.escape_ok
        for o in exp.outcomes:
            assert np.all(o.d_from_linear_reduced == 0.0)
            # with an empty reduced packet the separation series is the norm
            # of the full nonlinear solution, which starts at delta * m0
            assert o.sep_l2[0] > 0.0


class TestLockedBranches:
    def test_packet_branches_never_take_the_full_period(self):
        # a packet state is in the locked class, so every nonlinear branch
        # starts (a state off the class is refused) and steps on the half
        # period, where no mean flux forms and no roundoff can seed the
        # mean-shear mode
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        sim = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, diagnostics_stride=25)
        exp = run_separation_experiment(
            channel, sim=sim, deltas=(1.0e-3, 1.0e-4), basis_size=48, n_max=12,
        )
        assert [o.error for o in exp.outcomes] == [None, None]
        for o in exp.outcomes:
            assert o.steps[-1] > 0
            assert (o.diagnostics.nonlinear_flux != 0.0).any()


class TestValidation:
    def test_stable_regime_is_rejected(self):
        channel = ChannelConfig(L=1.0, mu=2.0, slip=SlipPair(1.0, 1.0))
        with pytest.raises(ValidationError, match="stable regime") as info:
            run_separation_experiment(channel)
        # the text the CLI prints before it exits 0
        assert isinstance(info.value, StableRegimeError)
        assert str(info.value) == (
            "stable regime: viscosity 2 is not below the critical viscosity "
            "0.590784248785 of the fundamental wavenumber 1/L = 1; no simulation to run")

    def test_sim_channel_must_match(self):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        other = ChannelConfig(L=1.0, mu=0.25, slip=SlipPair(1.0, 1.0))
        sim = SimConfig(channel=other, M=16, P=56)
        with pytest.raises(ValidationError, match="must match"):
            run_separation_experiment(channel, sim=sim)

    def test_rejects_empty_or_oversized_deltas(self):
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        with pytest.raises(ValidationError, match="at least one delta"):
            run_separation_experiment(channel, deltas=())
        with pytest.raises(ValidationError, match="delta0"):
            run_separation_experiment(channel, deltas=(0.5,), delta0=0.02)

    @pytest.mark.parametrize("deltas", [(1.0e-2, 1.2e-2), (1.0e-2, 1.0e-2)],
                             ids=["same-name", "repeated"])
    def test_rejects_deltas_sharing_a_directory(self, deltas, tmp_path):
        # both would write delta_1e-02/, the later one over the earlier
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        a, b = (f"{d:g}" for d in deltas)
        with pytest.raises(ValidationError, match=f"deltas {a} and {b} share the "
                                                  "output directory delta_1e-02"):
            run_separation_experiment(channel, deltas=deltas, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_delta_at_or_past_escape(self):
        # delta * F_N(0) >= epsilon0 leaves no positive escape time
        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        with pytest.raises(ValidationError, match="escape time"):
            run_separation_experiment(
                channel, deltas=(1.0e-4,), epsilon0=1.0e-6, delta0=0.02
            )


class TestFailedOutcome:
    def test_defaults_are_a_failed_delta(self):
        o = DeltaOutcome(1.0e-3, error="SimulationBlowupError: advective CFL exceeded 1")
        assert not o.ok and not o.refused
        for gate in (o.gate_h2, o.gate_l2):
            assert not gate.held and gate.first_violation_time is None
            assert math.isnan(gate.max_ratio)
        assert not o.separation_ok and math.isnan(o.separation)
        assert o.steps.size == 0 and o.times.size == 0
        assert DeltaOutcome(1.0e-3, error="ValidationError: dt = 0.2 exceeds").refused

    def test_a_nan_slope_names_its_reason(self):
        def done(delta, times, d):
            return DeltaOutcome(delta, times=np.array(times), d_from_linear_full=np.array(d))

        failed = DeltaOutcome(1.0e-2, error="SimulationBlowupError: advective CFL exceeded 1")
        cases = [
            ([failed, done(1.0e-3, [0.0, 0.1], [0.0, 1e-6])], "1 of 2 deltas completed, the fit needs 2"),
            ([done(1.0e-3, [0.0, 0.1], [0.0, 1e-6]), done(1.0e-4, [0.0, 0.2], [0.0, 1e-8])],
             "the completed deltas share no record time past 0"),
            ([done(1.0e-3, [0.0, 0.1], [0.0, 1e-6]), done(1.0e-4, [0.0, 0.1], [0.0, 0.0])],
             "a distance from linear at t = 0.1 is not positive"),
        ]
        for outcomes, why in cases:
            slope, cause = experiment_mod._fit_slope(outcomes)
            assert math.isnan(slope) and cause == why
        slope, cause = experiment_mod._fit_slope(
            [done(1.0e-3, [0.0, 0.1], [0.0, 1e-6]), done(1.0e-4, [0.0, 0.1], [0.0, 1e-8])])
        assert abs(slope - 2.0) <= 1e-12 and cause is None


class TestStableLattice:
    def test_stable_fundamental_wavenumber_is_refused(self):
        # mu = 0.5 < mu_c_global = 1, but mu_c(1/L) = mu_c(5) = 0.1001
        channel = ChannelConfig(L=0.2, mu=0.5, slip=SlipPair(1.0, 1.0))
        with pytest.raises(ValidationError, match="stable regime"):
            run_separation_experiment(channel)


class TestSlowModeDrop:
    def test_mode_at_or_below_half_lambda_is_dropped(self, tmp_path):
        # k* = 1 has two unstable modes, rates 1.152 and 2.855 = Lambda, and
        # the quadratic error bound needs 2 lambda_j > Lambda: the slow one goes
        channel = ChannelConfig(L=1.0, mu=0.2356, slip=SlipPair(1.0, 1.0))
        problem = ModeProblem(k=1.0, mu=channel.mu, slip=channel.slip)
        full = build_packet(solve_spectrum(assemble(problem, build_basis(16))))
        assert full.count == 2
        sim = SimConfig(channel=channel, M=4, P=18, dt=2.0e-3, diagnostics_stride=10)
        with pytest.warns(RuntimeWarning, match="growth rate <= Lambda/2"):
            exp = run_separation_experiment(channel, sim=sim, deltas=(1.0e-2,),
                                            basis_size=16, out_dir=tmp_path)
        assert exp.k == 1.0
        assert full.lambdas[0] <= 0.5 * exp.capital_lambda < full.lambdas[1]
        assert exp.lambdas.size == 1
        assert exp.lambdas[0] == full.top_lambda
        # the dropped rate is recorded, not only warned about
        assert exp.dropped_lambdas.tolist() == [full.lambdas[0]]
        manifest = json.loads((tmp_path / "experiment_manifest.json").read_text())
        assert manifest["lambdas"] == [full.top_lambda]
        assert manifest["dropped_lambdas"] == [full.lambdas[0]]
        (outcome,) = exp.outcomes
        assert outcome.error is None
        # the one-mode packet's reduced branch is identically zero
        assert not outcome.d_from_linear_reduced.any()


class TestDenseSolves:
    def test_only_the_packet_runs_a_dense_solve(self, tmp_path, monkeypatch):
        # lambda_1 of every lattice point comes from the discrete slip operator
        # K_N, so Lambda and dispersion run no dense solve, and the experiment
        # runs one, for its packet at k*
        calls = []
        solve = spectrum_mod.solve_generalized_symmetric

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr("slipflow.spectrum.solve_generalized_symmetric", counted)
        channel = ChannelConfig(L=1.0, mu=0.2356, slip=SlipPair(1.0, 1.0))
        sweep = LatticeSweep(L=1.0, mu=0.5, slip=channel.slip, n_max=8)
        compute_capital_lambda(sweep, build_basis(48))
        assert len(calls) == 0
        assert main(["--out", str(tmp_path / "dispersion"), "dispersion", "--n-max", "8"]) == 0
        assert len(calls) == 0
        sim = SimConfig(channel=channel, M=4, P=18, dt=2.0e-3, diagnostics_stride=10)
        with pytest.warns(RuntimeWarning, match="growth rate <= Lambda/2"):
            run_separation_experiment(channel, sim=sim, deltas=(1.0e-2,), basis_size=16)
        assert calls == [(16, 16)]


class TestLastStepAtEscapeTime:
    def test_separation_at_t_delta_converges_at_second_order(self):
        # each delta ends at T^delta exactly, its last step of length
        # h = T^delta - (n - 1) dt; ending at n dt instead put the reported
        # separation up to dt past T^delta and read an observed order -7.44
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        seps = []
        for dt in (1.0e-3, 5.0e-4, 2.5e-4):
            sim = SimConfig(channel=channel, M=16, P=56, dt=dt, diagnostics_stride=25)
            exp = run_separation_experiment(channel, sim=sim, deltas=(1.0e-3,),
                                            basis_size=48, n_max=12)
            (o,) = exp.outcomes
            assert o.ok and o.t_final == o.t_delta
            seps.append(o.separation)
        order = math.log2((seps[0] - seps[1]) / (seps[1] - seps[2]))
        assert abs(order - 2.0) <= 0.3


class TestFailureIsolation:
    def test_one_failed_delta_does_not_stop_the_sweep(self, tmp_path, monkeypatch):
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        sim = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3,
                        diagnostics_stride=25)
        # the second delta alone, the reference for its outputs in the sweep
        run_separation_experiment(channel, sim=sim, deltas=(1.0e-4,), basis_size=48,
                                  n_max=12, out_dir=tmp_path / "alone")
        calls, started = [], []
        escape, start, real_step = (experiment_mod.escape_time, experiment_mod._start,
                                    ChannelStepper.step)
        monkeypatch.setattr(experiment_mod, "escape_time",
                            lambda packet, d, eps: calls.append(d) or escape(packet, d, eps))
        monkeypatch.setattr(experiment_mod, "_start",
                            lambda *args: started.append(start(*args)) or started[-1])

        def poisoned(st, *others, **kwargs):
            # a NaN in the first delta's full branch (started first) before
            # step 101, mid-sweep: that delta runs 318 steps, the second 603
            if not st.cfg.linearized and round(st.t / sim.dt) == 100:
                started[0]._state[1, 1, 0] = math.nan
            return real_step(st, *others, **kwargs)

        monkeypatch.setattr(ChannelStepper, "step", poisoned)
        exp = run_separation_experiment(
            channel, sim=sim, deltas=(1.0e-3, 1.0e-4), basis_size=48, n_max=12,
            out_dir=tmp_path,
        )
        assert calls == [1.0e-3, 1.0e-4]
        first, second = exp.outcomes
        assert first.error is not None
        assert first.error.startswith("SimulationBlowupError")
        assert first.error == "SimulationBlowupError: state stopped being finite at t = 0.101"
        assert not first.ok
        assert second.error is None
        assert second.ok
        assert not exp.verdict
        # escape increments need two clean decades, so none are available
        assert exp.escape_increments.size == 0
        failed_dir = tmp_path / delta_dir_name(1.0e-3)
        manifest = json.loads((failed_dir / "manifest.json").read_text())
        assert manifest["error"].startswith("SimulationBlowupError")
        assert manifest["verdict"] is False
        assert not (failed_dir / "separation.csv").exists()
        ok_dir = tmp_path / delta_dir_name(1.0e-4)
        assert (ok_dir / "separation.csv").exists()
        # the failed delta shared its steps with the second, whose outputs
        # are the ones it writes alone, byte for byte
        for name in ("separation.csv", "diagnostics.csv", "manifest.json"):
            alone = tmp_path / "alone" / delta_dir_name(1.0e-4) / name
            assert (ok_dir / name).read_bytes() == alone.read_bytes(), name


class TestBranchStart:
    """The branches start and record through run()'s checks."""

    CHANNEL = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))

    def test_dt_above_the_stability_bound_is_a_recorded_refusal(self, basis48, monkeypatch):
        sim = SimConfig(channel=self.CHANNEL, M=16, P=56, dt=0.2)
        steps = []
        real_step = ChannelStepper.step
        monkeypatch.setattr(ChannelStepper, "step", lambda st: steps.append(st) or real_step(st))
        exp = run_separation_experiment(self.CHANNEL, sim=sim, deltas=(1.0e-2,))
        (outcome,) = exp.outcomes
        assert steps == []
        assert not outcome.ok and not exp.verdict
        problem = ModeProblem(k=exp.k, mu=0.5, slip=self.CHANNEL.slip)
        packet = build_packet(solve_spectrum(assemble(problem, basis48)))
        with pytest.raises(ValidationError) as refused:
            run(field_from_packet(packet, 16, 56, 1.0) * 1.0e-2, sim)
        assert outcome.error == f"ValidationError: {refused.value}"
        assert outcome.error.startswith(
            "ValidationError: dt = 0.2 exceeds the advective stability bound 0.0961889 "
        )

    def test_cfl_predicted_above_one_is_a_recorded_refusal(self, monkeypatch):
        # delta = 1e-5 starts below the stability bound at dt = 0.2, but its
        # linear prediction at T^delta = 16.0588 reads CFL 1.11, past the
        # record's abort bound 1
        sim = SimConfig(channel=self.CHANNEL, M=16, P=56, dt=0.2)
        steps = []
        real_step = ChannelStepper.step
        monkeypatch.setattr(ChannelStepper, "step", lambda st: steps.append(st) or real_step(st))
        exp = run_separation_experiment(self.CHANNEL, sim=sim, deltas=(1.0e-5,))
        (outcome,) = exp.outcomes
        assert steps == []
        assert outcome.refused
        assert outcome.error == (
            "ValidationError: dt = 0.2 exceeds the advective stability bound 0.180896 "
            "estimated from the linear prediction at t = 16.0588"
        )

    def test_cfl_above_one_at_a_record_ends_the_delta(self, monkeypatch):
        sim = SimConfig(channel=self.CHANNEL, M=8, P=56, dt=4.0e-3, diagnostics_stride=5)
        # zero CFL at the start (no stability bound), 2 from the first step on
        monkeypatch.setattr(ChannelStepper, "cfl_number",
                            lambda st, phi=None: 2.0 if st.t > 0.0 else 0.0)
        exp = run_separation_experiment(self.CHANNEL, sim=sim, deltas=(1.0e-3,))
        assert exp.outcomes[0].error == (
            "SimulationBlowupError: advective CFL exceeded 1 at t = 0.02"
        )

    def test_cfl_above_one_in_the_reduced_branch_ends_the_delta(self, monkeypatch):
        # mu = 0.1 has two growing modes, so the reduced branch runs; after
        # the start it alone reads CFL 2 (started: full, then reduced)
        channel = ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        sim = SimConfig(channel=channel, M=16, P=56, dt=1.0e-3, diagnostics_stride=25)
        started = []
        start = experiment_mod._start
        monkeypatch.setattr(experiment_mod, "_start",
                            lambda *args: started.append(start(*args)) or started[-1])
        monkeypatch.setattr(ChannelStepper, "cfl_number",
                            lambda st, phi=None: 2.0 if st.t > 0.0 and st is started[1] else 0.0)
        exp = run_separation_experiment(channel, sim=sim, deltas=(1.0e-3,),
                                        basis_size=48, n_max=12)
        assert len(started) == 2
        assert exp.outcomes[0].error == (
            "SimulationBlowupError: advective CFL exceeded 1 at t = 0.025"
        )

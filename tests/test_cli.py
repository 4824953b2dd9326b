"""Command line interface: exit codes, outputs, config resolution, determinism."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import slipflow
from slipflow.cli import main
from slipflow.critical import mu_c_global
from slipflow.model import ChannelConfig, ModeProblem, SlipPair
from slipflow.sim import ChannelStepper, SimConfig, write_experiment_outputs
from slipflow.sim.run import _Recorder
from slipflow.sim.stepper import _operator_set
from slipflow.spectrum import assemble, solve_spectrum


def run_cli(*args):
    return main([str(a) for a in args])


def read_manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


def read_findings(path):
    """The findings of a written report, by name (none when it lists none)."""
    return {f["name"]: f for f in json.loads(Path(path).read_text()).get("findings", [])}


class TestCritical:
    def test_writes_curve_and_global_threshold(self, tmp_path):
        rc = run_cli("--out", tmp_path, "critical", "--k", "0.5", "4", "--points", "7")
        assert rc == 0
        lines = (tmp_path / "critical.csv").read_text().splitlines()
        assert lines[0] == "k,mu_c"
        assert len(lines) == 9  # header + 7 samples + footer
        footer = lines[-1]
        assert footer.startswith("# mu_c_global = ")
        assert float(footer.split("=")[1]) == mu_c_global(SlipPair(1.0, 1.0))
        ks = [float(row.split(",")[0]) for row in lines[1:8]]
        assert ks[0] == 0.5 and ks[-1] == 4.0
        manifest = read_manifest(tmp_path)
        assert manifest["command"] == "critical"
        assert manifest["outputs"] == ["critical.csv"]
        assert len(manifest["config_digest"]) == 64
        assert int(manifest["config_digest"], 16) >= 0

    def test_large_wavenumbers_reach_the_asymptote(self, tmp_path):
        rc = run_cli("--out", tmp_path, "critical", "--xi", "0", "3",
                     "--k", "1", "10000", "--points", "5")
        assert rc == 0
        k, mu_c = map(float, (tmp_path / "critical.csv").read_text().splitlines()[-2].split(","))
        assert k == 1e4
        assert abs(mu_c - 1.5e-4) <= 1e-15 * 1.5e-4  # max(xi) / (2 k)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("--out", out, "critical", "--k", "0.5", "4",
                           "--points", "7") == 0
        assert (a / "critical.csv").read_bytes() == (b / "critical.csv").read_bytes()
        assert (a / "run_manifest.json").read_bytes() == \
            (b / "run_manifest.json").read_bytes()


class TestSpectrum:
    def test_matches_oracle_and_reports(self, tmp_path):
        rc = run_cli("--out", tmp_path, "spectrum", "--k", "1.0", "--mu", "0.5")
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,lambda"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0.0
        report = read_findings(tmp_path / "spectrum_report.json")
        count = report["positive_count"]
        assert count["value"] == count["detail"]["positive_count_oracle"] == 1
        assert report["max_rel_mismatch"]["value"] < 1.0e-8
        assert {f["status"] for f in report.values()} == {"ok"}

    def test_oracle_mismatch_fails_the_run(self, tmp_path, monkeypatch):
        import slipflow.spectrum

        monkeypatch.setattr(
            slipflow.spectrum,
            "determinant_roots",
            lambda prob: SimpleNamespace(roots=np.array([]), marginal=0),
        )
        rc = run_cli("--out", tmp_path, "spectrum", "--k", "1.0", "--mu", "0.5")
        assert rc == 1
        count = read_findings(tmp_path / "spectrum_report.json")["positive_count"]
        assert (count["value"], count["detail"]["positive_count_oracle"]) == (1, 0)
        assert count["status"] == "fail"
        assert count["cause"] == "0 oracle roots and 0 marginal excused"

    def test_under_resolved_rates_lie_below_their_roots(self, tmp_path, capsys):
        # the default basis of 64 gives 1669.6 and 1631.0 against roots near
        # 3168: below them, as a Rayleigh-Ritz value must be, so the mismatch
        # names an under-resolved basis and the run still fails
        assert run_cli("--out", tmp_path, "spectrum", "--k", "16", "--mu", "3.125e-4") == 1
        mismatch = read_findings(tmp_path / "spectrum_report.json")["max_rel_mismatch"]
        assert mismatch["status"] == "fail"
        assert mismatch["value"] == pytest.approx(0.4852, abs=1.0e-4)
        cause = "every mismatched rate lies below its root: under-resolved, as Rayleigh-Ritz requires"
        assert mismatch["cause"] == cause
        assert capsys.readouterr().out.rstrip().endswith(cause)

    def test_a_rate_above_its_root_is_named(self, tmp_path, monkeypatch):
        import dataclasses

        import slipflow.spectrum

        roots = slipflow.spectrum.determinant_roots
        monkeypatch.setattr(slipflow.spectrum, "determinant_roots", lambda prob: (
            dataclasses.replace(roots(prob), roots=0.5 * roots(prob).roots)))
        assert run_cli("--out", tmp_path, "spectrum", "--k", "1.0", "--mu", "0.5") == 1
        mismatch = read_findings(tmp_path / "spectrum_report.json")["max_rel_mismatch"]
        assert mismatch["cause"] == "a Galerkin rate lies above its root"


    def test_equal_slip_pair_counts_both_rates(self, tmp_path):
        # at k = 4, mu = 0.5 mu_c the two rates 7.9333 and 7.9172 lie within
        # one cell of a geometric scan; the operator oracle finds both
        from slipflow.critical import mu_c_closed_form

        mu = 0.5 * mu_c_closed_form(4.0, SlipPair(1.0, 1.0))
        rc = run_cli("--out", tmp_path, "spectrum", "--k", "4", "--mu", repr(mu))
        assert rc == 0
        report = read_findings(tmp_path / "spectrum_report.json")
        count = report["positive_count"]
        assert count["detail"]["positive_count_oracle"] == count["value"] == 2
        assert count["detail"]["marginal_branches_oracle"] == 0
        assert report["max_rel_mismatch"]["value"] < 1.0e-8


    @pytest.mark.parametrize("basis, rc", [("256", 0), ("64", 1)])
    def test_marginal_positive_is_excused(self, tmp_path, capsys, basis, rc):
        # the second branch is marginal here: Galerkin gives it a rate of
        # about 1e-12, a second positive beside the oracle's one root, which
        # is excused; 256 functions then meet the root to 3.9e-9, while 64
        # miss it by 0.479 and the run still fails on the rate
        assert run_cli("--out", tmp_path, "spectrum", "--k", "16", "--xi", "10", "0.1",
                       "--mu", "0.003125", "--basis", basis) == rc
        report = read_findings(tmp_path / "spectrum_report.json")
        count = report["positive_count"]
        assert (count["value"], count["status"]) == (2, "ok")
        assert count["detail"] == {"positive_count_oracle": 1, "marginal_branches_oracle": 1,
                                   "marginal_positives_excused": 1}
        assert (report["max_rel_mismatch"]["value"] <= 1.0e-8) == (rc == 0)
        out = capsys.readouterr().out.splitlines()
        assert "ok          positive_count = 2" in out
        assert out[-1].split()[:2] == ["ok" if rc == 0 else "fail", "max_rel_mismatch"]

    def test_report_names_no_excuse_without_a_marginal_positive(self, tmp_path):
        assert run_cli("--out", tmp_path, "spectrum", "--k", "1", "--mu", "0.3") == 0
        report = read_findings(tmp_path / "spectrum_report.json")
        assert "marginal_positives_excused" not in report["positive_count"]["detail"]
        assert report["inertia_bound"]["status"] == "ok"

    def test_count_above_the_inertia_bound_is_named(self, tmp_path, capsys, monkeypatch):
        # a Galerkin count of 3 with two marginal branches excused would
        # match the one root; the inertia bound of 2 still fails the run
        import dataclasses

        import slipflow.spectrum

        solve, roots = slipflow.spectrum.solve_spectrum, slipflow.spectrum.determinant_roots
        monkeypatch.setattr(slipflow.spectrum, "solve_spectrum",
                            lambda pencil: dataclasses.replace(solve(pencil), positive_count=3))
        monkeypatch.setattr(slipflow.spectrum, "determinant_roots",
                            lambda prob: dataclasses.replace(roots(prob), marginal=2))
        assert run_cli("--out", tmp_path, "spectrum", "--k", "1", "--mu", "0.5") == 1
        report = read_findings(tmp_path / "spectrum_report.json")
        assert report["positive_count"]["value"] == 3
        assert report["positive_count"]["detail"]["marginal_positives_excused"] == 2
        assert report["positive_count"]["status"] == "ok"
        inertia = report["inertia_bound"]
        assert (inertia["value"], inertia["bound"], inertia["status"]) == (3, 2, "fail")
        assert inertia["cause"] == "positive count 3 exceeds 2, the inertia bound"
        assert ("fail        inertia_bound = 3 (bound 2): positive count 3 exceeds 2, "
                "the inertia bound") in capsys.readouterr().out.splitlines()


class TestDispersion:
    def test_lattice_table(self, tmp_path):
        rc = run_cli("--out", tmp_path, "dispersion", "--mu", "0.5", "--n-max", "4")
        assert rc == 0
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "k,lambda1,mu_c"
        assert len(lines) == 5
        rows = [list(map(float, r.split(","))) for r in lines[1:]]
        assert [r[0] for r in rows] == [1.0, 2.0, 3.0, 4.0]
        # growth at k = 1 and decay at k = 4 at mu = 0.5
        assert rows[0][1] > 0.0 > rows[3][1]


class TestModes:
    def test_grid_samples_and_packet_report(self, tmp_path):
        rc = run_cli("--out", tmp_path, "modes", "--mu", "0.5",
                     "--grid", "16", "17", "--delta", "1e-6")
        assert rc == 0
        lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,u1,u2,q"
        assert len(lines) == 1 + 16 * 17
        packet = json.loads((tmp_path / "packet.json").read_text())
        assert packet["k"] == 1.0
        assert len(packet["lambdas"]) == 1
        assert packet["lambdas"][0] > 0.0
        assert packet["delta"] == 1.0e-6
        assert packet["T_delta"] > 0.0

    def test_stable_channel_has_no_packet(self, tmp_path, capsys):
        rc = run_cli("--out", tmp_path, "modes", "--mu", "2.0")
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestPacketCount:
    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["modes"],
        ["experiment", "--m", "16", "--p", "56", "--dt", "1e-3", "--deltas", "1e-3"],
    ], ids=["modes", "experiment"])
    def test_count_below_one_is_refused(self, tmp_path, capsys, command, count):
        rc = run_cli("--out", tmp_path, *command, "--count", count)
        assert rc == 2
        assert f"error: count: must be >= 1, got {count}" in capsys.readouterr().err


class TestSimulate:
    def test_smoke_run_writes_diagnostics(self, tmp_path):
        rc = run_cli("--out", tmp_path, "simulate", "--mu", "0.5",
                     "--amplitude", "1e-3", "--m", "8", "--p", "56",
                     "--dt", "2e-3", "--t-end", "0.05", "--stride", "5",
                     "--linearized")
        assert rc == 0
        diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert diag[0].startswith("t,l2,h1,h2")
        assert len(diag) == 7  # header + records at steps 0,5,10,15,20,25
        assert (tmp_path / "energy.csv").exists()
        assert (tmp_path / "checkpoint_00000025.bin").exists()
        manifest = read_manifest(tmp_path)
        assert "diagnostics.csv" in manifest["outputs"]

    def test_blowup_maps_to_exit_code_one(self, tmp_path, capsys):
        rc = run_cli("--out", tmp_path, "simulate", "--mu", "0.1",
                     "--amplitude", "0.5", "--m", "16", "--p", "56",
                     "--dt", "1e-3", "--t-end", "1.0", "--stride", "10")
        assert rc == 1
        assert "run failed: SimulationBlowupError: advective CFL exceeded 1 at t = 0.15" \
            in capsys.readouterr().err
        assert (tmp_path / "failure_manifest.json").exists()
        # a failed run still writes its run manifest, naming the truncated run
        manifest = read_manifest(tmp_path)
        assert manifest["command"] == "simulate"
        assert manifest["tool_version"] == f"slipflow {slipflow.__version__}"
        assert re.fullmatch("[0-9a-f]{64}", manifest["config_digest"])
        assert manifest["outputs"] == ["diagnostics_truncated.csv", "failure_manifest.json"]
        assert all((tmp_path / name).exists() for name in manifest["outputs"])

    def test_ill_conditioned_operators_map_to_exit_code_one(self, tmp_path, capsys):
        # mode 1's influence matrix is singular near this dt (test_stepper),
        # so the run is refused before its first step and writes no run files
        dt = "4.29371901504907"
        rc = run_cli("--out", tmp_path, "simulate", "--linearized", "--m", "2",
                     "--p", "24", "--basis", "16", "--dt", dt, "--t-end", dt)
        assert rc == 1
        assert "run failed: InfluenceConditioningError" in capsys.readouterr().err
        assert read_manifest(tmp_path)["outputs"] == []
        assert not (tmp_path / "failure_manifest.json").exists()

    def test_linearized_run_has_no_cfl_bound(self, tmp_path, capsys, basis48):
        # the linear growth carries this state far past CFL 1, which bounds
        # only the advection of a nonlinear run
        rc = run_cli("--out", tmp_path, "simulate", "--linearized", "--mu", "0.1",
                     "--m", "16", "--p", "56", "--dt", "1e-3", "--t-end", "1.5")
        assert rc == 0
        assert "run failed" not in capsys.readouterr().err
        assert not (tmp_path / "failure_manifest.json").exists()
        diag = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1)
        assert diag[-1, 0] == pytest.approx(1.5, rel=1.0e-12)
        # the packet's second mode (lambda_2 = 7.27 against lambda_1 = 8.53)
        # still holds the estimate 3.5e-3 below lambda_1 at t = 1.5
        problem = ModeProblem(k=1.0, mu=0.1, slip=SlipPair(1.0, 1.0))
        lam = solve_spectrum(assemble(problem, basis48)).lambda1
        assert diag[-1, 6] == pytest.approx(lam, rel=5.0e-3)


class TestCrankNicolsonRate:
    def test_simulate_states_the_rate_its_run_realizes(self, tmp_path, capsys):
        # lambda dt = 0.70 at the default dt: the run grows at
        # ln|(1 + lambda dt/2) / (1 - lambda dt/2)| / dt, 4.35% above lambda
        rc = run_cli("--out", tmp_path, "simulate", "--mu", "0.05", "--xi", "0", "3",
                     "--linearized", "--t-end", "0.1")
        # the gap is flagged, above 1e-3, and fails nothing
        assert rc == 0
        found = read_findings(tmp_path / "run_manifest.json")["crank_nicolson_rate"]
        rate, gap = found["detail"], found["value"]
        diag = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1)
        assert rate["lambda"] == pytest.approx(173.77217436, rel=1.0e-10)
        assert abs(rate["lambda_run"] / diag[-1, 6] - 1.0) <= 1.0e-8
        assert gap == rate["lambda_run"] / rate["lambda"] - 1.0
        assert 0.0434 < gap < 0.0436
        assert (found["bound"], found["status"]) == (1.0e-3, "flagged")
        lines = capsys.readouterr().out.splitlines()
        # the printed digits are compared as numbers: the final l2 sits about
        # 1e-12 (relative) from a rounding boundary of its sixth decimal, and
        # roundoff-level changes to the packet profile move it by up to that
        head = re.fullmatch(r"simulate: 25 steps to t = 0\.1, final l2 = (\S+), "
                            r"growth rate estimate = (\S+)", lines[0])
        assert head is not None, lines[0]
        assert float(head[1]) == pytest.approx(132854.626222, rel=1.0e-9)
        assert float(head[2]) == pytest.approx(181.324011095, rel=1.0e-9)
        assert lines[1] == (
            f"flagged     crank_nicolson_rate = {gap:.6g} (bound 0.001): dt = 0.004 "
            f"realizes lambda = {rate['lambda']:.12g} as lambda_run = {rate['lambda_run']:.12g}"
        )


class TestSolverHealth:
    """``simulate`` and ``experiment`` write the same solver-health record
    (``sim.run.solver_health``) to their run manifest."""

    def test_acceptance_configuration_is_well_conditioned(self, tmp_path):
        # the acceptance channel and grid: mu = 0.5, M = 32, P = 64, dt = 4e-3
        rc = run_cli("--out", tmp_path, "simulate", "--linearized", "--t-end", "8e-3")
        assert rc == 0
        found = read_findings(tmp_path / "run_manifest.json")["influence_cond_max"]
        assert (found["bound"], found["status"]) == (1.0e8, "ok")
        got = found["value"]
        cfg = SimConfig(channel=ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0)))
        cond = _operator_set(cfg)["_influence_cond"]
        assert cond.shape == (32,) and not cond.flags.writeable
        assert got == float(cond.max())
        assert 1.0 < got < 1.0e3

    def test_experiment_manifest_names_its_grid(self, tmp_path):
        # a sweep refused at its start has still built its operators, and
        # its deltas recorded nothing
        rc = run_cli("--out", tmp_path, "experiment", "--mu", "0.5", "--m", "16",
                     "--p", "56", "--dt", "0.2", "--deltas", "1e-2")
        assert rc == 2
        cfg = SimConfig(channel=ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0)),
                        M=16, P=56, dt=0.2)
        health = read_findings(tmp_path / "run_manifest.json")
        assert health["influence_cond_max"]["value"] == float(
            _operator_set(cfg)["_influence_cond"].max())
        for name in ("record_cfl_max", "energy_residual_max"):
            assert (health[name]["value"], health[name]["status"]) == (None, "unavailable")

    def test_experiment_manifest_reads_its_records(self, tmp_path, monkeypatch):
        # record_cfl_max is the largest CFL number the record-time abort
        # checks of the sweep's nonlinear branches read, and
        # energy_residual_max the largest budget residual of a full branch
        read, in_record = [], []
        cfl_number, record = ChannelStepper.cfl_number, _Recorder.record

        def reading(st, phi=None):
            cfl = cfl_number(st, phi)
            if in_record:
                read.append(cfl)
            return cfl

        def recording(rec):
            in_record.append(True)
            try:
                record(rec)
            finally:
                in_record.pop()

        sweeps = []

        def writing(exp, out):
            sweeps.append(exp)
            return write_experiment_outputs(exp, out)

        monkeypatch.setattr(ChannelStepper, "cfl_number", reading)
        monkeypatch.setattr(_Recorder, "record", recording)
        monkeypatch.setattr(slipflow.sim, "write_experiment_outputs", writing)
        rc = run_cli("--out", tmp_path, "experiment", "--mu", "0.1", "--m", "16",
                     "--p", "56", "--dt", "1e-3", "--deltas", "1e-3", "1e-4")
        assert rc == 1  # the escape spacing fails on this two-mode packet
        (exp,) = sweeps
        manifest = {name: f["value"] for name, f in read_findings(
            tmp_path / "run_manifest.json").items()}
        # nf and nr read one CFL number each per record: 13 + 25 records
        assert [o.steps.size for o in exp.outcomes] == [14, 26]
        assert len(read) == 2 * (14 + 26)
        recorded = np.concatenate([o.record_cfl for o in exp.outcomes])
        assert sorted(recorded) == sorted(read)
        assert manifest["record_cfl_max"] == max(read) > 0.0
        assert manifest["energy_residual_max"] == max(
            o.diagnostics.energy_residual.max() for o in exp.outcomes) > 0.0
        cfg = SimConfig(channel=ChannelConfig(L=1.0, mu=0.1, slip=SlipPair(1.0, 1.0)),
                        M=16, P=56, dt=1.0e-3)
        assert manifest["influence_cond_max"] == float(
            _operator_set(cfg)["_influence_cond"].max())
        lam = exp.lambdas[-1]
        rate = read_findings(tmp_path / "run_manifest.json")["crank_nicolson_rate"]["detail"]
        assert rate["lambda"] == lam
        h = 0.5 * lam * 1.0e-3
        assert rate["lambda_run"] == math.log((1.0 + h) / (1.0 - h)) / 1.0e-3
        assert manifest["crank_nicolson_rate"] == rate["lambda_run"] / lam - 1.0

    def test_simulate_manifest_reads_its_records(self, tmp_path, monkeypatch):
        # record_cfl_max is the largest CFL number the record-time abort
        # checks read, one per record, and energy_residual_max the largest
        # residual that energy.csv prints
        read = []
        cfl_number = ChannelStepper.cfl_number

        def reading(st, phi=None):
            read.append((phi is not None, cfl_number(st, phi)))
            return read[-1][1]

        monkeypatch.setattr(ChannelStepper, "cfl_number", reading)
        rc = run_cli("--out", tmp_path, "simulate", "--mu", "0.5", "--amplitude", "0.05",
                     "--m", "16", "--p", "56", "--dt", "2e-3", "--t-end", "0.1",
                     "--stride", "5")
        assert rc == 0
        manifest = {name: f["value"] for name, f in read_findings(
            tmp_path / "run_manifest.json").items()}
        # the start's stability check reads the CFL number of the unsolved
        # state; each of the 11 records reads it off its solved planes
        at_records = [cfl for solved, cfl in read if solved]
        assert [solved for solved, _ in read] == [False] + [True] * 11
        assert manifest["record_cfl_max"] == max(at_records) > 0.0
        energy = np.loadtxt(tmp_path / "energy.csv", delimiter=",", skiprows=1)
        assert energy.shape == (11, 6)
        assert manifest["energy_residual_max"] == energy[:, 5].max() > 0.0

        rc = run_cli("--out", tmp_path / "lin", "simulate", "--mu", "0.5", "--linearized",
                     "--m", "16", "--p", "56", "--dt", "2e-3", "--t-end", "0.1")
        assert rc == 0
        manifest = {name: f["value"] for name, f in read_findings(
            tmp_path / "lin" / "run_manifest.json").items()}
        assert manifest["record_cfl_max"] is None
        energy = np.loadtxt(tmp_path / "lin" / "energy.csv", delimiter=",", skiprows=1)
        assert manifest["energy_residual_max"] == energy[:, 5].max()


class TestVerify:
    def test_full_battery_via_cli(self, tmp_path, capsys):
        rc = run_cli("--out", tmp_path, "verify")
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 14 and all(line.startswith("ok ") for line in out)
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert (report["seed"], report["tool_version"]) == (0, slipflow.__version__)
        assert len(report["findings"]) == 14
        assert {(f["status"], f["bound"]) for f in report["findings"]} == {("ok", 1.0)}
        # the findings are listed once, in verify's own report
        assert "findings" not in read_manifest(tmp_path)


class TestExitRule:
    """One exit rule: a command exits 1 exactly when a finding of its written
    report fails (spectrum and verify write their own report, simulate and
    experiment the run manifest)."""

    @pytest.mark.parametrize("args, report, rc", [
        (["spectrum", "--k", "1", "--mu", "0.3"], "spectrum_report.json", 0),
        (["spectrum", "--k", "16", "--mu", "3.125e-4"], "spectrum_report.json", 1),
        (["verify"], "verify_report.json", 0),
        (["simulate", "--mu", "0.05", "--xi", "0", "3", "--linearized", "--t-end", "0.1"],
         "run_manifest.json", 0),
        (["simulate", "--mu", "0.1", "--amplitude", "0.5", "--m", "16", "--p", "56",
          "--dt", "1e-3", "--t-end", "1.0", "--stride", "10"], "run_manifest.json", 1),
        (["experiment", "--mu", "0.1", "--m", "16", "--p", "56", "--dt", "1e-3",
          "--deltas", "1e-3", "1e-4"], "run_manifest.json", 1),
        (["experiment", "--mu", "2.0"], "run_manifest.json", 0),
    ], ids=["spectrum-ok", "spectrum-under-resolved", "verify", "simulate", "blowup",
            "smoke-experiment", "stable-regime"])
    def test_exit_one_exactly_when_a_finding_fails(self, tmp_path, args, report, rc):
        assert run_cli("--out", tmp_path, *args) == rc
        statuses = [f["status"] for f in read_findings(tmp_path / report).values()]
        assert (rc == 1) == ("fail" in statuses)


class TestExperimentCommand:
    def test_stable_regime_reports_and_exits_cleanly(self, tmp_path, capsys):
        rc = run_cli("--out", tmp_path, "experiment", "--mu", "2.0")
        assert rc == 0
        assert "stable" in capsys.readouterr().out.lower()
        manifest = read_manifest(tmp_path)
        assert manifest["outputs"] == []


    def test_stable_fundamental_wavenumber_is_the_stable_regime(self, tmp_path, capsys):
        # mu = 0.5 is below mu_c_global = 1 but above mu_c(5) = 0.1001, and
        # 5 = 1/L is the smallest wavenumber of the 2 pi L-periodic channel
        rc = run_cli("--out", tmp_path, "experiment", "--mu", "0.5", "--length", "0.2")
        assert rc == 0
        assert "stable regime" in capsys.readouterr().out
        assert read_manifest(tmp_path)["outputs"] == []

    def test_every_delta_refused_at_its_start_is_a_usage_error(self, tmp_path, capsys):
        grid = ["experiment", "--mu", "0.5", "--m", "16", "--p", "56"]
        rc = run_cli("--out", tmp_path / "a", *grid, "--dt", "0.2", "--deltas", "1e-2")
        assert rc == 2
        captured = capsys.readouterr()
        assert "fail        delta_1e-02 = n/a: ValidationError: dt = 0.2 exceeds" in captured.out
        assert "slope = nan: 0 of 1 deltas completed, the fit needs 2" in captured.out
        assert "every delta was refused at its start" in captured.err
        manifest = json.loads((tmp_path / "a" / "delta_1e-02" / "manifest.json").read_text())
        assert manifest["error"].startswith("ValidationError")
        assert (tmp_path / "a" / "experiment_manifest.json").exists()
        assert "summary.csv" in read_manifest(tmp_path / "a")["outputs"]
        # dt = 0.1 is above the stability bound 0.096 of delta = 1e-2 only: a
        # sweep with a completed delta keeps its failed verdict's exit code
        rc = run_cli("--out", tmp_path / "b", *grid, "--dt", "0.1",
                     "--deltas", "1e-2", "1e-5")
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count(": ValidationError") == 1
        assert "fail        delta_1e-02 = n/a: " in out and "ok          delta_1e-05 = " in out
        assert "fail        slope = nan: 1 of 2 deltas completed, the fit needs 2" in out

    def test_deltas_sharing_a_directory_are_a_usage_error(self, tmp_path, capsys):
        # 1e-2 and 1.2e-2 both format as delta_1e-02: the sweep is refused
        # before it runs, rather than writing one delta over the other
        rc = run_cli("--out", tmp_path, "experiment", "--mu", "0.5", "--m", "8",
                     "--p", "56", "--dt", "4e-3", "--deltas", "1e-2", "1.2e-2")
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: deltas 0.01 and 0.012 share the output directory delta_1e-02\n")
        assert list(tmp_path.iterdir()) == []


class TestNoGrowingMode:
    def test_every_command_reports_the_packet_refusal(self, tmp_path, capsys, monkeypatch):
        from slipflow.sim import experiment

        # let the experiment past its lattice test, as an unresolved basis
        # would, so that its packet meets a spectrum with no growing mode
        monkeypatch.setattr(experiment, "critical_wavenumber", lambda channel: 1.0)
        errors = []
        for command in (["modes"], ["simulate", "--t-end", "0.01"],
                        ["experiment", "--m", "16", "--p", "56"]):
            rc = run_cli("--out", tmp_path / command[0], command[0], "--mu", "2.0",
                         *command[1:])
            assert rc == 2, command
            errors.append(capsys.readouterr().err)
        expected = ("error: no unstable mode at k = 1, mu = 2: "
                    "the spectrum has no positive growth rate\n")
        assert errors == [expected] * 3


class TestConfigResolution:
    def test_config_file_sets_the_channel(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "viscosity": 0.25,
            "slip": {"xi_minus": 0.5, "xi_plus": 3.0},
        }))
        out = tmp_path / "out"
        rc = run_cli("--config", cfg, "--out", out, "critical",
                     "--k", "1", "2", "--points", "3")
        assert rc == 0
        footer = (out / "critical.csv").read_text().splitlines()[-1]
        assert float(footer.split("=")[1]) == mu_c_global(SlipPair(0.5, 3.0))

    def test_env_overrides_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slip": {"xi_minus": 1.0, "xi_plus": 1.0}}))
        monkeypatch.setenv("SLIPFLOW_SLIP__XI_PLUS", "3.0")
        out = tmp_path / "out"
        rc = run_cli("--config", cfg, "--out", out, "critical",
                     "--k", "1", "2", "--points", "3")
        assert rc == 0
        footer = (out / "critical.csv").read_text().splitlines()[-1]
        assert float(footer.split("=")[1]) == mu_c_global(SlipPair(1.0, 3.0))

    def test_flags_override_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLIPFLOW_SLIP__XI_PLUS", "3.0")
        out = tmp_path / "out"
        rc = run_cli("--out", out, "critical", "--xi", "2.0", "2.0",
                     "--k", "1", "2", "--points", "3")
        assert rc == 0
        footer = (out / "critical.csv").read_text().splitlines()[-1]
        assert float(footer.split("=")[1]) == mu_c_global(SlipPair(2.0, 2.0))

    def test_env_sets_the_grid_size(self):
        from slipflow.cli import _sim_config, apply_env_overrides

        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        env = {"SLIPFLOW_SIM__M": "6", "SLIPFLOW_SIM__P": "24"}
        cfg = _sim_config(apply_env_overrides({}, environ=env), SimpleNamespace(), channel)
        assert (cfg.M, cfg.P) == (6, 24)
        raw = apply_env_overrides({"sim": {"M": 8, "P": 32}}, environ=env)
        cfg = _sim_config(raw, SimpleNamespace(), channel)
        assert (cfg.M, cfg.P) == (6, 24)

    def test_sim_values_of_their_json_type_are_accepted(self):
        from slipflow.cli import _sim_config, apply_env_overrides

        channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
        env = {"SLIPFLOW_SIM__LINEARIZED": "true", "SLIPFLOW_SIM__T_END": "2"}
        raw = apply_env_overrides({"sim": {"M": 8, "dt": 1}}, environ=env)
        cfg = _sim_config(raw, SimpleNamespace(), channel)
        assert (cfg.M, cfg.dt, cfg.t_end, cfg.linearized) == (8, 1.0, 2.0, True)
        assert type(cfg.dt) is float and type(cfg.t_end) is float

    def test_env_grid_size_reaches_the_simulation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLIPFLOW_SIM__M", "1")  # below SimConfig's minimum
        rc = run_cli("--out", tmp_path, "simulate", "--t-end", "0.01")
        assert rc == 2
        assert "need at least 2 Fourier modes" in capsys.readouterr().err

    def test_digest_tracks_the_resolved_config(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("--out", a, "critical", "--k", "1", "2", "--points", "3")
        run_cli("--out", b, "--seed", "1", "critical", "--k", "1", "2",
                "--points", "3")
        assert (read_manifest(a)["config_digest"]
                != read_manifest(b)["config_digest"])


    def test_digest_repeats_and_tracks_flags_and_sim_values(self, tmp_path):
        def digest(name, *args, sim=None):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"sim": sim or {}}))
            assert run_cli("--config", cfg, "--out", tmp_path / name, *args) == 0
            return read_manifest(tmp_path / name)["config_digest"]

        critical = ["critical", "--k", "1", "2", "--points"]
        assert digest("a", *critical, "3") == digest("b", *critical, "3")
        assert digest("c", *critical, "3") != digest("d", *critical, "4")
        simulate = ["simulate", "--p", "56", "--dt", "2e-3", "--t-end", "0.01",
                    "--linearized"]
        assert (digest("e", *simulate, sim={"M": 8})
                != digest("f", *simulate, sim={"M": 10}))
        # a stable-regime experiment runs nothing, but its flags still count
        stable = ["experiment", "--mu", "2.0", "--deltas"]
        assert digest("g", *stable, "1e-3") != digest("h", *stable, "1e-4")

    def test_digest_does_not_depend_on_how_keys_are_spelled(self, tmp_path, monkeypatch):
        # keys match in any case, so M in the file, m in the file and
        # SLIPFLOW_SIM__M are one configuration with one digest
        def digest(name, sim):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"sim": sim}))
            assert run_cli("--config", cfg, "--out", tmp_path / name,
                           "critical", "--points", "3") == 0
            return read_manifest(tmp_path / name)["config_digest"]

        upper, lower = digest("upper", {"M": 8}), digest("lower", {"m": 8})
        monkeypatch.setenv("SLIPFLOW_SIM__M", "8")
        assert upper == lower == digest("env", {})


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = run_cli("--config", tmp_path / "nope.json", "--out", tmp_path,
                     "critical")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli("--config", bad, "--out", tmp_path, "critical")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_slip_rejected(self, tmp_path, capsys):
        rc = run_cli("--out", tmp_path, "critical", "--xi", "-1", "0")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_threads_rejected(self, tmp_path, capsys):
        rc = run_cli("--threads", "0", "--out", tmp_path, "critical")
        assert rc == 2

    def test_unknown_command_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", tmp_path, "frobnicate")
        assert exc.value.code == 2

    def test_unknown_top_level_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulation": {"dt": 1.0e-3}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "critical")
        assert rc == 2
        assert "simulation" in capsys.readouterr().err

    def test_misspelled_env_override_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLIPFLOW_SLIP_XI_PLUS", "3.0")  # single underscore
        rc = run_cli("--out", tmp_path, "critical")
        assert rc == 2
        assert "slip_xi_plus" in capsys.readouterr().err

    def test_unknown_simulation_key_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"bogus": 3}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "simulate",
                     "--t-end", "0.01")
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_sim_key_given_twice_in_different_case(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"M": 4, "m": 6}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "simulate",
                     "--t-end", "0.01")
        assert rc == 2
        assert "twice" in capsys.readouterr().err

    def test_cfl_limit_is_not_a_setting(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"cfl_limit": 0.3}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "simulate",
                     "--t-end", "0.01")
        assert rc == 2
        assert "cfl_limit" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("sim.linearized", "false", id="linearized-false"),
        pytest.param("sim.M", 8.9, id="M-8.9"),
        pytest.param("sim.dt", True, id="dt-True"),
        # the channel keys and slip go through the same reader
        ("period_length", True), ("viscosity", "0.3"), ("slip.xi_minus", True),
        ("slip", 1.0),
    ])
    def test_sim_value_of_the_wrong_type_is_refused(self, tmp_path, capsys, key, value):
        section, _, name = key.rpartition(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: value}} if section else {name: value}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "simulate",
                     "--t-end", "0.01")
        assert rc == 2
        assert f"{key}: bad value" in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_top_level_key_in_another_case_overrides(self, tmp_path, capsys):
        # keys match in any case, so the file's Viscosity and XI_PLUS replace
        # the defaults, as an environment override does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Viscosity": 0.3, "Slip": {"XI_PLUS": 2.0}}))
        assert run_cli("--config", cfg, "--out", tmp_path, "modes", "--grid", "4", "5") == 0
        packet = json.loads((tmp_path / "packet.json").read_text())
        assert (packet["mu"], packet["slip"]) == (0.3, {"xi_minus": 1.0, "xi_plus": 2.0})

    def test_top_level_key_given_twice_in_the_file_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"viscosity": 0.3, "Viscosity": 0.2}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "critical")
        assert rc == 2
        assert ("error: configuration: viscosity is given twice, once as Viscosity"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_checkpoint_stride_below_one_is_refused(self, tmp_path, capsys, stride):
        rc = run_cli("--out", tmp_path, "simulate", "--m", "8", "--p", "56",
                     "--t-end", "0.02", "--linearized", "--checkpoint-stride", stride)
        assert rc == 2
        assert "checkpoint_stride" in capsys.readouterr().err
        assert not list(tmp_path.glob("checkpoint_*.bin"))

    def test_unknown_experiment_key_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"viscosity": 0.1, "experiment": {"out_dir": "x"}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "experiment")
        assert rc == 2
        assert "out_dir" in capsys.readouterr().err

    def test_coefficients_is_not_an_experiment_setting(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"viscosity": 0.1, "experiment": {"coefficients": [1]}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "experiment")
        assert rc == 2
        assert "experiment: unknown keys ['coefficients']" in capsys.readouterr().err

    def test_linearized_experiment_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"viscosity": 0.5, "sim": {
            "M": 16, "P": 56, "dt": 4.0e-3, "linearized": True, "t_end": 0.01}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "experiment",
                     "--deltas", "1e-2", "1e-3")
        assert rc == 2
        assert "error: sim.linearized:" in capsys.readouterr().err
        assert not (tmp_path / "experiment_manifest.json").exists()

    def test_experiment_ignores_a_sim_t_end_below_dt(self, tmp_path, capsys):
        # each delta runs to its own escape time, so a sim.t_end below dt,
        # which simulate refuses, is read but changes no experiment output
        outs = []
        for sim in ({"t_end": 1.0e-3}, {}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"viscosity": 0.5, "sim": {
                "M": 16, "P": 56, "dt": 4.0e-3, **sim}}))
            out = tmp_path / f"out{len(outs)}"
            rc = run_cli("--config", cfg, "--out", out, "experiment",
                         "--deltas", "1e-2", "1e-3")
            assert rc == 0
            assert "t_end" not in capsys.readouterr().err
            outs.append(out)
        for name in ("summary.csv", "experiment_manifest.json",
                     "delta_1e-03/separation.csv", "delta_1e-03/manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("key, value", [("deltas", "1e-3"), ("delta0", True),
                                            ("packet_count", 2.5)])
    def test_experiment_value_of_the_wrong_type_is_refused(self, tmp_path, capsys,
                                                           key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"viscosity": 0.1, "experiment": {key: value}}))
        rc = run_cli("--config", cfg, "--out", tmp_path, "experiment")
        assert rc == 2
        assert f"experiment.{key}: bad value" in capsys.readouterr().err
        assert not (tmp_path / "experiment_manifest.json").exists()


class TestModuleInvocation:
    def test_python_dash_m_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "slipflow.cli", "--out", str(tmp_path),
             "critical", "--k", "0.5", "2", "--points", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "mu_c_global" in proc.stdout
        assert (tmp_path / "critical.csv").exists()

    def test_import_leaves_numpy_unloaded(self):
        # --threads pins the BLAS pools through the environment, which only
        # works while numpy is not yet imported
        proc = subprocess.run(
            [sys.executable, "-c",
             "import slipflow.cli, sys; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_optimize_fft_and_special_unloaded(self):
        # the root finder and the DCT are numpy code; these three scipy
        # subpackages add to every command's start-up time
        proc = subprocess.run(
            [sys.executable, "-c",
             "import slipflow.sim, slipflow.cli, sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'fft'], "
             "['scipy', 'special'])))"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # numpy is the one runtime dependency: with every scipy import made to
        # fail, the modules import and spectrum, critical and a short
        # linearized simulate succeed, and no scipy module gets loaded
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import slipflow.cli, slipflow.sim, slipflow.spectrum, slipflow.critical\n"
            "import slipflow.verification\n"
            "out = sys.argv[1]\n"
            "codes = [slipflow.cli.main(['--out', out + '/' + argv[0]] + argv) for argv in (\n"
            "    ['spectrum', '--k', '1', '--mu', '0.3'],\n"
            "    ['critical', '--k', '0.5', '2', '--points', '3'],\n"
            "    ['simulate', '--linearized', '--m', '8', '--p', '24', '--basis', '16',\n"
            "     '--t-end', '0.02'])]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'scipy' and sys.modules[m] is not None)\n"
            "print(codes, loaded)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
        for name in ("spectrum", "critical", "simulate"):
            assert (tmp_path / name / "run_manifest.json").exists()


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == slipflow.__version__


def test_every_exported_name_resolves_once():
    import importlib
    import pkgutil

    checked = 0
    for info in pkgutil.walk_packages(slipflow.__path__, "slipflow."):
        module = importlib.import_module(info.name)
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert len(names) == len(set(names)), info.name
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    assert checked >= 13

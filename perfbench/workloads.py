"""The four benchmark workloads: inputs from a seed, the timed work, its checks.

Every workload uses a physical configuration that the package's tests or
README already run.  The DNS horizons are shorter than the acceptance sweep
(151 s) so that one run fits a benchmark run; the per-step and per-case work
is unchanged.

``setup`` builds the inputs (its time is part of ``setup_s``); ``run`` does
the work and checks the outputs (its time is ``wall_s``).  Program entry
points are looked up on their modules at call time, so a tracer installed
after import sees every call.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """Checked result of one workload run.

    ``ops`` holds (operation, passed) pairs: checks the program is known to
    pass, so a miss counts as a failed operation.  ``agree``
    holds the comparisons against an independent reference (theory, an
    oracle, a straight run); ``agree_frac`` is their passing share.
    ``work`` is branch steps for the DNS workloads and cases for spectrum.
    """

    ops: list
    agree: list
    work: int
    case_ms: list = field(default_factory=list)
    notes: list = field(default_factory=list)


# -- separation experiment (two configurations) ----------------------------

def _separation_inputs(mu, M, P, dt, deltas, **kwargs):
    from slipflow.model import ChannelConfig, SlipPair
    from slipflow.sim import SimConfig

    channel = ChannelConfig(L=1.0, mu=mu, slip=SlipPair(1.0, 1.0))
    sim = SimConfig(channel=channel, M=M, P=P, dt=dt, diagnostics_stride=25)
    return {"channel": channel, "sim": sim, "deltas": deltas, "kwargs": kwargs}


def _run_separation(inputs, out, expect_escape_ok: bool) -> Outcome:
    from slipflow.sim import experiment

    exp = experiment.run_separation_experiment(
        inputs["channel"], sim=inputs["sim"], deltas=inputs["deltas"],
        out_dir=out, **inputs["kwargs"],
    )
    ops = [(f"delta {o.delta:.0e} ok", o.ok) for o in exp.outcomes]
    ops.append(("slope within 2 +- 0.2", abs(exp.slope - 2.0) <= 0.2))
    # the two-mode packet misses the single-rate escape spacing by design,
    # as the package's own experiment tests expect
    ops.append((f"escape_ok is {expect_escape_ok}", exp.escape_ok == expect_escape_ok))
    ops.append((f"verdict is {expect_escape_ok}", exp.verdict == expect_escape_ok))
    branches = 4 if exp.lambdas.size > 1 else 2
    steps = sum(int(o.steps[-1]) for o in exp.outcomes if o.error is None)
    notes = [f"slope {exp.slope:.6f}, escape_ok {exp.escape_ok}, verdict {exp.verdict}, "
             f"{steps} steps x {branches} branches"]
    return Outcome(ops=ops, agree=[ok for _, ok in ops], work=steps * branches, notes=notes)


def setup_separation(seed, out):
    return _separation_inputs(0.5, 32, 64, 4.0e-3, (1.0e-2, 1.0e-3))


def run_separation(inputs, out):
    return _run_separation(inputs, out, expect_escape_ok=True)


def setup_separation_2mode(seed, out):
    return _separation_inputs(0.1, 16, 56, 1.0e-3, (1.0e-3, 1.0e-4), basis_size=48, n_max=12)


def run_separation_2mode(inputs, out):
    return _run_separation(inputs, out, expect_escape_ok=False)


# -- simulate: dense diagnostics, checkpoints, resume ----------------------

def setup_simulate(seed, out):
    from slipflow import modes, numerics, spectrum
    from slipflow.model import ChannelConfig, ModeProblem, SlipPair
    from slipflow.sim import SimConfig, field

    channel = ChannelConfig(L=1.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    cfg = SimConfig(channel=channel, M=32, P=64, dt=1.0e-3, t_end=0.4,
                    linearized=True, diagnostics_stride=1)
    problem = ModeProblem(k=1.0, mu=channel.mu, slip=channel.slip)
    spec = spectrum.solve_spectrum(spectrum.assemble(problem, numerics.build_basis(48)))
    packet = modes.build_packet(spec)
    profile = modes.packet_streamfunction_profile(packet)
    initial = field.field_from_mode_profile(profile, n_mode=1, M=cfg.M, P=cfg.P, L=1.0) * 1.0e-3
    return {"cfg": cfg, "initial": initial, "lambda1": packet.top_lambda}


def run_simulate(inputs, out):
    # the package re-exports the function ``run`` under the module's name
    sim_run = importlib.import_module("slipflow.sim.run")
    cfg = inputs["cfg"]
    res = sim_run.run(inputs["initial"], cfg, out_dir=out, checkpoint_stride=100)
    sim_run.diagnostics_to_csv(res.diagnostics, out / "diagnostics.csv")
    sim_run.energy_to_csv(res.diagnostics, out / "energy.csv")
    times, l2 = res.diagnostics.times, res.diagnostics.l2_norm
    slope = float(np.polyfit(times, np.log(l2), 1)[0])
    rel = abs(slope - inputs["lambda1"]) / inputs["lambda1"]

    stepper = sim_run.read_checkpoint(res.checkpoints[len(res.checkpoints) // 2 - 1], cfg)
    resumed = cfg.n_steps - round(stepper.t / cfg.dt)
    for _ in range(resumed):
        stepper.step()
    same = np.array_equal(stepper.streamfunction().coefficients, res.final_state.coefficients)
    ops = [("growth rate within 1e-2 of lambda_1", rel <= 1.0e-2),
           ("resume bit-identical to straight run", bool(same))]
    notes = [f"fitted growth {slope:.8f} vs lambda_1 {inputs['lambda1']:.8f} (rel {rel:.2e}), "
             f"resumed {resumed} steps, bit-identical {same}"]
    return Outcome(ops=ops, agree=[ok for _, ok in ops], work=cfg.n_steps + resumed, notes=notes)


# -- spectrum sweep with its oracles ----------------------------------------

SPECTRUM_KS = (0.05, 0.5, 1.0, 4.0, 16.0)
SPECTRUM_SLIPS = ((1.0, 1.0), (0.0, 3.0), (10.0, 0.1))
SPECTRUM_FRACTIONS = (1.0e-3, 1.0e-2, 0.1, 0.5, 0.999)
SPECTRUM_SIZES = (48, 64, 96)
ORACLE_TOL = 1.0e-6  # the agreement rule of `slipflow spectrum`


def setup_spectrum(seed, out):
    from slipflow import critical, numerics
    from slipflow.model import ModeProblem, SlipPair

    bases = {n: numerics.build_basis(n) for n in SPECTRUM_SIZES}
    cases = []
    for n in SPECTRUM_SIZES:
        for k in SPECTRUM_KS:
            for xi in SPECTRUM_SLIPS:
                slip = SlipPair(*xi)
                mu_c = critical.mu_c_closed_form(k, slip)
                for f in SPECTRUM_FRACTIONS:
                    cases.append((n, mu_c, ModeProblem(k=k, mu=f * mu_c, slip=slip)))
    order = np.random.default_rng(seed).permutation(len(cases))
    return {"bases": bases, "cases": [cases[i] for i in order], "seed": seed}


def run_spectrum(inputs, out):
    from slipflow import critical, spectrum

    ops, agree, case_ms = [], [], []
    misses = {n: 0 for n in SPECTRUM_SIZES}
    for n, mu_c, p in inputs["cases"]:
        basis = inputs["bases"][n]
        t0 = time.perf_counter()
        spec = spectrum.solve_spectrum(spectrum.assemble(p, basis))
        roots = np.sort(np.asarray(spectrum.determinant_roots(p).roots))[::-1]
        lam_v = spectrum.lambda1_variational(p, basis, seed=inputs["seed"])
        mu_v = critical.mu_c_variational(p.k, p.slip, basis)
        case_ms.append((time.perf_counter() - t0) * 1e3)

        count = spec.positive_count
        pairs = min(count, roots.size)
        gap = np.abs(spec.eigenvalues[:pairs] - roots[:pairs]) / roots[:pairs]
        rel = float(gap.max()) if pairs else 0.0
        oracle_ok = count == roots.size and rel <= ORACLE_TOL
        agree.append(oracle_ok)
        misses[n] += not oracle_ok
        # independent paths that agree across the whole sweep, so a miss is a regression
        ok = (count >= 1
              and abs(lam_v - spec.lambda1) <= ORACLE_TOL * abs(spec.lambda1)
              and abs(mu_v - mu_c) <= ORACLE_TOL * mu_c)
        ops.append((f"N={n} k={p.k:g} xi=({p.slip.xi_minus:g},{p.slip.xi_plus:g}) "
                    f"mu/mu_c={p.mu / mu_c:.3g}", ok))
    per_size = len(inputs["cases"]) // len(SPECTRUM_SIZES)
    notes = [f"determinant oracle disagrees (known defect) in {misses[n]} of {per_size} "
             f"cases at N={n}" for n in SPECTRUM_SIZES]
    return Outcome(ops=ops, agree=agree, work=len(ops), case_ms=case_ms, notes=notes)


WORKLOADS = {
    "separation": (setup_separation, run_separation),
    "separation_2mode": (setup_separation_2mode, run_separation_2mode),
    "simulate": (setup_simulate, run_simulate),
    "spectrum": (setup_spectrum, run_spectrum),
}

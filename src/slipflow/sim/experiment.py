"""Two-branch separation experiment for the nonlinear instability statement.

The experiment seeds the nonlinear solver with delta times the unstable mode
packet u^N(0) and with delta times the reduced packet (the same sum minus its
fastest mode), runs both to the escape time T^delta defined by
delta * F_N(T^delta) = epsilon0, and verifies with measured constants that

  * the H2 sizes of both branches stay below 2 * C1 * delta0  (first gate),
  * the L2 sizes stay below 3 * C1 * delta * F_N(t)           (second gate),
  * the final separation ||u_full - u_reduced||_L2 is at least
    0.5 * delta * |c_N| * exp(lambda_N * t),
  * the distance from the linearized evolution scales like delta^2
    (slope 2 in a log-log fit across the delta sweep),
  * T^delta grows by ln(10) / lambda_N per decade of delta.

Each branch is integrated alongside a linearized twin started from the same
initial data, all four with the same step size, so the recorded difference
from linear isolates the quadratic (advection) effect rather than the time
discretization error of the linear propagator.  A delta runs n =
ceil(T^delta / dt) steps, the last of length h = T^delta - (n - 1) dt
(``ChannelStepper.step``'s ``last``), so its last record, the separation, the
bound, the gates and ``t_final`` are read at T^delta itself.  Every delta
starts first, in the given order; then one loop over the step index m
advances the nonlinear branches of every running delta in one group step
(``ChannelStepper.step``) and their linear twins in another, and each delta
records on the schedule of a run (``sim.run._scheduled``) and leaves the
loop after its last step, a lone step of each branch on the step map
built for its h.  The group step makes each branch's products of a lone
step, so a delta's series do not depend on which deltas share its sweep,
bit for bit.  Every packet starts in the
odd-in-x1 symmetry class (pure imaginary mode rows, zero mean flow), the
one class the nonlinear stepper takes, and its half-period products keep
the branches in it exactly (see ``sim.stepper``).  That matters:
the mean-shear diffusion mode grows much faster than the packet (rate 2.13
versus 0.47 at the reference configuration), so roundoff seeding it would
contaminate the long delta = 1e-7 horizon.

With a single unstable mode the reduced packet is empty and its branch is
identically zero; the driver then skips the two reduced integrations (zero
is an exact fixed point) and records exact zeros instead.  Both unit packets
are embedded once per sweep and scaled by each delta.

The sweep is refused (StableRegimeError) when the 2 pi L-periodic channel is
stable, i.e. mu >= mu_c(1/L) (``critical.critical_wavenumber`` is None), and
``modes.build_packet`` refuses a wavenumber with no growing mode.  Each
nonlinear branch starts and records through the checks of a run
(``sim.run``), the full one's start is also refused when the CFL number of
the linear prediction at T^delta exceeds the record's abort bound CFL_ABORT,
and the twins have no CFL bound.  A refused start takes no step and is that
delta's recorded ValidationError (``DeltaOutcome.refused``); a CFL number
above CFL_ABORT in either nonlinear branch at a record is its
SimulationBlowupError, and so is a branch whose state stops being finite in
a group step, which ends its own
delta only: the others keep stepping.  A failed delta
is ``DeltaOutcome(delta, error=...)``: its measured fields keep their
defaults, NaN and empty series, which the manifests write as null.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..findings import Finding
from ..model import ChannelConfig, LatticeSweep, ModeProblem, ValidationError
from ..output import csv_row, write_csv, write_json, write_lines
from ..critical import critical_wavenumber, mu_c_closed_form
from ..numerics import build_basis
from ..spectrum import assemble, solve_spectrum
from ..modes import (
    ModePacket,
    build_packet,
    compute_capital_lambda,
    default_epsilon0,
    escape_time,
    packet_envelope_value,
    reduced_packet,
)
from .field import (
    _forms,
    _sobolev_norms,
    _velocity_weights,
    field_from_packet,
    velocity_from_streamfunction,
    velocity_norms,
)
from .run import _Recorder, _refuse_dt, _scheduled, _start, diagnostics_to_csv
from .stepper import (
    CFL_ABORT,
    ChannelStepper,
    InfluenceConditioningError,
    SimConfig,
    SimulationBlowupError,
    _last_step_operators,
)

__all__ = [
    "GateReport",
    "DeltaOutcome",
    "SeparationExperiment",
    "StableRegimeError",
    "run_separation_experiment",
    "sweep_findings",
    "write_experiment_outputs",
]


class StableRegimeError(ValidationError):
    """The channel is stable at its fundamental wavenumber: no instability to measure."""


@dataclass(frozen=True)
class GateReport:
    """Outcome of one monitored inequality over the recorded times."""

    held: bool
    first_violation_time: float | None
    max_ratio: float


_NOT_MEASURED = GateReport(False, None, math.nan)


def _no_series():
    return field(default_factory=lambda: np.zeros(0))


@dataclass
class DeltaOutcome:
    """Everything measured for one value of delta.

    The defaults are a failed delta's record, ``DeltaOutcome(delta,
    error=...)``: nothing measured, every gate failed.
    """

    delta: float
    t_delta: float = math.nan
    t_final: float = math.nan
    steps: np.ndarray = _no_series()
    times: np.ndarray = _no_series()
    sep_l2: np.ndarray = _no_series()
    linear_prediction: np.ndarray = _no_series()
    d_from_linear_full: np.ndarray = _no_series()
    d_from_linear_reduced: np.ndarray = _no_series()
    delta_f: np.ndarray = _no_series()
    gate_h2: GateReport = _NOT_MEASURED
    gate_l2: GateReport = _NOT_MEASURED
    separation: float = math.nan
    bound: float = math.nan
    separation_ok: bool = False
    c2: float = math.nan
    c3: float = math.nan
    c4: float = math.nan
    m0: float = math.nan
    diagnostics: object = None
    record_cfl: np.ndarray = _no_series()  # its records' CFL numbers (_Recorder.cfl)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.gate_h2.held and self.gate_l2.held
                and self.separation_ok)

    @property
    def refused(self) -> bool:
        """The run was refused at its start: a usage error, not a measurement."""
        return self.error is not None and self.error.startswith("ValidationError:")


@dataclass
class SeparationExperiment:
    """Completed experiment: packet data, per-delta outcomes, sweep fits."""

    channel: ChannelConfig
    k: float
    capital_lambda: float
    lambdas: np.ndarray
    dropped_lambdas: np.ndarray  # packet rates with 2 lambda_j <= Lambda, left out
    coefficients: np.ndarray
    epsilon0: float
    delta0: float
    c1: float
    deltas: tuple
    outcomes: list
    slope: float
    slope_ok: bool
    escape_increments: np.ndarray
    escape_expected: float
    escape_ok: bool

    @property
    def verdict(self) -> bool:
        return all(o.ok for o in self.outcomes) and self.slope_ok and self.escape_ok


def _gate(times, lhs, rhs) -> GateReport:
    ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0.0)
    bad = np.nonzero(lhs > rhs)[0]
    if bad.size:
        return GateReport(False, float(times[bad[0]]), float(ratio.max()))
    return GateReport(True, None, float(ratio.max()))


# the tolerances of the fitted slope on 2 and, relative, of each decade's
# escape-time increment on ln(10) / lambda_N
SLOPE_TOL, ESCAPE_TOL = 0.2, 0.05

# the failures that end one delta and become its recorded error
_FAILURES = (
    SimulationBlowupError,
    InfluenceConditioningError,
    ValidationError,
    FloatingPointError,
)


def _failed(delta: float, exc: Exception, cfl=()) -> DeltaOutcome:
    return DeltaOutcome(delta, record_cfl=np.array(cfl), error=f"{type(exc).__name__}: {exc}")


class _DeltaRun(_Recorder):
    """One delta's four branches, started and recorded at step 0 on
    construction; the sweep steps them (``branches``) and calls ``record``
    and, after the last step, ``outcome``.  ``units`` holds the embedded
    unit packet and reduced packet (None when the reduced packet is empty).

    Its records are those of a run (``sim.run._Recorder``) over the
    branches nf, nr, lf and lr, in that order (nf and lf alone for an empty
    reduced packet): ``record`` captures their planes, so the CFL aborts of
    nf and then nr run at once, and ``_evaluate`` turns a block of records
    into nf's diagnostics and the rows of the separation series."""

    def __init__(self, delta: float, packet: ModePacket, units: tuple, sim: SimConfig,
                 epsilon0: float, c1: float, delta0: float):
        self.delta, self.packet, self.sim = delta, packet, sim
        self.epsilon0, self.c1, self.delta0 = epsilon0, c1, delta0
        self.t_delta = escape_time(packet, delta, epsilon0)
        # SimConfig's step count, one step when T^delta is below dt; the
        # last step has length h and ends at T^delta
        cfg = replace(sim, t_end=max(self.t_delta, sim.dt), linearized=False)
        self.n_steps = cfg.n_steps
        self.h = self.t_delta - (self.n_steps - 1) * sim.dt
        twin = replace(cfg, linearized=True)

        unit_full, unit_reduced = units
        full0 = unit_full * delta
        nf = _start(full0, cfg)
        # refuse a dt whose CFL number at the linear prediction for T^delta,
        # embedded like the initial data, passes the record's abort bound
        grown = ModePacket(packet.modes,
                           packet.coefficients * np.exp(packet.lambdas * self.t_delta))
        predicted = field_from_packet(grown, sim.M, sim.P, sim.channel.L) * delta
        cfl = nf.cfl_number(nf._solve_planes(nf._state_from_streamfunction(predicted).imag))
        _refuse_dt(cfg, cfl, CFL_ABORT, f"the linear prediction at t = {self.t_delta:g}")
        # a linear twin holds its branch's checked initial data
        lf = ChannelStepper(twin, full0)
        self.reduced_active = unit_reduced is not None
        if self.reduced_active:
            red0 = unit_reduced * delta
            nr = _start(red0, cfg)
            super().__init__(nf, nr, lf, ChannelStepper(twin, red0))
        else:
            super().__init__(nf, lf)
        self.rows = []
        self.record()

    def branches(self, linearized: bool) -> list:
        """The nonlinear branches (nf, nr) or their linear twins (lf, lr)."""
        return [st for st in self.steppers if st.cfg.linearized == linearized]

    def last_step(self):
        """Step every branch by the last step, of length h, to T^delta: each
        a lone step on the one step map built for this delta's h."""
        last = _last_step_operators(self.sim, self.h)
        for st in self.steppers:
            st.step(last=last)

    def _evaluate(self, block: tuple, *others: tuple):
        # the block is the last n records: nf's diagnostics, then nf, nr, lf,
        # lr on one axis; a twin holds its branch's class, so each branch has
        # the full one's coefficient planes (p, M+1, 2, P) or their first rows
        x, sim = block[0], self.sim
        n = x.shape[0]
        u = np.zeros((n, 4) + x.shape[1:-1] + (2, sim.P))
        u[:, 0] = super()._evaluate(block)
        l2_nf, _, h2_nf = self.values[-1][:3]
        for i, st, (y, phi) in zip((1, 2, 3) if self.reduced_active else (2,),
                                   self.steppers[1:], others):
            phi = st._solve_planes(y) if phi is None else phi
            u[:, i, :, : y.shape[-2]] = st._velocity_coeffs(y, phi)
        # at step 0, a delta's first record and so the first of its block,
        # each linear twin holds its nonlinear branch's initial data, so it
        # takes that branch's velocity and d_from_linear is 0
        if self.steps[-n] == 0:
            u[0, 2:] = u[0, :2]
        # sep, the linear prediction, d_full and d_red, then nr itself; a
        # one-mode packet's reduced branches are exactly zero
        fields = np.concatenate([u[:, [0, 2, 0, 1]] - u[:, [1, 3, 2, 3]], u[:, 1:2]], axis=1)
        w = _velocity_weights(sim.M + 1, sim.channel.L)
        _, q = _forms(fields if self.reduced_active else fields[:, :3], w, lead=1)
        dist = np.sqrt(q[:, :, 0].sum(axis=-1))
        if self.reduced_active:
            d_red = dist[:, 3]
            l2_nr, _, h2_nr = _sobolev_norms(q[:, 4], sim.channel.L)
        else:
            d_red = l2_nr = h2_nr = np.zeros(n)
        self.rows.append((dist[:, 0], dist[:, 1], dist[:, 2], d_red,
                          l2_nf + l2_nr, h2_nf + h2_nr))

    def outcome(self) -> DeltaOutcome:
        delta, packet, epsilon0, t_delta = self.delta, self.packet, self.epsilon0, self.t_delta
        lam_top = packet.top_lambda
        c_top = abs(float(packet.coefficients[-1]))
        diagnostics = self.finish()
        times = diagnostics.times
        delta_f = delta * packet_envelope_value(packet, times)
        sep, linpred, d_full, d_red, l2_sum, h2_sum = (np.concatenate(c) for c in zip(*self.rows))

        gate_h2 = _gate(times, h2_sum, np.full_like(h2_sum, 2.0 * self.c1 * self.delta0))
        gate_l2 = _gate(times, l2_sum, 3.0 * self.c1 * delta_f)

        separation = float(sep[-1])
        t_final = float(times[-1])
        bound = 0.5 * delta * c_top * math.exp(lam_top * t_final)
        with np.errstate(divide="ignore", invalid="ignore"):
            c2 = float(np.max(h2_sum / delta_f))
            c3_candidates = np.maximum(d_full, d_red)[delta_f > 0.0]
            c3 = float(np.max(c3_candidates / delta_f[delta_f > 0.0] ** 2))
        c4 = epsilon0 / (delta * c_top * math.exp(lam_top * t_delta))
        return DeltaOutcome(
            delta=delta,
            t_delta=t_delta,
            t_final=t_final,
            steps=np.array(self.steps),
            times=times,
            sep_l2=sep,
            linear_prediction=linpred,
            d_from_linear_full=d_full,
            d_from_linear_reduced=d_red,
            delta_f=delta_f,
            gate_h2=gate_h2,
            gate_l2=gate_l2,
            separation=separation,
            bound=bound,
            separation_ok=bool(separation >= bound),
            c2=c2,
            c3=c3,
            c4=c4,
            m0=separation / epsilon0,
            diagnostics=diagnostics,
            record_cfl=np.array(self.cfl),
        )


def _step_sweep(live: dict, outcomes: list, stride: int):
    """Step the started deltas ``live`` (index -> _DeltaRun) to their last
    steps, filling ``outcomes`` by index.  Each step m before a delta's
    last advances the nonlinear branches of every such delta in one group
    step and their linear twins in another (``ChannelStepper.step``); at
    its last step a delta steps its branches alone, by h to T^delta
    (``_DeltaRun.last_step``).  Then each delta records when m is on its
    schedule (``_scheduled``) and leaves after its last step.  A failure
    ends its own delta only: a group step's SimulationBlowupError the
    deltas of the branches it names (a FloatingPointError, which names
    none, every delta of the group), a last step's or a record's failure
    its delta."""
    m = 0
    while live:
        m += 1
        for linearized in (False, True):
            group = [st for run in live.values() if m < run.n_steps
                     for st in run.branches(linearized)]
            if not group:
                continue
            try:
                group[0].step(*group[1:])
            except (SimulationBlowupError, FloatingPointError) as exc:
                hit = getattr(exc, "steppers", group)
                for i, run in list(live.items()):
                    if any(st in hit for st in run.steppers):
                        outcomes[i] = _failed(run.delta, exc, run.cfl)
                        del live[i]
        for i, run in list(live.items()):
            try:
                if m == run.n_steps:
                    run.last_step()
                if _scheduled(m, run.n_steps, stride):
                    run.record()
                if m == run.n_steps:
                    outcomes[i] = run.outcome()
                    del live[i]
            except _FAILURES as exc:
                outcomes[i] = _failed(run.delta, exc, run.cfl)
                del live[i]


def _fit_slope(outcomes):
    """(slope, None) of log(d_from_linear_full) vs log(delta) at a shared
    fixed time, the last time past 0 that every completed delta recorded (a
    record at step m reads t = m dt in every delta; a last record, at
    T^delta, only where T^delta is such a time), or (NaN, why not)."""
    done = [o for o in outcomes if o.error is None]
    if len(done) < 2:
        return math.nan, f"{len(done)} of {len(outcomes)} deltas completed, the fit needs 2"
    t = max(set.intersection(*(set(o.times.tolist()) for o in done)))
    if t == 0.0:
        return math.nan, "the completed deltas share no record time past 0"
    d = [float(o.d_from_linear_full[np.searchsorted(o.times, t)]) for o in done]
    if min(d) <= 0.0:
        return math.nan, f"a distance from linear at t = {t:g} is not positive"
    xs = [math.log(o.delta) for o in done]
    return float(np.polyfit(xs, [math.log(v) for v in d], 1)[0]), None


def run_separation_experiment(
    channel: ChannelConfig,
    sim: SimConfig | None = None,
    deltas: Sequence[float] = (1.0e-5, 1.0e-6, 1.0e-7),
    *,
    epsilon0: float | None = None,
    delta0: float = 0.02,
    basis_size: int = 48,
    n_max: int = 8,
    packet_count: int | None = None,
    out_dir=None,
) -> SeparationExperiment:
    """Run the full delta sweep and return the completed experiment record.

    Preconditions: ``sim`` must not be linearized, and its t_end is unused.
    The channel must be unstable (mu below mu_c(1/L), the
    critical viscosity of its fundamental wavenumber, else StableRegimeError),
    every delta must satisfy delta * F_N(0) < epsilon0, and no two may share a
    ``delta_dir_name``.  A refused start or a failure inside one delta run
    (blow-up, CFL loss) is recorded in that outcome's ``error`` field; the
    remaining deltas still run.  When ``out_dir`` is given the per-delta
    series, diagnostics, and manifests are written there.
    """
    if sim is not None and sim.linearized:
        raise ValidationError("sim.linearized: the experiment runs the nonlinear "
                              "equations beside their linearization")
    if critical_wavenumber(channel) is None:
        raise StableRegimeError(
            f"stable regime: viscosity {channel.mu:g} is not below the critical "
            f"viscosity {mu_c_closed_form(1.0 / channel.L, channel.slip):.12g} of the "
            f"fundamental wavenumber 1/L = {1.0 / channel.L:g}; no simulation to run"
        )
    if sim is None:
        sim = SimConfig(channel=channel)
    if sim.channel != channel:
        raise ValidationError("sim.channel must match the experiment channel")
    if not deltas:
        raise ValidationError("need at least one delta")
    deltas = tuple(float(d) for d in deltas)
    if any(not 0.0 < d < delta0 for d in deltas):
        raise ValidationError(f"every delta must lie in (0, delta0 = {delta0:g})")
    # each delta writes to its own directory, and a repeated delta has no slope
    names = [delta_dir_name(d) for d in deltas]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValidationError(f"deltas {deltas[names.index(name)]:g} and "
                                  f"{deltas[i]:g} share the output directory {name}")

    basis = build_basis(basis_size)
    sweep = LatticeSweep(L=channel.L, mu=channel.mu, slip=channel.slip, n_max=n_max)
    cap_lambda, k_star = compute_capital_lambda(sweep, basis)
    problem = ModeProblem(k=k_star, mu=channel.mu, slip=channel.slip)
    spectrum = solve_spectrum(assemble(problem, basis))
    packet = build_packet(spectrum, count=packet_count)
    keep = packet.lambdas > 0.5 * cap_lambda
    idx = int(np.argmax(keep))  # rates ascend, so the kept modes are a tail
    dropped = packet.lambdas[:idx]
    if idx:
        warnings.warn(
            "dropping packet modes with growth rate <= Lambda/2; the quadratic "
            "error bound requires 2*lambda_j > Lambda",
            RuntimeWarning,
        )
        packet = ModePacket(
            modes=packet.modes[idx:], coefficients=packet.coefficients[idx:]
        )
    reduced = reduced_packet(packet)

    unit_full = field_from_packet(packet, sim.M, sim.P, channel.L)
    units = (
        unit_full,
        field_from_packet(reduced, sim.M, sim.P, channel.L) if reduced.count else None,
    )
    _, _, c1 = velocity_norms(*velocity_from_streamfunction(unit_full))
    if epsilon0 is None:
        epsilon0 = default_epsilon0(packet, channel.L)
    f0 = packet_envelope_value(packet, 0.0)
    for d in deltas:
        if not d * f0 < epsilon0:
            raise ValidationError(
                f"delta = {d:g} gives delta * F_N(0) = {d * f0:g} >= epsilon0 = "
                f"{epsilon0:g}; the escape time is not positive"
            )

    # every delta starts, in order, before the sweep steps them together
    outcomes, live = [None] * len(deltas), {}
    for i, d in enumerate(deltas):
        try:
            live[i] = _DeltaRun(d, packet, units, sim, epsilon0, c1, delta0)
        except _FAILURES as exc:
            outcomes[i] = _failed(d, exc)
    _step_sweep(live, outcomes, sim.diagnostics_stride)

    slope, _ = _fit_slope(outcomes)
    slope_ok = bool(abs(slope - 2.0) <= SLOPE_TOL)  # False for a NaN slope

    lam_top = packet.top_lambda
    expected = math.log(10.0) / lam_top
    increments, decade_ok = [], []
    order = np.argsort(deltas)[::-1]
    for a, b in zip(order[:-1], order[1:]):
        oa, ob = outcomes[a], outcomes[b]
        if oa.error or ob.error:
            continue
        ratio = deltas[a] / deltas[b]
        if abs(ratio - 10.0) > 1.0e-9 * 10.0:
            continue
        inc = ob.t_delta - oa.t_delta
        increments.append(inc)
        decade_ok.append(abs(inc - expected) <= ESCAPE_TOL * expected)
    escape_ok = bool(decade_ok) and all(decade_ok)

    exp = SeparationExperiment(
        channel=channel,
        k=k_star,
        capital_lambda=cap_lambda,
        lambdas=packet.lambdas,
        dropped_lambdas=dropped,
        coefficients=np.asarray(packet.coefficients, dtype=float),
        epsilon0=float(epsilon0),
        delta0=float(delta0),
        c1=float(c1),
        deltas=deltas,
        outcomes=outcomes,
        slope=slope,
        slope_ok=slope_ok,
        escape_increments=np.array(increments),
        escape_expected=expected,
        escape_ok=escape_ok,
    )
    if out_dir is not None:
        write_experiment_outputs(exp, out_dir)
    return exp


def sweep_findings(exp: SeparationExperiment) -> list:
    """Each delta's separation against the bound it must reach, the slope,
    and the largest relative miss of an escape-time increment."""
    findings = [Finding(delta_dir_name(o.delta), None if o.error else o.separation,
                        None if o.error else o.bound, "ok" if o.ok else "fail",
                        None if o.ok else o.error or "a gate or the separation bound failed",
                        {"t_delta": o.t_delta}) for o in exp.outcomes]
    inc, expected = exp.escape_increments, exp.escape_expected
    miss = float(np.abs(inc - expected).max() / expected) if inc.size else None
    return findings + [
        Finding("slope", exp.slope, None, "ok" if exp.slope_ok else "fail", None if exp.slope_ok
                else _fit_slope(exp.outcomes)[1] or f"want 2 +- {SLOPE_TOL:g}"),
        Finding("escape_spacing", miss, ESCAPE_TOL, "ok" if exp.escape_ok else "fail",
                None if exp.escape_ok else "no two completed deltas a decade apart"
                if miss is None else "an increment misses ln(10) / lambda_N",
                {"increments": inc.tolist(), "expected": expected}),
    ]


def _outcome_manifest(o: DeltaOutcome, exp: SeparationExperiment) -> dict:
    return {
        "delta": o.delta,
        "epsilon0": exp.epsilon0,
        "t_delta": o.t_delta,
        "t_final": o.t_final,
        "gate_h2": asdict(o.gate_h2),
        "gate_l2": asdict(o.gate_l2),
        "constants": {
            "c1": exp.c1,
            "c2": o.c2,
            "c3": o.c3,
            "c4": o.c4,
            "m0": o.m0,
            "delta0": exp.delta0,
        },
        "separation": o.separation,
        "bound": o.bound,
        "separation_ok": o.separation_ok,
        "verdict": o.ok,
        "error": o.error,
    }


def delta_dir_name(delta: float) -> str:
    return f"delta_{delta:.0e}"


def write_experiment_outputs(exp: SeparationExperiment, out_dir) -> list:
    """Write per-delta subdirectories plus the sweep summary; return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for o in exp.outcomes:
        sub = out / delta_dir_name(o.delta)
        sub.mkdir(exist_ok=True)
        written.append(write_json(sub / "manifest.json", _outcome_manifest(o, exp)))
        if o.error is None:
            series = write_csv(
                sub / "separation.csv",
                "t,sep_l2,linear_prediction,d_from_linear_full,d_from_linear_reduced",
                np.column_stack([o.times, o.sep_l2, o.linear_prediction,
                                 o.d_from_linear_full, o.d_from_linear_reduced]).tolist(),
            )
            diag = diagnostics_to_csv(o.diagnostics, sub / "diagnostics.csv")
            written.extend([series, diag])
    lines = ["delta,T_delta,separation,bound,verdict"]
    for o in exp.outcomes:
        numbers = csv_row((o.delta, o.t_delta, o.separation, o.bound))
        lines.append(numbers + "," + ("true" if o.ok else "false"))
    written.append(write_lines(out / "summary.csv", lines))
    # every field but the outcomes as plain Python data (output.py imports
    # no numpy), the channel by its config keys, and the verdict
    manifest = {
        f.name: np.asarray(getattr(exp, f.name)).tolist()
        for f in fields(exp)
        if f.name not in ("channel", "outcomes")
    }
    manifest["channel"] = {
        "period_length": exp.channel.L,
        "viscosity": exp.channel.mu,
        "xi_minus": exp.channel.slip.xi_minus,
        "xi_plus": exp.channel.slip.xi_plus,
    }
    manifest["verdict"] = exp.verdict
    written.append(write_json(out / "experiment_manifest.json", manifest))
    return written

"""Run driver: time loop, recorded diagnostics, checkpoints, restarts.

A run, and each branch of the separation experiment, starts through
``_start``: initial data that break the wall conditions raise
ValidationError, and so does a nonlinear start with dt above the advective
stability bound (CFL_LIMIT).  ``_abort_past_cfl`` ends a nonlinear run
with SimulationBlowupError at a record whose CFL number exceeds CFL_ABORT.
A linearized run has no advection, so it has no CFL bound.  Records (the
sweep's too) and checkpoints fall on one schedule, ``_scheduled``: every
stride-th step and the last.  ``solver_health`` builds the health findings
that both DNS commands write.

A diagnostics record is a capture and a later evaluation (``_Recorder``).
The capture copies the planes the diagnostics read and, on a nonlinear run,
solves them and reads their CFL number, so the abort above happens at the
record that crosses.  The stash is evaluated as one block
(``_record_block``, over a leading record axis) once it holds a fixed
16 KiB, which bounds memory at any run length, and at the end of the run or
after a failure, so a failed run's ``diagnostics_truncated.csv`` ends with
the record that crossed.  A record's row does not depend on its block.

Checkpoint format v3 (little endian): an 88-byte header, the magic
"SLIPSIM1" and the ten 8-byte fields of the ``_HEADER`` table (version, M,
P, L, mu, xi_minus, xi_plus, t, dt, linearized), followed by the complex
state block ((M+1) x P complex128: vorticity rows, mean-u1 row 0) and, when
the run has taken at least one step, the advection history block of the
same shape.  Restarting with the same config resumes the exact trajectory:
the stepper is a pure function of the checkpointed data, and a record does
not depend on its block, so diagnostics after the restart are
bit-identical to the original run's.  A config that
differs in any of the header's eight config fields is refused, since the
advection history only continues the scheme it was written by.  The blocks
come from ``ChannelStepper._blocks``; reading them back installs them in a
fresh stepper (``ChannelStepper._install``), which fixes the part of the
state its steps advance from the state block (see ``sim.stepper``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..findings import bounded
from ..model import ValidationError
from ..output import write_csv, write_json
from .energy import _dissipation, _production
from .field import SpectralField2D, _forms, _sobolev_norms, _velocity_weights
from .stepper import (
    CFL_ABORT,
    CFL_LIMIT,
    INFLUENCE_COND_MAX,
    ChannelStepper,
    InfluenceConditioningError,
    SimConfig,
    SimulationBlowupError,
    _on_leading_axis,
    _operator_set,
    check_boundary_conditions,
)

__all__ = [
    "RunDiagnostics",
    "RunResult",
    "run",
    "solver_health",
    "write_checkpoint",
    "read_checkpoint",
    "diagnostics_to_csv",
    "energy_to_csv",
    "check_boundary_conditions",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_HEADER_BYTES",
]

CHECKPOINT_MAGIC = b"SLIPSIM1"
CHECKPOINT_VERSION = 3

# the header fields after the magic: (name, struct code, value for a
# stepper's config and time); all but version and t are the config fields a
# restart must match
_HEADER = (
    ("version", "Q", lambda cfg, t: CHECKPOINT_VERSION),
    ("M", "Q", lambda cfg, t: cfg.M),
    ("P", "Q", lambda cfg, t: cfg.P),
    ("L", "d", lambda cfg, t: cfg.channel.L),
    ("mu", "d", lambda cfg, t: cfg.channel.mu),
    ("xi_minus", "d", lambda cfg, t: cfg.channel.slip.xi_minus),
    ("xi_plus", "d", lambda cfg, t: cfg.channel.slip.xi_plus),
    ("t", "d", lambda cfg, t: t),
    ("dt", "d", lambda cfg, t: cfg.dt),
    ("linearized", "Q", lambda cfg, t: cfg.linearized),
)
_HEADER_FORMAT = "<" + "".join(code for _, code, _ in _HEADER)
_CONFIG_FIELDS = [(name, value) for name, _, value in _HEADER
                  if name not in ("version", "t")]
CHECKPOINT_HEADER_BYTES = len(CHECKPOINT_MAGIC) + struct.calcsize(_HEADER_FORMAT)  # 88


@dataclass
class RunDiagnostics:
    """Per-record scalar series of one run: the nine values a record appends,
    in its order, then the growth rate derived from the l2 series."""

    times: np.ndarray
    l2_norm: np.ndarray
    h1_norm: np.ndarray
    h2_norm: np.ndarray
    boundary_production: np.ndarray
    dissipation: np.ndarray
    nonlinear_flux: np.ndarray
    energy_rate: np.ndarray
    energy_residual: np.ndarray
    growth_rate_estimate: np.ndarray


# CSV column -> RunDiagnostics field, for the columns named otherwise
_CSV_FIELDS = {"t": "times", "l2": "l2_norm", "h1": "h1_norm", "h2": "h2_norm",
               "growth_rate": "growth_rate_estimate", "dEdt": "energy_rate",
               "residual": "energy_residual"}


@dataclass
class RunResult:
    """A finished run; ``record_cfl`` holds the CFL number each record of a
    nonlinear run read, and is empty on a linearized one."""

    diagnostics: RunDiagnostics
    final_state: SpectralField2D
    checkpoints: list = field(default_factory=list)
    record_cfl: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _growth_rate(times: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Centered-difference slope of log l2 (one-sided at the ends)."""
    n = times.size
    g = np.zeros(n)
    if n < 2:
        return g
    with np.errstate(divide="ignore"):
        logn = np.log(l2)
    logn[~np.isfinite(logn)] = -745.0  # log of the smallest normal double
    g[0] = (logn[1] - logn[0]) / (times[1] - times[0])
    g[-1] = (logn[-1] - logn[-2]) / (times[-1] - times[-2])
    if n > 2:
        g[1:-1] = (logn[2:] - logn[:-2]) / (times[2:] - times[:-2])
    return g


# the bytes of captured planes a recorder stashes before it evaluates them as
# one block; the block's intermediates take about twenty times as much, so a
# larger cap raises the peak memory, and a nonlinear experiment record
# (planes and solved planes of four branches, 32 KB at M = 16, P = 56)
# stays a block of one
_BLOCK_BYTES = 16 * 1024


def _record_block(stepper: ChannelStepper, x: np.ndarray, phi: np.ndarray | None):
    """The diagnostics of a block of records of ``stepper`` from their
    captured planes x (N, p, b, P) (``_diagnostic_planes``) and, on a
    nonlinear stepper, their solved planes ``phi`` (``_solve_planes``; None
    on a linearized one): the eight series (N,) of the records' l2, h1, h2,
    production, dissipation, nonlinear flux, dE/dt and budget residual, and
    the velocity coefficient planes (N, p, b, 2, P) of their states, as
    ``_velocity_coeffs`` lays them out.

    One pass over the leading record axis.  The state planes, the viscous
    tendency and (nonlinear runs only) the advective tendency planes
    (``_tendency_planes``, as in ``tendency_split``) are stacked and solved
    for the streamfunction in the eigenbasis (``_solve_planes``; a nonlinear
    block's states come solved, since their advection needs them).
    ``_velocity_coeffs`` takes the solved stack to the Chebyshev
    coefficients of u1 and of u2 / (-i kappa_n), and ``sim.field._forms``
    applies G0, G1 and G2 to the states' by one product with
    ``_gram_stack`` and contracts them to the per-mode forms
    q[k, n] = w_n (a_k + kappa_n^2 b_k), a_k and b_k the G_k forms of the
    two coefficient rows (``_velocity_weights``).  One more contraction
    gives the G0 cross forms with each tendency.  ``_sobolev_norms``,
    ``_dissipation`` and ``_production``, the wall traces of the u1 planes,
    read the norms, the dissipation and the production off them.  Every
    product broadcasts over the record axis, as the group step's do over
    its branches, and every sum and dot is taken per record, so each record
    makes the BLAS calls and sums of a block of one: a row does not depend
    on its block, bit for bit.

    The Gram matrices act on the coefficients, not folded into one
    node-space form V^T G_k V per quantity: that folding moves h2 by 1e-7 to
    1e-6 relative to the per-field functions (``velocity_norms``,
    ``scalar_inner``).  Those apply the same engine to coefficients
    differentiated from the streamfunction's own, and a record stays within
    1e-11 of them.  Against a long-double evaluation with exact Chebyshev
    maps and Gram matrices, the per-field h2 and the record's h2 both read
    1e-11 to 3e-11 off, so neither is the more accurate.
    """
    st = stepper
    n = x.shape[0]
    # the state, viscous and (nonlinear) advective tendency planes
    stack = np.zeros((n, 2 if st.cfg.linearized else 3) + x.shape[1:])
    stack[:, 0] = x
    if st.cfg.linearized:
        st._tendency_planes(x, None, stack[:, 1:])
        phi = st._solve_planes(stack)
    else:
        st._tendency_planes(x, phi, stack[:, 1:])
        phi = np.concatenate([phi[:, None], st._solve_planes(stack[:, 1:])], axis=1)
    # axes (record, state / visc / adv, plane, row, u1 or u2 / (-i kappa), Chebyshev)
    c = st._velocity_coeffs(stack, phi)
    s = c[:, 0]
    w = _velocity_weights(st.cfg.M + 1, st.L)
    sg, q = _forms(s, w, lead=1)
    rates = np.einsum("...pncj,...tpncj,nc->...t", sg[..., 0, :], c[:, 1:], w[: s.shape[-3]])
    l2, h1, h2 = _sobolev_norms(q, st.L)
    bp = _production(s[..., 0, :], st.L, st.slip)
    diss = _dissipation(q, st.L, st.mu)
    if st.cfg.linearized:
        dedt_a = nlf = np.zeros(n)
    else:
        dedt_a = rates[:, 1]
        nlf = -dedt_a + 0.0  # +0.0, not -0.0, when dedt_a is zero
    dedt = rates[:, 0] + dedt_a
    resid = np.abs(dedt - bp + diss + nlf)
    return (l2, h1, h2, bp, diss, nlf, dedt, resid), s


class _Recorder:
    """Diagnostics records of ``steppers``, captured at once and evaluated
    in blocks; the first stepper's records are the run's.

    ``record`` is the capture: it stashes the step count, the time of the
    first stepper (``t``: steps dt, or the end of a last step of length h)
    and a copy of the real planes each stepper's diagnostics read
    (``_diagnostic_planes``): the rows 0 .. b-1, b the end of the stepper's
    box, all M+1 rows of a nonlinear state, and on a linearized one the
    prefix ending with its last live row (b >= 1, so the mean row stays).
    Every later row is exactly zero in the streamfunction, the velocity,
    the viscous tendency and that tendency's velocity, so the prefix has
    the same norms, wall traces and inner products as the full rows.  A
    locked state reads its imaginary plane alone, the real one being zero.
    A nonlinear stepper's captured planes are solved at once and
    ``_abort_past_cfl`` reads their CFL number (kept in ``cfl``, in capture
    order), so a CFL failure stops the run at the record that crosses,
    that record already stashed.

    Once the stash holds ``_BLOCK_BYTES`` (16 KiB) of planes and solved
    planes, and at ``finish`` (which a failed run calls too), ``evaluate``
    turns it into one block (``_evaluate``): the first stepper's
    ``_record_block`` series land in ``values``, one tuple per block.
    Memory stays bounded whatever the run length, and since a record does
    not depend on its block, neither does any output.
    """

    def __init__(self, *steppers: ChannelStepper):
        self.steppers = steppers
        self.steps, self.times, self.cfl, self.values = [], [], [], []
        self._stash, self._bytes = [], 0

    def record(self):
        """Capture the diagnostics record of the steppers' current states."""
        captured = []
        for st in self.steppers:
            x = st._diagnostic_planes().copy()
            phi = None if st.cfg.linearized else st._solve_planes(x)
            captured.append((x, phi))
            self._bytes += x.nbytes + (0 if phi is None else phi.nbytes)
        self.steps.append(self.steppers[0].steps)
        self.times.append(self.steppers[0].t)
        self._stash.append(captured)
        for st, (_, phi) in zip(self.steppers, captured):
            if phi is not None:
                self.cfl.append(_abort_past_cfl(st, phi[0]))
        if self._bytes >= _BLOCK_BYTES:
            self.evaluate()

    def evaluate(self):
        """Evaluate the stashed records as one block and empty the stash."""
        if not self._stash:
            return
        # each stepper's planes and solved planes on a leading record axis
        blocks = []
        for pairs in zip(*self._stash):
            xs, phis = zip(*pairs)
            blocks.append((_on_leading_axis(xs),
                           None if phis[0] is None else _on_leading_axis(phis)))
        self._stash, self._bytes = [], 0
        self._evaluate(*blocks)

    def _evaluate(self, block: tuple, *others: tuple) -> np.ndarray:
        """Evaluate a block, a pair (planes, solved planes or None) per
        stepper: append the first stepper's ``_record_block`` series and
        return its velocity coefficient planes."""
        values, s = _record_block(self.steppers[0], *block)
        self.values.append(values)
        return s

    def finish(self) -> RunDiagnostics:
        self.evaluate()
        series = [np.concatenate(blocks) for blocks in zip(*self.values)] or [np.zeros(0)] * 8
        times = np.array(self.times, dtype=float)
        return RunDiagnostics(times, *series, _growth_rate(times, series[0]))


def _abort_past_cfl(stepper: ChannelStepper, phi: np.ndarray) -> float:
    """The CFL number (``cfl_number``) of a nonlinear stepper's solved
    imaginary plane ``phi`` (``_solve_planes``); SimulationBlowupError when
    it exceeds CFL_ABORT."""
    cfl = stepper.cfl_number(phi)
    if cfl > CFL_ABORT:
        raise SimulationBlowupError(f"advective CFL exceeded {CFL_ABORT:g} at t = {stepper.t:.6g}")
    return cfl


def _scheduled(m: int, n_steps: int, stride: int) -> bool:
    """Whether step ``m`` of an ``n_steps`` run is on the ``stride``
    schedule: every stride-th step and the last."""
    return m % stride == 0 or m == n_steps


def _start(initial: SpectralField2D, cfg: SimConfig) -> ChannelStepper:
    """The stepper of a run from ``initial``, refused with ValidationError
    when the start breaks the wall conditions (``check_boundary_conditions``)
    or when a nonlinear run's initial CFL number exceeds CFL_LIMIT."""
    check_boundary_conditions(initial, cfg)
    stepper = ChannelStepper(cfg, initial)
    if not cfg.linearized:
        _refuse_dt(cfg, stepper.cfl_number(), CFL_LIMIT, "the initial data")
    return stepper


def _refuse_dt(cfg: SimConfig, cfl: float, limit: float, source: str):
    """ValidationError when the CFL number ``cfl`` that ``cfg.dt`` gives
    ``source`` exceeds ``limit``, naming the largest dt within it."""
    if cfl > limit:
        raise ValidationError(f"dt = {cfg.dt:g} exceeds the advective stability bound "
                              f"{cfg.dt * limit / cfl:g} estimated from {source}")


def run(
    initial: SpectralField2D,
    cfg: SimConfig,
    out_dir: str | Path | None = None,
    checkpoint_stride: int | None = None,
) -> RunResult:
    """Advance to t_end, recording diagnostics every diagnostics_stride steps.

    Deterministic given (initial, cfg).  Optional checkpoints land in
    ``out_dir`` every ``checkpoint_stride`` >= 1 steps and at the last
    step, so a stride without an ``out_dir`` is refused with
    ValidationError; on a mid-run failure a truncated-run manifest and the
    partial diagnostics are written to ``out_dir`` before the error
    propagates.
    """
    if checkpoint_stride is not None and checkpoint_stride < 1:
        raise ValidationError(
            f"checkpoint_stride: must be >= 1, got {checkpoint_stride}"
        )
    if checkpoint_stride is not None and out_dir is None:
        raise ValidationError(
            "checkpoint_stride: checkpoints need an out_dir, got out_dir=None"
        )
    stepper = _start(initial, cfg)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    rec = _Recorder(stepper)
    rec.record()
    checkpoints = []
    try:
        for m in range(1, cfg.n_steps + 1):
            stepper.step()
            if _scheduled(m, cfg.n_steps, cfg.diagnostics_stride):
                rec.record()
            if checkpoint_stride is not None and _scheduled(m, cfg.n_steps, checkpoint_stride):
                path = out / f"checkpoint_{m:08d}.bin"
                write_checkpoint(path, stepper)
                checkpoints.append(path)
    except Exception as exc:
        if out is not None:
            diagnostics_to_csv(rec.finish(), out / "diagnostics_truncated.csv")
            manifest = {
                "status": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "t_reached": stepper.t,
                "steps_completed": stepper.steps,
            }
            write_json(out / "failure_manifest.json", manifest)
        raise
    return RunResult(
        diagnostics=rec.finish(),
        final_state=stepper.streamfunction(),
        checkpoints=checkpoints,
        record_cfl=np.array(rec.cfl),
    )


# the size of the Crank-Nicolson rate gap above which a run's growth is
# flagged (it fails nothing).  The gaps at Lambda, xi = (1, 1): 2.9e-7 at
# acceptance, 6.1e-6 at the smoke sweep, 2.0e-4 at mu 0.02 with dt 1e-3;
# flagged are 3.2e-3 at mu 0.02 with the default dt 4e-3 (whose delta = 1e-7
# separation reads 3.6% off its dt = 1e-3 value), 1.3e-2 at mu 0.01 with dt
# 4e-3, and 4.3e-2 for `simulate --mu 0.05 --xi 0 3 --linearized`
CN_GAP_FLAG = 1.0e-3


def solver_health(cfg: SimConfig, lam: float, energy_residual, record_cfl) -> list:
    """The health findings of a DNS run on ``cfg``: ``crank_nicolson_rate``,
    the relative gap to ``lam`` of the rate ln|(1 + h) / (1 - h)| / dt,
    h = lam dt / 2, that Crank-Nicolson steps realize for it (both rates in
    the detail; unavailable at the pole h = 1); ``influence_cond_max``, the
    largest condition number of the per-mode influence matrices
    (unavailable when their build refuses them); the largest values of the
    arrays ``record_cfl`` and ``energy_residual`` (unavailable when empty)."""
    h = 0.5 * lam * cfg.dt
    lam_run = math.inf if h == 1.0 else math.log(abs((1.0 + h) / (1.0 - h))) / cfg.dt
    gap = lam_run / lam - 1.0
    try:
        cond = float(_operator_set(cfg)["_influence_cond"].max())
    except InfluenceConditioningError:
        cond = None
    cfl, resid = (np.concatenate([np.zeros(0), *arrays])
                  for arrays in (record_cfl, energy_residual))
    return [
        bounded("crank_nicolson_rate", gap if math.isfinite(gap) else None, CN_GAP_FLAG,
                "flagged", f"dt = {cfg.dt:g} realizes lambda = {lam:.12g} as "
                f"lambda_run = {lam_run:.12g}", {"lambda": lam, "lambda_run": lam_run}),
        bounded("influence_cond_max", cond, INFLUENCE_COND_MAX),
        bounded("record_cfl_max", float(cfl.max()) if cfl.size else None, CFL_ABORT),
        bounded("energy_residual_max", float(resid.max()) if resid.size else None, None),
    ]


def write_checkpoint(path: str | Path, stepper: ChannelStepper) -> Path:
    """Binary state dump allowing a bit-exact restart (same SimConfig)."""
    header = CHECKPOINT_MAGIC + struct.pack(
        _HEADER_FORMAT, *(value(stepper.cfg, stepper.t) for _, _, value in _HEADER)
    )
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(header)
        for block in stepper._blocks():
            fh.write(block.tobytes())
    return path


def read_checkpoint(path: str | Path, cfg: SimConfig) -> ChannelStepper:
    """Rebuild a stepper mid-run from a checkpoint written with the same cfg."""
    raw = Path(path).read_bytes()
    if len(raw) < CHECKPOINT_HEADER_BYTES or raw[:8] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file")
    header = dict(zip((name for name, _, _ in _HEADER),
                      struct.unpack(_HEADER_FORMAT, raw[8:CHECKPOINT_HEADER_BYTES])))
    if header["version"] != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {header['version']}")
    t = header["t"]
    differs = [name for name, value in _CONFIG_FIELDS if header[name] != value(cfg, t)]
    if differs:
        written = ", ".join(f"{name}={header[name]:g}" for name, _ in _CONFIG_FIELDS)
        raise ValidationError(
            f"{path}: checkpoint was written for ({written}), which differs from "
            f"the supplied config in {', '.join(differs)}"
        )
    M, P, dt = cfg.M, cfg.P, cfg.dt
    block = (M + 1) * P * np.dtype(complex).itemsize
    body = raw[CHECKPOINT_HEADER_BYTES:]
    if len(body) not in (block, 2 * block):
        raise ValidationError(f"{path}: truncated checkpoint body")
    zero = SpectralField2D(np.zeros((M + 1, P), dtype=complex), cfg.channel.L)
    stepper = ChannelStepper(cfg, zero)
    stepper._install(*np.frombuffer(body, dtype=complex).reshape(-1, M + 1, P))
    stepper.steps = round(t / dt)
    stepper.t = stepper.steps * dt
    return stepper


def _series_to_csv(diag: RunDiagnostics, path: str | Path, header: str) -> Path:
    """The ``RunDiagnostics`` series of the ``header`` columns (``_CSV_FIELDS``)."""
    cols = [getattr(diag, _CSV_FIELDS.get(name, name)) for name in header.split(",")]
    return write_csv(path, header, np.column_stack(cols).tolist())


def diagnostics_to_csv(diag: RunDiagnostics, path: str | Path) -> Path:
    """Columns: t,l2,h1,h2,boundary_production,dissipation,growth_rate."""
    return _series_to_csv(diag, path, "t,l2,h1,h2,boundary_production,dissipation,growth_rate")


def energy_to_csv(diag: RunDiagnostics, path: str | Path) -> Path:
    """Energy budget columns: t,dEdt,boundary_production,dissipation,
    nonlinear_flux,residual."""
    return _series_to_csv(
        diag, path, "t,dEdt,boundary_production,dissipation,nonlinear_flux,residual"
    )

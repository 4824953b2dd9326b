"""Span tracer installed from outside the program.

The package imports functions by name (``sim.experiment`` holds its own
``velocity_norms``, ``sim.run`` its own ``scalar_inner``), so each traced
entry point is replaced at every module that holds it, not only where it is
defined.  Dependency entry points (the ``kernel`` layer) are
replaced on the library module, which the program reaches through attribute
lookup (``sla.lu_solve``, ``sfft.dct``, ``np.fft.rfft``).

Spans live in memory as parallel lists (name, parent, start, end, note) and
are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute) of every traced module-level function
FUNCTIONS = (
    ("numerics.build_basis", "slipflow.numerics", "build_basis"),
    ("numerics.eig", "slipflow.numerics", "solve_generalized_symmetric"),
    ("numerics.root", "slipflow.numerics", "find_root_bracketed"),
    ("critical.closed_form", "slipflow.critical", "mu_c_closed_form"),
    ("critical.variational", "slipflow.critical", "mu_c_variational"),
    ("spectrum.assemble", "slipflow.spectrum", "assemble"),
    ("spectrum.solve", "slipflow.spectrum", "solve_spectrum"),
    ("spectrum.oracle", "slipflow.spectrum", "determinant_roots"),
    ("spectrum.det", "slipflow.spectrum", "characteristic_determinant"),
    ("spectrum.lanczos", "slipflow.spectrum", "lambda1_variational"),
    ("modes.capital_lambda", "slipflow.modes", "compute_capital_lambda"),
    ("modes.escape_time", "slipflow.modes", "escape_time"),
    ("sim.field.norms", "slipflow.sim.field", "velocity_norms"),
    ("sim.field.inner", "slipflow.sim.field", "scalar_inner"),
    ("sim.energy", "slipflow.sim.energy", "boundary_production"),
    ("sim.energy", "slipflow.sim.energy", "gradient_dissipation"),
    ("sim.run", "slipflow.sim.run", "run"),
    ("sim.run.ckpt_write", "slipflow.sim.run", "write_checkpoint"),
    ("sim.run.ckpt_read", "slipflow.sim.run", "read_checkpoint"),
    ("sim.run.csv", "slipflow.sim.run", "diagnostics_to_csv"),
    ("sim.run.csv", "slipflow.sim.run", "energy_to_csv"),
    ("sim.experiment", "slipflow.sim.experiment", "run_separation_experiment"),
    ("sim.experiment.write", "slipflow.sim.experiment", "write_experiment_outputs"),
    ("kernel.lu_factor", "scipy.linalg", "lu_factor"),
    ("kernel.lu_solve", "scipy.linalg", "lu_solve"),
    ("kernel.dct", "scipy.fft", "dct"),
    ("kernel.fft", "numpy.fft", "rfft"),
    ("kernel.fft", "numpy.fft", "irfft"),
)

# (span name, method) on slipflow.sim.stepper.ChannelStepper
METHODS = (
    ("sim.stepper.build", "__init__"),
    ("sim.stepper.step", "step"),  # named step_nl or step_lin by _step_name
    ("sim.stepper.velocity", "velocity"),
    ("sim.stepper.cfl", "cfl_number"),
    ("sim.stepper.tendency", "tendency_split"),
    ("sim.stepper.tendency", "tendency_velocity"),
    ("sim.stepper.streamfunction", "streamfunction"),
)


# a number kept per span, for medians at one size and for byte/root counts
NOTES = {
    "numerics.build_basis": lambda a, kw, r: int(a[0] if a else kw["N"]),
    "spectrum.solve": lambda a, kw, r: (a[0] if a else kw["pencil"]).basis.size,
    "spectrum.lanczos": lambda a, kw, r: (a[1] if len(a) > 1 else kw["basis"]).size,
    "spectrum.oracle": lambda a, kw, r: len(r.roots),
    "modes.capital_lambda": lambda a, kw, r: (a[0] if a else kw["sweep"]).n_max,
    "sim.run.ckpt_write": lambda a, kw, r: os.path.getsize(r),
}


def _grid_m(args, kwargs, result):
    """The note of every ChannelStepper span: the stepper's Fourier mode count M."""
    return args[0].cfg.M


def _step_name(args):
    return "sim.stepper.step_lin" if args[0].cfg.linearized else "sim.stepper.step_nl"


class Tracer:
    """In-memory span store; ``wrap`` returns a timed stand-in for a callable."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.note: list[float] = []
        self._stack = [-1]
        self._originals = []

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.note.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, name_of=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name if name_of is None else name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if note is not None:
                tracer.note[sid] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every traced entry point at every module that holds it."""
        from slipflow.sim.stepper import ChannelStepper

        holders = [m for n, m in list(sys.modules.items()) if n.startswith("slipflow") and m]
        for name, module_name, attr in FUNCTIONS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, note=NOTES.get(name))
            for mod in {home, *holders}:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, method in METHODS:
            original = getattr(ChannelStepper, method)
            name_of = _step_name if method == "step" else None
            self._originals.append((ChannelStepper, method, original))
            setattr(ChannelStepper, method,
                    self.wrap(name, original, name_of=name_of, note=_grid_m))

    def uninstall(self):
        for holder, key, original in reversed(self._originals):
            setattr(holder, key, original)
        self._originals.clear()

    def arrays(self):
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name": np.array([index[n] for n in self.names], dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "note": np.array(self.note),
        }


class Spans:
    """Read-only view of recorded spans with the queries the layer metrics use."""

    def __init__(self, arrays):
        self._code = {str(n): i for i, n in enumerate(arrays["names"])}
        self.name = arrays["name"]
        self.parent = arrays["parent"]
        self.start = arrays["start"]
        self.end = arrays["end"]
        self.note = arrays["note"]
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        self.child_s = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )

    def mask(self, *names) -> np.ndarray:
        return np.isin(self.name, [self._code[n] for n in names if n in self._code])

    def under(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans that have some ancestor selected by the ``ancestor`` mask."""
        hit = np.zeros(self.dur.size, dtype=bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            hit[live] |= ancestor[cur[live]]
            cur[live] = self.parent[cur[live]]
            live = cur >= 0
        return hit

    def outermost(self, sel: np.ndarray) -> np.ndarray:
        return sel & ~self.under(sel)

    def calls(self, sel) -> int:
        return int(np.count_nonzero(sel))

    def seconds(self, sel) -> float:
        return float(self.dur[self.outermost(sel)].sum())

    def self_seconds(self, sel) -> float:
        return float((self.dur - self.child_s)[sel].sum())

    def pct_ms(self, sel, q: float) -> float:
        return float(np.percentile(self.dur[sel], q) * 1e3) if sel.any() else 0.0


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


# span name -> statistics reported for it: call count, seconds, percentiles
REPORTED = (
    ("numerics.build_basis", ("calls", "s")),
    ("numerics.eig", ("calls", "s", "p50")),
    ("numerics.root", ("calls", "s")),
    ("critical.closed_form", ("calls",)),
    ("critical.variational", ("calls", "s")),
    ("spectrum.assemble", ("s",)),
    ("spectrum.solve", ("calls", "s", "p50")),
    ("spectrum.oracle", ("calls", "s", "p50")),
    ("spectrum.lanczos", ("calls", "s", "p50")),
    ("modes.capital_lambda", ("calls", "s")),
    ("modes.escape_time", ("s",)),
    ("sim.stepper.build", ("calls", "s")),
    ("sim.stepper.step_nl", ("calls", "s", "p50", "p95")),
    ("sim.stepper.step_lin", ("calls", "s", "p50", "p95")),
    ("sim.stepper.velocity", ("calls", "s")),
    ("sim.stepper.cfl", ("calls", "s")),
    ("sim.stepper.tendency", ("calls", "s")),
    ("sim.stepper.streamfunction", ("calls", "s")),
    ("kernel.lu_solve", ("calls", "s")),
    ("kernel.lu_factor", ("calls",)),
    ("kernel.dct", ("calls", "s")),
    ("kernel.fft", ("calls", "s")),
    ("sim.field.norms", ("calls", "s")),
    ("sim.field.inner", ("calls", "s")),
    ("sim.energy", ("calls", "s")),
    ("sim.run.ckpt_write", ("calls", "s")),
    ("sim.run.ckpt_read", ("calls", "s")),
    ("sim.run.csv", ("s",)),
    ("sim.experiment.write", ("s",)),
)


def layer_metrics(sp: Spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit).

    ``.s`` is the time inside the layer's outermost spans.  A layer a
    workload does not reach reads 0.
    """
    m = {}
    for name, stats in REPORTED:
        sel = sp.mask(name)
        for stat in stats:
            if stat == "calls":
                m[f"{name}.calls"] = (sp.calls(sel), "count")
            elif stat == "s":
                m[f"{name}.s"] = (sp.seconds(sel), "s")
            else:
                m[f"{name}.{stat}_ms"] = (sp.pct_ms(sel, float(stat[1:])), "ms")

    det = sp.mask("spectrum.det")
    oracle = sp.mask("spectrum.oracle")
    m["spectrum.det_evals"] = (sp.calls(det), "count")
    m["spectrum.det_evals_per_root"] = (_per(sp.calls(det), sp.note[oracle].sum()), "evals/root")

    steps = sp.mask("sim.stepper.step_nl", "sim.stepper.step_lin")
    in_step = sp.under(steps)
    n_steps = sp.calls(steps)
    lu = sp.mask("kernel.lu_solve")
    transforms = sp.mask("kernel.dct", "kernel.fft")
    m["kernel.lu_solve_per_step"] = (_per(sp.calls(lu & in_step), n_steps), "1/step")
    m["kernel.transforms_per_step"] = (_per(sp.calls(transforms & in_step), n_steps), "1/step")

    diag = sp.mask("sim.stepper.velocity", "sim.stepper.cfl", "sim.stepper.tendency",
                   "sim.field.norms", "sim.field.inner", "sim.energy")
    m["sim.diag.s"] = (sp.seconds(diag), "s")
    m["sim.diag.share"] = (_per(sp.seconds(diag), wall_s), "ratio")

    m["sim.run.self_s"] = (sp.self_seconds(sp.mask("sim.run")), "s")
    m["sim.run.ckpt_write.bytes"] = (float(sp.note[sp.mask("sim.run.ckpt_write")].sum()), "B")

    exp = np.flatnonzero(sp.mask("sim.experiment"))
    builds = sp.mask("sim.stepper.build")
    prelude = 0.0
    for e in exp:
        inside = builds & (sp.start >= sp.start[e]) & (sp.end <= sp.end[e])
        if inside.any():
            prelude += float(sp.start[inside].min() - sp.start[e])
    m["sim.experiment.self_s"] = (sp.self_seconds(sp.mask("sim.experiment")), "s")
    m["sim.experiment.prelude.s"] = (prelude, "s")
    return m


def baseline_rows(sp: Spans):
    """ROADMAP baseline rows next to this run's per-call medians (ms)."""
    def p50(sel):
        return sp.pct_ms(sel, 50) if sel.any() else None

    m32 = sp.note == 32  # the baseline's stepper rows are at M=32, P=64
    return [
        ("nonlinear step, M=32", "6-7 ms", p50(sp.mask("sim.stepper.step_nl") & m32)),
        ("linearized step, M=32", "3-3.7 ms", p50(sp.mask("sim.stepper.step_lin") & m32)),
        ("velocity(), M=32", "1.3 ms", p50(sp.mask("sim.stepper.velocity") & m32)),
        ("cfl_number(), M=32", "1.8 ms", p50(sp.mask("sim.stepper.cfl") & m32)),
        ("build_basis(64)", "60 ms", p50(sp.mask("numerics.build_basis") & (sp.note == 64))),
        ("solve_spectrum, N=64", "16 ms", p50(sp.mask("spectrum.solve") & (sp.note == 64))),
        ("determinant_roots", "12 ms", p50(sp.mask("spectrum.oracle"))),
        ("lambda1_variational, N=64", "21 ms", p50(sp.mask("spectrum.lanczos") & (sp.note == 64))),
        ("compute_capital_lambda, n_max=8", "97 ms",
         p50(sp.mask("modes.capital_lambda") & (sp.note == 8))),
    ]

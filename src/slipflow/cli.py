"""Command line driver for the channel instability toolkit.

Subcommands: critical (viscosity threshold curve), spectrum (growth rates
at one wavenumber plus the rank-2 operator cross-check), dispersion
(top rate over the wavenumber lattice), modes (packet field export),
simulate (time stepping with diagnostics), experiment (two-solution
separation sweep), verify (deterministic property suites).

Importing this module loads only the standard library and the package
root, which imports no submodule; numpy and the compute modules load
lazily inside the handlers, and no command imports scipy.  That lets the
global --threads flag pin the BLAS/OpenMP thread pools through the usual
environment variables, which only works while numpy is not yet imported,
i.e. in a fresh process.

Configuration resolution, lowest to highest precedence: built-in defaults
(period_length 1, viscosity 0.5, slip 1/1), the --config JSON file,
SLIPFLOW_* environment variables (SLIPFLOW_VISCOSITY=0.2,
SLIPFLOW_SLIP__XI_PLUS=2 for nested keys), then command-line flags.  The
"sim" section takes the fields of SimConfig and the "experiment" section
the keywords of run_separation_experiment (deltas, epsilon0, delta0,
basis_size, n_max, packet_count), each typed by its annotation.  One
reader, ``_read_section``, reads every section: keys match in any case,
and a key given twice, an unknown key or a value of the wrong JSON type is
refused (exit code 2).

Exit codes come from findings (``slipflow.findings``), each printed on one
stdout line: 1 exactly when some finding fails (an oracle mismatch, a
blow-up, a falsified experiment gate), else 0; a flagged or unavailable
finding fails nothing.  2 is a usage error: a bad configuration, a
wavenumber with no growing mode, or an experiment whose every delta was
refused at its start (its outputs and manifests are still written).  A
channel whose fundamental wavenumber 1/L is stable (mu >= mu_c(1/L)) is
stable at every lattice wavenumber; `experiment` reads its settings, then
reports the stable regime and exits 0 without simulating.

Every command writes a run_manifest.json (a failed simulate too, listing
its truncated run's files) carrying a sha256 digest of the resolved
configuration (defaults, file, environment and channel flags) together
with the subcommand's parsed flags and --seed; --out, --threads and the
--config path are left out.  Rerunning an identical invocation
reproduces every output file byte for byte (floats are printed with 17
significant digits); wall-clock timings go to stderr, never into files.
`spectrum` and `verify` list their findings in their own report, and
`simulate` and `experiment` in the run manifest: the four solver-health
findings of `sim.run.solver_health`, and the experiment's per-delta,
slope and escape-spacing findings (`sim.experiment.sweep_findings`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path
from typing import get_args, get_origin

from . import __version__

TOOL_VERSION = f"slipflow {__version__}"

ENV_PREFIX = "SLIPFLOW_"

_DEFAULT_CONFIG = {
    "period_length": 1.0,
    "viscosity": 0.5,
    "slip": {"xi_minus": 1.0, "xi_plus": 1.0},
}

# the kinds of the top level and of slip; those of sim and experiment are
# the annotations of the keywords _settings reads them for
_CONFIG_KINDS = {"period_length": float, "viscosity": float, "slip": dict,
                 "sim": dict, "experiment": dict}
_SLIP_KINDS = {"xi_minus": float, "xi_plus": float}
_JSON_TYPES = {bool: bool, int: int, float: (int, float), dict: dict}


class ConfigError(ValueError):
    """A configuration file or override entry is missing or malformed."""


def load_config(path) -> dict:
    """The raw (nested dict) configuration of a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return raw


def _parse_env_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_env_overrides(raw: dict, environ=None) -> dict:
    """A copy of ``raw`` overlaid with the SLIPFLOW_* environment variables.

    SLIPFLOW_<KEY> sets a top-level key and SLIPFLOW_<SECTION>__<KEY> a key
    of a section.  Names are case-insensitive: a new key is stored lower
    case, and a key the section already holds keeps its spelling.
    """
    env = os.environ if environ is None else environ
    out = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    for name, text in sorted(env.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower()
        if "__" in path:
            section, key = path.split("__", 1)
            if not section or not key:
                raise ConfigError(f"{name}: malformed override name")
            target = out.setdefault(section, {})
            if not isinstance(target, dict):
                raise ConfigError(f"{section}: cannot override a scalar with a section")
            # replace the key the section already spells in another case
            key = next((k for k in target if k.lower() == key), key)
            target[key] = _parse_env_value(text)
        else:
            out[path] = _parse_env_value(text)
    return out


def _merge_config(base: dict, extra: dict) -> dict:
    """``base`` overlaid with ``extra``, section by section.  A key replaces
    the key that ``base`` spells in another case, as ``apply_env_overrides``
    does, unless ``extra`` spells that one too: a key given twice stays so."""
    for key, value in extra.items():
        key = next((k for k in base if k.lower() == key.lower() and k not in extra), key)
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge_config(base[key], value)
        else:
            base[key] = value
    return base


def _resolve_raw(ns) -> dict:
    """Defaults <- config file <- environment <- channel flags, as a dict."""
    raw = json.loads(json.dumps(_DEFAULT_CONFIG))
    if ns.config is not None:
        _merge_config(raw, load_config(ns.config))
    raw = apply_env_overrides(raw)
    if getattr(ns, "length", None) is not None:
        raw["period_length"] = ns.length
    if getattr(ns, "mu", None) is not None:
        raw["viscosity"] = ns.mu
    if getattr(ns, "xi", None) is not None:
        if not isinstance(raw.get("slip"), dict):
            raw["slip"] = {}
        raw["slip"]["xi_minus"], raw["slip"]["xi_plus"] = ns.xi
    return raw


def _cast(value, kind):
    """``value`` as ``kind`` (bool, int, float, dict, a Sequence of one, or
    either ``| None``) when it has that kind's JSON type: true/false, an
    integer, any number, an object, an array, null; a bool is no number.
    TypeError otherwise."""
    options = get_args(kind)
    if type(None) in options:
        if value is None:
            return None
        kind = next(a for a in options if a is not type(None))
    if get_origin(kind) is Sequence and isinstance(value, list):
        return [_cast(v, get_args(kind)[0]) for v in value]
    if kind in _JSON_TYPES and isinstance(value, _JSON_TYPES[kind]) and (
        isinstance(value, bool) == (kind is bool)
    ):
        return kind(value)
    raise TypeError


def _read_section(given: dict, name: str | None, kinds: dict) -> dict:
    """The config section ``name`` (None: the top level) typed by ``kinds``.

    Keys match ``kinds`` in any case, since environment overrides arrive
    lower case (SLIPFLOW_SIM__M sets M).  A key given twice in different
    case, an unknown key and a value that ``_cast`` refuses raise
    ConfigError naming the section or key; a section that is not a JSON
    object is such a value one level up (kind ``dict``).
    """
    where = name or "configuration"
    spelling = {key.lower(): key for key in kinds}
    section = {}
    for spelled, value in given.items():
        key = spelling.get(spelled.lower(), spelled)
        if key in section:
            raise ConfigError(f"{where}: {key} is given twice, once as {spelled}")
        section[key] = value
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    typed = {}
    for key, value in section.items():
        try:
            typed[key] = _cast(value, kinds[key])
        except TypeError:
            label = f"{name}.{key}" if name else key
            raise ConfigError(f"{label}: bad value {value!r}") from None
    return typed


def channel_from_config(raw: dict):
    """The ChannelConfig of a raw config dict, whose whole top level is read."""
    from .model import ChannelConfig, SlipPair, ValidationError

    config = _read_section(raw, None, _CONFIG_KINDS)
    slip = _read_section(config.get("slip", {}), "slip", _SLIP_KINDS)
    missing = [key for key in ("period_length", "viscosity") if key not in config]
    missing += [f"slip.{key}" for key in _SLIP_KINDS if key not in slip]
    if missing:
        raise ConfigError(f"missing keys {missing}")
    try:
        return ChannelConfig(L=config["period_length"], mu=config["viscosity"],
                             slip=SlipPair(**slip))
    except ValidationError as exc:
        raise ConfigError(str(exc))


def _sim_config(raw: dict, ns, channel):
    """SimConfig from the config's sim section plus command-line overrides."""
    from .sim import SimConfig

    return SimConfig(channel=channel, **_settings(raw, ns, "sim", SimConfig))


def _settings(raw: dict, ns, section: str, target) -> dict:
    """Keywords of ``target`` from the config section, overlaid with the flags.

    The keys are the parameters of ``target`` but channel, sim and out_dir,
    each typed by its annotation (``_read_section``), and each flag's dest
    is the key it sets.  Keys not given keep ``target``'s defaults.
    """
    import inspect

    params = inspect.signature(target, eval_str=True).parameters
    kinds = {key: p.annotation for key, p in params.items()
             if key not in ("channel", "sim", "out_dir")}
    given = _read_section(raw, None, _CONFIG_KINDS).get(section, {})
    settings = _read_section(given, section, kinds)
    for key in kinds:
        value = getattr(ns, key, None)
        if value is not None:
            settings[key] = value
    return settings


# global and channel flags: the output place and thread count change no
# result, and the config file and channel flags are folded into the config
_NOT_DIGESTED = ("config", "out", "threads", "length", "mu", "xi")


def _config_digest(raw: dict, ns) -> str:
    """sha256 of the resolved config, every key lower case as ``_read_section``
    matches them, and the subcommand's parsed flags."""
    args = {key: value for key, value in vars(ns).items() if key not in _NOT_DIGESTED}
    config = json.loads(json.dumps(raw), object_pairs_hook=lambda kv: {k.lower(): v for k, v in kv})
    canon = json.dumps({"config": config, "args": args}, sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _packet(ns, channel, count=None):
    """The unstable packet at --k (default: the fundamental 1/L), Galerkin size --basis."""
    from .model import ModeProblem
    from .modes import build_packet
    from .numerics import build_basis
    from .spectrum import assemble, solve_spectrum

    k = ns.k if ns.k is not None else 1.0 / channel.L
    problem = ModeProblem(k=k, mu=channel.mu, slip=channel.slip)
    return build_packet(solve_spectrum(assemble(problem, build_basis(ns.basis))), count=count)


def _cmd_critical(ns, out, channel, raw):
    from .critical import critical_curve, mu_c_global
    from .output import csv_row, fmt, write_lines

    k_min, k_max = ns.k
    curve = critical_curve(channel.slip, k_min, k_max, ns.points)
    mu_global = mu_c_global(channel.slip)
    lines = ["k,mu_c", *(csv_row(row) for row in zip(curve.ks, curve.mu_cs))]
    lines.append("# mu_c_global = " + fmt(mu_global))
    write_lines(out / "critical.csv", lines)
    print(f"critical: {ns.points} samples on [{k_min:g}, {k_max:g}], "
          f"mu_c_global = {mu_global:.12g}")
    return ["critical.csv"], []


def _cmd_spectrum(ns, out, channel, raw):
    from .findings import write_report
    from .model import ModeProblem
    from .numerics import build_basis
    from .output import write_csv
    from .spectrum import assemble, oracle_findings, solve_spectrum

    problem = ModeProblem(k=ns.k, mu=channel.mu, slip=channel.slip)
    spectrum = solve_spectrum(assemble(problem, build_basis(ns.basis)))
    write_csv(out / "spectrum.csv", "n,lambda", enumerate(spectrum.eigenvalues, start=1))
    findings = oracle_findings(spectrum, 1.0e-6)
    write_report(out / "spectrum_report.json", findings)
    print(f"spectrum: k = {ns.k:g}, basis {ns.basis}")
    return ["spectrum.csv", "spectrum_report.json"], findings


def _cmd_dispersion(ns, out, channel, raw):
    from .critical import mu_c_closed_form
    from .model import LatticeSweep
    from .numerics import build_basis
    from .output import write_csv
    from .spectrum import lambda1_variational

    sweep = LatticeSweep(L=channel.L, mu=channel.mu, slip=channel.slip, n_max=ns.n_max)
    basis = build_basis(ns.basis)
    rows = []
    for n in range(1, ns.n_max + 1):
        problem = sweep.problem(n)
        lam1 = lambda1_variational(problem, basis)
        rows.append((problem.k, lam1, mu_c_closed_form(problem.k, channel.slip)))
    write_csv(out / "dispersion.csv", "k,lambda1,mu_c", rows)
    best_k, best_lam, _ = max(rows, key=lambda row: row[1])
    print(f"dispersion: {ns.n_max} lattice wavenumbers, "
          f"max lambda1 = {best_lam:.12g} at k = {best_k:g}")
    return ["dispersion.csv"], []


def _cmd_modes(ns, out, channel, raw):
    from .modes import Grid2D, default_epsilon0, escape_time, sample_packet_field
    from .output import write_csv, write_json

    packet = _packet(ns, channel, count=ns.count)
    k = packet.modes[0].problem.k
    n1, n2 = ns.grid
    grid = Grid2D(n1=n1, n2=n2, L=channel.L)
    u1, u2, q = sample_packet_field(packet, ns.t, grid)
    x1, x2 = grid.x1, grid.x2
    rows = (
        (x1[i], x2[j], u1[i, j], u2[i, j], q[i, j]) for i in range(n1) for j in range(n2)
    )
    write_csv(out / "modes.csv", "x1,x2,u1,u2,q", rows)

    epsilon0 = default_epsilon0(packet, channel.L)
    t_delta = escape_time(packet, ns.delta, epsilon0)
    manifest = {
        "k": k,
        "mu": channel.mu,
        "slip": {"xi_minus": channel.slip.xi_minus, "xi_plus": channel.slip.xi_plus},
        "lambdas": [float(lam) for lam in packet.lambdas],
        "coefficients": [float(c) for c in packet.coefficients],
        "epsilon0": epsilon0,
        "delta": ns.delta,
        "T_delta": t_delta,
    }
    write_json(out / "packet.json", manifest)
    print(f"modes: {packet.count} unstable mode(s) at k = {k:g}, "
          f"T_delta({ns.delta:g}) = {t_delta:.12g}")
    return ["modes.csv", "packet.json"], []


def _cmd_simulate(ns, out, channel, raw):
    from .findings import Finding
    from .sim import (InfluenceConditioningError, SimulationBlowupError,
                      diagnostics_to_csv, energy_to_csv, field_from_packet, run)
    from .sim.run import solver_health

    cfg = _sim_config(raw, ns, channel)
    packet = _packet(ns, channel)
    initial = field_from_packet(packet, cfg.M, cfg.P, channel.L) * ns.amplitude
    stride = ns.checkpoint_stride if ns.checkpoint_stride is not None else cfg.n_steps
    try:
        result = run(initial, cfg, out_dir=out, checkpoint_stride=stride)
    except (SimulationBlowupError, InfluenceConditioningError, FloatingPointError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        # run() refuses ill-conditioned operators as it builds its stepper,
        # and after a failure in its step loop writes the truncated run
        truncated = [] if isinstance(exc, InfluenceConditioningError) else [
            "diagnostics_truncated.csv", "failure_manifest.json"]
        return truncated, [Finding("run", None, None, "fail", f"{type(exc).__name__}: {exc}")]
    diagnostics_to_csv(result.diagnostics, out / "diagnostics.csv")
    energy_to_csv(result.diagnostics, out / "energy.csv")
    outputs = ["diagnostics.csv", "energy.csv"]
    outputs += [p.name for p in result.checkpoints]
    diag = result.diagnostics
    print(f"simulate: {cfg.n_steps} steps to t = {diag.times[-1]:g}, "
          f"final l2 = {diag.l2_norm[-1]:.12g}, "
          f"growth rate estimate = {diag.growth_rate_estimate[-1]:.12g}")
    return outputs, solver_health(cfg, packet.top_lambda, [diag.energy_residual],
                                  [result.record_cfl])


def _cmd_experiment(ns, out, channel, raw):
    from .sim import (SimConfig, StableRegimeError, run_separation_experiment,
                      write_experiment_outputs)
    from .sim.experiment import sweep_findings
    from .sim.run import solver_health

    # each delta runs to its own escape time, so the sweep reads no t_end: one
    # given is typed, then replaced by dt, the least that SimConfig takes
    sim = _settings(raw, ns, "sim", SimConfig)
    cfg = SimConfig(channel=channel, **{**sim, "t_end": sim.get("dt", SimConfig.dt)})
    settings = _settings(raw, ns, "experiment", run_separation_experiment)
    try:
        exp = run_separation_experiment(channel, sim=cfg, **settings)
    except StableRegimeError as exc:
        print(exc)
        return [], []
    written = write_experiment_outputs(exp, out)
    outputs = [p.relative_to(out).as_posix() for p in written]
    print(f"experiment: {len(exp.outcomes)} deltas at k = {exp.k:g}")
    residuals = [o.diagnostics.energy_residual for o in exp.outcomes if o.error is None]
    findings = sweep_findings(exp) + solver_health(
        cfg, float(exp.lambdas[-1]), residuals, [o.record_cfl for o in exp.outcomes])
    if all(o.refused for o in exp.outcomes):
        return outputs, findings, "every delta was refused at its start"
    return outputs, findings


def _cmd_verify(ns, out, channel, raw):
    from .findings import write_report
    from .verification import verify_all

    findings = verify_all(seed=ns.seed)
    write_report(out / "verify_report.json", findings, seed=ns.seed, tool_version=__version__)
    return ["verify_report.json"], findings


_HANDLERS = {
    "critical": _cmd_critical,
    "spectrum": _cmd_spectrum,
    "dispersion": _cmd_dispersion,
    "modes": _cmd_modes,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipflow",
        description="Instability toolkit for the slip channel: critical curves, "
                    "spectra, mode export, time stepping, separation experiment.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="pin BLAS/OpenMP thread pools (fresh process only)")

    chan = argparse.ArgumentParser(add_help=False)
    chan.add_argument("--length", type=float, metavar="L", help="period scale L")
    chan.add_argument("--mu", type=float, help="viscosity")
    chan.add_argument("--xi", type=float, nargs=2, metavar=("XI_MINUS", "XI_PLUS"),
                      help="slip coefficients at the lower and upper wall")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--m", dest="M", type=int, default=None,
                      help="Fourier modes in x1")
    grid.add_argument("--p", dest="P", type=int, default=None,
                      help="Chebyshev points in x2")
    grid.add_argument("--dt", type=float, default=None, help="time step")
    grid.add_argument("--stride", dest="diagnostics_stride", metavar="STRIDE", type=int,
                      default=None, help="diagnostics stride in steps")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("critical", parents=[chan],
                       help="critical viscosity curve mu_c(k)")
    p.add_argument("--k", type=float, nargs=2, default=[0.1, 10.0],
                   metavar=("KMIN", "KMAX"), help="wavenumber range (default 0.1 10)")
    p.add_argument("--points", type=int, default=50,
                   help="number of log-spaced samples (default 50)")

    p = sub.add_parser("spectrum", parents=[chan],
                       help="growth rates at one wavenumber plus the root oracle")
    p.add_argument("--k", type=float, default=1.0, help="wavenumber (default 1)")
    p.add_argument("--basis", type=int, default=64,
                   help="Galerkin basis size (default 64)")

    p = sub.add_parser("dispersion", parents=[chan],
                       help="lambda1 and mu_c over the wavenumber lattice")
    p.add_argument("--n-max", dest="n_max", type=int, default=8,
                   help="largest lattice index (default 8)")
    p.add_argument("--basis", type=int, default=48,
                   help="Galerkin basis size of the lambda1 column (default 48)")

    p = sub.add_parser("modes", parents=[chan],
                       help="export the unstable packet fields on a grid")
    p.add_argument("--k", type=float, default=None,
                   help="wavenumber (default: the fundamental 1/L)")
    p.add_argument("--count", type=int, default=None,
                   help="packet size cap (default: all unstable modes)")
    p.add_argument("--delta", type=float, default=1.0e-6,
                   help="amplitude for the escape time in the manifest")
    p.add_argument("--t", type=float, default=0.0, help="sample time (default 0)")
    p.add_argument("--grid", type=int, nargs=2, default=[64, 65],
                   metavar=("N1", "N2"), help="sampling grid (default 64 65)")
    p.add_argument("--basis", type=int, default=48)

    p = sub.add_parser("simulate", parents=[chan, grid],
                       help="time-step the nonlinear or linearized equations")
    p.add_argument("--k", type=float, default=None,
                   help="packet wavenumber of the initial data (default 1/L)")
    p.add_argument("--amplitude", type=float, default=1.0e-3,
                   help="initial data amplitude (default 1e-3)")
    p.add_argument("--basis", type=int, default=48)
    p.add_argument("--t-end", dest="t_end", type=float, default=None,
                   help="end time (default 1), rounded up to a multiple of dt")
    p.add_argument("--linearized", action="store_true", default=None,
                   help="drop the nonlinear term")
    p.add_argument("--checkpoint-stride", dest="checkpoint_stride", type=int,
                   default=None, help="steps between checkpoints (default: final only)")

    p = sub.add_parser("experiment", parents=[chan, grid],
                       help="two-solution separation experiment over a delta sweep")
    p.add_argument("--deltas", type=float, nargs="+", default=None,
                   help="amplitudes (default 1e-5 1e-6 1e-7)")
    p.add_argument("--epsilon0", type=float, default=None,
                   help="escape amplitude (default: set by the packet size)")
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--basis", dest="basis_size", metavar="BASIS", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--count", dest="packet_count", metavar="COUNT", type=int,
                   default=None, help="packet size cap")

    sub.add_parser("verify",
                   help="run the deterministic property suites, write a JSON report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)

    if ns.threads is not None:
        if ns.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(ns.threads)

    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)

    from .findings import exit_code, finding_line, write_report

    t0 = time.perf_counter()
    try:
        raw = _resolve_raw(ns)
        t_setup = time.perf_counter() - t0
        # every command reads the whole configuration; verify builds its own
        # channels and ignores this one
        channel = channel_from_config(raw)
        # a handler returns its outputs and findings, and the error of a
        # refused run that still wrote its outputs
        outputs, findings, *refused = _HANDLERS[ns.command](ns, out, channel, raw)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding_line(finding))
    for error in refused:
        print(f"error: {error}", file=sys.stderr)
    t_cmd = time.perf_counter() - t0 - t_setup
    print(f"timings: setup {t_setup:.3f} s, {ns.command} {t_cmd:.3f} s",
          file=sys.stderr)
    # spectrum and verify list their findings in their own report
    write_report(out / "run_manifest.json", [] if ns.command in ("spectrum", "verify") else findings,
                 command=ns.command, config_digest=_config_digest(raw, ns),
                 tool_version=TOOL_VERSION, outputs=list(outputs))
    return 2 if refused else exit_code(findings)


if __name__ == "__main__":
    sys.exit(main())

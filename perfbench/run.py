"""slipflow benchmark: one workload, checked outputs, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload separation --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src``.  Every measurement runs in a fresh child process (``child.py``) with
the BLAS pools pinned to one thread through the environment, as
``slipflow --threads 1`` does.

``--trace 0`` measures end to end.  Three set-up-only children time the
import and input construction, then whole workload runs repeat while the
next one is expected to end within ``--seconds`` (at least one).  Each
metric is the median over them; times are scaled to a fixed speed-probe
reading (``child.SpeedProbe``).  ``--trace 1`` runs the workload once
untraced and once with a span at every layer boundary and reports the
per-layer metrics; the spans are written to ``perfbench/out``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("separation", "separation_2mode", "simulate", "spectrum")
SETUP_CHILDREN = 3
DEADLINE_S = 170.0
# end-to-end times are scaled to this mean speed-probe time (see child.SpeedProbe)
PROBE_REF_S = 250e-6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float, probe: bool = False) -> dict:
    """Start one child, wait for it, and return its report."""
    tag = f"{workload}-{seed}-{mode}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scratch", str(OUT / f"tmp-{tag}"),
           "--spans", str(OUT / f"spans-{workload}-seed{seed}.npz")]
    if probe:
        cmd.append("--probe")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for a {mode} child")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child of {workload} exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{mode} child of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(workload: str, seed: int, blas_threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "seed": seed if workload == "spectrum" else f"{seed} (unused: fixed physical configuration)",
    }


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _checks(reports) -> tuple[int, int, list]:
    attempted = failed = 0
    misses = []
    for r in reports:
        attempted += len(r["ops"])
        bad = [name for name, ok in r["ops"] if not ok]
        failed += len(bad)
        misses.extend(bad)
    return attempted, failed, misses


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Medians over set-up-only children and whole runs, in reference seconds."""
    setups = []
    for _ in range(SETUP_CHILDREN):
        r = run_child(workload, seed, "setup", deadline, probe=True)
        setups.append(r["setup_s"] * PROBE_REF_S / r["setup_probe_s"])
    reps = []
    start = last = time.monotonic()
    # another run only when it is expected to end inside the window
    while not reps or 2 * time.monotonic() - last - start <= seconds:
        last = time.monotonic()
        r = run_child(workload, seed, "run", deadline, probe=True)
        r["wall_ref_s"] = r["wall_s"] * PROBE_REF_S / r["run_probe_s"]
        reps.append(r)
        setups.append(r["setup_s"] * PROBE_REF_S / r["setup_probe_s"])
        print(f"run {len(reps)}: wall {r['wall_s']:.3f} s at probe {r['run_probe_s'] * 1e6:.1f} us "
              f"-> {r['wall_ref_s']:.3f} ref s, setup {r['setup_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB, work {r['work']}, "
              f"checks {sum(ok for _, ok in r['ops'])}/{len(r['ops'])}")
    print(f"setup samples (ref s): {' '.join(f'{s:.3f}' for s in setups)}")
    med = statistics.median
    metrics = {
        "wall_s": (med(r["wall_ref_s"] for r in reps), "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
        "agree_frac": (med(sum(r["agree"]) / len(r["agree"]) for r in reps), "ratio"),
        "work_per_s": (med(r["work"] / r["wall_ref_s"] for r in reps), "1/s"),
    }
    return reps, metrics


def per_layer(workload: str, seed: int, deadline: float):
    plain = run_child(workload, seed, "run", deadline)
    traced = run_child(workload, seed, "trace", deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    cases = plain["case_ms"]
    metrics.update({
        "spectrum.case_p50_ms": (_pct(cases, 50), "ms"),
        "spectrum.case_p95_ms": (_pct(cases, 95), "ms"),
        "spectrum.cases": (len(cases), "count"),
        "proc.cpu_s": (plain["cpu_s"], "s"),
        "proc.trace_overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
    })
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s, "
          f"{traced['spans']} spans")
    print("ROADMAP baseline row | baseline | this run, per-call median (ms)")
    for row, then, now in traced["baseline"]:
        print(f"  {row:32s} | {then:9s} | {'-' if now is None else f'{now:.3f}'}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "slipflow" / "__init__.py").is_file():
        print(f"no slipflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            reports, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            reports, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = environment(args.workload, args.seed, reports[0]["blas_threads"])
    print("env: " + json.dumps(env))
    for note in reports[0]["notes"]:
        print(f"{args.workload}: {note}")
    attempted, failed, misses = _checks(reports)
    for name in misses:
        print(f"FAILED check: {name}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    raw = [{k: r[k] for k in ("setup_s", "setup_probe_s", "wall_s", "run_probe_s") if k in r}
           for r in reports]
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "runs": raw, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

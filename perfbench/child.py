"""One fresh benchmark process: import, build inputs, run one workload, report.

Started by ``run.py`` with the BLAS pools pinned to one thread.  Prints one
JSON line.  ``setup_s`` runs from the parent's clock reading just before
this process was started (``--t0``; CLOCK_MONOTONIC is shared by all
processes) to the moment slipflow is imported and the inputs are built.

Modes: ``setup`` stops after the inputs; ``run`` also does the timed work;
``trace`` does it with spans at every layer boundary and writes the spans
to ``--spans``.  ``--probe`` samples the speed probe over the set-up and
the timed windows.
"""

from __future__ import annotations

import signal
import time


class SpeedProbe:
    """A fixed piece of work, timed every 25 ms by SIGALRM.

    Neighbours on a shared host slow this process by up to a third for
    seconds to minutes at a time.  The probe runs in the measured thread,
    interleaved with the work, so the mean of its times over a window
    tracks how fast the machine ran during that window.  Like the program,
    it mixes interpreted arithmetic with small numpy calls; its data fit
    in the first-level cache, so the program's own memory use barely
    moves it.
    """

    INTERVAL_S = 0.025

    def __init__(self):
        import numpy as np

        self.samples = []
        self._np = np
        self._mat = np.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24)
        self._vec = np.linspace(-1.0, 1.0, 64)
        self._work()  # first calls pay one-off costs; keep them out of the samples
        signal.signal(signal.SIGALRM, self._tick)

    def _work(self):
        x = 1
        for _ in range(1000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        for _ in range(10):
            self._mat @ self._mat
            self._np.fft.rfft(self._vec)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> float:
        """Mean probe time (s) since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return sum(self.samples) / len(self.samples)


def main() -> int:
    import argparse
    import sys
    from pathlib import Path

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--probe", action="store_true", help="sample the speed probe")
    args = ap.parse_args()

    probe = SpeedProbe() if args.probe else None
    if probe is not None:
        probe.start()

    import json
    import resource
    import shutil

    import slipflow.sim

    here = Path(__file__).resolve().parent
    if here.parent / "src" not in Path(slipflow.sim.__file__).resolve().parents:
        print(f"slipflow was imported from {slipflow.sim.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    setup, run = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        inputs = setup(args.seed, args.scratch)
        report = {"setup_s": time.monotonic() - args.t0}
        if probe is not None:
            report["setup_probe_s"] = probe.stop()
        if args.mode == "setup":
            print(json.dumps(report))
            return 0
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        if tracer is None:
            outcome = run(inputs, args.scratch)
        else:
            with tracer.span("workload"):
                outcome = run(inputs, args.scratch)
        wall = time.perf_counter() - t0
        if probe is not None:
            report["run_probe_s"] = probe.stop()
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        ops=outcome.ops,
        agree=outcome.agree,
        work=outcome.work,
        case_ms=outcome.case_ms,
        notes=outcome.notes,
        blas_threads=_blas_threads(),
    )
    if tracer is not None:
        import numpy as np
        from tracing import Spans, baseline_rows, layer_metrics

        tracer.uninstall()
        arrays = tracer.arrays()
        spans = Spans(arrays)
        report["layers"] = layer_metrics(spans, wall)
        report["baseline"] = baseline_rows(spans)
        report["spans"] = len(tracer.names)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(args.spans, **arrays)
    print(json.dumps(report))
    return 0


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    from pathlib import Path

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    import sys

    sys.exit(main())

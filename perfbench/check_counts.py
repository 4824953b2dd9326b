"""The traced counts a later claim may rest on repeat exactly for one seed.

Not collected by the package's test run (the name does not start with
``test_``); run it on its own, from the checkout root:

    python3 -m pytest perfbench/check_counts.py -q

Each case starts two traced children of one workload with the same seed,
about twice the workload's run time.
"""

import time

import pytest

from run import DEADLINE_S, WORKLOADS, run_child

COUNTS = (
    "kernel.lu_solve.calls",
    "kernel.lu_solve_per_step",
    "spectrum.det_evals",
    "sim.stepper.step_nl.calls",
    "sim.stepper.step_lin.calls",
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    first, second = (
        run_child(workload, 7, "trace", time.monotonic() + DEADLINE_S)["layers"]
        for _ in range(2)
    )
    counts = {name: first[name][0] for name in COUNTS}
    assert counts == {name: second[name][0] for name in COUNTS}
    assert any(counts.values()), f"{workload} reaches none of the counted layers"

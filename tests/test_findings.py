"""Findings: the bound rule, the stdout line and the one exit rule."""

import json
import math

from slipflow.findings import Finding, bounded, exit_code, finding_line, write_report


def test_flagged_and_unavailable_never_exit_one():
    quiet = [Finding("a", 2.0, 1.0, "flagged", "above 1"), Finding("b", None, None, "unavailable"),
             Finding("c", 0.5, 1.0)]
    assert exit_code(quiet) == 0
    assert exit_code([]) == 0
    assert exit_code(quiet + [Finding("d", 2.0, 1.0, "fail", "above 1")]) == 1


def test_bounded_statuses():
    assert bounded("x", 1.0, 1.0).status == "ok"
    assert bounded("x", -0.5, 1.0).status == "ok"
    assert bounded("x", 3.0, None).status == "ok"
    over = bounded("x", 1.5, 1.0, "flagged", "too big")
    assert (over.status, over.cause) == ("flagged", "too big")
    assert bounded("x", -1.5, 1.0).status == "fail"
    # nothing measured is no pass, and a NaN never holds its bound
    assert bounded("x", None, 1.0).status == "unavailable"
    assert bounded("x", math.nan, 1.0).status == "fail"


def test_line_and_report(tmp_path):
    found = [bounded("gap", 0.25, 0.1, "flagged", "too big", {"dt": 0.5}),
             bounded("cond", None, 1.0e8)]
    assert finding_line(found[0]) == "flagged     gap = 0.25 (bound 0.1): too big"
    assert finding_line(found[1]) == "unavailable cond = n/a (bound 1e+08): not measured"
    report = json.loads(write_report(tmp_path / "r.json", found, seed=3).read_text())
    assert report["seed"] == 3
    assert report["findings"][0] == {"name": "gap", "value": 0.25, "bound": 0.1,
                                     "status": "flagged", "cause": "too big",
                                     "detail": {"dt": 0.5}}
    # a report with no findings lists none
    assert json.loads(write_report(tmp_path / "e.json", [], seed=3).read_text()) == {"seed": 3}

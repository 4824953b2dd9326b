"""Findings: each checked number a command reports, and the one exit rule.

A finding holds a value, the bound it is held to (None: none), a status
(ok; flagged, worth a look but failing nothing; fail; unavailable, nothing
measured, which is no pass) and the cause of a status other than ok.  A
command exits 1 exactly when some finding fails.
"""

from __future__ import annotations

from typing import NamedTuple

from .output import write_json

__all__ = ["Finding", "bounded", "write_report", "finding_line", "exit_code"]


class Finding(NamedTuple):
    name: str
    value: object
    bound: float | None = None
    status: str = "ok"
    cause: str | None = None
    detail: dict = {}


def bounded(name, value, bound, over="fail", cause=None, detail=None) -> Finding:
    """``value`` held to ``|value| <= bound`` (None: no bound): unavailable
    when None, ok when it holds, else ``over`` (fail or flagged) with ``cause``."""
    if value is None:
        return Finding(name, None, bound, "unavailable", "not measured", detail or {})
    held = bound is None or abs(value) <= bound  # a NaN never holds
    return Finding(name, value, bound, "ok" if held else over, None if held else cause,
                   detail or {})


def write_report(path, findings, **fields):
    """A JSON report of ``fields`` and, when there are any, ``findings``."""
    listed = {"findings": [f._asdict() for f in findings]} if findings else {}
    return write_json(path, {**fields, **listed})


def finding_line(f: Finding) -> str:
    """The stdout line of a finding: status, name, value, bound and cause."""
    value = "n/a" if f.value is None else f"{f.value:.6g}"
    bound = "" if f.bound is None else f" (bound {f.bound:.6g})"
    return f"{f.status:<11} {f.name} = {value}{bound}" + (f": {f.cause}" if f.cause else "")


def exit_code(findings) -> int:
    return int(any(f.status == "fail" for f in findings))

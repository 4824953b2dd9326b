"""The shared output format: exact float round trip, canonical JSON."""

import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slipflow.output import csv_row, fmt, write_csv, write_json, write_lines

_EDGE_DOUBLES = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    2.2250738585072014e-308,  # smallest normal
    1.7976931348627157e308,  # largest finite
    0.1,
    1.0 / 3.0,
    math.pi,
    -2.0 ** 52 - 1.0,
    np.nextafter(1.0, 2.0),
]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_csv_floats_parse_back_to_the_identical_double(tmp_path):
    rng = np.random.default_rng(5)
    randoms = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
    values = _EDGE_DOUBLES + [float(x) for x in randoms]
    rows = [values[i:i + 5] for i in range(0, len(values), 5)]
    path = write_csv(tmp_path / "t.csv", "a,b,c,d,e", rows)
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b,c,d,e" and lines[-1] == ""
    parsed = [float(v) for line in lines[1:-1] for v in line.split(",")]
    assert [_bits(p) for p in parsed] == [_bits(float(v)) for v in values]
    assert lines[1:-1] == [csv_row(row) for row in rows]
    # NumPy-scalar rows, enumerate rows and the non-finite values print as
    # csv_row prints them: one format per row changes no byte
    scalars = [[np.float64(v) for v in row] for row in rows]
    path = write_csv(tmp_path / "u.csv", "a,b,c,d,e", scalars)
    assert path.read_text().split("\n")[1:-1] == [csv_row(row) for row in scalars]
    pairs = list(enumerate([np.float64(0.1), math.nan, math.inf, -math.inf,
                            np.float64(-math.inf), -0.0], start=1))
    path = write_csv(tmp_path / "v.csv", "n,x", pairs)
    assert path.read_text().split("\n")[1:-1] == [csv_row(row) for row in pairs]
    assert write_csv(tmp_path / "w.csv", "a,b", []).read_text() == "a,b\n"


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_fmt_round_trips_every_double(x):
    assert _bits(float(fmt(x))) == _bits(x)
    assert _bits(float(fmt(np.float64(x)))) == _bits(x)


def test_csv_row_and_fmt():
    assert csv_row((1, 0.5, -2.0)) == "1,0.5,-2"
    assert fmt(float("nan")) == "nan"


def test_write_lines_terminates_every_line(tmp_path):
    path = write_lines(tmp_path / "l.csv", ["x", "# note"])
    assert path.read_bytes() == b"x\n# note\n"


def test_json_is_sorted_indented_and_newline_terminated(tmp_path):
    obj = {"b": [1, 2.5], "a": {"z": None, "y": True}}
    path = write_json(tmp_path / "m.json", obj)
    text = path.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert json.loads(text) == obj
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    keys = [line.split('"')[1] for line in text.splitlines() if line.strip().startswith('"')]
    assert keys == ["a", "y", "z", "b"]


def test_json_writes_non_finite_floats_as_null(tmp_path):
    obj = {"nan": float("nan"), "list": [1.0, float("inf")], "nested": {"t": (float("-inf"), 2)}}
    text = write_json(tmp_path / "n.json", obj).read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {"nan": None, "list": [1.0, None], "nested": {"t": [None, 2]}}

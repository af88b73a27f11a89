"""The canonical benchmark invocations reproduce benchmarks/reference/ byte
for byte: compare-m2 in full, literal-m3 on every 40th gt of its grid and
sweep-m6 on its m = 1-5 rows.  The m = 6 rows and the full literal-m3 grid
are pinned by the golden digests."""

import os

import numpy as np

from tcmsim import LITERAL, coherent_field, mode_sweep
from tcmsim.cli import _fmt, main
from tcmsim.pipeline import closed_form_series, uniform_grid

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks", "reference")


def reference_lines(name):
    with open(os.path.join(REFERENCE, name)) as fh:
        return fh.read().splitlines()


def csv_lines(columns):
    return [",".join(columns)] + [",".join(_fmt(x) for x in row)
                                  for row in zip(*columns.values())]


def test_compare_m2_bytes(tmp_path, capsys):
    out = tmp_path / "compare-m2.csv"
    assert main(["compare-oracle", "--modes", "2", "--mean", "5", "--convention",
                 "consistent", "--gt-max", "15", "--gt-steps", "1200",
                 "--out", str(out)]) == 0
    with open(os.path.join(REFERENCE, "compare-m2.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_literal_m3_rows():
    gts = uniform_grid(10.0, 1200)[::40]
    series = closed_form_series([coherent_field(25.0)] * 3, gts, LITERAL)
    lines = csv_lines({name: series[name] for name in ("gt", "W", "concurrence", "eof")})
    expected = reference_lines("literal-m3.csv")
    assert lines == [expected[0], *expected[1::40]]


def test_sweep_m6_rows_up_to_five_modes():
    columns = mode_sweep([1.5, 2.25, 3.0], 15.0, [1, 2, 3, 4, 5], LITERAL,
                         sigma_width=4.0, coverage_epsilon=1e-6)
    assert np.array_equal(np.unique(columns["m"]), np.arange(1, 6))
    assert csv_lines(columns) == reference_lines("sweep-m6.csv")[:16]

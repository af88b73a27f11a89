"""Each route's stated memory on a long grid.

Once a route's width is below CHUNK_BYTES / 256, a chunk holds several gts,
and their evaluation temporaries with them.  The tracemalloc peak of
building a route and evaluating 1,200 gts must stay within its statement
plus the grid's own GRID_GT_BYTES a gt.  So must a whole series on a
grid long enough that the observables' per-gt temporaries, were they
held for every gt at once, would show."""

import tracemalloc

import numpy as np
import pytest

import test_memory_budget
from test_memory_budget import CASES, LARGE, traced_peak
from tcmsim import ExactEvolver, coherent_field
from tcmsim.closed_form import CONSISTENT, LITERAL
from tcmsim.pipeline import closed_form_route, closed_form_series, oracle_series
from tcmsim.reduced_density import GRID_GT_BYTES

GRID = np.linspace(0.0, 10.0, 1200)
LONG = ["product-literal", "product-literal-complex", "consistent-blocks",
        "consistent-blocks-m4", "oracle", "oracle-one-mode", "oracle-large",
        "symmetric-complex"]


@pytest.mark.parametrize("name", LONG)
def test_route_peak_on_a_long_grid_stays_within_its_statement(name, monkeypatch):
    monkeypatch.setattr(test_memory_budget, "GTS", GRID)
    route, peak = traced_peak({**CASES, **LARGE}[name])
    assert peak <= route.memory_bytes + GRID_GT_BYTES * GRID.size


SERIES_GRID = np.linspace(0.0, 15.0, 20_000)


def closed_form(convention):
    """closed_form_series in the convention, and the route it builds."""
    return (lambda fields, gts: closed_form_series(fields, gts, convention),
            lambda fields: closed_form_route(fields, convention))


@pytest.mark.parametrize("modes, series_and_route", [
    (1, closed_form(CONSISTENT)),
    (2, closed_form(LITERAL)),
    (1, (oracle_series, ExactEvolver)),
], ids=["consistent-m1", "literal-m2", "oracle-m1"])
def test_series_peak_on_a_long_grid_stays_within_its_statement(modes, series_and_route):
    series, route = series_and_route
    fields = [coherent_field(5.0)] * modes
    stated = route(fields).memory_bytes + GRID_GT_BYTES * SERIES_GRID.size
    tracemalloc.start()
    try:
        series(fields, SERIES_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stated

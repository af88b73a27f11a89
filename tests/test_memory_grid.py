"""Each route's stated memory on a long grid.

Once a route's width is below CHUNK_BYTES / 256, a chunk holds several gts,
and their evaluation temporaries with them.  The tracemalloc peak of
building a route and evaluating 1,200 gts must stay within its statement
plus the grid's own GRID_GT_BYTES a gt."""

import numpy as np
import pytest

import test_memory_budget
from test_memory_budget import CASES, LARGE, traced_peak
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

"""Fixtures shared across test modules."""

import importlib

import numpy as np
import pytest

from tcmsim import LITERAL, coherent_field
from tcmsim.pipeline import closed_form_series


@pytest.fixture(scope="session")
def literal_mean25_series():
    """Literal closed-form series for m = 1, 2, 3 identical coherent fields
    of mean 25 on 1200 points of gt in [0, 10], keyed by m.  Criterion 5 and
    the mode-frequency evidence test rank the same series."""
    gts = np.linspace(0.0, 10.0, 1200)
    return {m: closed_form_series([coherent_field(25.0)] * m, gts, LITERAL)
            for m in (1, 2, 3)}


@pytest.fixture
def memory_budget(monkeypatch):
    """A setter of reduced_density.MEMORY_BUDGET_BYTES for the test's duration."""
    module = importlib.import_module("tcmsim.reduced_density")
    return lambda nbytes: monkeypatch.setattr(module, "MEMORY_BUDGET_BYTES", nbytes)

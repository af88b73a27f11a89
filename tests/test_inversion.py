import math

import numpy as np
import pytest

from tcmsim import (CONSISTENT, ConfigurationError, closed_form_series, coherent_field,
                    fock_field, single_atom_jcm_series)


def two_atom_inversion(field, gts):
    """The two-atom W = P(both excited) - P(both ground) of one consistent
    mode: the W column of its series."""
    return closed_form_series([field], gts, CONSISTENT)["W"]


def test_two_atom_gt0():
    assert two_atom_inversion(coherent_field(2.0), [0.0])[0] == pytest.approx(
        1.0, abs=1e-12)


def test_two_atom_vacuum_point():
    gt = math.pi / math.sqrt(6)
    assert two_atom_inversion(fock_field(0), [gt])[0] == pytest.approx(-7 / 9, abs=1e-12)


def test_two_atom_bounded():
    for w in two_atom_inversion(coherent_field(3.0), np.linspace(0, 8, 17)):
        assert abs(w) <= 1 + 1e-12


def test_single_atom_gt0_is_one():
    for field in (coherent_field(7.0), fock_field(4)):
        assert single_atom_jcm_series(field, [0.0])[0] == pytest.approx(1.0, abs=1e-14)


def test_single_atom_vacuum_rabi():
    f = fock_field(0)
    gts = np.linspace(0, 10, 101)
    w = single_atom_jcm_series(f, gts)
    assert np.allclose(w, np.cos(2 * gts), atol=1e-13)


def test_single_atom_collapse():
    # after the first collapse the envelope stays small for a stretch >= 1 gt
    f = coherent_field(25.0)
    gts = np.linspace(0, 25, 2500)
    w = single_atom_jcm_series(f, gts)
    window = (gts >= 8.0) & (gts <= 20.0)
    assert np.max(np.abs(w[window])) < 0.05


def test_single_atom_phases_are_checked_against_the_budget(memory_budget):
    # 16 bytes a gt and photon number: the float64 phases and cosines
    field = coherent_field(4.0)
    gts = np.linspace(0.0, 10.0, 101)
    nbytes = 16 * gts.size * field.window.size
    memory_budget(nbytes - 1)
    with pytest.raises(ConfigurationError,
                       match=f"101 gts over {field.window.size} photon numbers need {nbytes} bytes"):
        single_atom_jcm_series(field, gts)
    memory_budget(nbytes)
    assert single_atom_jcm_series(field, gts).shape == gts.shape

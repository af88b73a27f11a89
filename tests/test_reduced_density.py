import math

import numpy as np
import pytest

from tcmsim import (NumericalFailureError, TwoAtomDensity, coherent_field,
                    fock_field)
from tcmsim.closed_form import SingleModeConsistent, SingleModeLiteral
from tcmsim.pipeline import observables
from tcmsim.reduced_density import raw_density


def consistent_density(gt, field):
    """The single-mode consistent density at gt."""
    return TwoAtomDensity.from_unnormalized(
        SingleModeConsistent(field).raw_densities([gt])[0])


def test_gt0_density_is_pure_aa():
    rho = consistent_density(0.0, coherent_field(3.0))
    assert np.allclose(rho.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-14)
    assert abs(rho.norm_deficit) < 1e-10


def test_vacuum_point_density():
    gt = math.pi / math.sqrt(6)
    rho = consistent_density(gt, fock_field(0))
    assert rho.matrix[0, 0] == pytest.approx(1 / 9, abs=1e-12)
    assert rho.matrix[3, 3] == pytest.approx(8 / 9, abs=1e-12)
    assert rho.matrix[0, 3] == pytest.approx(-2 * math.sqrt(2) / 9, abs=1e-12)


def test_density_invariants():
    rho = consistent_density(2.2, coherent_field(4.0))
    m = rho.matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert rho.eigenvalues().min() >= -1e-10


def test_rank_one_for_single_anchor():
    eig = np.sort(consistent_density(1.3, fock_field(2)).eigenvalues())
    assert eig[-2] <= 1e-10


def test_global_phase_invariance():
    vectors = SingleModeConsistent(coherent_field(2.0)).anchored_vectors([1.8])[0]
    rho = TwoAtomDensity.from_unnormalized(raw_density(vectors))
    rho2 = TwoAtomDensity.from_unnormalized(raw_density(vectors * np.exp(0.83j)))
    assert np.allclose(rho.matrix, rho2.matrix, atol=1e-13)


def test_zero_norm_raises():
    with pytest.raises(NumericalFailureError):
        TwoAtomDensity.from_unnormalized(raw_density(np.zeros((4, 3), dtype=complex)))


def test_density_validation():
    with pytest.raises(NumericalFailureError):
        TwoAtomDensity(np.eye(3))
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.4j  # not Hermitian
    with pytest.raises(NumericalFailureError):
        TwoAtomDensity(bad)
    with pytest.raises(NumericalFailureError):
        TwoAtomDensity(np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex))


def test_non_finite_density_raises():
    overflowed = np.diag([np.inf, 0.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(NumericalFailureError, match="non-finite"):
        TwoAtomDensity.from_unnormalized(overflowed)
    nan = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    nan[1, 2] = nan[2, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="non-finite"):
        TwoAtomDensity(nan)


def test_literal_norm_deficit_recorded():
    vectors = SingleModeLiteral(coherent_field(5.0)).anchored_vectors([1.5])[0]
    rho = TwoAtomDensity.from_unnormalized(raw_density(vectors))
    total_norm = np.sum(np.abs(vectors) ** 2)
    assert rho.norm_deficit == pytest.approx(1.0 - total_norm, abs=1e-12)


def _failure(fn):
    with pytest.raises(NumericalFailureError) as info:
        fn()
    return str(info.value)


def test_stack_fails_at_its_first_failing_matrix():
    # one failing matrix in a stack raises the message the one-matrix path
    # raises for it; of several, the first gt's, whichever check fails
    good = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    negative = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
    overflowed = np.diag([np.inf, 0.0, 0.0, 1.0]).astype(complex)
    zero = np.zeros((4, 4), dtype=complex)
    for bad in (negative, overflowed, zero):
        single = _failure(lambda: TwoAtomDensity.from_unnormalized(bad))
        assert _failure(lambda: observables(bad[None])) == single
        stack = np.stack([good, good, bad, good, negative, overflowed, zero])
        assert _failure(lambda: observables(stack)) == single

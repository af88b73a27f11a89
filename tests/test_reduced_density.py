import math

import numpy as np
import pytest

from tcmsim import (CONSISTENT, EvolutionParams, NumericalFailureError,
                    TwoAtomDensity, assemble, coherent_field, fock_field,
                    partial_trace)
from tcmsim.reduced_density import density_from_branch_vectors


def test_gt0_density_is_pure_aa():
    amp = assemble(EvolutionParams(gt=0.0, mode_count=1), [coherent_field(3.0)],
                   CONSISTENT)
    rho = partial_trace(amp)
    assert np.allclose(rho.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-14)
    assert abs(rho.norm_deficit) < 1e-10


def test_vacuum_point_density():
    gt = math.pi / math.sqrt(6)
    amp = assemble(EvolutionParams(gt=gt, mode_count=1), [fock_field(0)], CONSISTENT)
    rho = partial_trace(amp)
    assert rho.matrix[0, 0] == pytest.approx(1 / 9, abs=1e-12)
    assert rho.matrix[3, 3] == pytest.approx(8 / 9, abs=1e-12)
    assert rho.matrix[0, 3] == pytest.approx(-2 * math.sqrt(2) / 9, abs=1e-12)


def test_density_invariants():
    amp = assemble(EvolutionParams(gt=2.2, mode_count=1), [coherent_field(4.0)],
                   CONSISTENT)
    rho = partial_trace(amp)
    m = rho.matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert rho.eigenvalues().min() >= -1e-10


def test_rank_one_for_single_anchor():
    amp = assemble(EvolutionParams(gt=1.3, mode_count=1), [fock_field(2)], CONSISTENT)
    eig = np.sort(partial_trace(amp).eigenvalues())
    assert eig[-2] <= 1e-10


def test_global_phase_invariance():
    amp = assemble(EvolutionParams(gt=1.8, mode_count=1), [coherent_field(2.0)],
                   CONSISTENT)
    rho = partial_trace(amp)
    rho2 = partial_trace(amp.with_global_phase(0.83))
    assert np.allclose(rho.matrix, rho2.matrix, atol=1e-13)


def test_zero_norm_raises():
    with pytest.raises(NumericalFailureError):
        density_from_branch_vectors(
            {b: np.zeros(3, dtype=complex) for b in ("aa", "ab", "ba", "bb")})


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
    amp = assemble(EvolutionParams(gt=1.5, mode_count=1), [coherent_field(5.0)],
                   "literal")
    rho = partial_trace(amp)
    assert rho.norm_deficit == pytest.approx(1.0 - amp.total_norm(), abs=1e-12)

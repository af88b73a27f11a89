import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmsim import (NumericalFailureError, binary_entropy, concurrence, eof,
                    spin_flip)
from tcmsim.pipeline import observables


def dm(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


BELL = dm([1, 0, 0, 1])


def test_spin_flip_examples():
    assert np.allclose(spin_flip(np.diag([1.0, 0, 0, 0])), np.diag([0, 0, 0, 1.0]))
    assert np.allclose(spin_flip(np.eye(4) / 4), np.eye(4) / 4)
    assert np.allclose(spin_flip(BELL), BELL, atol=1e-14)


def test_concurrence_bell():
    assert concurrence(BELL).value == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product():
    assert concurrence(np.diag([1.0, 0, 0, 0])).value == 0.0


def test_concurrence_werner():
    rho = 0.5 * BELL + 0.5 * np.eye(4) / 4
    assert concurrence(rho).value == pytest.approx(0.25, abs=1e-12)


def test_concurrence_pure_06_08():
    assert concurrence(dm([0.6, 0, 0, 0.8])).value == pytest.approx(0.96, abs=1e-12)


def test_lambda_diagnostics():
    rho = 0.5 * BELL + 0.5 * np.eye(4) / 4
    res = concurrence(rho)
    assert np.all(np.diff(res.lambdas) <= 0)
    assert res.lambdas.sum() == pytest.approx(
        np.trace(rho @ spin_flip(rho)).real, abs=1e-10)


def test_concurrence_rejects_garbage():
    rng = np.random.default_rng(0)
    non_physical = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(NumericalFailureError):
        concurrence(non_physical)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
    assert binary_entropy(0.9) == pytest.approx(0.468995593589281, abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_eof():
    assert eof(0.0) == 0.0
    assert eof(1.0) == pytest.approx(1.0, abs=1e-14)
    assert eof(0.6) == pytest.approx(0.468995593589281, abs=1e-12)
    grid = np.linspace(0, 1, 200)
    vals = [eof(c) for c in grid]
    assert np.all(np.diff(vals) >= 0)
    assert vals[1] < 1e-2 and vals[-2] > 0.98  # continuous at the endpoints


def random_pure(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_local_unitary(rng):
    def u2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return np.kron(u2(), u2())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    rho = dm(random_pure(rng))
    u = random_local_unitary(rng)
    rotated = u @ rho @ u.conj().T
    assert concurrence(rotated).value == pytest.approx(
        concurrence(rho).value, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0))
def test_pure_family_c_equals_2ab(alpha):
    beta = math.sqrt(1.0 - alpha * alpha)
    rho = dm([alpha, 0, 0, beta])
    assert concurrence(rho).value == pytest.approx(2 * alpha * beta, abs=1e-10)


def test_entanglement_point():
    obs = observables(np.stack([BELL, dm([1, 0, 0, 0])]))
    assert obs["concurrence"][0] == pytest.approx(1.0, abs=1e-12)
    assert obs["eof"][0] == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(obs["eof"] == 0.0, obs["concurrence"] == 0.0)


def test_eof_of_an_array_is_eof_of_each_value():
    cs = np.concatenate([np.linspace(0.0, 1.0, 2001), [0.96, 0.25, 1e-9]])
    values = eof(cs)
    assert values.tobytes() == np.array([eof(float(c)) for c in cs]).tobytes()
    assert isinstance(eof(0.5), float)

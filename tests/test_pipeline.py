import numpy as np
import pytest

import tcmsim
from tcmsim import (CONSISTENT, LITERAL, ConfigurationError, NumericalFailureError,
                    coherent_field, eof, fock_field, mode_sweep)
from tcmsim.closed_form import ProductLiteral
from tcmsim.entanglement import concurrences
from tcmsim.pipeline import (closed_form_route, closed_form_series, observables,
                             oracle_series, uniform_grid)
from tcmsim.reduced_density import normalize, validate
from test_reduced_density import amplitudes


def test_uniform_grid():
    gts = uniform_grid(3.0, 31)
    assert gts[0] == 0.0 and gts[-1] == 3.0 and gts.size == 31
    with pytest.raises(ConfigurationError):
        uniform_grid(3.0, 1)
    with pytest.raises(ConfigurationError):
        uniform_grid(-1.0, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_every_route_rejects_a_bad_gt(bad):
    field = coherent_field(2.0)
    with pytest.raises(ConfigurationError):
        uniform_grid(bad, 5)
    for call in (lambda: closed_form_series([field], [0.0, bad], LITERAL),
                 lambda: closed_form_series([field] * 2, [bad], CONSISTENT),
                 lambda: oracle_series([field], [bad]),
                 lambda: mode_sweep([1.0, bad], 2.0, [1], LITERAL)):
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            call()


def test_literal_nonidentical_fields_matches_manual_sum():
    # mixed per-mode fields skip the symmetric path; check against a direct
    # per-configuration accumulation of the published bilinear structure
    fields = [coherent_field(1.0, sigma_width=4.0, coverage_epsilon=1e-8),
              fock_field(2)]
    gt = 1.4
    series = closed_form_series(fields, np.array([gt]), LITERAL)

    amps = amplitudes(ProductLiteral(fields), [gt])[0]
    raw = np.zeros((4, 4), dtype=complex)
    for vec in amps.T:
        raw += np.outer(vec, vec.conj())
    rho, _ = normalize(raw[None])
    validate(rho)
    c = concurrences(rho)[0][0]
    assert series.w[0] == pytest.approx(
        float(rho[0, 0, 0].real - rho[0, 3, 3].real), abs=1e-12)
    assert series.concurrence[0] == pytest.approx(c, abs=1e-12)
    assert series.eof[0] == pytest.approx(eof(c), abs=1e-12)


@pytest.mark.parametrize("name, what", [("eigvals", "concurrence eigenvalues"),
                                        ("eigvalsh", "density matrix eigenvalues")])
def test_stacked_eigensolver_failure_is_a_numerical_failure(monkeypatch, name, what):
    # numpy raises LinAlgError for a whole stack; the stack fails with it,
    # without retrying its matrices one at a time
    solver = getattr(np.linalg, name)

    def fail_on_stacks(a):
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(a)

    raws = closed_form_route([coherent_field(2.0)], CONSISTENT).raw_densities([0.0, 1.0])
    monkeypatch.setattr(np.linalg, name, fail_on_stacks)
    with pytest.raises(NumericalFailureError,
                       match=f"^{what}: Eigenvalues did not converge$"):
        observables(raws)


def test_consistent_multimode_series_runs():
    fields = [coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8)] * 2
    series = closed_form_series(fields, np.linspace(0, 3, 7), CONSISTENT)
    assert series.w[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(series.concurrence >= 0)


def test_oracle_series_has_drift_column():
    series = oracle_series([coherent_field(2.0)], np.linspace(0, 4, 9))
    assert "norm_drift" in series.extras
    assert series.extras["norm_drift"].max() <= 1e-10


def test_series_extras_norm_deficit():
    series = closed_form_series([coherent_field(3.0)], np.linspace(0, 4, 9),
                                LITERAL)
    assert "norm_deficit" in series.extras
    assert np.all(np.isfinite(series.extras["norm_deficit"]))


def test_every_export_resolves():
    for name in tcmsim.__all__:
        assert getattr(tcmsim, name, None) is not None, name

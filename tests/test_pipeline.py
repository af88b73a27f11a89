import numpy as np
import pytest

import tcmsim
from tcmsim import (CONSISTENT, LITERAL, ConfigurationError, ExactEvolver,
                    NumericalFailureError, coherent_field, eof, fock_field, mode_sweep,
                    single_atom_jcm_series)
from tcmsim import closed_form, oracle, symmetric
from tcmsim.closed_form import ProductLiteral
from tcmsim.entanglement import concurrences
from tcmsim.pipeline import (BLOCK_GTS, closed_form_route, closed_form_series, observables,
                             oracle_series, uniform_grid)
from tcmsim.reduced_density import normalize
from test_reduced_density import amplitudes

FIELD = coherent_field(2.0)
# every evaluator's own grid entry point: the five closed-form routes'
# raw_densities, the oracle's densities and branch_vectors, and the
# one-atom inversion
EVALUATORS = {
    "single-mode-literal-raw": lambda gts: closed_form_route([FIELD], LITERAL).raw_densities(gts),
    "single-mode-consistent-raw":
        lambda gts: closed_form_route([FIELD], CONSISTENT).raw_densities(gts),
    "product-literal-raw":
        lambda gts: closed_form_route([FIELD, fock_field(1)], LITERAL).raw_densities(gts),
    "consistent-blocks-raw":
        lambda gts: closed_form_route([FIELD] * 2, CONSISTENT).raw_densities(gts),
    "symmetric-literal-raw":
        lambda gts: closed_form_route([FIELD] * 2, LITERAL).raw_densities(gts),
    "oracle-densities": lambda gts: ExactEvolver([FIELD]).densities(gts),
    "oracle-branch-vectors": lambda gts: ExactEvolver([FIELD]).branch_vectors(gts),
    "single-atom-jcm": lambda gts: single_atom_jcm_series(FIELD, gts),
}


@pytest.fixture
def no_contraction(monkeypatch):
    """Fail the test if any route builds a DensityContraction: a refused
    grid is refused before one."""
    def built(*args):
        raise AssertionError("a DensityContraction was built")

    for module in (closed_form, oracle, symmetric):
        monkeypatch.setattr(module, "DensityContraction", built)


def test_uniform_grid():
    gts = uniform_grid(3.0, 31)
    assert gts[0] == 0.0 and gts[-1] == 3.0 and gts.size == 31
    with pytest.raises(ConfigurationError):
        uniform_grid(3.0, 1)
    with pytest.raises(ConfigurationError):
        uniform_grid(-1.0, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_every_route_rejects_a_bad_gt(bad, no_contraction):
    field = coherent_field(2.0)
    with pytest.raises(ConfigurationError):
        uniform_grid(bad, 5)
    for call in (lambda: closed_form_series([field], [0.0, bad], LITERAL),
                 lambda: closed_form_series([field] * 2, [bad], CONSISTENT),
                 lambda: oracle_series([field], [bad]),
                 lambda: mode_sweep([1.0, bad], 2.0, [1], LITERAL),
                 *(lambda evaluate=evaluate: evaluate([0.0, bad])
                   for evaluate in EVALUATORS.values())):
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
    c = concurrences(rho)[0][0]
    assert series["W"][0] == pytest.approx(
        float(rho[0, 0, 0].real - rho[0, 3, 3].real), abs=1e-12)
    assert series["concurrence"][0] == pytest.approx(c, abs=1e-12)
    assert series["eof"][0] == pytest.approx(eof(c), abs=1e-12)


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


@pytest.mark.parametrize("convention", [LITERAL, CONSISTENT])
def test_a_route_without_fields_is_refused(convention):
    with pytest.raises(ConfigurationError, match="^at least one field is required$"):
        closed_form_route([], convention)


def test_consistent_multimode_series_runs():
    fields = [coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8)] * 2
    series = closed_form_series(fields, np.linspace(0, 3, 7), CONSISTENT)
    assert series["W"][0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(series["concurrence"] >= 0)


def test_oracle_series_has_drift_column():
    series = oracle_series([coherent_field(2.0)], np.linspace(0, 4, 9))
    assert "norm_drift" in series
    assert series["norm_drift"].max() <= 1e-10


@pytest.mark.parametrize("fields", [[coherent_field(2.0)], [coherent_field(1.5)] * 2],
                         ids=["m1", "m2"])
def test_oracle_series_off_zero_keeps_the_bits_of_separate_calls(fields):
    # gt = 0 is propagated with a grid that does not hold it: the drift
    # column and the observables keep the bits of a gt = 0 call and a grid
    # call made apart
    gts = np.array([0.4, 1.1, 2.9])
    series = oracle_series(fields, gts)
    evolver = ExactEvolver(fields)
    raws, norms = evolver.densities(gts)
    drift = np.abs(norms - evolver.densities([0.0])[1][0])
    assert series["norm_drift"].tobytes() == drift.tobytes()
    for name, column in observables(raws).items():
        if name != "norm_deficit":
            assert series[name].tobytes() == column.tobytes(), name


def test_series_extras_norm_deficit():
    series = closed_form_series([coherent_field(3.0)], np.linspace(0, 4, 9),
                                LITERAL)
    assert "norm_deficit" in series
    assert np.all(np.isfinite(series["norm_deficit"]))


def test_every_export_resolves():
    for name in tcmsim.__all__:
        assert getattr(tcmsim, name, None) is not None, name


@pytest.mark.parametrize("call", [
    lambda gts: closed_form_series([coherent_field(2.0)], gts, CONSISTENT),
    lambda gts: closed_form_series([coherent_field(2.0)] * 2, gts, CONSISTENT),
    lambda gts: closed_form_series([coherent_field(2.0)] * 2, gts, LITERAL),
    lambda gts: oracle_series([coherent_field(2.0)], gts),
    *EVALUATORS.values(),
], ids=["single-mode-consistent", "consistent-blocks", "symmetric-literal", "oracle",
        *EVALUATORS])
def test_every_route_refuses_a_grid_that_is_not_one_dimensional(call, no_contraction):
    with pytest.raises(ConfigurationError,
                       match=r"^gt grid must be one-dimensional, got shape \(2, 2\)$"):
        call(np.array([[0.0, 1.0], [2.0, 3.0]]))


def test_a_grid_that_does_not_increase_is_refused_before_evaluation(monkeypatch):
    import tcmsim.pipeline as pipeline

    def evaluated(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(pipeline, "closed_form_route", evaluated)
    monkeypatch.setattr(pipeline, "ExactEvolver", evaluated)
    field = coherent_field(2.0)
    for gts in ([1.0, 0.5], [0.5, 0.5]):
        for call in (lambda: closed_form_series([field], gts, LITERAL),
                     lambda: oracle_series([field], gts)):
            with pytest.raises(ConfigurationError,
                               match="^gt grid must be strictly increasing$"):
                call()


def test_a_computed_inversion_beyond_one_is_a_numerical_failure():
    # each density passes normalize (its eigenvalues are within PSD_TOL of
    # zero), but its W exceeds 1 by more than rounding
    raws = np.array([np.diag([1.0, 0.0, 0.0, 0.0]),
                     np.diag([1 + 2e-11, -1e-11, 0.0, -1e-11]),
                     np.diag([1 + 4e-11, -2e-11, 0.0, -2e-11])], dtype=complex)
    normalize(raws)
    with pytest.raises(NumericalFailureError, match=r"^\|W\| = 1\.00000000003\d* exceeds 1$"):
        observables(raws)


@pytest.mark.parametrize("raw_densities", [
    lambda gts: closed_form_route([coherent_field(2.0)] * 2, LITERAL).raw_densities(gts),
    lambda gts: ExactEvolver([coherent_field(1.5)] * 2).densities(gts)[0],
], ids=["literal-window-from-0", "oracle-m2"])
def test_observables_across_blocks_keep_the_bits_of_each_gt(raw_densities):
    # a stack of several blocks, the last one partial, gives each gt the
    # columns of its stack of one, bit for bit
    assert coherent_field(2.0).window.n_min == 0  # complex x2 frequencies
    raws = raw_densities(np.linspace(0.0, 3.0, 2 * BLOCK_GTS + 5))
    obs = observables(raws)
    singles = [observables(raws[i:i + 1]) for i in range(len(raws))]
    for name, column in obs.items():
        one = np.concatenate([single[name] for single in singles])
        assert column.dtype == one.dtype and column.tobytes() == one.tobytes(), name


def test_observables_of_an_empty_stack_are_four_empty_columns():
    obs = observables(np.empty((0, 4, 4), dtype=complex))
    assert list(obs) == ["W", "concurrence", "eof", "norm_deficit"]
    assert all(column.shape == (0,) and column.dtype == float for column in obs.values())

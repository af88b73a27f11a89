import math

import numpy as np
import pytest

from tcmsim import (BRANCHES, ConfigurationError, ExactEvolver,
                    NumericalFailureError, TruncationWindow, TwoAtomDensity,
                    build_hamiltonian, build_sector_basis, coherent_field,
                    concurrence, eof, evolve, expansion_diagnostic, fock_field,
                    rho_atom_exact)
from tcmsim.closed_form import SingleModeConsistent
from tcmsim.reduced_density import FirstFailure, raw_density


def amplitude(state, branch, config):
    """The evolved amplitude on (branch, final configuration) of one mode."""
    window = state.evolver.windows[0]
    return state.branch_vectors()[branch][config[0] - window.n_min]


def density_from_branch_vectors(vectors):
    """The standard partial trace: branch amplitudes paired by final
    configuration."""
    return TwoAtomDensity.from_unnormalized(
        raw_density(np.stack([vectors[b] for b in BRANCHES])))


def test_sector_basis_m1_n2():
    basis = build_sector_basis(2, 1, [TruncationWindow(0, 10)])
    assert basis.states == (("aa", (0,)), ("ab", (1,)), ("ba", (1,)), ("bb", (2,)))


def test_sector_basis_m2_n1():
    basis = build_sector_basis(1, 2, [TruncationWindow(0, 1)] * 2)
    assert set(basis.states) == {("ab", (0, 0)), ("ba", (0, 0)),
                                 ("bb", (1, 0)), ("bb", (0, 1))}
    assert basis.dim == 4


def test_sector_basis_empty_beyond_capacity():
    basis = build_sector_basis(6, 1, [TruncationWindow(0, 3)])
    assert basis.dim == 0


@pytest.mark.parametrize("fields", [
    [coherent_field(2.0)],
    [coherent_field(1.5), coherent_field(0.8)],
])
def test_evolver_sectors_use_the_sector_basis(fields):
    ev = ExactEvolver(fields)
    assert ev.sectors
    for sector in ev.sectors:
        assert sector.basis == build_sector_basis(
            sector.basis.excitation, len(fields), ev.windows)


def test_hamiltonian_eigenvalues_m1_n2():
    block = build_hamiltonian(build_sector_basis(2, 1, [TruncationWindow(0, 10)]))
    assert np.max(np.abs(block.matrix - block.matrix.T)) == 0.0
    eigs = np.sort(np.linalg.eigvalsh(block.matrix))
    assert np.allclose(eigs, [-math.sqrt(6), 0.0, 0.0, math.sqrt(6)], atol=1e-12)


def test_hamiltonian_eigenvalues_m1_n1():
    block = build_hamiltonian(build_sector_basis(1, 1, [TruncationWindow(0, 10)]))
    eigs = np.sort(np.linalg.eigvalsh(block.matrix))
    assert np.allclose(eigs, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_evolve_gt0_is_initial_state():
    state = evolve([fock_field(1)], 0.0)
    assert amplitude(state, "aa", (1,)) == pytest.approx(1.0, abs=1e-14)
    assert state.total_norm() == pytest.approx(1.0, abs=1e-14)


def test_evolve_vacuum_coefficients():
    state = evolve([fock_field(0)], math.pi / math.sqrt(6))
    assert amplitude(state, "aa", (0,)) == pytest.approx(1 / 3, abs=1e-12)
    assert amplitude(state, "ab", (1,)) == pytest.approx(0.0, abs=1e-12)
    assert amplitude(state, "bb", (2,)) == pytest.approx(-2 * math.sqrt(2) / 3,
                                                         abs=1e-12)


def test_norm_preserved_over_grid():
    evolver = ExactEvolver([coherent_field(5.0)])
    norm0 = evolver.state_at(0.0).total_norm()
    for gt in np.linspace(0, 30, 31):
        assert abs(evolver.state_at(float(gt)).total_norm() - norm0) <= 1e-10


def test_state_carries_its_norm():
    evolver = ExactEvolver([coherent_field(2.0), coherent_field(1.0)])
    state = evolver.state_at(1.3)
    assert state.norm == state.total_norm()
    later = evolver.evolve_from(state, 0.4)
    assert later.norm == later.total_norm()


def test_sector_populations_constant():
    evolver = ExactEvolver([coherent_field(3.0)])
    ref = evolver.state_at(0.0).sector_norms()
    for gt in (0.7, 2.9, 11.0):
        assert np.allclose(evolver.state_at(gt).sector_norms(), ref, atol=1e-12)


def test_group_property():
    evolver = ExactEvolver([fock_field(3), fock_field(1)])
    s1 = evolver.state_at(1.1)
    s12 = evolver.evolve_from(s1, 0.9)
    direct = evolver.state_at(2.0)
    for a, b in zip(s12.coeffs, direct.coeffs):
        assert np.allclose(a, b, atol=1e-10)


def test_rho_exact_gt0():
    rho = rho_atom_exact(evolve([coherent_field(2.0)], 0.0))
    assert np.allclose(rho.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-13)


def test_rho_exact_vacuum_concurrence():
    rho = rho_atom_exact(evolve([fock_field(0)], math.pi / math.sqrt(6)))
    assert concurrence(rho).value == pytest.approx(4 * math.sqrt(2) / 9, abs=1e-10)


def test_oracle_matches_consistent_closed_form_entrywise():
    # the closed form keys each branch by the initial photon number 2; its
    # final configuration adds the photons the branch emitted
    fields = [fock_field(2)]
    emitted = {"aa": 0, "ab": 1, "ba": 1, "bb": 2}
    for gt in (0.6, 1.9):
        state = evolve(fields, gt)
        closed = SingleModeConsistent(fields[0]).branch_amplitudes(np.array([gt]))[0][:, 0]
        for cfg in [(2,), (3,), (4,)]:
            for b, branch in enumerate(BRANCHES):
                closed_amp = closed[b] if cfg[0] == 2 + emitted[branch] else 0.0
                assert amplitude(state, branch, cfg) == pytest.approx(closed_amp,
                                                                      abs=1e-10)


def test_oracle_matches_consistent_density_coherent():
    fields = [coherent_field(5.0)]
    evolver = ExactEvolver(fields)
    for gt in (0.5, 3.7, 9.2):
        rho_o = rho_atom_exact(evolver.state_at(gt))
        rho_c = TwoAtomDensity.from_unnormalized(
            SingleModeConsistent(fields[0]).raw_densities([gt])[0])
        assert np.max(np.abs(rho_o.matrix - rho_c.matrix)) <= 1e-8


def test_sector_dim_budget():
    with pytest.raises(ConfigurationError):
        ExactEvolver([coherent_field(20.0)] * 2, max_sector_dim=10)


def test_expansion_diagnostic_contract():
    report = expansion_diagnostic(1, 1, n_cut=3)
    assert np.isfinite(report.max_dev_even)
    assert np.isfinite(report.max_dev_odd)
    assert report.trace_check_dev <= 1e-10
    assert report.powering_dev <= 1e-10
    text = report.render()
    assert "expansion" in text and "tr(V^2)" in text


def test_expansion_diagnostic_multimode():
    report = expansion_diagnostic(1, 2, n_cut=2)
    assert np.isfinite(report.max_dev_even)
    assert report.trace_check_dev <= 1e-10


def test_expansion_diagnostic_guards():
    with pytest.raises(ConfigurationError):
        expansion_diagnostic(4, 1)
    with pytest.raises(ConfigurationError):
        expansion_diagnostic(1, 1, n_cut=9)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_density(state):
    """rho_atom_exact as a per-branch roll: for one mode, each branch's
    final-configuration vector is shifted back by the photons it emitted."""
    vectors = state.branch_vectors()
    if len(state.evolver.windows) == 1:
        for branch, shift in (("ab", 1), ("ba", 1), ("bb", 2)):
            rolled = np.zeros_like(vectors[branch])
            rolled[:-shift] = vectors[branch][shift:]
            vectors[branch] = rolled
    return density_from_branch_vectors(vectors)


@pytest.mark.parametrize("fields", [[coherent_field(3.0)],
                                    [coherent_field(2.0), coherent_field(1.0)]])
def test_oracle_series_equals_per_gt_views(fields, monkeypatch):
    from tcmsim import oracle
    from tcmsim.pipeline import oracle_series

    monkeypatch.setattr(oracle, "CHUNK_GTS", 7)
    evolver = ExactEvolver(fields)
    gts = np.linspace(0.0, 9.0, 40)
    assert gts.size > 5 * oracle.CHUNK_GTS
    series = oracle_series(fields, gts, evolver=evolver)
    norm0 = evolver.state_at(0.0).norm
    raws, norms = evolver.densities(gts)
    assert len(raws) == len(norms) == gts.size
    single = [evolver.densities([g]) for g in gts]
    assert _same_bits(raws, np.concatenate([r for r, _ in single]))
    assert _same_bits(norms, np.concatenate([n for _, n in single]))
    for i, gt in enumerate(gts):
        state = evolver.state_at(float(gt))
        rho = rho_atom_exact(state)
        assert _same_bits(rho.matrix, _reference_density(state).matrix)
        raw, norm = raws[i], norms[i]
        assert _same_bits(TwoAtomDensity.from_unnormalized(raw).matrix, rho.matrix)
        assert norm == state.norm
        w = float(rho.matrix[0, 0].real - rho.matrix[3, 3].real)
        c = concurrence(rho).value
        assert (series.w[i], series.concurrence[i], series.eof[i]) == (w, c, eof(c))
        assert _same_bits(series.extras["norm_drift"][i], abs(state.norm - norm0))


def test_state_coefficients_equal_direct_propagation():
    # the batched sector propagation gives the bits of the one-gt product
    # eigvecs @ (exp(-i lambda gt) * (eigvecs^T @ c0))
    evolver = ExactEvolver([coherent_field(2.0), coherent_field(1.0)])
    for gt in (0.0, 0.8, 6.3):
        state = evolver.state_at(gt)
        for sector, c in zip(evolver.sectors, state.coeffs):
            assert _same_bits(c, sector.propagate(sector.c0, gt))


def test_batched_oracle_raises_on_norm_drift():
    from tcmsim.pipeline import oracle_series

    fields = [coherent_field(2.0)]
    evolver = ExactEvolver(fields)
    evolver._norm0 += 1e-6
    with pytest.raises(NumericalFailureError, match="norm drift"):
        evolver.state_at(0.5)
    with pytest.raises(NumericalFailureError, match="norm drift"):
        oracle_series(fields, np.linspace(0.0, 2.0, 5), evolver=evolver)
    first = FirstFailure(1)
    evolver.check_drift(evolver.densities([0.5])[1], first)
    with pytest.raises(NumericalFailureError, match="norm drift"):
        first.raise_if_failed()


def test_branch_vectors_pair_like_the_multimode_density():
    # for m >= 2 rho_atom_exact pairs amplitudes by final configuration,
    # which is the standard partial trace over branch_vectors
    evolver = ExactEvolver([coherent_field(2.0), coherent_field(1.0)])
    for gt in (0.0, 1.7):
        state = evolver.state_at(gt)
        assert _same_bits(density_from_branch_vectors(state.branch_vectors()).matrix,
                          rho_atom_exact(state).matrix)

import itertools
import math

import numpy as np
import pytest

from tcmsim import (BRANCHES, LITERAL, ConfigurationError, ExactEvolver,
                    NumericalFailureError, SectorBasis, TruncationWindow,
                    build_hamiltonian, coherent_field, custom_field, eof, expansion_diagnostic,
                    fock_field, oracle, reduced_density)
from tcmsim.closed_form import SingleModeConsistent
from tcmsim.pipeline import closed_form_route, observables
from tcmsim.reduced_density import GRID_GT_BYTES, normalize
from test_memory_budget import traced_peak
from test_reduced_density import amplitudes, contract

# excited atoms per branch, stated here so that the reference below reads
# nothing of the package it checks
EXCITED_COUNT = {"aa": 2, "ab": 1, "ba": 1, "bb": 0}


def amplitude(evolver, gt, branch, config):
    """The evolved amplitude on (branch, final configuration) of one mode."""
    window = evolver.windows[0]
    return evolver.branch_vectors([gt])[0, BRANCHES.index(branch),
                                        config[0] - window.n_min]


def densities(raws):
    """The checked density matrices of a (G, 4, 4) stack of unnormalized
    ones."""
    return normalize(raws)[0]


def density_from_branch_vectors(vectors):
    """The standard partial trace: (4, N) branch amplitudes paired by final
    configuration."""
    return densities(contract(vectors)[None])[0]


def exact_density(fields, gt):
    return densities(ExactEvolver(fields).densities([gt])[0])[0]


def propagate(sector, c, gt):
    """The one-gt product eigvecs @ (exp(-i lambda gt) * (eigvecs^T @ c))."""
    return sector.eigvecs @ (np.exp(-1j * sector.eigvals * gt) * (sector.eigvecs.T @ c))


def sector_basis(excitation, windows):
    """The sector's basis by brute force, as a test-side reference: every
    (branch, configuration) pair of the windows' product whose photons and
    excited atoms add up to the excitation, branches in order and
    configurations lexicographic within each."""
    configs = list(itertools.product(*(w.values().tolist() for w in windows)))
    pairs = [(b, cfg) for b, branch in enumerate(BRANCHES) for cfg in configs
             if sum(cfg) + EXCITED_COUNT[branch] == excitation]
    return SectorBasis(excitation=excitation,
                       branch_of=np.array([b for b, _ in pairs], dtype=np.int64),
                       configs=np.array([c for _, c in pairs],
                                        dtype=np.int64).reshape(-1, len(windows)))


def states(basis):
    """The basis as (branch, config tuple) pairs, in order."""
    return [(BRANCHES[b], tuple(c))
            for b, c in zip(basis.branch_of.tolist(), basis.configs.tolist())]


def test_sector_basis_m1_n2():
    basis = sector_basis(2, [TruncationWindow(0, 10)])
    assert states(basis) == [("aa", (0,)), ("ab", (1,)), ("ba", (1,)), ("bb", (2,))]


def test_sector_basis_m2_n1():
    basis = sector_basis(1, [TruncationWindow(0, 1)] * 2)
    assert set(states(basis)) == {("ab", (0, 0)), ("ba", (0, 0)),
                                  ("bb", (1, 0)), ("bb", (0, 1))}
    assert basis.dim == 4


def test_sector_basis_empty_beyond_capacity():
    basis = sector_basis(6, [TruncationWindow(0, 3)])
    assert basis.dim == 0


def test_sector_basis_is_the_brute_force_enumeration():
    windows = [TruncationWindow(1, 3), TruncationWindow(2, 4), TruncationWindow(1, 2)]
    configs = list(itertools.product(*(range(w.n_min, w.n_max + 1) for w in windows)))
    for excitation in range(15):
        want = [(b, cfg) for b in BRANCHES for cfg in configs
                if sum(cfg) + EXCITED_COUNT[b] == excitation]
        assert states(sector_basis(excitation, windows)) == want


@pytest.mark.parametrize("fields", [
    [coherent_field(2.0)],
    [coherent_field(1.5), coherent_field(0.8)],
    [fock_field(1), coherent_field(0.5), fock_field(2)],
])
def test_evolver_sectors_use_the_sector_basis(fields):
    # the evolver builds one sector per excitation from the lowest the box
    # holds with initial weight, each the brute-force enumeration, with
    # every state's final key its branch and its configuration's row-major
    # index in the box
    ev = ExactEvolver(fields)
    assert ev.sectors
    lows = [w.n_min for w in ev.windows]
    low = sum(lows) + 2
    assert [s.basis.excitation for s in ev.sectors] == list(range(low, low + len(ev.sectors)))
    size = math.prod(ev.shape)
    for sector in ev.sectors:
        basis = sector_basis(sector.basis.excitation, ev.windows)
        assert np.array_equal(sector.basis.branch_of, basis.branch_of)
        assert np.array_equal(sector.basis.configs, basis.configs)
        keys = basis.branch_of * size + np.ravel_multi_index(
            tuple((basis.configs - lows).T), ev.shape)
        assert np.array_equal(sector.final, keys)


@pytest.mark.parametrize("m, n_cut", [(1, 6), (2, 3), (3, 2)])
def test_sector_hamiltonians_restrict_the_dense_interaction(m, n_cut):
    # V = S+ (x) sum_k a_k + S- (x) sum_k a_k^+ on the product space cut at
    # n_cut photons per mode, built by kron as expansion_diagnostic does
    local = n_cut + 1
    a_local = np.diag(np.sqrt(np.arange(1, local)), k=1)
    a_sum = np.zeros((local ** m,) * 2)
    for k in range(m):
        op = np.eye(1)
        for j in range(m):
            op = np.kron(op, a_local if j == k else np.eye(local))
        a_sum += op
    s_plus, _ = oracle._atomic_ops()
    v = np.kron(s_plus, a_sum) + np.kron(s_plus.T, a_sum.T)
    windows = [TruncationWindow(0, n_cut)] * m
    covered = 0
    for excitation in range(m * n_cut + 3):
        basis = sector_basis(excitation, windows)
        index = (basis.branch_of * local ** m
                 + np.ravel_multi_index(tuple(basis.configs.T), (local,) * m))
        assert np.array_equal(build_hamiltonian(basis), v[np.ix_(index, index)])
        covered += basis.dim
    assert covered == v.shape[0]


def test_hamiltonian_eigenvalues_m1_n2():
    h = build_hamiltonian(sector_basis(2, [TruncationWindow(0, 10)]))
    assert np.max(np.abs(h - h.T)) == 0.0
    eigs = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(eigs, [-math.sqrt(6), 0.0, 0.0, math.sqrt(6)], atol=1e-12)


def test_hamiltonian_eigenvalues_m1_n1():
    h = build_hamiltonian(sector_basis(1, [TruncationWindow(0, 10)]))
    eigs = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(eigs, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_evolve_gt0_is_initial_state():
    evolver = ExactEvolver([fock_field(1)])
    assert amplitude(evolver, 0.0, "aa", (1,)) == pytest.approx(1.0, abs=1e-14)
    assert evolver.densities([0.0])[1][0] == pytest.approx(1.0, abs=1e-14)


def test_evolve_vacuum_coefficients():
    evolver, gt = ExactEvolver([fock_field(0)]), math.pi / math.sqrt(6)
    assert amplitude(evolver, gt, "aa", (0,)) == pytest.approx(1 / 3, abs=1e-12)
    assert amplitude(evolver, gt, "ab", (1,)) == pytest.approx(0.0, abs=1e-12)
    assert amplitude(evolver, gt, "bb", (2,)) == pytest.approx(-2 * math.sqrt(2) / 3,
                                                               abs=1e-12)


def test_norm_preserved_over_grid():
    evolver = ExactEvolver([coherent_field(5.0)])
    norm0 = evolver.densities([0.0])[1][0]
    for norm in evolver.densities(np.linspace(0, 30, 31))[1]:
        assert abs(norm - norm0) <= 1e-10


def test_sector_populations_constant():
    evolver = ExactEvolver([coherent_field(3.0)])
    vectors = evolver.branch_vectors([0.0, 0.7, 2.9, 11.0]).reshape(4, -1)
    pops = np.stack([np.sum(np.abs(vectors[:, s.final]) ** 2, axis=-1)
                     for s in evolver.sectors], axis=-1)
    for row in pops[1:]:
        assert np.allclose(row, pops[0], atol=1e-12)


def test_group_property():
    evolver = ExactEvolver([fock_field(3), fock_field(1)])
    s1, direct = evolver.branch_vectors([1.1, 2.0]).reshape(2, -1)
    for sector in evolver.sectors:
        s12 = propagate(sector, s1[sector.final], 0.9)
        assert np.allclose(s12, direct[sector.final], atol=1e-10)


def test_rho_exact_gt0():
    rho = exact_density([coherent_field(2.0)], 0.0)
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-13)


def test_rho_exact_vacuum_concurrence():
    raws, _ = ExactEvolver([fock_field(0)]).densities([math.pi / math.sqrt(6)])
    assert observables(raws)["concurrence"][0] == pytest.approx(
        4 * math.sqrt(2) / 9, abs=1e-10)


def test_oracle_matches_consistent_closed_form_entrywise():
    # the closed form keys each branch by the initial photon number 2; its
    # final configuration adds the photons the branch emitted
    fields = [fock_field(2)]
    emitted = {"aa": 0, "ab": 1, "ba": 1, "bb": 2}
    evolver = ExactEvolver(fields)
    for gt in (0.6, 1.9):
        closed = amplitudes(SingleModeConsistent(fields[0]), [gt])[0][:, 0]
        for cfg in [(2,), (3,), (4,)]:
            for b, branch in enumerate(BRANCHES):
                closed_amp = closed[b] if cfg[0] == 2 + emitted[branch] else 0.0
                assert amplitude(evolver, gt, branch, cfg) == pytest.approx(
                    closed_amp, abs=1e-10)


def test_oracle_matches_consistent_density_coherent():
    fields = [coherent_field(5.0)]
    gts = (0.5, 3.7, 9.2)
    rho_o = densities(ExactEvolver(fields).densities(gts)[0])
    rho_c = densities(SingleModeConsistent(fields[0]).raw_densities(gts))
    assert np.max(np.abs(rho_o - rho_c)) <= 1e-8


def test_sector_dim_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SECTOR_DIM", 10)
    with pytest.raises(ConfigurationError):
        ExactEvolver([coherent_field(20.0)] * 2)


def test_the_statement_holds_every_sectors_objects(monkeypatch):
    # 250 one-mode values make 250 sectors of a 252-configuration box; with
    # the chunk at one gt's stacks of that box, the sectors' Python objects
    # (SECTOR_OBJECT_BYTES each) are what the statement must hold beside the
    # rows, eigenvectors and contraction: without them it states 252,000
    # bytes, below the peak
    monkeypatch.setattr(reduced_density, "CHUNK_BYTES", reduced_density.stack_bytes(252))
    evolver, peak = traced_peak(lambda: ExactEvolver([custom_field([(1 / 250) ** 0.5] * 250)]))
    assert len(evolver.sectors) == 250
    assert peak <= evolver.memory_bytes


@pytest.mark.parametrize("fields", [[coherent_field(5.0)] * 2,
                                    [fock_field(3), fock_field(1)],
                                    [coherent_field(1.0)] * 3, [coherent_field(3.0)]])
def test_sector_budgets_count_the_built_sectors(fields, monkeypatch, memory_budget):
    # both budgets are checked from configuration counts before any sector
    # is built: they admit exactly the sectors that are then built
    evolver = ExactEvolver(fields)
    dims = [s.basis.dim for s in evolver.sectors]
    entries = sum(d * d for d in dims)
    predicted = evolver.memory_bytes
    monkeypatch.setattr(oracle, "MAX_SECTOR_DIM", max(dims))
    memory_budget(predicted)
    assert [s.basis.dim for s in ExactEvolver(fields).sectors] == dims
    memory_budget(predicted - 1)
    with pytest.raises(ConfigurationError,
                       match=f"of {entries} matrix entries .* need {predicted} bytes"):
        ExactEvolver(fields)
    monkeypatch.setattr(oracle, "MAX_SECTOR_DIM", max(dims) - 1)
    with pytest.raises(ConfigurationError, match=f"dimension {max(dims)} "):
        ExactEvolver(fields)


def test_oracle_checks_its_configuration_rows_from_the_window_sizes(memory_budget):
    # 1e24 configurations: only a check made before anything is allocated
    # can answer at once
    flat = custom_field(np.full(10 ** 6 - 2, 1.0 / math.sqrt(10 ** 6 - 2)))
    with pytest.raises(ConfigurationError,
                       match=r"^1000000000000000000000000 oracle configurations need "
                             r"736000000000000000003145728 bytes, beyond the memory budget"):
        ExactEvolver([flat] * 4)
    # nine rows of 400 bytes beside the contraction's 6,291,456: refused a
    # byte short, and at 6,295,056 refused by the sector check instead
    fields = [fock_field(1), fock_field(0)]
    memory_budget(6295055)
    with pytest.raises(ConfigurationError,
                       match=r"^9 oracle configurations need 6295056 bytes, beyond the memory "
                             r"budget of 6295055 bytes;"):
        ExactEvolver(fields)
    memory_budget(6295056)
    with pytest.raises(ConfigurationError,
                       match=r"^the 1 sectors of 64 matrix entries over 9 oracle "
                             r"configurations need 6298640 bytes"):
        ExactEvolver(fields)


def test_branch_vectors_check_the_grid_before_allocating(memory_budget):
    # beside the statement, 64 bytes a gt and configuration for the
    # vectors and 48 a gt and state of the largest sector for its evolution
    evolver = ExactEvolver([fock_field(2)])
    width = math.prod(evolver.shape)
    largest = max(s.basis.dim for s in evolver.sectors)
    checked = evolver.memory_bytes + 5 * (64 * width + 48 * largest)
    memory_budget(checked - 1)
    with pytest.raises(ConfigurationError,
                       match=f"^a grid of 5 gts and its branch vectors need {checked} bytes"):
        evolver.branch_vectors(np.zeros(5))
    memory_budget(checked)
    assert evolver.branch_vectors(np.zeros(5)).shape == (5, 4, width)


@pytest.mark.parametrize("route", ["oracle", "single-literal", "symmetric"])
def test_the_grid_bytes_are_checked_beside_the_statement(route, memory_budget):
    # before its raw stack is allocated, a grid of G gts is checked with
    # its route's statement plus G times GRID_GT_BYTES
    field = coherent_field(2.0)
    if route == "oracle":
        built = ExactEvolver([field])
        evaluate = lambda gts: built.densities(gts)[0]
    else:
        built = closed_form_route([field] * (2 if route == "symmetric" else 1), LITERAL)
        evaluate = built.raw_densities
    memory_budget(built.memory_bytes + GRID_GT_BYTES * 10)
    assert evaluate(np.zeros(10)).shape == (10, 4, 4)
    with pytest.raises(ConfigurationError, match=f"^a grid of 11 gts .* need "
                                                 f"{built.memory_bytes + GRID_GT_BYTES * 11} "):
        evaluate(np.zeros(11))


def test_sectors_hold_each_eigenbasis_once_as_float64():
    # 8 bytes per eigenvector entry, and a few vectors of dim: no complex
    # copy of the eigenbasis is held beside the real one
    evolver = ExactEvolver([coherent_field(2.0), coherent_field(1.0)])
    dims = np.array([s.basis.dim for s in evolver.sectors])
    held = 0
    for sector in evolver.sectors:
        arrays = {id(v): v for v in vars(sector).values() if isinstance(v, np.ndarray)}
        held += sum(a.nbytes for a in arrays.values())
    assert held <= 8 * np.sum(dims ** 2) + 64 * np.sum(dims)


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


def _reference_density(evolver, gt):
    """The densities' pairing as a per-branch roll: for one mode, each
    branch's final-configuration vector is shifted back by the photons it
    emitted."""
    vectors = evolver.branch_vectors([gt])[0]
    if len(evolver.windows) == 1:
        for b, shift in ((1, 1), (2, 1), (3, 2)):
            rolled = np.zeros_like(vectors[b])
            rolled[:-shift] = vectors[b][shift:]
            vectors[b] = rolled
    return density_from_branch_vectors(vectors)


@pytest.mark.parametrize("fields, stacks, gts_per_chunk", [
    pytest.param([coherent_field(3.0)], 7, 7, id="fields0"),
    pytest.param([coherent_field(2.0), coherent_field(1.0)], 7, 7, id="fields1"),
    # a budget below one gt's stacks still takes one gt a chunk
    pytest.param([coherent_field(2.0), coherent_field(1.0)], 0.5, 1, id="one-gt-floor"),
])
def test_oracle_series_equals_per_gt_views(fields, stacks, gts_per_chunk, monkeypatch):
    from tcmsim import reduced_density
    from tcmsim.pipeline import oracle_series

    evolver = ExactEvolver(fields)
    width = math.prod(evolver.shape)
    monkeypatch.setattr(reduced_density, "CHUNK_BYTES",
                        int(stacks * reduced_density.stack_bytes(width)))
    assert reduced_density.chunk_gts(width) == gts_per_chunk
    gts = np.linspace(0.0, 9.0, 40)
    assert gts.size > 5 * reduced_density.chunk_gts(width)
    series = oracle_series(fields, gts)
    norm0 = evolver.densities([0.0])[1][0]
    raws, norms = evolver.densities(gts)
    assert len(raws) == len(norms) == gts.size
    single = [evolver.densities([g]) for g in gts]
    assert _same_bits(raws, np.concatenate([r for r, _ in single]))
    assert _same_bits(norms, np.concatenate([n for _, n in single]))
    rhos = densities(raws)
    for i, gt in enumerate(gts):
        assert _same_bits(rhos[i], _reference_density(evolver, float(gt)))
        # the stacked observables equal those of a stack of one
        one = observables(raws[i:i + 1])
        w, c = float(one["W"][0]), float(one["concurrence"][0])
        assert (series["W"][i], series["concurrence"][i], series["eof"][i]) == (w, c, eof(c))
        assert _same_bits(series["norm_drift"][i], abs(norms[i] - norm0))


def test_state_coefficients_equal_direct_propagation():
    # the batched sector propagation gives the bits of the one-gt product
    # eigvecs @ (exp(-i lambda gt) * (eigvecs^T @ c0))
    evolver = ExactEvolver([coherent_field(2.0), coherent_field(1.0)])
    gts = (0.0, 0.8, 6.3)
    for gt, vectors in zip(gts, evolver.branch_vectors(gts).reshape(len(gts), -1)):
        for sector in evolver.sectors:
            assert _same_bits(vectors[sector.final], propagate(sector, sector.c0, gt))


def test_batched_oracle_raises_on_norm_drift(monkeypatch):
    from tcmsim.pipeline import oracle_series

    # a tolerance below zero: every norm counts as drifted
    monkeypatch.setattr(oracle, "NORM_DRIFT_TOL", -1.0)
    fields = [coherent_field(2.0)]
    evolver = ExactEvolver(fields)
    with pytest.raises(NumericalFailureError, match="norm drift"):
        oracle_series(fields, np.linspace(0.0, 2.0, 5))
    with pytest.raises(NumericalFailureError, match="norm drift"):
        evolver.densities([0.5])


def test_an_overflowing_phase_fails_the_density_check_without_warnings():
    from tcmsim.pipeline import oracle_series

    # gt times a sector eigenvalue overflows: the density check's one
    # error, with no numpy warning ahead of it (warnings are errors here)
    with pytest.raises(NumericalFailureError, match="non-finite entries"):
        oracle_series([coherent_field(2.0)], [0.0, 1e308])


def test_branch_vectors_pair_like_the_multimode_density():
    # for m >= 2 densities pairs amplitudes by final configuration, which
    # is the standard partial trace over branch_vectors
    evolver = ExactEvolver([coherent_field(2.0), coherent_field(1.0)])
    gts = (0.0, 1.7)
    for vectors, raw in zip(evolver.branch_vectors(gts), evolver.densities(gts)[0]):
        assert _same_bits(density_from_branch_vectors(vectors),
                          densities(raw[None])[0])


@pytest.mark.parametrize("m, mean", [(2, 2.0), (2, 5.0), (3, 1.0)])
def test_identical_coherent_modes_evolve_as_one_collective_mode(m, mean):
    # m identical coherent modes of mean n are the collective mode of mean
    # m n, coupled with sqrt(m) g, and m - 1 vacuum modes: the multimode
    # density is the single-mode standard partial trace at sqrt(m) gt
    gts = np.linspace(0.0, 6.0, 25)
    multimode = ExactEvolver([coherent_field(mean)] * m).densities(gts)[0]
    v = ExactEvolver([coherent_field(m * mean)]).branch_vectors(math.sqrt(m) * gts)
    assert np.abs(multimode - contract(v)).max() <= 1e-10


@pytest.mark.parametrize("means", [(2.0, 0.5), (5.0, 1.0), (3.0, 0.0)],
                         ids=["2-0.5", "5-1", "3-0"])
def test_unequal_coherent_modes_evolve_as_one_collective_mode(means):
    # real coherent amplitudes sqrt(n1), sqrt(n2): the collective mode
    # (a1 + a2) / sqrt(2), coupled with sqrt(2) g, is coherent of mean
    # (sqrt(n1) + sqrt(n2))^2 / 2, and the orthogonal mode, coherent too,
    # does not couple.  The box of windows is not closed under photon
    # exchange between the modes, so each window is padded down to n = 0
    # and far above the field, on boxes of unequal size
    windows = (TruncationWindow(0, 32), TruncationWindow(0, 22))
    fields = [coherent_field(n, coverage_epsilon=1e-14, window=w)
              for n, w in zip(means, windows)]
    collective = coherent_field((math.sqrt(means[0]) + math.sqrt(means[1])) ** 2 / 2,
                                coverage_epsilon=1e-14, window=windows[0])
    gts = np.linspace(0.0, 6.0, 25)
    multimode = ExactEvolver(fields).densities(gts)[0]
    v = ExactEvolver([collective]).branch_vectors(math.sqrt(2) * gts)
    assert np.abs(multimode - contract(v)).max() <= 1e-10


def kronecker_densities(field, gts):
    """The dense referee of one mode: two atoms (aa, ab, ba, bb; a excited)
    times the Fock space [0, n_max + 2], evolved from |aa> x field by an
    eigh of the dense V = S+ a + S- a^+, and the field traced out: the
    (G, 4, 4) unnormalized partial-trace densities.  It reads nothing of
    the package but the field's window and amplitudes."""
    size = field.window.n_max + 3
    a = np.diag(np.sqrt(np.arange(1.0, size)), k=1)
    s_plus = np.zeros((4, 4))
    # <aa|S+|ab> = <aa|S+|ba> = <ab|S+|bb> = <ba|S+|bb> = 1
    s_plus[[0, 0, 1, 2], [1, 2, 3, 3]] = 1.0
    eigvals, eigvecs = np.linalg.eigh(np.kron(s_plus, a) + np.kron(s_plus.T, a.T))
    psi0 = np.zeros(4 * size, dtype=complex)
    psi0[field.window.n_min:field.window.n_max + 1] = field.amplitudes
    phases = np.exp(-1j * np.outer(gts, eigvals))
    psi = ((eigvecs.T @ psi0) * phases) @ eigvecs.T
    psi = psi.reshape(len(gts), 4, size)
    return psi @ np.conj(psi.transpose(0, 2, 1))


GOLDEN_CUSTOM = np.array([complex(0.3, -0.0), complex(-0.0, -0.5),
                          complex(0.4, 0.2), complex(-0.6, -0.0)])


@pytest.mark.parametrize("field", [
    fock_field(3), custom_field(GOLDEN_CUSTOM / np.linalg.norm(GOLDEN_CUSTOM)), fock_field(0),
], ids=["fock-3", "custom", "fock-0"])
def test_one_mode_partial_trace_matches_the_dense_kronecker_evolution(field):
    # the standard partial trace of the oracle's unshifted branch vectors
    # is the atoms' reduced state of the dense evolution; densities pairs
    # by anchor instead (docs/decisions.md, "Open point: the reading")
    gts = np.linspace(0.0, 15.0, 301)
    assert np.abs(contract(ExactEvolver([field]).branch_vectors(gts))
                  - kronecker_densities(field, gts)).max() <= 1e-12


def test_the_vacuum_point_in_the_partial_trace_reading():
    # Fock 0 at gt = pi / sqrt(6): the n = 0 sector's chain aa - (ab + ba)
    # - bb gives amplitudes 1/3 on |aa, 0> and -2 sqrt(2)/3 on |bb, 2>, so
    # the partial trace is diag(1/9, 0, 0, 8/9): W = -7/9 and C = 0.  The
    # anchor reading keeps the aa-bb coherence: criterion 8's C = 4 sqrt(2)/9
    gt = math.pi / math.sqrt(6)
    expected = np.diag([1 / 9, 0, 0, 8 / 9])
    raws = np.concatenate([contract(ExactEvolver([fock_field(0)]).branch_vectors([gt])),
                           kronecker_densities(fock_field(0), [gt])])
    assert np.abs(raws - expected).max() <= 1e-14
    obs = observables(raws)
    assert np.abs(obs["W"] + 7 / 9).max() <= 1e-14
    assert np.all(obs["concurrence"] == 0.0)

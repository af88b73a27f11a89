import math

import numpy as np
import pytest
from scipy.linalg import expm

from tcmsim import (CONSISTENT, LITERAL, ConfigurationError, coherent_field,
                    fock_field)
from tcmsim.closed_form import (ConsistentBlocks, ProductLiteral,
                                SingleModeConsistent, SingleModeLiteral)
from tcmsim.fock_field import custom_field
from tcmsim.pipeline import closed_form_route, compute_observables
from tcmsim.reduced_density import TwoAtomDensity


def single_mode_literal(n, gt, field):
    """(aa, ab, ba, bb) published single-mode amplitudes at summation index n."""
    route = SingleModeLiteral(field)
    return route.branch_amplitudes(np.array([gt]))[0][:, n - route.ns[0]]


def single_mode_consistent(n, gt):
    """(aa, ab, ba, bb) block amplitudes of the initial state |aa, n>."""
    return SingleModeConsistent(fock_field(n)).branch_amplitudes(np.array([gt]))[0][:, 0]


def multimode_literal(config, gt, fields):
    """(aa, ab, ba, bb) published multimode amplitudes at one summation
    configuration."""
    route = ProductLiteral(fields)
    col = np.flatnonzero((route.configs == config).all(axis=1))[0]
    return route.branch_amplitudes(np.array([gt]))[0][:, col]


def weights(fields, configs):
    """Joint initial weights prod_k c_{n_k} of configurations."""
    return np.prod([f.amplitudes_at(configs[:, k]) for k, f in enumerate(fields)], axis=0)


def block_oracle(n, gt):
    """Brute-force 3-state block evolution for initial |aa, n>."""
    l1, l2 = math.sqrt(2 * (n + 1)), math.sqrt(2 * (n + 2))
    h = np.array([[0, l1, 0], [l1, 0, l2], [0, l2, 0]])
    return expm(-1j * h * gt)[:, 0]


# -- single-mode literal ----------------------------------------------------

def test_literal_gt0_survival_on_bb():
    f = coherent_field(2.0)
    for n in range(f.window.n_min, f.window.n_max + 1):
        aa, ab, ba, bb = single_mode_literal(n, 0.0, f)
        assert aa == 0.0
        assert ab == 0.0 and ba == 0.0
        assert bb == pytest.approx(f.amplitude(n), abs=1e-14)


def test_literal_example_n1():
    f = coherent_field(2.0)
    gt = math.pi / math.sqrt(6)
    aa = single_mode_literal(1, gt, f)[0]
    expected = f.amplitude(3) * (math.sqrt(6) / 5) * (math.cos(gt * math.sqrt(10)) - 1)
    assert aa == pytest.approx(expected, abs=1e-14)


def test_literal_example_n0_x3():
    f = coherent_field(2.0)
    _, ab, ba, _ = single_mode_literal(0, 1.0, f)
    x3 = f.amplitude(1) * math.sqrt(0.5) * math.sin(math.sqrt(2))
    assert ba == pytest.approx(-1j * x3, abs=1e-14)
    assert ab == ba


def test_literal_n0_x2_constant():
    # the n=0 survival term has a vanishing cosine coefficient
    f = coherent_field(0.5)
    for gt in (0.0, 0.7, 3.0):
        assert single_mode_literal(0, gt, f)[3] == pytest.approx(
            f.amplitude(0), abs=1e-14)


def test_literal_out_of_window_shifts_are_zero():
    f = fock_field(2)
    aa, ab, _, _ = single_mode_literal(2, 1.3, f)  # c_3, c_4 are outside the window
    assert aa == 0.0
    assert ab == 0.0


# -- single-mode consistent -------------------------------------------------

def test_consistent_identity_at_gt0():
    for n in (0, 3, 17):
        aa, ab, ba, bb = single_mode_consistent(n, 0.0)
        assert aa == 1.0
        assert ab == 0.0 and ba == 0.0 and bb == 0.0


def test_consistent_vacuum_point():
    gt = math.pi / math.sqrt(6)
    aa, ab, _, bb = single_mode_consistent(0, gt)
    assert aa == pytest.approx(1 / 3, abs=1e-12)
    assert ab == pytest.approx(0.0, abs=1e-12)
    assert bb == pytest.approx(-2 * math.sqrt(2) / 3, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 4, 12])
@pytest.mark.parametrize("gt", [0.2, 1.0, math.pi / (2 * math.sqrt(6)), 5.5])
def test_consistent_matches_expm_oracle(n, gt):
    amps = single_mode_consistent(n, gt)
    col = block_oracle(n, gt)
    assert amps[0] == pytest.approx(col[0], abs=1e-12)
    assert amps[1] == pytest.approx(col[1] / math.sqrt(2), abs=1e-12)
    assert amps[3] == pytest.approx(col[2], abs=1e-12)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


# -- multimode literal ------------------------------------------------------

def test_multimode_rejects_single_mode():
    with pytest.raises(ConfigurationError):
        ProductLiteral([coherent_field(2.0)])


def test_multimode_zero_config_example():
    fields = [coherent_field(1.0)] * 2
    gt = 0.9
    aa, _, _, bb = multimode_literal((0, 0), gt, fields)
    c2 = fields[0].amplitude(2)
    x1 = c2 * c2 * (12 * math.sqrt(2) - 16) * (math.cos((2 + math.sqrt(2)) * gt) - 1)
    assert aa == pytest.approx(x1, abs=1e-13)
    # all-zero configuration: the survival equals the joint weight
    c0 = fields[0].amplitude(0)
    assert bb == pytest.approx(c0 * c0, abs=1e-13)


def test_multimode_gt0():
    fields = [coherent_field(3.0)] * 3
    aa, ab, ba, bb = multimode_literal((2, 3, 4), 0.0, fields)
    assert aa == 0.0
    assert ab == 0.0 and ba == 0.0
    assert abs(bb) > 0


def test_multimode_permutation_symmetry():
    fields = [coherent_field(2.5)] * 3
    for cfg in [(0, 2, 5), (1, 1, 4)]:
        base = multimode_literal(cfg, 1.7, fields)
        for perm in [(2, 0, 1), (1, 0, 2)]:
            permuted = tuple(cfg[i] for i in perm)
            got = multimode_literal(permuted, 1.7, fields)
            assert np.allclose(got, base, atol=1e-14)


def test_multimode_brute_force_pairwise_sums():
    # independently evaluate the printed i<j frequency sums
    fields = [coherent_field(4.0)] * 2
    rng = np.random.default_rng(3)
    sq = np.emath.sqrt
    for _ in range(25):
        n1, n2 = (int(x) for x in rng.integers(0, 9, 2))
        gt = float(rng.uniform(0, 6))
        n = np.array([n1, n2], dtype=float)
        d1 = (sq(n[0] + 2) + sq(n[1] + 1)) ** 2 + (sq(n[0] + 1) + sq(n[1] + 2)) ** 2
        s1p, s2p = np.sqrt(n + 1).sum(), np.sqrt(n + 2).sum()
        c2 = np.prod([fields[k].amplitudes_at(np.array([int(n[k]) + 2]))[0]
                      for k in range(2)])
        x1 = c2 * 2 * s1p * s2p / d1 * (np.cos(gt * sq(d1)) - 1)
        aa = multimode_literal((n1, n2), gt, fields)[0]
        assert aa == pytest.approx(complex(x1), abs=1e-12)


# -- anchored vectors -------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_assemble_gt0_consistent_equals_initial_state():
    fields = [coherent_field(2.0), coherent_field(1.0)]
    blocks = ConsistentBlocks(fields)
    vectors = blocks.anchored_vectors([0.0])[0]
    assert np.abs(vectors[0, blocks.anchor_flat]
                  - weights(fields, blocks.configs)).max() <= 1e-13
    for b in (1, 2, 3):
        assert np.abs(vectors[b]).max() <= 1e-14
    assert np.sum(np.abs(vectors) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_assemble_literal_gt0_on_bb():
    field = coherent_field(5.0)
    route = SingleModeLiteral(field)
    vectors = route.anchored_vectors([0.0])[0]
    window = field.window.values()
    assert np.abs(vectors[3, route.anchor_flat[window - route.ns[0]]]
                  - field.amplitudes).max() <= 1e-14
    assert np.abs(vectors[0]).max() == 0.0


def test_assemble_consistent_norm_over_grid():
    field = coherent_field(5.0)
    eps = field.coverage_epsilon
    vectors = SingleModeConsistent(field).anchored_vectors(np.linspace(0.0, 12.0, 25))
    for norm in np.sum(np.abs(vectors) ** 2, axis=(1, 2)):
        assert 1 - eps * 3 - 1e-12 <= norm <= 1 + 1e-12


def test_assemble_consistent_multimode_norm():
    # per-block evolution is unitary, so the anchored norm is exact at gt=0;
    # the density records 1 minus the raw trace as its norm deficit
    fields = [coherent_field(2.0)] * 2
    blocks = ConsistentBlocks(fields)
    assert np.sum(np.abs(blocks.anchored_vectors([0.0])) ** 2) == pytest.approx(
        1.0, abs=1e-10)
    raws = blocks.raw_densities([0.8, 2.5])
    obs = compute_observables(fields, [0.8, 2.5], CONSISTENT)
    for raw, deficit in zip(raws, obs["norm_deficit"]):
        norm = float(np.trace(raw).real)
        assert np.isfinite(norm) and norm > 0
        assert deficit == pytest.approx(1.0 - norm, abs=1e-12)


def test_assemble_branch_unitarity_per_block():
    blocks = ConsistentBlocks([fock_field(1), fock_field(2)])
    amps = blocks.amplitudes_at(1.3)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert blocks.amplitudes_at(0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("m", [2, 3])
def test_symmetric_evaluator_matches_direct_assembly(m):
    from tcmsim.symmetric import SymmetricLiteralEvaluator

    field = coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8)
    evaluator = SymmetricLiteralEvaluator(field, m)
    product = ProductLiteral([field] * m)
    for gt in (0.6, 2.1):
        raw = evaluator.raw_densities(np.array([gt]))[0]
        rho_sym = TwoAtomDensity.from_unnormalized(raw)
        rho_dir = TwoAtomDensity.from_unnormalized(product.raw_densities([gt])[0])
        assert np.max(np.abs(rho_sym.matrix - rho_dir.matrix)) <= 1e-13
        assert rho_sym.norm_deficit == pytest.approx(rho_dir.norm_deficit, abs=1e-12)


def test_symmetric_evaluator_keeps_small_imaginary_parts():
    # imaginary parts far below np.allclose's atol must still count
    from tcmsim.symmetric import SymmetricLiteralEvaluator

    field = custom_field(0.5 + 1e-9 * np.array([1, -2, 3, 1]) * 1j)
    gt = 1.3
    raw = SymmetricLiteralEvaluator(field, 2).raw_densities(np.array([gt]))[0]
    rho_sym = TwoAtomDensity.from_unnormalized(raw)
    rho_dir = TwoAtomDensity.from_unnormalized(
        ProductLiteral([field] * 2).raw_densities([gt])[0])
    assert np.max(np.abs(rho_sym.matrix - rho_dir.matrix)) <= 1e-13


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("chunk_elements", [None, 40])
def test_symmetric_evaluator_is_exact_across_chunks(m, chunk_elements, monkeypatch):
    from tcmsim import symmetric

    if chunk_elements is not None:
        monkeypatch.setattr(symmetric, "CHUNK_ELEMENTS", chunk_elements)
    # the window reaches n = 0: complex x2 frequencies and the all-zero multiset
    field = coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8)
    assert field.window.n_min == 0
    ev = symmetric.SymmetricLiteralEvaluator(field, m)
    gts = np.linspace(0.0, 8.0, 701)
    # the largest block (every penultimate multiset) spans several chunks
    assert gts.size > symmetric.CHUNK_ELEMENTS // ev.block_sizes[-1]
    assert _same_bits(ev.raw_densities(gts),
                      np.stack([ev.raw_densities([g])[0] for g in gts]))


@pytest.mark.parametrize("route", ["literal-1", "consistent-1", "literal-product",
                                   "consistent-blocks"])
def test_grid_call_equals_single_gt_calls(route, monkeypatch):
    from tcmsim import closed_form

    # windows reaching n = 0 (the literal x2 special cases and complex
    # frequencies), and a custom field with complex weights
    amps = np.array([0.3, -0.5j, 0.4 + 0.2j, -0.6])
    custom = custom_field(amps / np.linalg.norm(amps))
    fields, convention, kind = {
        "literal-1": ([coherent_field(3.0)], LITERAL, SingleModeLiteral),
        "consistent-1": ([custom], CONSISTENT, SingleModeConsistent),
        "literal-product": ([coherent_field(1.0), custom], LITERAL, ProductLiteral),
        "consistent-blocks": ([coherent_field(1.0), coherent_field(0.5)], CONSISTENT,
                              ConsistentBlocks),
    }[route]
    built = closed_form_route(fields, convention)
    assert type(built) is kind
    gts = np.linspace(0.0, 8.0, 97)
    whole = built.raw_densities(gts)
    single = np.stack([built.raw_densities([g])[0] for g in gts])
    monkeypatch.setattr(closed_form, "CHUNK_ELEMENTS", 4 * built.vector_size * 5)
    chunked = built.raw_densities(gts)
    assert _same_bits(whole, single)
    assert _same_bits(chunked, single)


def test_symmetric_evaluator_is_exact_across_tiles(monkeypatch):
    from tcmsim import symmetric

    m = 4
    # a window reaching n = 0, small enough for 301 single-gt calls
    field = coherent_field(1.5, sigma_width=1.0, coverage_epsilon=0.05)
    assert (field.window.n_min, field.window.n_max) == (0, 4)
    gts = np.linspace(0.0, 8.0, 301)
    ev = symmetric.SymmetricLiteralEvaluator(field, m)
    blocks = ev.block_sizes
    assert blocks.max() <= symmetric.CHUNK_ELEMENTS
    untiled = ev.raw_densities(gts)

    monkeypatch.setattr(symmetric, "CHUNK_ELEMENTS", 3)
    # every block but the all-zero multiset's spans several tiles
    assert blocks[0] == 1 and np.all(blocks[1:] > symmetric.CHUNK_ELEMENTS)
    tiled = ev.raw_densities(gts)
    assert _same_bits(tiled, np.stack([ev.raw_densities([g])[0] for g in gts]))
    scale = np.max(np.abs(untiled), axis=(1, 2))[:, None, None]
    assert np.max(np.abs(tiled - untiled) / scale) <= 1e-14
    product = ProductLiteral([field] * m)
    for gt in (0.6, 2.1):
        rho_sym = TwoAtomDensity.from_unnormalized(ev.raw_densities([gt])[0])
        rho_dir = TwoAtomDensity.from_unnormalized(product.raw_densities([gt])[0])
        assert np.max(np.abs(rho_sym.matrix - rho_dir.matrix)) <= 1e-13


def test_symmetric_evaluator_memory_is_one_tile():
    import tracemalloc

    from tcmsim.symmetric import SymmetricLiteralEvaluator

    # the sweep-modes field at m = 5, whose largest block holds 101,270
    # multisets; the traced peak is the tile's working set, not the block's
    field = coherent_field(15.0, sigma_width=4, coverage_epsilon=1e-6)
    ev = SymmetricLiteralEvaluator(field, 5)
    tracemalloc.start()
    try:
        ev.raw_densities([1.5, 2.25, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_symmetric_evaluator_constructor_memory():
    import tracemalloc

    from tcmsim.symmetric import SymmetricLiteralEvaluator

    # the sweep-modes field at m = 6: the stored (m - 2)-level holds
    # 101,270 rows (~12 MB); the penultimate level would hold 850,668
    field = coherent_field(15.0, sigma_width=4, coverage_epsilon=1e-6)
    tracemalloc.start()
    try:
        SymmetricLiteralEvaluator(field, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_symmetric_tiles_equal_extended_penultimate_level(m, monkeypatch):
    from tcmsim import symmetric
    from tcmsim.fock_field import custom_field

    monkeypatch.setattr(symmetric, "CHUNK_ELEMENTS", 7)
    amps = np.array([0.3, -0.5j, 0.4 + 0.2j, -0.6, 0.1j, 0.25 - 0.35j])
    fields = [
        # the window reaches n = 0: real weights, complex x2 frequencies
        coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8),
        custom_field(amps / np.linalg.norm(amps)),
    ]
    for field, dtype in zip(fields, (float, complex)):
        ev = symmetric.SymmetricLiteralEvaluator(field, m)
        assert ev.wfeats.dtype == dtype
        penultimate = symmetric._next_level(ev._level, ev.n_values, ev.feats, ev.wfeats)
        tiles = list(ev._tiles())
        # the tiles cover every block in order, some start inside a
        # penultimate block and some span several
        covered = [(lo, hi) for lo, hi, iv, _ in tiles if iv == ev.n_values - 1]
        assert covered[0][0] == 0 and covered[-1][1] == penultimate.size
        assert sum(hi - lo for lo, hi, _, _ in tiles) == math.comb(ev.n_values + m - 1, m)
        if m > 2:
            assert any(penultimate.last[lo - 1] == penultimate.last[lo]
                       for lo, _, _, _ in tiles if lo > 0)
        assert any(np.unique(penultimate.last[lo:hi]).size > 1 for lo, hi, _, _ in tiles)
        for lo, hi, iv, tile in tiles:
            ref = symmetric._extend_rows(penultimate, lo, hi, iv, ev.feats, ev.wfeats)
            assert tile.stats.dtype == ref.stats.dtype
            assert np.array_equal(tile.stats, ref.stats)
            assert tile.weights.dtype == ref.weights.dtype == dtype
            assert np.array_equal(tile.weights, ref.weights)
            assert tile.denom.dtype == ref.denom.dtype
            assert np.array_equal(tile.denom, ref.denom)
        gts = np.linspace(0.0, 6.0, 13)
        assert np.array_equal(ev.raw_densities(gts),
                              np.stack([ev.raw_densities([g])[0] for g in gts]))


def test_assemble_validation():
    fields = [coherent_field(1.0)]
    with pytest.raises(ConfigurationError):
        compute_observables(fields, [1.0], "bogus")
    with pytest.raises(ConfigurationError):
        compute_observables(fields, [-1.0], CONSISTENT)


@pytest.mark.parametrize("fields", [[coherent_field(2.0)] * 2,
                                    [coherent_field(1.5), coherent_field(4.0)],
                                    [coherent_field(1.0)] * 3])
def test_consistent_anchored_vectors_match_add_at_accumulation(fields):
    from tcmsim.closed_form import extended_window
    from tcmsim.reduced_density import raw_density

    blocks = ConsistentBlocks(fields)
    m = len(fields)
    windows = [extended_window(f.window) for f in fields]
    shape = tuple(w.size for w in windows)
    flat = np.ravel_multi_index(
        tuple((blocks.configs - [w.n_min for w in windows]).T), shape)
    for gt in (0.0, 0.45, 2.7):
        # the anchored arrays as np.add.at on zeros builds them, in cascade
        # order (aa; ab and ba per mode; bb per pair)
        amps = blocks.amplitudes_at(gt) * blocks.weights[:, None]
        ref = np.zeros((4, int(np.prod(shape))), dtype=complex)
        np.add.at(ref[0], flat, amps[:, 0])
        for k in range(m):
            half = amps[:, 1 + k] * (1.0 / math.sqrt(2.0))
            np.add.at(ref[1], flat, half)
            np.add.at(ref[2], flat, half)
        for pi in range(len(blocks.pairs)):
            np.add.at(ref[3], flat, amps[:, 1 + m + pi])
        vectors = blocks.anchored_vectors([gt])[0]
        assert _same_bits(vectors, ref)

        rho = TwoAtomDensity.from_unnormalized(blocks.raw_densities([gt])[0])
        rho_ref = TwoAtomDensity.from_unnormalized(raw_density(ref))
        assert _same_bits(rho.matrix, rho_ref.matrix)
        assert rho.norm_deficit == rho_ref.norm_deficit


def test_consistent_observables_match_assembled_densities():
    from tcmsim import concurrence, eof

    fields = [coherent_field(1.5), coherent_field(3.0)]
    gts = np.linspace(0.0, 5.0, 41)
    obs = compute_observables(fields, gts, CONSISTENT)
    blocks = ConsistentBlocks(fields)
    for i, gt in enumerate(gts):
        rho = TwoAtomDensity.from_unnormalized(blocks.raw_densities([gt])[0])
        w = float(rho.matrix[0, 0].real - rho.matrix[3, 3].real)
        c = concurrence(rho).value
        assert (obs["w"][i], obs["concurrence"][i], obs["eof"][i]) == (w, c, eof(c))
        assert obs["norm_deficit"][i] == rho.norm_deficit


@pytest.mark.parametrize("m", [3, 4])
def test_penultimate_level_equals_concatenated_blocks(m):
    from tcmsim import symmetric

    field = coherent_field(2.0, sigma_width=4.0, coverage_epsilon=1e-8)
    ev = symmetric.SymmetricLiteralEvaluator(field, m)
    # reference: each level as the concatenation of its extended blocks
    level = symmetric._next_level(symmetric._level_zero(ev.wfeats), ev.n_values,
                                  ev.feats, ev.wfeats)
    for _ in range(m - 2):
        counts = np.searchsorted(level.last, np.arange(ev.n_values), side="right")
        blocks = [symmetric._extend_rows(level, 0, int(counts[iv]), iv, ev.feats, ev.wfeats)
                  for iv in range(ev.n_values) if counts[iv] > 0]
        level = symmetric._Level(
            stats=np.concatenate([b.stats for b in blocks], axis=1),
            weights=np.concatenate([b.weights for b in blocks], axis=1),
            last=np.concatenate([b.last for b in blocks]),
            run=np.concatenate([b.run for b in blocks]),
            denom=np.concatenate([b.denom for b in blocks]))
    # the evaluator stores the (m - 2)-level; the penultimate level is one
    # more level on top of it
    built = symmetric._next_level(ev._level, ev.n_values, ev.feats, ev.wfeats)
    assert built.size == level.size == math.comb(ev.n_values + m - 2, m - 1)
    for i, k in enumerate(symmetric._STAT_KEYS):
        assert np.array_equal(built.stats[i], level.stats[i]), k
    assert built.weights.shape == level.weights.shape
    for i in range(len(symmetric._WEIGHT_KEYS)):
        assert built.weights[i].dtype == level.weights[i].dtype
        assert np.array_equal(built.weights[i], level.weights[i])
    for name in ("last", "run", "denom"):
        assert getattr(built, name).dtype == getattr(level, name).dtype
        assert np.array_equal(getattr(built, name), getattr(level, name))

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from tcmsim import (CONSISTENT, LITERAL, ConfigurationError, coherent_field,
                    fock_field)
from tcmsim.closed_form import (ConsistentBlocks, ProductLiteral,
                                SingleModeConsistent, SingleModeLiteral)
from tcmsim.fock_field import custom_field
from tcmsim.pipeline import closed_form_route, closed_form_series
from tcmsim.reduced_density import normalize
from test_reduced_density import amplitudes, anchored_vectors, contract


def single_mode_literal(n, gt, field):
    """(aa, ab, ba, bb) published single-mode amplitudes at summation index n."""
    route = SingleModeLiteral(field)
    return amplitudes(route, [gt])[0][:, n - route.ns[0]]


def single_mode_consistent(n, gt):
    """(aa, ab, ba, bb) block amplitudes of the initial state |aa, n>."""
    return amplitudes(SingleModeConsistent(fock_field(n)), [gt])[0][:, 0]


def multimode_literal(config, gt, fields):
    """(aa, ab, ba, bb) published multimode amplitudes at one summation
    configuration."""
    route = ProductLiteral(fields)
    lows = [max(0, f.window.n_min - 2) for f in fields]
    shape = [f.window.n_max - low + 1 for f, low in zip(fields, lows)]
    col = np.ravel_multi_index(tuple(np.subtract(config, lows)), shape)
    return amplitudes(route, [gt])[0][:, col]


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
        assert bb == pytest.approx(f.amplitudes_at(n), abs=1e-14)


def test_literal_example_n1():
    f = coherent_field(2.0)
    gt = math.pi / math.sqrt(6)
    aa = single_mode_literal(1, gt, f)[0]
    expected = f.amplitudes_at(3) * (math.sqrt(6) / 5) * (math.cos(gt * math.sqrt(10)) - 1)
    assert aa == pytest.approx(expected, abs=1e-14)


def test_literal_example_n0_x3():
    f = coherent_field(2.0)
    _, ab, ba, _ = single_mode_literal(0, 1.0, f)
    x3 = f.amplitudes_at(1) * math.sqrt(0.5) * math.sin(math.sqrt(2))
    assert ba == pytest.approx(-1j * x3, abs=1e-14)
    assert ab == ba


def test_literal_n0_x2_constant():
    # the n=0 survival term has a vanishing cosine coefficient
    f = coherent_field(0.5)
    for gt in (0.0, 0.7, 3.0):
        assert single_mode_literal(0, gt, f)[3] == pytest.approx(
            f.amplitudes_at(0), abs=1e-14)


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


def test_product_literal_checks_its_budget_before_enumerating(memory_budget):
    fields = [coherent_field(2.0), fock_field(1)]
    count = math.prod(f.window.n_max - max(0, f.window.n_min - 2) + 1 for f in fields)
    predicted = ProductLiteral(fields).memory_bytes
    memory_budget(predicted - 1)
    with pytest.raises(ConfigurationError,
                       match=f"^{count} literal .* need {predicted} bytes, beyond the "
                             f"memory budget of {predicted - 1} bytes;"):
        ProductLiteral(fields)
    memory_budget(predicted)
    assert ProductLiteral(fields).terms.size == count


def test_product_literal_keeps_nothing_once_evaluated():
    import tracemalloc

    # beside the raw stack it returns, an evaluation on 1,200 gts leaves
    # nothing behind: no tiles of the chunk lengths it ran
    route = ProductLiteral([coherent_field(2.0), fock_field(1)])
    tracemalloc.start()
    try:
        raw = route.raw_densities(np.linspace(0.0, 10.0, 1200))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - raw.nbytes <= 8192


def test_multimode_zero_config_example():
    fields = [coherent_field(1.0)] * 2
    gt = 0.9
    aa, _, _, bb = multimode_literal((0, 0), gt, fields)
    c2 = fields[0].amplitudes_at(2)
    x1 = c2 * c2 * (12 * math.sqrt(2) - 16) * (math.cos((2 + math.sqrt(2)) * gt) - 1)
    assert aa == pytest.approx(x1, abs=1e-13)
    # all-zero configuration: the survival equals the joint weight
    c0 = fields[0].amplitudes_at(0)
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
    vectors = anchored_vectors(blocks, [0.0])[0]
    anchored = vectors.reshape(4, *blocks.shape)[(0, *blocks.box)].ravel()
    assert np.abs(anchored - weights(fields, blocks.configs)).max() <= 1e-13
    for b in (1, 2, 3):
        assert np.abs(vectors[b]).max() <= 1e-14
    assert np.sum(np.abs(vectors) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_assemble_literal_gt0_on_bb():
    field = coherent_field(5.0)
    route = SingleModeLiteral(field)
    vectors = anchored_vectors(route, [0.0])[0]
    window = field.window.values()
    assert np.abs(vectors[3, route.box[0]][window - route.ns[0]]
                  - field.amplitudes).max() <= 1e-14
    assert np.abs(vectors[0]).max() == 0.0


def test_assemble_consistent_norm_over_grid():
    field = coherent_field(5.0)
    eps = field.coverage_epsilon
    vectors = anchored_vectors(SingleModeConsistent(field), np.linspace(0.0, 12.0, 25))
    for norm in np.sum(np.abs(vectors) ** 2, axis=(1, 2)):
        assert 1 - eps * 3 - 1e-12 <= norm <= 1 + 1e-12


def test_assemble_consistent_multimode_norm():
    # per-block evolution is unitary, so the anchored norm is exact at gt=0;
    # the density records 1 minus the raw trace as its norm deficit
    fields = [coherent_field(2.0)] * 2
    blocks = ConsistentBlocks(fields)
    assert np.sum(np.abs(anchored_vectors(blocks, [0.0])) ** 2) == pytest.approx(
        1.0, abs=1e-10)
    raws = blocks.raw_densities([0.8, 2.5])
    series = closed_form_series(fields, [0.8, 2.5], CONSISTENT)
    for raw, deficit in zip(raws, series["norm_deficit"]):
        norm = float(np.trace(raw).real)
        assert np.isfinite(norm) and norm > 0
        assert deficit == pytest.approx(1.0 - norm, abs=1e-12)


def block_amplitudes(blocks, gt):
    """(n_configs, dim) unweighted block amplitudes at gt, from the held
    eigenbasis as branch_amplitudes computes them."""
    phase = np.exp(blocks._rates * gt) * blocks._p0
    return np.einsum("ndm,nm->nd", blocks.eigvecs, phase)


def test_assemble_branch_unitarity_per_block():
    blocks = ConsistentBlocks([fock_field(1), fock_field(2)])
    amps = block_amplitudes(blocks, 1.3)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert block_amplitudes(blocks, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_consistent_blocks_hold_each_eigenbasis_once_as_float64():
    # 8 bytes per eigenvector entry, and a few vectors of dim per
    # configuration: no complex copy of the eigenvectors is held
    blocks = ConsistentBlocks([coherent_field(2.0), coherent_field(1.0)])
    n, dim = len(blocks.configs), blocks.dim
    arrays = {id(v): v for v in vars(blocks).values() if isinstance(v, np.ndarray)}
    assert sum(a.nbytes for a in arrays.values()) <= 8 * n * dim ** 2 + 64 * n * dim


def test_consistent_blocks_check_their_budget_from_the_window_sizes(memory_budget):
    # 1e24 blocks: only a check made before anything is allocated can
    # answer at once
    flat = custom_field(np.full(10 ** 6, 1e-3))
    with pytest.raises(ConfigurationError,
                       match=r"^1000000000000000000000000 consistent cascade blocks of 15x15 "
                             r"entries need 4536002048006144008195149824 bytes, beyond the "
                             r"memory budget"):
        ConsistentBlocks([flat] * 4)
    # four blocks of 6x6 entries, 864 bytes each, beside the contraction's
    # 6,291,456: refused a byte short, admitted at 6,294,912
    fields = [custom_field([0.6, 0.8])] * 2
    memory_budget(6294911)
    with pytest.raises(ConfigurationError,
                       match=r"^4 consistent cascade blocks of 6x6 entries need 6294912 bytes, "
                             r"beyond the memory budget of 6294911 bytes;"):
        ConsistentBlocks(fields)
    memory_budget(6294912)
    assert len(ConsistentBlocks(fields).configs) == 4


@pytest.mark.parametrize("m", [2, 3])
def test_symmetric_evaluator_matches_direct_assembly(m):
    from tcmsim.symmetric import SymmetricLiteralEvaluator

    field = coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8)
    evaluator = SymmetricLiteralEvaluator(field, m)
    product = ProductLiteral([field] * m)
    gts = np.array([0.6, 2.1])
    rho_sym, deficit_sym = normalize(evaluator.raw_densities(gts))
    rho_dir, deficit_dir = normalize(product.raw_densities(gts))
    assert np.max(np.abs(rho_sym - rho_dir)) <= 1e-13
    assert deficit_sym == pytest.approx(deficit_dir, abs=1e-12)


def test_symmetric_evaluator_keeps_small_imaginary_parts():
    # imaginary parts far below np.allclose's atol must still count
    from tcmsim.symmetric import SymmetricLiteralEvaluator

    field = custom_field(0.5 + 1e-9 * np.array([1, -2, 3, 1]) * 1j)
    gt = 1.3
    rho_sym, _ = normalize(SymmetricLiteralEvaluator(field, 2).raw_densities([gt]))
    rho_dir, _ = normalize(ProductLiteral([field] * 2).raw_densities([gt]))
    assert np.max(np.abs(rho_sym - rho_dir)) <= 1e-13


def _set_tile(monkeypatch, size):
    """Symmetric tiles of size multisets, and chunks of at most size
    multisets times gts: a budget of one gt's stacks over size."""
    from tcmsim import reduced_density, symmetric

    monkeypatch.setattr(symmetric, "TILE_MULTISETS", size)
    monkeypatch.setattr(reduced_density, "CHUNK_BYTES",
                        reduced_density.stack_bytes(size))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("chunk_elements", [None, 40])
def test_symmetric_evaluator_is_exact_across_chunks(m, chunk_elements, monkeypatch):
    from tcmsim import symmetric
    from tcmsim.reduced_density import chunk_gts

    if chunk_elements is not None:
        _set_tile(monkeypatch, chunk_elements)
    # the window reaches n = 0: complex x2 frequencies and the all-zero multiset
    field = coherent_field(1.5, sigma_width=4.0, coverage_epsilon=1e-8)
    assert field.window.n_min == 0
    ev = symmetric.SymmetricLiteralEvaluator(field, m)
    gts = np.linspace(0.0, 8.0, 1001)
    # the largest block (every penultimate multiset) spans several chunks
    assert gts.size > chunk_gts(symmetric._block_ends(ev.n_values, m - 1)[-1])
    assert _same_bits(ev.raw_densities(gts),
                      np.stack([ev.raw_densities([g])[0] for g in gts]))


@pytest.mark.parametrize("route", ["literal-1", "consistent-1", "literal-product",
                                   "consistent-blocks"])
def test_grid_call_equals_single_gt_calls(route, monkeypatch):
    from tcmsim import reduced_density

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
    monkeypatch.setattr(reduced_density, "CHUNK_BYTES",
                        reduced_density.stack_bytes(math.prod(built.shape)) * 5)
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
    blocks = symmetric._block_ends(ev.n_values, m - 1)
    assert blocks.max() <= symmetric.TILE_MULTISETS
    untiled = ev.raw_densities(gts)

    _set_tile(monkeypatch, 3)
    # every block but the all-zero multiset's spans several tiles
    assert blocks[0] == 1 and np.all(blocks[1:] > symmetric.TILE_MULTISETS)
    tiled = ev.raw_densities(gts)
    assert _same_bits(tiled, np.stack([ev.raw_densities([g])[0] for g in gts]))
    scale = np.max(np.abs(untiled), axis=(1, 2))[:, None, None]
    assert np.max(np.abs(tiled - untiled) / scale) <= 1e-14
    product = ProductLiteral([field] * m)
    rho_sym, _ = normalize(ev.raw_densities([0.6, 2.1]))
    rho_dir, _ = normalize(product.raw_densities([0.6, 2.1]))
    assert np.max(np.abs(rho_sym - rho_dir)) <= 1e-13


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

    # the sweep-modes field at m = 6: the stored (m - 3)-level holds 9,880
    # rows, the two prefixes and the tile's buffer 8,192 each (~3.7 MB
    # together); the (m - 2)-level would hold 101,270 (~12 MB) and the
    # penultimate level 850,668
    field = coherent_field(15.0, sigma_width=4, coverage_epsilon=1e-6)
    tracemalloc.start()
    try:
        SymmetricLiteralEvaluator(field, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_symmetric_evaluator_memory_at_six_modes():
    import tracemalloc

    from tcmsim.symmetric import SymmetricLiteralEvaluator

    # the sweep-modes field at m = 6: the tile's working set alone, since
    # every tile is written into one buffer made with the evaluator; a
    # second tile of 8,192 rows would add 0.88 MB
    field = coherent_field(15.0, sigma_width=4, coverage_epsilon=1e-6)
    ev = SymmetricLiteralEvaluator(field, 6)
    tracemalloc.start()
    try:
        ev.raw_densities([1.5, 2.25, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_symmetric_evaluator_holds_three_tile_row_levels():
    import tracemalloc

    from tcmsim.symmetric import SymmetricLiteralEvaluator

    # the sweep-modes field at m = 6, built and evaluated: the floor level,
    # the (m - 2)- and (m - 1)-levels' first 8,192 rows, the tile's buffer
    # and one tile's chunk peak near 6.3 MB; a fourth level of 8,192
    # 108-byte rows would add 0.88 MB
    field = coherent_field(15.0, sigma_width=4, coverage_epsilon=1e-6)
    tracemalloc.start()
    try:
        SymmetricLiteralEvaluator(field, 6).raw_densities([1.5, 2.25, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.7e6


def _reference_level(ev, k):
    """The evaluator's k-level by brute force, and each row's largest value
    index (-1 for the empty tuple): every nondecreasing k-tuple of value
    indices, sorted by the reversed tuple (the levels' order), with its
    statistics summed from zeros and its factors multiplied from ones in
    tuple order, and its run and denominator taken from the trailing run
    lengths."""
    from tcmsim import symmetric

    tuples = sorted(itertools.combinations_with_replacement(range(ev.n_values), k),
                    key=lambda t: t[::-1])
    idx = np.array(tuples, dtype=np.int64).reshape(len(tuples), k)
    stats = np.zeros((len(ev.feats), len(tuples)))
    weights = np.ones((len(ev.wfeats), len(tuples)), dtype=ev.wfeats.dtype)
    run = np.zeros(len(tuples), dtype=np.int32)
    denom = np.ones(len(tuples))
    for i in range(k):
        stats = stats + ev.feats[:, idx[:, i]]
        weights = weights * ev.wfeats[:, idx[:, i]]
        same = idx[:, i] == idx[:, i - 1] if i else np.zeros(len(tuples), dtype=bool)
        run = np.where(same, run + 1, 1).astype(np.int32)
        denom *= run
    last = idx[:, -1] if k else np.full(1, -1, dtype=np.int64)
    return symmetric._Level(stats, weights, run, denom), last


@pytest.fixture(scope="session")
def reference_levels():
    """_reference_level, built once a session for each field and level:
    the six- and seven-mode tile cases share their fields, and the
    six-mode final level is the seven-mode penultimate one."""
    cache = {}

    def level(ev, k):
        key = (ev.feats.tobytes(), ev.wfeats.tobytes(), k)
        if key not in cache:
            cache[key] = _reference_level(ev, k)
        return cache[key]

    return level


def _tile_ranges(ev):
    """(lo, hi, iv, tile) for each of ev's tiles in summation order: tile,
    a copy (the evaluator writes every tile into one buffer), holds the
    multisets that extend penultimate rows lo:hi by value index iv, their
    largest value, whose block holds the tile's first row."""
    from tcmsim import symmetric

    ends = symmetric._block_ends(ev.n_values, ev.mode_count)
    at, out = 0, []
    for tile in ev._tiles():
        iv = int(np.searchsorted(ends, at, side="right"))
        lo = at - (int(ends[iv - 1]) if iv else 0)
        copy = symmetric._Level(tile.stats.copy(), tile.weights.copy(), tile.run.copy(),
                                tile.denom.copy())
        out.append((lo, lo + tile.size, iv, copy))
        at += tile.size
    return out


def _base_ranges(last, lo, hi):
    """(a, b) for each penultimate block that rows lo:hi meet, given the
    penultimate rows' largest values last: its rows there extend rows a:b
    of the (m - 2)-level."""
    for jv in np.unique(last[lo:hi]):
        first = int(np.searchsorted(last, jv))
        end = int(np.searchsorted(last, jv, side="right"))
        yield max(lo, first) - first, min(hi, end) - first


@pytest.mark.parametrize("m, chunk_elements", [
    pytest.param(2, 7, id="2"), pytest.param(3, 7, id="3"), pytest.param(4, 7, id="4"),
    pytest.param(5, 7, id="5"), (6, 7), (6, 40), (7, 7), (7, 40)])
def test_symmetric_tiles_equal_extended_penultimate_level(m, chunk_elements, monkeypatch,
                                                          reference_levels):
    from tcmsim import symmetric
    from tcmsim.fock_field import custom_field

    _set_tile(monkeypatch, chunk_elements)
    amps = np.array([0.3, -0.5j, 0.4 + 0.2j, -0.6, 0.1j, 0.25 - 0.35j])
    # the window reaches n = 0: real weights, complex x2 frequencies; six
    # or seven modes take a narrower coherent window and a longer custom
    # one, whose penultimate block 8 is the first that starts off the
    # 7-row tile grid at m = 7
    width, epsilon = (4.0, 1e-8) if m < 6 else (1.0, 0.05)
    if m >= 6:
        amps = np.concatenate((amps, [0.2, -0.15j, 0.1 + 0.05j]))
    fields = [
        coherent_field(1.5, sigma_width=width, coverage_epsilon=epsilon),
        custom_field(amps / np.linalg.norm(amps)),
    ]
    crossed = False
    for field, dtype in zip(fields, (float, complex)):
        ev = symmetric.SymmetricLiteralEvaluator(field, m)
        assert ev.wfeats.dtype == dtype
        penultimate, last = reference_levels(ev, m - 1)
        final, _ = reference_levels(ev, m)
        ends = symmetric._block_ends(ev.n_values, m)
        tiles = _tile_ranges(ev)
        # the tiles cover every block in order, some start inside a
        # penultimate block and some span several
        covered = [(lo, hi) for lo, hi, iv, _ in tiles if iv == ev.n_values - 1]
        assert covered[0][0] == 0 and covered[-1][1] == penultimate.size
        assert sum(hi - lo for lo, hi, _, _ in tiles) == math.comb(ev.n_values + m - 1, m)
        if m > 2:
            assert any(last[lo - 1] == last[lo] for lo, _, _, _ in tiles if lo > 0)
        assert any(np.unique(last[lo:hi]).size > 1 for lo, hi, _, _ in tiles)
        # does a tile read held (m - 2)-rows and write the rest of the same
        # block's rows from the floor level?
        cut = ev._held[m - 2].size
        crossed |= any(a < cut < b for lo, hi, _, _ in tiles
                       for a, b in _base_ranges(last, lo, hi))
        for lo, hi, iv, tile in tiles:
            # penultimate rows lo:hi extended by iv: the final level's rows
            # from block iv's first row + lo
            first = int(ends[iv - 1]) if iv else 0
            rows = slice(first + lo, first + hi)
            assert np.array_equal(tile.run, final.run[rows])
            assert tile.stats.dtype == final.stats.dtype
            assert np.array_equal(tile.stats, final.stats[:, rows])
            assert tile.weights.dtype == final.weights.dtype == dtype
            assert np.array_equal(tile.weights, final.weights[:, rows])
            assert tile.denom.dtype == final.denom.dtype
            assert np.array_equal(tile.denom, final.denom[rows])
        # a second pass writes the same tiles
        for (_, _, _, tile), (_, _, _, again) in zip(tiles, _tile_ranges(ev)):
            for name in ("stats", "weights", "run", "denom"):
                assert np.array_equal(getattr(again, name), getattr(tile, name)), name
        gts = np.linspace(0.0, 6.0, 13)
        assert np.array_equal(ev.raw_densities(gts),
                              np.stack([ev.raw_densities([g])[0] for g in gts]))
    assert crossed or m < 6


def test_assemble_validation():
    fields = [coherent_field(1.0)]
    with pytest.raises(ConfigurationError):
        closed_form_series(fields, [1.0], "bogus")
    with pytest.raises(ConfigurationError):
        closed_form_series(fields, [-1.0], CONSISTENT)


@pytest.mark.parametrize("route, names", [
    (SingleModeLiteral, ("coherent-n0",)), (SingleModeLiteral, ("custom",)),
    (SingleModeConsistent, ("coherent-9",)), (SingleModeConsistent, ("custom",)),
    (ProductLiteral, ("coherent-n0", "custom")),
    (ProductLiteral, ("coherent-n0", "coherent-9", "fock-3")),
    (ConsistentBlocks, ("coherent-9", "fock-3")), (ConsistentBlocks, ("custom", "custom")),
], ids=lambda v: "+".join(v) if isinstance(v, tuple) else v.__name__)
def test_anchored_vectors_match_add_at_accumulation(route, names):
    from test_golden_digests import _fields as golden_fields

    from tcmsim.closed_form import extended_window

    catalogue = golden_fields()
    fields = [catalogue[n] for n in names]
    built = (route(fields[0]) if route in (SingleModeLiteral, SingleModeConsistent)
             else route(fields))
    # the anchors, one row per anchor in C order: the summation windows in
    # literal mode, the initial windows in consistent mode
    literal = route in (SingleModeLiteral, ProductLiteral)
    anchors = [range(max(0, f.window.n_min - 2) if literal else f.window.n_min,
                     f.window.n_max + 1) for f in fields]
    rows = np.array(list(itertools.product(*anchors)))
    windows = [extended_window(f.window) for f in fields]
    shape = tuple(w.size for w in windows)
    flat = np.ravel_multi_index(tuple((rows - [w.n_min for w in windows]).T), shape)
    gts = np.array([0.0, 0.45, 2.7])
    amps = amplitudes(built, gts)
    assert amps.shape == (gts.size, 4, len(rows))
    ref = np.zeros((gts.size, 4, math.prod(shape)), dtype=complex)
    np.add.at(ref, (slice(None), slice(None), flat), amps)
    assert _same_bits(anchored_vectors(built, gts), ref)
    assert _same_bits(built.raw_densities(gts), contract(ref))


@pytest.mark.parametrize("route", [SingleModeLiteral, SingleModeConsistent, ProductLiteral,
                                   ConsistentBlocks], ids=lambda v: v.__name__)
def test_branch_amplitudes_write_into_the_out_they_are_given(route):
    # raw_densities hands each route the contraction's second stack: the
    # amplitudes go there, and nowhere new
    fields = [coherent_field(1.5), coherent_field(2.0)]
    built = (route(fields[0]) if route in (SingleModeLiteral, SingleModeConsistent)
             else route(fields))
    gts = np.array([0.0, 0.45, 2.7])
    out = np.full((gts.size, 4, built.anchors), np.nan, dtype=complex)
    assert built.branch_amplitudes(gts, out) is out
    assert np.isfinite(out).all()
    assert _same_bits(out, amplitudes(built, gts))


@pytest.mark.parametrize("fields", [[coherent_field(2.0)] * 2,
                                    [coherent_field(1.5), coherent_field(4.0)],
                                    [coherent_field(1.0)] * 3])
def test_consistent_anchored_vectors_match_add_at_accumulation(fields):
    from tcmsim.closed_form import extended_window

    blocks = ConsistentBlocks(fields)
    m = len(fields)
    windows = [extended_window(f.window) for f in fields]
    shape = tuple(w.size for w in windows)
    flat = np.ravel_multi_index(
        tuple((blocks.configs - [w.n_min for w in windows]).T), shape)
    for gt in (0.0, 0.45, 2.7):
        # the anchored arrays as np.add.at on zeros builds them, in cascade
        # order (aa; ab and ba per mode; bb per pair)
        amps = block_amplitudes(blocks, gt) * blocks.weights[:, None]
        ref = np.zeros((4, int(np.prod(shape))), dtype=complex)
        np.add.at(ref[0], flat, amps[:, 0])
        for k in range(m):
            half = amps[:, 1 + k] * (1.0 / math.sqrt(2.0))
            np.add.at(ref[1], flat, half)
            np.add.at(ref[2], flat, half)
        for pi in range(len(blocks.pairs)):
            np.add.at(ref[3], flat, amps[:, 1 + m + pi])
        vectors = anchored_vectors(blocks, [gt])[0]
        assert _same_bits(vectors, ref)

        rho, deficit = normalize(blocks.raw_densities([gt]))
        rho_ref, deficit_ref = normalize(contract(ref)[None])
        assert _same_bits(rho, rho_ref)
        assert deficit == deficit_ref


def test_consistent_observables_match_assembled_densities():
    from tcmsim import eof
    from tcmsim.pipeline import observables

    fields = [coherent_field(1.5), coherent_field(3.0)]
    gts = np.linspace(0.0, 5.0, 41)
    series = closed_form_series(fields, gts, CONSISTENT)
    blocks = ConsistentBlocks(fields)
    for i, gt in enumerate(gts):
        # the grid's observables equal those of the one-gt density
        one = observables(blocks.raw_densities([gt]))
        w, c = float(one["W"][0]), float(one["concurrence"][0])
        assert (series["W"][i], series["concurrence"][i], series["eof"][i]) == (w, c, eof(c))
        assert series["norm_deficit"][i] == one["norm_deficit"][0]


@pytest.mark.parametrize("m", [3, 4])
def test_penultimate_level_equals_concatenated_blocks(m, reference_levels):
    from tcmsim import symmetric

    field = coherent_field(2.0, sigma_width=4.0, coverage_epsilon=1e-8)
    ev = symmetric.SymmetricLiteralEvaluator(field, m)
    # reference: each level by brute force, its blocks in colex order
    levels = [reference_levels(ev, k)[0] for k in range(m)]
    level = levels[m - 1]
    built = ev._write(m - 1, 0, level.size)
    assert built.size == level.size == math.comb(ev.n_values + m - 2, m - 1)
    for i in range(len(ev.feats)):
        assert np.array_equal(built.stats[i], level.stats[i]), i
    assert built.weights.shape == level.weights.shape
    for i in range(len(ev.wfeats)):
        assert built.weights[i].dtype == level.weights[i].dtype
        assert np.array_equal(built.weights[i], level.weights[i])
    for name in ("run", "denom"):
        assert getattr(built, name).dtype == getattr(level, name).dtype
        assert np.array_equal(getattr(built, name), getattr(level, name))
    # the evaluator holds the (m - 3)-level and the first TILE_MULTISETS
    # rows of the (m - 2)-level and of the penultimate level
    prefix = min(symmetric.TILE_MULTISETS, levels[m - 2].size)
    floor, head, tail = ev._held[m - 3], ev._held[m - 2], ev._held[m - 1]
    assert tail.size == min(symmetric.TILE_MULTISETS, level.size)
    for name in ("stats", "weights", "run", "denom"):
        got, want = getattr(tail, name), getattr(level, name)[..., :tail.size]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for stored, ref in ((floor, levels[m - 3]), (head, levels[m - 2])):
        assert stored.size == min(ref.size, prefix if stored is head else ref.size)
        for name in ("stats", "weights", "run", "denom"):
            got, want = getattr(stored, name), getattr(ref, name)[..., :stored.size]
            assert got.dtype == want.dtype and np.array_equal(got, want), name

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tcmsim import NumericalFailureError, coherent_field, fock_field
from tcmsim.closed_form import SingleModeConsistent, SingleModeLiteral
from tcmsim.pipeline import observables
from tcmsim import pipeline, reduced_density
from tcmsim.reduced_density import DensityContraction, normalize


def contract(vectors, weights=None):
    """The unnormalized densities of (..., 4, N) branch vectors, one per
    leading index, from a DensityContraction over them as a grid."""
    vectors = np.asarray(vectors, dtype=complex)
    grid = vectors.reshape(-1, 4, vectors.shape[-1])
    contraction = DensityContraction(len(grid), grid.shape[-1], 0)
    for chunk, a, _ in contraction.chunks(grid.shape[-1]):
        a[...] = grid[chunk]
        contraction.add(chunk, a, weights)
    return contraction.raw.reshape(*vectors.shape[:-2], 4, 4)


def amplitudes(route, gts):
    """An anchored route's (G, 4, n_anchors) branch amplitudes at gts,
    written into a new array."""
    gts = np.asarray(gts, dtype=float)
    return route.branch_amplitudes(gts, np.empty((gts.size, 4, route.anchors), dtype=complex))


def anchored_vectors(route, gts):
    """An anchored route's (G, 4, layout size) anchored vectors at gts,
    evaluated through two new stacks as raw_densities' chunks are."""
    gts = np.asarray(gts, dtype=float)
    out, scratch = np.empty((2, gts.size, 4, route.width), dtype=complex)
    return route.anchored_vectors(gts, out, scratch)


def density(raw):
    """One unnormalized matrix normalized and checked as a stack of one:
    the density matrix and its norm deficit."""
    rho, deficit = normalize(np.asarray(raw)[None])
    return rho[0], deficit[0]


def consistent_density(gt, field):
    """The single-mode consistent density at gt and its norm deficit."""
    return density(SingleModeConsistent(field).raw_densities([gt])[0])


def test_gt0_density_is_pure_aa():
    rho, deficit = consistent_density(0.0, coherent_field(3.0))
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-14)
    assert abs(deficit) < 1e-10


def test_vacuum_point_density():
    gt = math.pi / math.sqrt(6)
    rho, _ = consistent_density(gt, fock_field(0))
    assert rho[0, 0] == pytest.approx(1 / 9, abs=1e-12)
    assert rho[3, 3] == pytest.approx(8 / 9, abs=1e-12)
    assert rho[0, 3] == pytest.approx(-2 * math.sqrt(2) / 9, abs=1e-12)


def test_density_invariants():
    m, _ = consistent_density(2.2, coherent_field(4.0))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_rank_one_for_single_anchor():
    eig = np.sort(np.linalg.eigvalsh(consistent_density(1.3, fock_field(2))[0]))
    assert eig[-2] <= 1e-10


def test_global_phase_invariance():
    vectors = anchored_vectors(SingleModeConsistent(coherent_field(2.0)), [1.8])[0]
    rho, _ = density(contract(vectors))
    rho2, _ = density(contract(vectors * np.exp(0.83j)))
    assert np.allclose(rho, rho2, atol=1e-13)


def test_zero_norm_raises():
    with pytest.raises(NumericalFailureError):
        density(contract(np.zeros((4, 3), dtype=complex)))


def test_density_validation():
    with pytest.raises(NumericalFailureError):
        density(np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex))


def test_non_finite_density_raises():
    overflowed = np.diag([np.inf, 0.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(NumericalFailureError, match="non-finite"):
        density(overflowed)
    nan = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    nan[1, 2] = nan[2, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="non-finite"):
        density(nan)


def test_a_trace_dwarfed_by_its_coherences_is_a_non_finite_density():
    # dividing the 1e10 coherences by a trace of 2e-300 overflows: the
    # density check reports it, and numpy warns of nothing
    raw = np.diag([1e-300, 1e-300, 0.0, 0.0]).astype(complex)
    raw[0, 1] = raw[1, 0] = 1e10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: normalize(raw[None]), lambda: observables(raw[None])):
            with pytest.raises(NumericalFailureError,
                               match="^density matrix has non-finite entries$"):
                call()


@st.composite
def raw_stacks(draw):
    """(G, 4, 4) unnormalized stacks of 1 to 40 matrices, each scaled by
    10^k for k in [-300, 300]: arbitrary complex entries in the unit square,
    whose diagonal real parts are replaced by a nonnegative draw plus the
    off-diagonal moduli of their row and column, so that the symmetrized
    matrix is diagonally dominant and passes the eigenvalue check."""
    g = draw(st.integers(min_value=1, max_value=40))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    raw = (draw(arrays(float, (g, 4, 4), elements=unit))
           + 1j * draw(arrays(float, (g, 4, 4), elements=unit)))
    diagonal = np.arange(4)
    moduli = np.abs(raw)
    moduli[:, diagonal, diagonal] = 0.0
    dominance = 0.5 * (moduli.sum(axis=-1) + moduli.sum(axis=-2))
    extra = draw(arrays(float, (g, 4), elements=st.floats(min_value=0.0, max_value=1.0)))
    raw[:, diagonal, diagonal] = dominance + extra + 1j * raw[:, diagonal, diagonal].imag
    scale = 10.0 ** draw(arrays(np.int64, g, elements=st.integers(-300, 300)))
    return raw * scale[:, None, None]


@settings(max_examples=200, deadline=None)
@given(raws=raw_stacks())
# a subnormal trace, whose reciprocal overflows
@example(raws=np.diag([5e-324] * 4).astype(complex)[None])
@example(raws=np.diag([3e-310, 1e-320, 0.0, 0.0]).astype(complex)[None])
def test_normalized_densities_are_exactly_hermitian_with_unit_trace(raws):
    # the checks normalize no longer makes: its densities equal their
    # adjoints exactly (a zero's sign aside), and their traces are real and
    # within 8 ulps of 1
    assume(np.all(np.trace(raws, axis1=-2, axis2=-1).real > 0.0))
    rho, _ = normalize(raws)
    assert np.array_equal(rho, np.conj(np.swapaxes(rho, -1, -2)))
    trace = np.trace(rho, axis1=-2, axis2=-1)
    assert np.all(trace.imag == 0.0)
    assert np.max(np.abs(trace.real - 1.0)) <= 8 * np.finfo(float).eps


def test_literal_norm_deficit_recorded():
    vectors = anchored_vectors(SingleModeLiteral(coherent_field(5.0)), [1.5])[0]
    _, deficit = density(contract(vectors))
    total_norm = np.sum(np.abs(vectors) ** 2)
    assert deficit == pytest.approx(1.0 - total_norm, abs=1e-12)


def _failure(fn):
    with pytest.raises(NumericalFailureError) as info:
        fn()
    return str(info.value)


def test_stack_fails_at_its_first_failing_matrix():
    # one failing matrix in a stack raises the message a stack of one
    # raises for it; of several, the first check that fails decides, at its
    # first failing gt, whatever the gts of the others
    good = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    negative = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
    overflowed = np.diag([np.inf, 0.0, 0.0, 1.0]).astype(complex)
    zero = np.zeros((4, 4), dtype=complex)
    for bad in (negative, overflowed, zero):
        single = _failure(lambda: density(bad))
        assert _failure(lambda: observables(bad[None])) == single
        assert _failure(lambda: observables(np.stack([good, good, bad, good]))) == single
        # normalize's non-finite check runs first: the overflow at gt 5
        # is reported ahead of any failure at gt 2
        stack = np.stack([good, good, bad, good, negative, overflowed, zero])
        assert _failure(lambda: observables(stack)) == _failure(lambda: density(overflowed))
    # the zero norm (normalize) is found before the negative eigenvalue
    # (validate) of an earlier gt
    stack = np.stack([good, negative, good, zero])
    assert _failure(lambda: observables(stack)) == _failure(lambda: density(zero))


def test_stack_fails_at_its_first_failing_matrix_across_blocks():
    # the observables take BLOCK_GTS gts at a time, but a failing block
    # sends the whole stack through the checks: the overflow in the last
    # block is reported ahead of the zero trace in block 1 and the negative
    # eigenvalue in block 0, as within one block, and without it the zero
    # trace is
    block = pipeline.BLOCK_GTS
    good = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    negative = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
    overflowed = np.diag([np.inf, 0.0, 0.0, 1.0]).astype(complex)
    zero = np.zeros((4, 4), dtype=complex)
    stack = np.stack([good] * (2 * block + 7))
    stack[3], stack[block + 2], stack[2 * block + 4] = negative, zero, overflowed
    assert _failure(lambda: observables(stack)) == _failure(lambda: density(overflowed))
    stack[2 * block + 4] = good
    assert _failure(lambda: observables(stack)) == _failure(lambda: density(zero))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("gts_per_chunk", [1, 3, 64])
def test_contraction_is_the_weighted_pairing_of_each_gt(weighted, gts_per_chunk, monkeypatch):
    # raw[g] = sum_f w_f a[g, :, f] conj(a[g, :, f]), one gt at a time,
    # whatever the chunk: a budget below one gt's stacks still takes one
    rng = np.random.default_rng(7)
    a = rng.normal(size=(10, 4, 23)) + 1j * rng.normal(size=(10, 4, 23))
    weights = rng.uniform(0.5, 2.0, size=23) if weighted else None
    monkeypatch.setattr(reduced_density, "CHUNK_BYTES",
                        reduced_density.stack_bytes(23) * gts_per_chunk - 1)
    assert reduced_density.chunk_gts(23) == max(1, gts_per_chunk - 1)
    raw = contract(a, weights)
    w = np.ones(23) if weights is None else weights
    ref = np.einsum("f,gbf,gcf->gbc", w, a, a.conj())
    assert np.max(np.abs(raw - ref)) <= 1e-13 * np.max(np.abs(ref))
    single = np.stack([contract(v, weights) for v in a])
    assert raw.dtype == single.dtype and raw.tobytes() == single.tobytes()


@pytest.mark.parametrize("width", [1, 2, 12_287, 12_288, 12_289, 10 ** 5, 10 ** 6])
def test_contraction_allowance_holds_every_chunk_working_set(width):
    # a chunk's stacks, its gts' (4, 4) products (256 bytes each), the
    # evaluation temporaries (96 bytes a gt and column) and the one-mode
    # oracle's shift (16), over the most gts and columns a chunk holds:
    # 12,288, or one gt's width
    columns = max(12_288, width)
    held = (max(reduced_density.CHUNK_BYTES, reduced_density.stack_bytes(width))
            + 256 * reduced_density.chunk_gts(width) + (96 + 16) * columns)
    assert reduced_density.contraction_bytes(width) >= held

"""Two-atom reduced density matrices obtained by tracing out the field.

Densities are normalized and checked in one pass (normalize) over
(G, 4, 4) stacks, one matrix per gt; a single matrix is a stack of one.
Each check runs on the whole stack it is given, and a stack fails at the
first check that fails, at that check's first failing gt
(raise_at_first).  Every check acts on each matrix alone, so the
observables give it a grid a block of gts at a time, and a failing
block's whole grid again, and report what one pass would.  This
module also decides what an evaluation takes in: every evaluator's grid
passes check_grid and every route's bytes check_memory, and each route
contracts its branch amplitudes into such a stack with
DensityContraction, under one chunk budget.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericalFailureError

PSD_TOL = 1e-10


def check_grid(gts, increasing: bool = False) -> np.ndarray:
    """gts as a 1-D float array; a grid of more dimensions, NaN, infinite
    and negative values and, where increasing is set, a grid that is not
    strictly increasing are configuration errors.  Every evaluator's grid
    passes through here."""
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    if gts.ndim != 1:
        raise ConfigurationError(f"gt grid must be one-dimensional, got shape {gts.shape}")
    bad = ~(np.isfinite(gts) & (gts >= 0.0))
    if bad.any():
        raise ConfigurationError(
            f"gt must be finite and nonnegative, got {gts[bad][0]}")
    if increasing and np.any(np.diff(gts) <= 0):
        raise ConfigurationError("gt grid must be strictly increasing")
    return gts


def raise_at_first(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise NumericalFailureError(message(i)) for the first gt i that bad
    flags, if any."""
    if bad.any():
        raise NumericalFailureError(message(int(np.argmax(bad))))


def check_finite(raws: np.ndarray) -> np.ndarray:
    """A (G, 4, 4) unnormalized stack as a complex array; a stack with a
    non-finite entry fails at its first such gt."""
    raw = np.asarray(raws, dtype=complex)
    raise_at_first(~np.isfinite(raw).all(axis=(-2, -1)), lambda i: (
        "unnormalized density matrix has non-finite entries: the amplitude "
        "sums overflowed"))
    return raw


def normalize(raws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The density matrices of a (G, 4, 4) unnormalized stack, Hermitian-
    symmetrized and divided by their traces, and their norm deficits (1
    minus the trace before normalization).  The checks run in order:
    finite entries (check_finite), a positive trace, finite densities, and
    no eigenvalue below -PSD_TOL.  The symmetrized stack is exactly
    Hermitian with a real trace, and the division keeps both, for subnormal
    traces too; overflows are left to the density check, without numpy
    warnings."""
    raw = check_finite(raws)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = 0.5 * (raw + np.conj(np.swapaxes(raw, -1, -2)))
        trace = np.trace(raw, axis1=-2, axis2=-1).real
        raise_at_first(trace <= 0.0, lambda i: "amplitude set has zero total norm")
        # numpy divides by a real trace through its reciprocal, which
        # overflows below 2^-1024: a matrix whose trace is below 2^-1000 is
        # first scaled, exactly, by the power of two that brings its trace
        # into [0.5, 1); every other matrix is divided as it stands
        _, shift = np.frexp(trace)
        shift[trace >= 2.0 ** -1000] = 0
        parts = np.ascontiguousarray(raw).view(float)
        rho = (np.ldexp(parts, -shift[:, None, None]).view(complex)
               / np.ldexp(trace, -shift)[:, None, None])
    raise_at_first(~np.isfinite(rho).all(axis=(-2, -1)),
                   lambda i: "density matrix has non-finite entries")
    try:
        lo = np.linalg.eigvalsh(rho).min(axis=-1, initial=np.inf)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"density matrix eigenvalues: {exc}") from exc
    raise_at_first(lo < -PSD_TOL, lambda i: (
        f"density matrix has negative eigenvalue {lo[i]:.3e} beyond tolerance"))
    return rho, 1.0 - trace


# the most memory a route may hold, in bytes: a quarter of an 8 GB host.
# Every route states the bytes it holds per configuration, multiset or
# sector entry, from the dtypes and shapes it allocates, and check_memory
# refuses an input from those counts before the allocation they guard
MEMORY_BUDGET_BYTES = 2 << 30


def check_memory(nbytes: int, what: str) -> None:
    """Raise a ConfigurationError naming what when nbytes, the memory it
    needs, exceed MEMORY_BUDGET_BYTES."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise ConfigurationError(
            f"{what} need {nbytes} bytes, beyond the memory budget of "
            f"{MEMORY_BUDGET_BYTES} bytes; reduce the windows, the mean or the mode count")


# the most bytes a density contraction's two stacks hold for one chunk of
# gts: one gt's stacks of width 12,288, 1.5 symmetric tiles of 8,192
CHUNK_BYTES = 3 * 64 * 8192
# the grid's own output per gt, beside what its route states: the complex
# (4, 4) unnormalized density (256), the float64 norm the oracle returns
# with it (8) and the five float64 columns of its series (40): gt, W,
# concurrence, eof and norm_deficit or norm_drift.  The observables'
# temporaries are one block's (pipeline.BLOCK_GTS), whatever the grid
GRID_GT_BYTES = 256 + 8 + 5 * 8


def stack_bytes(width: int) -> int:
    """One gt's two complex (4, width) stacks: the amplitudes and their
    conjugates."""
    return 2 * 64 * width


def chunk_gts(width: int) -> int:
    """The most gts whose stacks fit CHUNK_BYTES, and never fewer than one."""
    return max(1, CHUNK_BYTES // stack_bytes(width))


def contraction_bytes(width: int) -> int:
    """What a DensityContraction of this width, or narrower chunks, holds
    while its route fills it: twice its stacks and two CHUNK_BYTES more.
    A chunk of width w >= 12,288 (one gt) holds 128 w of stacks, at most
    96 w of evaluation temporaries, 16 w for the one-mode oracle's shift
    and one 256-byte product, under 256 w; a narrower one holds
    CHUNK_BYTES of stacks, 0.75 CHUNK_BYTES of temporaries (96 bytes a gt
    and column, 12,288 of them) and at most 2 CHUNK_BYTES of products
    (12,288 gts of 256 bytes), under 4 CHUNK_BYTES."""
    return 2 * max(CHUNK_BYTES, stack_bytes(width)) + 2 * CHUNK_BYTES


class DensityContraction:
    """Unnormalized densities raw[g] = sum_f w_f a[g, :, f] a[g, :, f]^H of
    a grid's (4, width) branch amplitudes, a chunk of gts at a time:
    raw[chunk] += (w a) @ conj(a)^T, with no w when unweighted.  The stacks
    are allocated once, for chunks of this width or narrower: reallocated
    per chunk, their pages are handed back and faulted in again.  Each gt
    is its own product, so no bit depends on the chunk; raw starts at
    zeros, so a -0.0 entry adds up to +0.0.

    stated is what the route says it holds beside the grid's output; the
    two are checked against the memory budget before raw is allocated."""

    def __init__(self, size: int, width: int, stated: int):
        check_memory(stated + GRID_GT_BYTES * size, f"a grid of {size} gts and its route")
        self.raw = np.zeros((size, 4, 4), dtype=complex)
        entries = min(size * 4 * width, max(CHUNK_BYTES, stack_bytes(width)) // 32)
        self._stacks = np.empty((2, entries), dtype=complex)

    def chunks(self, width: int):
        """Yield each chunk's gts slice, its (gts, 4, width) stack to fill,
        and the second, free until add() conjugates into it."""
        step, size = chunk_gts(width), len(self.raw)
        for start in range(0, size, step):
            g = min(step, size - start)
            yield slice(start, start + g), *self._stacks[:, :g * 4 * width].reshape(2, g, 4, width)

    def add(self, chunk: slice, a: np.ndarray, weights: np.ndarray | None = None) -> None:
        """raw[chunk] += (weights a) @ conj(a)^T, weighting a in place;
        overflows are left to the density's non-finite check."""
        conj = np.conjugate(a, out=self._stacks[1, :a.size].reshape(a.shape))
        if weights is not None:
            np.multiply(weights, a, out=a)
        with np.errstate(over="ignore", invalid="ignore"):
            self.raw[chunk] += a @ conj.transpose(0, 2, 1)

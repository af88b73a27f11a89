"""Permutation-symmetric fast path for the literal multimode observables.

When every mode carries the same distribution, the literal amplitudes
depend on a configuration only through additive per-mode statistics, and
the joint weight is permutation invariant.  Summations over the full
Cartesian product of windows then collapse to sums over occupation
multisets weighted by their permutation multiplicity, which is what makes
mode counts up to six tractable.

Multisets are enumerated level by level as nondecreasing tuples: each level
extends every partial tuple by all values not below its last entry, and all
the statistics, weight products, and multiplicity denominators are carried
along as stacked numpy arrays, so no per-configuration Python loop runs.

Only the (m - 3)-level is stored, with the first CHUNK_ELEMENTS rows of the
(m - 2)-level (the prefix); the last three levels are built one tile at a
time.  A tile is at most CHUNK_ELEMENTS of the multisets that share their
largest value (a block), and each of its multisets extends a penultimate
tuple, which in turn extends an (m - 2)-tuple.  Every penultimate block
starts with the (m - 2)-level's first rows, so the tile's penultimate rows
are read from the prefix where it reaches; the rest of their (m - 2)-rows
are first written into a tile-sized buffer from the stored level, block by
block.  Block offsets are binomial coefficients, so no larger level is
ever held.  Each row is extended by the same operations as if every level
were stored, and the sums run in the same order, so every bit is the
same.  Each tile's gt-independent terms
(frequencies and coefficients, closed_form.LiteralTerms) are built once per
call, and only the cosines, sines and the density contraction run per gt,
over chunks of at most CHUNK_ELEMENTS amplitudes, so the working set stays
the same size whatever the mode count.  Tile boundaries depend only on the
block, never on the gt grid, so a grid call and single-gt calls sum the
same terms in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import LiteralTerms, literal_features
from .errors import ConfigurationError
from .fock_field import FieldDistribution, check_memory

# bounds the evaluation time
MAX_MULTISETS = 100_000_000
# multisets per tile, and amplitudes evaluated at once: gts per chunk x tile size
CHUNK_ELEMENTS = 8192
# the bytes raw_densities holds per tile element beside four level rows
# (the prefix, a tile's penultimate rows, their base rows and the tile):
# the three complex work stacks of four branches (3 x 4 x 16); the tile's
# LiteralTerms, its four float64 and two complex rows (64), an int64 index
# and three complex rows where x2's frequency is complex (56), seven
# float64 build temporaries and two complex ones (88); its float64
# multiplicities (8); and the chunk's float64 and complex temporaries
# (cosines, sines and the tiled complex-frequency terms: 8 x 16)
TILE_ELEMENT_BYTES = 3 * 4 * 16 + 64 + 56 + 88 + 8 + 8 * 16


class _Level:
    """All nondecreasing j-tuples over the value range, as parallel arrays,
    ordered by their last value."""

    def __init__(self, stats, weights, last, run, denom):
        self.stats = stats        # (9, size) float: literal_features' statistic rows
        self.weights = weights    # (3, size) factor rows, real or complex
        self.last = last          # index of the largest (= final) value
        self.run = run            # length of the trailing equal-value run
        self.denom = denom        # product of factorials of completed counts
        self.size = last.size

    @classmethod
    def empty(cls, size: int, feats, weights) -> _Level:
        """size uninitialized rows shaped like the per-value table's."""
        return cls(stats=np.empty((len(feats), size)),
                   weights=np.empty((len(weights), size), dtype=weights.dtype),
                   last=np.empty(size, dtype=np.int64),
                   run=np.empty(size, dtype=np.int32),
                   denom=np.empty(size))


def _level_zero(feats, weights) -> _Level:
    """The empty tuple: zero statistics, unit weights, no last value."""
    return _Level(stats=np.zeros((len(feats), 1)),
                  weights=np.ones((len(weights), 1), dtype=weights.dtype),
                  last=np.full(1, -1, dtype=np.int64),
                  run=np.zeros(1, dtype=np.int32),
                  denom=np.ones(1))


def _extend_rows(level: _Level, lo: int, hi: int, iv: int, feats, weights,
                 out: _Level | None = None, at: int = 0) -> _Level:
    """Extend rows lo:hi of level (all with last <= iv) by value index iv,
    writing them into out's rows from `at`, or into a new level."""
    if out is None:
        out = _Level.empty(hi - lo, feats, weights)
    end = at + hi - lo
    np.add(level.stats[:, lo:hi], feats[:, iv, None], out=out.stats[:, at:end])
    np.multiply(level.weights[:, lo:hi], weights[:, iv, None], out=out.weights[:, at:end])
    out.last[at:end] = iv
    # the rows already ending in iv come last; they lengthen their run
    tail = at + int(np.searchsorted(level.last[lo:hi], iv))
    out.run[at:tail] = 1
    np.add(level.run[lo + tail - at:hi], 1, out=out.run[tail:end])
    np.multiply(level.denom[lo:hi], out.run[at:end], out=out.denom[at:end])
    return out


def _next_level(level: _Level, n_values: int, feats, weights) -> _Level:
    """All nondecreasing tuples one entry longer than level's: for every
    value index iv, the rows with last <= iv extended by iv, written
    block after block into one preallocated level."""
    counts = np.searchsorted(level.last, np.arange(n_values), side="right").tolist()
    out = _Level.empty(sum(counts), feats, weights)
    start = 0
    for iv, prefix in enumerate(counts):
        _extend_rows(level, 0, prefix, iv, feats, weights, out, start)
        start += prefix
    return out


def _block_ends(n_values: int, k: int) -> np.ndarray:
    """The row after each block of the k-level (k >= 1): block v, the
    tuples whose largest value index is v, follows the comb(v + k - 1, k)
    tuples over smaller values and extends the (k - 1)-level's first
    comb(v + k - 1, k - 1) rows."""
    return np.array([math.comb(v + k, k) for v in range(n_values)], dtype=np.int64)


def _blocks(ends: np.ndarray, start: int, hi: int):
    """Yield (v, first, start, stop) for each block v that rows start:hi of
    a level with block ends `ends` meet: rows start:stop of the range lie in
    block v, whose first row is first."""
    v = int(np.searchsorted(ends, start, side="right"))
    while start < hi:
        first = int(ends[v - 1]) if v else 0
        stop = min(int(ends[v]), hi)
        yield v, first, start, stop
        start, v = stop, v + 1


class SymmetricLiteralEvaluator:
    """Unnormalized reduced density matrices (and their traces) of the
    literal multimode amplitude sums, for identical per-mode fields."""

    def __init__(self, field: FieldDistribution, mode_count: int):
        if mode_count < 2:
            raise ConfigurationError("the symmetric evaluator requires m >= 2")
        self.field = field
        self.mode_count = mode_count
        # real factors stay real when the field's amplitudes are
        self.feats, self.wfeats = literal_features(field)
        if not self.wfeats.imag.any():
            self.wfeats = self.wfeats.real.copy()
        self.n_values = self.feats.shape[1]
        total = math.comb(self.n_values + mode_count - 1, mode_count)
        if total > MAX_MULTISETS:
            raise ConfigurationError(
                f"{total} occupation multisets exceed the budget {MAX_MULTISETS}; "
                "reduce windows, coverage, or mode count")
        # the stored level and the one it is built from are the two largest
        # held at once; the tiles' working set comes on top
        top = mode_count - 3
        levels = range(max(top - 1, 0), max(top, 0) + 1)
        rows = sum(math.comb(self.n_values + k - 1, k) for k in levels)
        # a level row: the float64 statistics, the factors, the int64 last
        # value, the int32 run and the float64 denominator
        row = 8 * len(self.feats) + self.wfeats.itemsize * len(self.wfeats) + 8 + 4 + 8
        self.memory_bytes = (self.feats.nbytes + self.wfeats.nbytes + rows * row
                             + CHUNK_ELEMENTS * (4 * row + TILE_ELEMENT_BYTES))
        check_memory(self.memory_bytes,
                     f"the multiset levels {' and '.join(map(str, levels))} of {mode_count} "
                     f"modes over {self.n_values} values, {rows} rows,")
        level = _level_zero(self.feats, self.wfeats)
        for _ in range(max(top, 0)):
            level = _next_level(level, self.n_values, self.feats, self.wfeats)
        # the stored (m - 3)-level, and the first CHUNK_ELEMENTS rows of the
        # (m - 2)-level, with which every penultimate block starts; at m = 2
        # both are the empty tuple
        self._level = level
        if mode_count == 2:
            self._prefix = level
        else:
            self._base_ends = _block_ends(self.n_values, mode_count - 2)
            size = min(CHUNK_ELEMENTS, int(self._base_ends[-1]))
            self._prefix = _Level.empty(size, self.feats, self.wfeats)
            self._write_base(self._prefix, 0, size)
        # final block iv extends the penultimate rows up to the end of
        # penultimate block iv, so these ends are also the final block sizes
        self.block_sizes = _block_ends(self.n_values, mode_count - 1)

    def raw_densities(self, gts: np.ndarray) -> np.ndarray:
        """(len(gts), 4, 4) unnormalized density matrices: for every gt the
        multiplicity-weighted sum over multisets of the outer product of the
        branch amplitude vector (x1, -i x3, -i x3, x2).

        Multisets are taken in blocks that share their largest value, and
        each block in tiles of at most CHUNK_ELEMENTS multisets, generated
        from the stored levels (see _tiles).  Each tile's gt-independent
        terms are built once; its amplitudes are then evaluated a chunk of
        gts at a time and contracted one gt at a time, and every raw[g]
        sums the tiles in the same order, so every matrix is the same
        whatever the grid or chunking."""
        gts = np.atleast_1d(np.asarray(gts, dtype=float))
        raw = np.zeros((gts.size, 4, 4), dtype=complex)
        # the chunk's amplitude stacks, allocated once per call: freeing and
        # reallocating them per chunk lets the C allocator hand the pages
        # back and fault them in again on every chunk
        work = np.empty((3, 4 * CHUNK_ELEMENTS), dtype=complex)
        for _, _, _, tile in self._tiles():
            self._add_tile(raw, gts, tile, work)
        return raw

    def _tiles(self):
        """Yield (lo, hi, iv, tile) in summation order: tile holds the
        multisets that extend penultimate rows lo:hi by value index iv,
        their largest value.

        The penultimate rows are written into one buffer first, and the
        (m - 2)-rows they extend from beyond the prefix into another.  A
        tile starting at the same row as the one before reuses the rows
        already there, and only the rest are written: at m = 3 a block of a
        window of up to 127 values is one tile, so each block adds one
        penultimate block."""
        rows = _Level.empty(CHUNK_ELEMENTS, self.feats, self.wfeats)
        base = _Level.empty(CHUNK_ELEMENTS, self.feats, self.wfeats)
        held_lo = held_hi = 0     # rows holds penultimate rows held_lo:held_hi
        for iv, size in enumerate(self.block_sizes.tolist()):
            for lo in range(0, size, CHUNK_ELEMENTS):
                hi = min(lo + CHUNK_ELEMENTS, size)
                self._write_penultimate(rows, base, lo, held_hi if lo == held_lo else lo, hi)
                held_lo, held_hi = lo, hi
                yield lo, hi, iv, _extend_rows(rows, 0, hi - lo, iv, self.feats, self.wfeats)

    def _write_penultimate(self, rows: _Level, base: _Level, lo: int, start: int,
                           hi: int) -> None:
        """Write penultimate rows start:hi into rows from row start - lo.
        Penultimate block jv is the (m - 2)-level's first rows extended by
        jv: rows in the stored prefix are read from it, and the rest are
        first written into base from the stored (m - 3)-level."""
        cut = self._prefix.size
        for jv, first, begin, stop in _blocks(self.block_sizes, start, hi):
            a, b = begin - first, stop - first
            if a < cut:
                _extend_rows(self._prefix, a, min(b, cut), jv, self.feats, self.wfeats,
                             rows, begin - lo)
            if b > cut:
                a = max(a, cut)
                self._write_base(base, a, b)
                _extend_rows(base, 0, b - a, jv, self.feats, self.wfeats,
                             rows, first + a - lo)

    def _write_base(self, out: _Level, start: int, hi: int) -> None:
        """Write (m - 2)-level rows start:hi into out from row 0, one slice
        of the stored (m - 3)-level per block they meet."""
        for v, first, lo, stop in _blocks(self._base_ends, start, hi):
            _extend_rows(self._level, lo - first, stop - first, v, self.feats, self.wfeats,
                         out, lo - start)

    def _add_tile(self, raw: np.ndarray, gts: np.ndarray, tile: _Level,
                  work: np.ndarray) -> None:
        """Add one tile's multisets to raw."""
        m = self.mode_count
        mult = float(math.factorial(m)) / tile.denom
        terms = LiteralTerms(m, tile.stats, tile.weights)
        step = CHUNK_ELEMENTS // terms.size
        for start in range(0, gts.size, step):
            chunk = gts[start:start + step]
            shape = (chunk.size, 4, terms.size)
            size = math.prod(shape)
            amp = terms.branches(chunk, work[0, :size].reshape(shape))
            # one (4, size) @ (size, 4) product per gt; an overflow is
            # reported by the density's non-finite check
            with np.errstate(over="ignore", invalid="ignore"):
                raw[start:start + step] += (
                    np.multiply(mult, amp, out=work[1, :size].reshape(shape))
                    @ np.conjugate(amp, out=work[2, :size].reshape(shape)).transpose(0, 2, 1))

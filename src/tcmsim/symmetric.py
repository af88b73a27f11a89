"""Permutation-symmetric fast path for the literal multimode observables.

When every mode carries the same distribution, the literal amplitudes
depend on a configuration only through additive per-mode statistics and
the joint weight is permutation invariant, so the sums over the product of
windows collapse to sums over occupation multisets weighted by their
permutation multiplicity, which is what makes mode counts up to six
tractable.

Multisets are nondecreasing tuples in colex order, enumerated level by
level as stacked numpy arrays of statistics, weight products and
multiplicity denominators, with no per-configuration Python loop.  Block v
of level k (the tuples whose largest value index is v) is the (k - 1)-
level's first rows extended by v; block offsets are binomial coefficients.
One method, _write, writes any rows of any level: it reads the held rows
of the level below in place, and writes the rest into its output at the
rows they extend, extending them there.  Levels up to m - 3 are held
whole, and the (m - 2)- and (m - 1)-levels as their first TILE_MULTISETS
rows; a tile is at most TILE_MULTISETS rows of one block of the last
level, written one at a time into one buffer.  Each row is extended by
the same operations from the same source rows as if every level were
held, and the tiles depend only on the block, never on the gt grid, and
are summed in the same order, so a grid call and single-gt calls give
the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import LiteralTerms, literal_features
from .errors import ConfigurationError
from .fock_field import FieldDistribution
from .reduced_density import DensityContraction, check_grid, check_memory, contraction_bytes

# bounds the evaluation time
MAX_MULTISETS = 100_000_000
# multisets per tile: blocks larger than a tile are summed tile by tile,
# so this size is part of the summation order
TILE_MULTISETS = 8192


class _Level:
    """Nondecreasing j-tuples over the value range (a level, or rows of
    one), as parallel arrays, ordered by their last value."""

    def __init__(self, stats, weights, run, denom):
        self.stats = stats        # (9, size) float: literal_features' statistic rows
        self.weights = weights    # (3, size) factor rows, real or complex
        self.run = run            # length of the trailing equal-value run
        self.denom = denom        # product of factorials of completed counts
        self.size = run.size

    def __getitem__(self, rows: slice) -> _Level:
        """A view of the given rows."""
        return _Level(self.stats[:, rows], self.weights[:, rows], self.run[rows],
                      self.denom[rows])

    @classmethod
    def empty(cls, size: int, feats, weights) -> _Level:
        """size uninitialized rows shaped like the per-value table's."""
        return cls(stats=np.empty((len(feats), size)),
                   weights=np.empty((len(weights), size), dtype=weights.dtype),
                   run=np.empty(size, dtype=np.int32),
                   denom=np.empty(size))


def _level_zero(feats, weights) -> _Level:
    """The empty tuple: zero statistics, unit weights, an empty run."""
    return _Level(stats=np.zeros((len(feats), 1)),
                  weights=np.ones((len(weights), 1), dtype=weights.dtype),
                  run=np.zeros(1, dtype=np.int32),
                  denom=np.ones(1))


def _extend_rows(level: _Level, iv: int, tail: int, feats, weights, out: _Level) -> None:
    """Extend the rows of level (all with last value <= iv) by value index
    iv, writing them into out's first rows, which may be level's own.  The
    rows from tail on (none if tail is past the last, all if it is
    negative) already end in iv; they lengthen their run."""
    end = level.size
    tail = min(max(tail, 0), end)
    np.add(level.stats, feats[:, iv, None], out=out.stats[:, :end])
    np.multiply(level.weights, weights[:, iv, None], out=out.weights[:, :end])
    out.run[:tail] = 1
    np.add(level.run[tail:], 1, out=out.run[tail:end])
    np.multiply(level.denom, out.run[:end], out=out.denom[:end])


def _block_ends(n_values: int, k: int) -> np.ndarray:
    """The row after each block of the k-level: block v, the tuples whose
    largest value index is v, follows the comb(v + k - 1, k) tuples over
    smaller values and extends the (k - 1)-level's first comb(v + k - 1,
    k - 1) rows.  The 0-level's one row, the empty tuple, is block 0."""
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
        # the floor (m - 3)-level and the one it is built from are the two
        # largest levels held at once; three TILE_MULTISETS-row levels (the
        # (m - 2)- and (m - 1)-levels' held rows and the tile's buffer) and
        # the density contraction come on top, stated for tiles as narrow as
        # one multiset, whose chunks hold the most gts.  Its allowance also
        # holds the tile's terms, multiplicities and their build (216 bytes
        # a multiset): a tile of w multisets and its chunk hold at most
        # (1.75 + 2 / w + 1.125 w / 8192) CHUNK_BYTES, largest at w = 1 and
        # under 4 there
        floor = mode_count - 3
        levels = range(max(floor - 1, 0), max(floor, 0) + 1)
        rows = sum(math.comb(self.n_values + k - 1, k) for k in levels)
        # a level row: the float64 statistics, the factors, the int32 run
        # and the float64 denominator
        row = 8 * len(self.feats) + self.wfeats.itemsize * len(self.wfeats) + 4 + 8
        self.memory_bytes = (self.feats.nbytes + self.wfeats.nbytes + rows * row
                             + TILE_MULTISETS * 3 * row + contraction_bytes(1))
        check_memory(self.memory_bytes,
                     f"the multiset levels {' and '.join(map(str, levels))} of {mode_count} "
                     f"modes over {self.n_values} values, {rows} rows,")
        self._ends = [_block_ends(self.n_values, k) for k in range(mode_count + 1)]
        # held: every level up to the floor (each dropped once the next is
        # built) and the next two levels' first TILE_MULTISETS rows
        empty = _Level.empty(0, self.feats, self.wfeats)
        self._held = [_level_zero(self.feats, self.wfeats)] + [empty] * (mode_count - 1)
        for k in range(1, mode_count):
            size = int(self._ends[k][-1])
            whole = k <= floor
            self._held[k] = self._write(k, 0, size if whole else min(size, TILE_MULTISETS))
            if whole:
                self._held[k - 1] = empty
        self._tile = _Level.empty(TILE_MULTISETS, self.feats, self.wfeats)

    def raw_densities(self, gts: np.ndarray) -> np.ndarray:
        """(len(gts), 4, 4) unnormalized density matrices: for every gt the
        multiplicity-weighted sum over multisets of the outer product of the
        branch amplitude vector (x1, -i x3, -i x3, x2), summed tile by tile
        (see _tiles).  Each tile's gt-independent terms are built once
        (closed_form.LiteralTerms); its amplitudes are evaluated and
        contracted, weighted by the multiplicities, a chunk of gts at a time
        (reduced_density.DensityContraction), so the working set stays the
        same size whatever the mode count."""
        gts = check_grid(gts)
        contraction = DensityContraction(gts.size, TILE_MULTISETS, self.memory_bytes)
        for tile in self._tiles():
            mult = float(math.factorial(self.mode_count)) / tile.denom
            terms = LiteralTerms(self.mode_count, tile.stats, tile.weights)
            for chunk, amp, _ in contraction.chunks(terms.size):
                contraction.add(chunk, terms.branches(gts[chunk], amp), mult)
            del mult, terms    # freed before the next tile is written and its terms built
        return contraction.raw

    def _tiles(self):
        """Yield the multisets in summation order, as tiles of the last
        level: each block in turn, cut every TILE_MULTISETS rows from its
        first.  Every tile is written into one buffer, which holds it until
        the next is written."""
        m = self.mode_count
        for _, first, _, end in _blocks(self._ends[m], 0, int(self._ends[m][-1])):
            for lo in range(first, end, TILE_MULTISETS):
                hi = min(lo + TILE_MULTISETS, end)
                yield self._write(m, lo, hi, self._tile)[:hi - lo]

    def _write(self, k: int, start: int, hi: int, out: _Level | None = None) -> _Level:
        """Rows start:hi of level k, written into out from row 0 (into a new
        level if out is None).  Rows a:b of block v extend the same rows of
        the (k - 1)-level by v: those held are read in place, and the rest
        are first written into out at the rows they extend, and extended
        there.  The (k - 1)-rows from that level's block v on already end
        in v."""
        if out is None:
            out = _Level.empty(hi - start, self.feats, self.wfeats)
        held = self._held[k - 1]
        for v, first, lo, stop in _blocks(self._ends[k], start, hi):
            a, b = lo - first, stop - first
            cut = min(max(a, held.size), b)
            # the 0-level's one row ends in no value, and its run of 0
            # lengthens to 1 whichever tail it is given
            since = int(self._ends[k - 1][v - 1]) if v else 0
            if a < cut:
                _extend_rows(held[a:cut], v, since - a, self.feats, self.wfeats,
                             out[lo - start:])
            if cut < b:
                rows = self._write(k - 1, cut, b, out[first + cut - start:])
                _extend_rows(rows[:b - cut], v, since - cut, self.feats, self.wfeats, rows)
        return out


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
along as flat numpy arrays, so no per-configuration Python loop runs.

The last level is never stored whole: it is built one tile at a time, a
tile being at most CHUNK_ELEMENTS of the multisets that share their largest
value (a block).  Each tile's gt-independent terms (frequencies and
coefficients, closed_form.LiteralTerms) are built once per call, its
statistics are then dropped, and only the cosines, sines and the density
contraction run per gt, over chunks of at most CHUNK_ELEMENTS amplitudes,
so the working set stays the same size whatever the mode count.  Tile
boundaries depend only on the block, never on the gt grid, so a grid call
and single-gt calls sum the same terms in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import LiteralTerms
from .errors import ConfigurationError
from .fock_field import FieldDistribution

_STAT_KEYS = ("Sn", "S0", "S1p", "S2p", "T01", "T12", "Tm0", "Sm_re", "n_zeros")

MAX_MULTISETS = 100_000_000
# multisets per tile, and amplitudes evaluated at once: gts per chunk x tile size
CHUNK_ELEMENTS = 8192


def _per_value_features(field: FieldDistribution) -> dict[str, np.ndarray]:
    lo = max(0, field.window.n_min - 2)
    v = np.arange(lo, field.window.n_max + 1, dtype=float)
    feats = {
        "Sn": v,
        "S0": np.sqrt(v),
        "S1p": np.sqrt(v + 1.0),
        "S2p": np.sqrt(v + 2.0),
        "T01": np.sqrt(v * (v + 1.0)),
        "T12": np.sqrt((v + 1.0) * (v + 2.0)),
        "Tm0": np.sqrt(np.maximum(v - 1.0, 0.0) * v),
        "Sm_re": np.sqrt(np.maximum(v - 1.0, 0.0)),
        "n_zeros": (v == 0).astype(float),
    }
    ns = np.arange(lo, field.window.n_max + 1)
    weights = {
        "prod_c0": field.amplitudes_at(ns),
        "prod_c1": field.amplitudes_at(ns + 1),
        "prod_c2": field.amplitudes_at(ns + 2),
    }
    if all(np.allclose(w.imag, 0.0) for w in weights.values()):
        weights = {k: w.real.copy() for k, w in weights.items()}
    return feats, weights


class _Level:
    """All nondecreasing j-tuples over the value range, as parallel arrays."""

    def __init__(self, stats, weights, last, run, denom):
        self.stats = stats        # dict key -> float array
        self.weights = weights    # dict key -> (possibly real) array
        self.last = last          # index of the largest (= final) value
        self.run = run            # length of the trailing equal-value run
        self.denom = denom        # product of factorials of completed counts
        self.size = last.size


def _first_level(feats, weights, n_values) -> _Level:
    idx = np.arange(n_values)
    return _Level(
        stats={k: feats[k].copy() for k in _STAT_KEYS},
        weights={k: weights[k].copy() for k in weights},
        last=idx,
        run=np.ones(n_values, dtype=np.int32),
        denom=np.ones(n_values),
    )


def _extend_rows(level: _Level, lo: int, hi: int, iv: int, feats, weights):
    """Extend rows lo:hi of level (all with last <= iv) by value iv."""
    rows = slice(lo, hi)
    stats = {k: level.stats[k][rows] + feats[k][iv] for k in _STAT_KEYS}
    wts = {k: level.weights[k][rows] * weights[k][iv] for k in weights}
    same = level.last[rows] == iv
    run = np.where(same, level.run[rows] + 1, 1).astype(np.int32)
    denom = np.where(same, level.denom[rows] * run, level.denom[rows])
    last = np.full(hi - lo, iv, dtype=level.last.dtype)
    return _Level(stats, wts, last, run, denom)


def _next_level(level: _Level, n_values: int, feats, weights) -> _Level:
    """All nondecreasing tuples one entry longer than level's: for every
    value index iv, the rows with last <= iv extended by iv.  Each extended
    block is written into one preallocated level, so at most one block is
    held besides the two levels."""
    counts = np.searchsorted(level.last, np.arange(n_values), side="right")
    total = int(counts.sum())
    out = _Level(
        stats={k: np.empty(total) for k in _STAT_KEYS},
        weights={k: np.empty(total, dtype=w.dtype) for k, w in level.weights.items()},
        last=np.empty(total, dtype=level.last.dtype),
        run=np.empty(total, dtype=np.int32),
        denom=np.empty(total),
    )
    start = 0
    for iv in range(n_values):
        prefix = int(counts[iv])
        if prefix == 0:
            continue
        block = _extend_rows(level, 0, prefix, iv, feats, weights)
        rows = slice(start, start + prefix)
        for k in _STAT_KEYS:
            out.stats[k][rows] = block.stats[k]
        for k in out.weights:
            out.weights[k][rows] = block.weights[k]
        out.last[rows] = block.last
        out.run[rows] = block.run
        out.denom[rows] = block.denom
        start += prefix
    return out


class SymmetricLiteralEvaluator:
    """Unnormalized reduced density matrices (and their traces) of the
    literal multimode amplitude sums, for identical per-mode fields."""

    def __init__(self, field: FieldDistribution, mode_count: int,
                 max_multisets: int = MAX_MULTISETS):
        if mode_count < 2:
            raise ConfigurationError("the symmetric evaluator requires m >= 2")
        self.field = field
        self.mode_count = mode_count
        self.feats, self.wfeats = _per_value_features(field)
        self.n_values = self.feats["Sn"].size
        total = math.comb(self.n_values + mode_count - 1, mode_count)
        if total > max_multisets:
            raise ConfigurationError(
                f"{total} occupation multisets exceed the budget {max_multisets}; "
                "reduce windows, coverage, or mode count")
        self._penultimate = self._build_penultimate()

    def _build_penultimate(self) -> _Level:
        level = _first_level(self.feats, self.wfeats, self.n_values)
        for _ in range(self.mode_count - 2):
            level = _next_level(level, self.n_values, self.feats, self.wfeats)
        return level

    def raw_densities(self, gts: np.ndarray) -> np.ndarray:
        """(len(gts), 4, 4) unnormalized density matrices: for every gt the
        multiplicity-weighted sum over multisets of the outer product of the
        branch amplitude vector (x1, -i x3, -i x3, x2).

        Multisets are taken in blocks that share their largest value, and
        each block in tiles of at most CHUNK_ELEMENTS multisets.  Each tile's
        gt-independent terms are built once; its amplitudes are then
        evaluated a chunk of gts at a time and contracted one gt at a time,
        and every raw[g] sums the tiles in the same order, so every matrix
        is the same whatever the grid or chunking."""
        gts = np.atleast_1d(np.asarray(gts, dtype=float))
        counts = np.searchsorted(self._penultimate.last, np.arange(self.n_values),
                                 side="right")
        raw = np.zeros((gts.size, 4, 4), dtype=complex)
        # the chunk's amplitude stacks, allocated once per call: freeing and
        # reallocating them per chunk lets the C allocator hand the pages
        # back and fault them in again on every chunk
        work = np.empty((3, 4 * CHUNK_ELEMENTS), dtype=complex)
        for iv in range(self.n_values):
            prefix = int(counts[iv])
            for lo in range(0, prefix, CHUNK_ELEMENTS):
                self._add_tile(raw, gts, lo, min(lo + CHUNK_ELEMENTS, prefix), iv, work)
        return raw

    def _add_tile(self, raw: np.ndarray, gts: np.ndarray, lo: int, hi: int,
                  iv: int, work: np.ndarray) -> None:
        """Add to raw the multisets that extend penultimate rows lo:hi by
        value index iv, their largest value."""
        m = self.mode_count
        tile = _extend_rows(self._penultimate, lo, hi, iv, self.feats, self.wfeats)
        mult = float(math.factorial(m)) / tile.denom
        terms = LiteralTerms(m, {**tile.stats, **tile.weights})
        del tile
        step = CHUNK_ELEMENTS // terms.size
        for start in range(0, gts.size, step):
            x1, x2, x3 = terms.at(gts[start:start + step])
            shape = (x1.shape[0], 4, terms.size)
            size = math.prod(shape)
            amp = work[0, :size].reshape(shape)
            amp[:, 0] = x1
            np.multiply(-1j, x3, out=amp[:, 1])
            amp[:, 2] = amp[:, 1]
            amp[:, 3] = x2
            del x1, x2, x3
            # one (4, size) @ (size, 4) product per gt; an overflow is
            # reported by the density's non-finite check
            with np.errstate(over="ignore", invalid="ignore"):
                raw[start:start + step] += (
                    np.multiply(mult, amp, out=work[1, :size].reshape(shape))
                    @ np.conjugate(amp, out=work[2, :size].reshape(shape)).transpose(0, 2, 1))

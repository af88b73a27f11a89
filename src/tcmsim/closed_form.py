"""Closed-form time-evolved amplitudes for the two-atom, m-mode system.

Two conventions are implemented side by side:

``literal``
    The closed-form branch amplitudes in their published algebraic form,
    including their index placement.  In this form the t=0 limit puts the
    surviving amplitude on the |bb> branch instead of the initial |aa>,
    and the amplitudes are not norm-preserving; the deficit is recorded
    rather than enforced.

``consistent``
    Amplitudes re-anchored to the initial photon numbers so that gt=0
    reproduces the initial condition exactly.  For a single mode this is
    the exact solution of the 3-state block {|aa,n>, |s,n+1>, |bb,n+2>}
    (|s> the symmetric one-excitation atomic state); for m >= 2 each
    initial configuration evolves unitarily inside its truncated cascade
    block {|aa,n>, |s,n+e_k>, |bb,n+e_k+e_l>}, the direct multimode
    generalization of the single-mode block.

Every route is an object whose raw_densities(gts) gives the (G, 4, 4)
unnormalized two-atom density matrices of a whole gt grid (see
AnchoredRoute); the permutation-symmetric literal route lives in
symmetric.py.  Every gt is the dimensionless product of the coupling g and
time t.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .fock_field import FieldDistribution, TruncationWindow, config_array
from .reduced_density import raw_density

LITERAL = "literal"
CONSISTENT = "consistent"
CONVENTIONS = (LITERAL, CONSISTENT)

# resource guards for multimode enumeration (overridable per call)
MAX_LITERAL_CONFIGS = 5_000_000
MAX_BLOCK_ENTRIES = 10_000_000
# anchored-vector entries held at once: gts per chunk x 4 branches x layout size
CHUNK_ELEMENTS = 1 << 17


def extended_window(window: TruncationWindow) -> TruncationWindow:
    """Final-configuration window: two photons below (literal summation
    reach) and two above (two-photon emission) the initial window."""
    return TruncationWindow(max(0, window.n_min - 2), window.n_max + 2)


class AnchoredRoute:
    """A closed-form route: subclasses give branch_amplitudes(gts) ->
    (G, 4, n_anchors), branches (aa, ab, ba, bb), on fixed anchors: the
    summation configuration in literal mode, the initial one in consistent
    mode.  The density pairs amplitudes by anchor, which reproduces the
    published sixteen-term bilinear structure and keeps each block's
    interbranch coherences.

    This class alone knows the anchored layout: zero vectors over the
    product of the per-mode extended windows, C order.  A layout padded
    differently could regroup the contraction's sums."""

    def __init__(self, fields: list[FieldDistribution], anchors: np.ndarray):
        windows = [extended_window(f.window) for f in fields]
        shape = tuple(w.size for w in windows)
        self.vector_size = math.prod(shape)
        self.anchor_flat = np.ravel_multi_index(
            tuple((anchors - [w.n_min for w in windows]).T), shape)

    def anchored_vectors(self, gts) -> np.ndarray:
        """(G, 4, vector_size) branch amplitudes keyed by anchor."""
        gts = np.atleast_1d(np.asarray(gts, dtype=float))
        amps = self.branch_amplitudes(gts)
        vectors = np.zeros((gts.size, 4, self.vector_size), dtype=complex)
        vectors[..., self.anchor_flat] += amps
        return vectors

    def raw_densities(self, gts) -> np.ndarray:
        """(G, 4, 4) unnormalized densities, CHUNK_ELEMENTS anchored-vector
        entries at a time; each is its own contraction, whatever the grid.
        Overflows are left to the density's non-finite check."""
        gts = np.atleast_1d(np.asarray(gts, dtype=float))
        raw = np.empty((gts.size, 4, 4), dtype=complex)
        step = max(1, CHUNK_ELEMENTS // (4 * self.vector_size))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, gts.size, step):
                chunk = slice(start, start + step)
                raw[chunk] = raw_density(self.anchored_vectors(gts[chunk]))
        return raw


def _branches(x1, x2, x3) -> np.ndarray:
    """(G, 4, n) literal branch amplitudes: x1 on aa, x3 with phase -i on
    ab and ba, x2 on bb."""
    ab = -1j * x3
    return np.stack([x1, ab, ab, x2], axis=1)


# ---------------------------------------------------------------------------
# single mode
# ---------------------------------------------------------------------------

class SingleModeLiteral(AnchoredRoute):
    """Published single-mode amplitudes over the summation indices n of the
    initial window widened two below: x1 on (aa, n), x2 on (bb, n), and
    x3 = x4 with phase -i on (ab, n) and (ba, n).  c-indices shifted outside
    the window contribute zero."""

    def __init__(self, field: FieldDistribution):
        self.field = field
        self.ns = np.arange(max(0, field.window.n_min - 2), field.window.n_max + 1)
        super().__init__([field], self.ns[:, None])

    def branch_amplitudes(self, gts: np.ndarray) -> np.ndarray:
        ns, c, t = self.ns, self.field, gts[:, None]
        c0 = c.amplitudes_at(ns)
        c1 = c.amplitudes_at(ns + 1)
        c2 = c.amplitudes_at(ns + 2)

        x1 = c2 * np.sqrt((ns + 1.0) * (ns + 2.0)) / (2 * ns + 3.0) \
            * (np.cos(t * np.sqrt(4 * ns + 6.0)) - 1.0)

        # the n=0 term of x2 has a vanishing cosine coefficient; its direct
        # evaluation is the constant c_0
        x2 = np.empty((gts.size, ns.size), dtype=complex)
        x2[:] = np.where(ns == 0, c0, 0.0)
        pos = ns >= 1
        n = ns[pos].astype(float)
        x2[:, pos] = c0[pos] * (n * np.cos(t * np.sqrt(4 * n - 2.0)) + n - 1.0) \
            / (2 * n - 1.0)

        x3 = c1 * np.sqrt((ns + 1.0) / (4 * ns + 2.0)) * np.sin(t * np.sqrt(4 * ns + 2.0))
        return _branches(x1, x2, x3)


class SingleModeConsistent(AnchoredRoute):
    """Exact single-mode block amplitudes, weighted by the initial c_n and
    anchored at the initial photon number n.

    The three coupled states are |aa,n>, |s,n+1>, |bb,n+2> with couplings
    g*sqrt(2(n+1)) and g*sqrt(2(n+2)); the antisymmetric atomic combination
    decouples.  Unitary: |A_aa|^2 + 2|A_ab|^2 + |A_bb|^2 = 1, A_ab = A_ba
    carrying the -i phase.
    """

    def __init__(self, field: FieldDistribution):
        self.field = field
        self.ns = field.window.values()
        super().__init__([field], self.ns[:, None])

    def branch_amplitudes(self, gts: np.ndarray) -> np.ndarray:
        ns, c, t = self.ns.astype(float), self.field.amplitudes, gts[:, None]
        om_sq = 4 * ns + 6.0
        om = np.sqrt(om_sq)
        cos = np.cos(om * t)
        a_aa = (2 * (ns + 2.0) + 2 * (ns + 1.0) * cos) / om_sq
        a_ab = c * (-1j * np.sqrt(ns + 1.0) * np.sin(om * t) / om)
        a_bb = 2 * np.sqrt((ns + 1.0) * (ns + 2.0)) * (cos - 1.0) / om_sq
        return np.stack([c * a_aa, a_ab, a_ab, c * a_bb], axis=1)


# ---------------------------------------------------------------------------
# multimode literal
# ---------------------------------------------------------------------------

def literal_stats(configs: np.ndarray, fields: list[FieldDistribution]) -> dict:
    """Per-configuration additive statistics feeding the multimode literal
    amplitudes.  All pairwise i<j frequency sums reduce to these via
    sum_{i<j}[(sqrt(a_i)+sqrt(b_j))^2 + (sqrt(b_i)+sqrt(a_j))^2]
    = (m-1)(sum a + sum b) + 2[(sum sqrt a)(sum sqrt b) - sum sqrt(a b)].
    """
    n = configs.astype(float)
    stats = {
        "Sn": n.sum(axis=1),
        "S0": np.sqrt(n).sum(axis=1),
        "S1p": np.sqrt(n + 1.0).sum(axis=1),
        "S2p": np.sqrt(n + 2.0).sum(axis=1),
        "T01": np.sqrt(n * (n + 1.0)).sum(axis=1),
        "T12": np.sqrt((n + 1.0) * (n + 2.0)).sum(axis=1),
        "Tm0": np.sqrt(np.maximum(n - 1.0, 0.0) * n).sum(axis=1),
        "Sm_re": np.sqrt(np.maximum(n - 1.0, 0.0)).sum(axis=1),
        "n_zeros": (configs == 0).sum(axis=1).astype(float),
    }
    prod_c0 = np.ones(len(configs), dtype=complex)
    prod_c1 = np.ones(len(configs), dtype=complex)
    prod_c2 = np.ones(len(configs), dtype=complex)
    for k, f in enumerate(fields):
        prod_c0 *= f.amplitudes_at(configs[:, k])
        prod_c1 *= f.amplitudes_at(configs[:, k] + 1)
        prod_c2 *= f.amplitudes_at(configs[:, k] + 2)
    stats["prod_c0"] = prod_c0
    stats["prod_c1"] = prod_c1
    stats["prod_c2"] = prod_c2
    return stats


class LiteralTerms:
    """The multimode literal amplitudes x1, x2, x3 of a set of summation
    configurations, split into a gt-independent part, built once here from
    configuration statistics (see literal_stats), and a per-gt part, `at`,
    which only evaluates cosines and sines:

        x1 = coef1 * (cos(gt w1) - 1)
        x2 = c0 * (ratio2 * (cos(gt w2) - 1) + 1)
        x3 = coef3 * sin(gt w3)

    The x2 frequency argument involves sqrt(n_k - 1) and is evaluated with
    complex square roots; configurations containing zero photons therefore
    produce a complex frequency, exactly as the expressions read.  The
    all-zero configuration, whose cosine coefficient vanishes, is
    short-circuited to avoid 0*cosh overflow.  Configurations whose x2
    frequency is real take real cosines, which give the same bits as the
    real part of the complex evaluation; only the others pay for complex
    arithmetic.  Real weights stay real.
    """

    def __init__(self, mode_count: int, stats: dict):
        m = mode_count
        sn, s0 = stats["Sn"], stats["S0"]
        s1p, s2p = stats["S1p"], stats["S2p"]
        self.size = sn.size

        d1 = (m - 1) * (2 * sn + 3 * m) + 2 * (s1p * s2p - stats["T12"])
        self.w1 = np.sqrt(d1)
        self.coef1 = stats["prod_c2"] * (2 * s1p * s2p / d1)

        d3 = (m - 1) * (2 * sn + m) + 2 * (s0 * s1p - stats["T01"])
        self.w3 = np.sqrt(d3)
        self.coef3 = stats["prod_c1"] * (s1p / self.w3)

        sm = stats["Sm_re"] + 1j * stats["n_zeros"]
        d2 = (m - 1) * (2 * sn - m) + 2 * (s0 * sm - stats["Tm0"])
        zero = s0 == 0.0
        d2_eff = np.where(zero, 1.0, d2)
        ratio2 = np.where(zero, 0.0, 2 * s0 ** 2 / d2_eff)
        w2 = np.sqrt(d2_eff)
        c0 = stats["prod_c0"]
        real = w2.imag == 0.0
        self.real2 = np.flatnonzero(real)
        self.complex2 = np.flatnonzero(~real)
        self.w2_re, self.ratio2_re = w2.real[real], ratio2.real[real]
        self.c0_re = c0[real]
        self.w2_c, self.ratio2_c = w2[~real], ratio2[~real]
        self.c0_c = c0[~real]

    def at(self, gts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x1, x2, x3 as (len(gts), size) arrays.  The complex x2 terms grow
        like cosh and may overflow; that is left to the density's
        non-finite check to report, without numpy warnings."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._at(gts)

    def _at(self, gts):
        t = np.atleast_1d(np.asarray(gts, dtype=float))[:, None]
        x1 = self.coef1 * (np.cos(t * self.w1) - 1.0)
        x3 = self.coef3 * np.sin(t * self.w3)
        x2_re = self.c0_re * (self.ratio2_re * (np.cos(t * self.w2_re) - 1.0) + 1.0)
        if not self.complex2.size:
            return x1, x2_re, x3
        # flat, contiguous operands: numpy can round a complex product on
        # broadcast 2-D operands differently (seen for a 1 x 1 result), and
        # x2 must not depend on how the gts are chunked
        g = t.shape[0]
        x2_c = np.tile(self.c0_c, g) * (np.tile(self.ratio2_c, g) * (
            np.cos(np.repeat(t[:, 0], self.complex2.size) * np.tile(self.w2_c, g))
            - 1.0) + 1.0)
        x2 = np.empty((g, self.size), dtype=complex)
        x2[:, self.real2] = x2_re
        x2[:, self.complex2] = x2_c.reshape(g, self.complex2.size)
        return x1, x2, x3



class ProductLiteral(AnchoredRoute):
    """Published multimode amplitudes over the full product of summation
    windows (each initial window widened two below), for fields that are
    not all identical; all four branches of a configuration share it as
    their anchor.  The gt-independent terms are built once (LiteralTerms).

    Requires m >= 2: for a single mode every pairwise i<j frequency sum is
    empty and the denominators vanish; use SingleModeLiteral instead.
    """

    def __init__(self, fields: list[FieldDistribution]):
        m = len(fields)
        if m < 2:
            raise ConfigurationError(
                "multimode amplitudes need at least two modes; "
                "use SingleModeLiteral for m=1")
        ranges = [TruncationWindow(max(0, f.window.n_min - 2), f.window.n_max)
                  for f in fields]
        count = math.prod(w.size for w in ranges)
        if count > MAX_LITERAL_CONFIGS:
            raise ConfigurationError(
                f"the literal multimode product would enumerate {count} configurations "
                f"(budget {MAX_LITERAL_CONFIGS}); reduce windows or mode count")
        self.configs = config_array(ranges)
        self.terms = LiteralTerms(m, literal_stats(self.configs, fields))
        super().__init__(fields, self.configs)

    def branch_amplitudes(self, gts: np.ndarray) -> np.ndarray:
        return _branches(*self.terms.at(gts))


# ---------------------------------------------------------------------------
# multimode consistent: truncated cascade blocks
# ---------------------------------------------------------------------------

class ConsistentBlocks(AnchoredRoute):
    """Per-initial-configuration unitary evolution inside the truncated
    cascade block {|aa,n>, |s,n+e_k>, |bb,n+e_k+e_l>} for m >= 2, anchored
    at the initial configuration.

    The block couplings are the exact matrix elements along the emission
    cascade; couplings that leave the block (photon exchange between the
    one-excitation states and *other* aa configurations) are dropped, which
    is the slowly-varying-amplitude approximation.  Blocks are Hermitian,
    so each initial configuration evolves unitarily and the t=0 limit is
    the identity.  Eigendecompositions are computed once and reused for
    every requested gt.
    """

    def __init__(self, fields: list[FieldDistribution],
                 max_entries: int = MAX_BLOCK_ENTRIES):
        m = len(fields)
        if m < 2:
            raise ConfigurationError("ConsistentBlocks requires m >= 2")
        self.mode_count = m
        self.pairs = [(k, l) for k in range(m) for l in range(k, m)]
        self.dim = 1 + m + len(self.pairs)

        configs = config_array([f.window for f in fields])
        if configs.shape[0] * self.dim > max_entries:
            raise ConfigurationError(
                f"consistent multimode blocks need {configs.shape[0]} x {self.dim} "
                f"entries, above the budget of {max_entries}; reduce the mode count "
                "or window coverage, or use the literal convention")
        self.configs = configs
        weights = np.ones(len(configs), dtype=complex)
        for k, f in enumerate(fields):
            weights *= f.amplitudes_at(configs[:, k])
        self.weights = weights
        super().__init__(fields, configs)

        n = configs.astype(float)
        h = np.zeros((len(configs), self.dim, self.dim))
        for k in range(m):
            h[:, 0, 1 + k] = h[:, 1 + k, 0] = np.sqrt(2 * (n[:, k] + 1.0))
        for pi, (k, l) in enumerate(self.pairs):
            col = 1 + m + pi
            if k == l:
                h[:, 1 + k, col] = h[:, col, 1 + k] = np.sqrt(2 * (n[:, k] + 2.0))
            else:
                h[:, 1 + k, col] = h[:, col, 1 + k] = np.sqrt(2 * (n[:, l] + 1.0))
                h[:, 1 + l, col] = h[:, col, 1 + l] = np.sqrt(2 * (n[:, k] + 1.0))
        self.eigvals, self.eigvecs = np.linalg.eigh(h)
        # overlap of each eigenvector with the initial |aa,n> block state
        self._p0 = self.eigvecs[:, 0, :].astype(complex)
        # the operands every gt shares, cast once
        self._rates = -1j * self.eigvals
        self._eigvecs_c = self.eigvecs.astype(complex)

    def amplitudes_at(self, gt: float) -> np.ndarray:
        """(n_configs, dim) complex block amplitudes at time gt."""
        phase = np.exp(self._rates * gt) * self._p0
        return np.einsum("ndm,nm->nd", self._eigvecs_c, phase)

    def branch_amplitudes(self, gts: np.ndarray) -> np.ndarray:
        """The weighted block amplitudes summed per branch in cascade order:
        aa; ab and ba, each the one-photon state over sqrt(2), per mode; bb
        per mode pair."""
        m = self.mode_count
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        out = np.zeros((gts.size, 4, len(self.configs)), dtype=complex)
        for block, gt in zip(out, gts):
            amps = self.amplitudes_at(gt) * self.weights[:, None]
            block[0] += amps[:, 0]
            for k in range(m):
                half = amps[:, 1 + k] * inv_sqrt2
                block[1] += half
                block[2] += half
            for pi in range(len(self.pairs)):
                block[3] += amps[:, 1 + m + pi]
        return out

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

from .basis import EMITTED
from .errors import ConfigurationError
from .fock_field import FieldDistribution, TruncationWindow, config_array, joint_amplitudes
from .reduced_density import DensityContraction, check_grid, check_memory, contraction_bytes

LITERAL = "literal"
CONSISTENT = "consistent"
CONVENTIONS = (LITERAL, CONSISTENT)


def summation_window(window: TruncationWindow) -> TruncationWindow:
    """A mode's literal summation range: its initial window widened two
    below, down to the lowest n whose c_{n+2} it holds."""
    return TruncationWindow(max(0, window.n_min - 2), window.n_max)


def extended_window(window: TruncationWindow) -> TruncationWindow:
    """Final-configuration window: the literal summation range, widened
    above the initial window by the most photons a branch emits (two)."""
    return TruncationWindow(summation_window(window).n_min, window.n_max + max(EMITTED))


class AnchoredRoute:
    """A closed-form route: subclasses give branch_amplitudes(gts, out) ->
    out, the (G, 4, n_anchors) branches (aa, ab, ba, bb) written into it, on
    fixed anchors: the summation configuration in literal mode, the initial
    one in consistent mode.  The density pairs amplitudes by anchor, which
    reproduces the published sixteen-term bilinear structure and keeps each
    block's interbranch coherences.

    This class alone knows the anchored layout: zero vectors over the
    product of the per-mode extended windows, C order.  The anchors are the
    box of it spanned by the per-mode anchor windows, in C order too.  A
    layout padded differently could regroup the contraction's sums."""

    def __init__(self, fields: list[FieldDistribution], anchors: list[TruncationWindow]):
        layout = [extended_window(f.window) for f in fields]
        self.shape = tuple(w.size for w in layout)
        self.width = math.prod(self.shape)
        self.box = tuple(slice(a.n_min - w.n_min, a.n_max + 1 - w.n_min)
                         for a, w in zip(anchors, layout))
        self.anchors = math.prod(a.size for a in anchors)
        # raw_densities' chunk: the contraction's two stacks, the second
        # holding the amplitudes until they are written into the first, and
        # the evaluation's temporaries
        self.memory_bytes = contraction_bytes(self.width)

    def anchored_vectors(self, gts, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out, (G, 4, layout size): the branch amplitudes, evaluated into
        scratch's first entries, keyed by anchor.  Each is written as 0.0 +
        x on zeros, so that a -0.0 reads +0.0.  Overflowing phases are left
        to the density's non-finite check, without numpy warnings."""
        shape = (gts.size, 4, self.anchors)
        with np.errstate(over="ignore", invalid="ignore"):
            amps = self.branch_amplitudes(gts, scratch.ravel()[:math.prod(shape)].reshape(shape))
        out.fill(0.0)
        box = out.reshape(gts.size, 4, *self.shape)[(..., *self.box)]
        np.add(amps.reshape(box.shape), 0.0, out=box)
        return out

    def raw_densities(self, gts) -> np.ndarray:
        """(G, 4, 4) unnormalized densities, contracted a chunk of gts at a
        time (reduced_density.DensityContraction)."""
        gts = check_grid(gts)
        contraction = DensityContraction(gts.size, self.width, self.memory_bytes)
        for chunk, vectors, scratch in contraction.chunks(self.width):
            contraction.add(chunk, self.anchored_vectors(gts[chunk], vectors, scratch))
        return contraction.raw


# ---------------------------------------------------------------------------
# single mode
# ---------------------------------------------------------------------------

class SingleModeLiteral(AnchoredRoute):
    """Published single-mode amplitudes over the summation indices n
    (summation_window): x1 on (aa, n), x2 on (bb, n), and x3 = x4 with
    phase -i on (ab, n) and (ba, n).  c-indices shifted outside the window
    contribute zero; c_n, c_{n+1} and c_{n+2} are literal_features' factor
    rows."""

    def __init__(self, field: FieldDistribution):
        window = summation_window(field.window)
        self.ns = window.values()
        _, self.weights = literal_features(field)
        super().__init__([field], [window])

    def branch_amplitudes(self, gts: np.ndarray, out: np.ndarray) -> np.ndarray:
        ns, t = self.ns, gts[:, None]
        c0, c1, c2 = self.weights

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

        # x3 = x4, with phase -i, on ab and ba
        ab = -1j * (c1 * np.sqrt((ns + 1.0) / (4 * ns + 2.0)) * np.sin(t * np.sqrt(4 * ns + 2.0)))
        return np.stack([x1, ab, ab, x2], axis=1, out=out)


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
        super().__init__([field], [field.window])

    def branch_amplitudes(self, gts: np.ndarray, out: np.ndarray) -> np.ndarray:
        ns, c, t = self.ns.astype(float), self.field.amplitudes, gts[:, None]
        om_sq = 4 * ns + 6.0
        om = np.sqrt(om_sq)
        cos = np.cos(om * t)
        a_aa = (2 * (ns + 2.0) + 2 * (ns + 1.0) * cos) / om_sq
        a_ab = c * (-1j * np.sqrt(ns + 1.0) * np.sin(om * t) / om)
        a_bb = 2 * np.sqrt((ns + 1.0) * (ns + 2.0)) * (cos - 1.0) / om_sq
        return np.stack([c * a_aa, a_ab, a_ab, c * a_bb], axis=1, out=out)


# ---------------------------------------------------------------------------
# multimode literal
# ---------------------------------------------------------------------------

def literal_features(field: FieldDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-value statistics and amplitude factors of a mode over its
    summation range (summation_window), one column per photon number n.

    The nine statistic rows are n, sqrt(n), sqrt(n+1), sqrt(n+2),
    sqrt(n(n+1)), sqrt((n+1)(n+2)), sqrt((n-1)n), sqrt(n-1) (both zero for
    n = 0) and [n = 0]; the three factor rows are c_n, c_{n+1}, c_{n+2}.
    Summed (statistics) and multiplied (factors) over the modes of a
    configuration, they feed the multimode literal amplitudes: all pairwise
    i<j frequency sums reduce to them via
    sum_{i<j}[(sqrt(a_i)+sqrt(b_j))^2 + (sqrt(b_i)+sqrt(a_j))^2]
    = (m-1)(sum a + sum b) + 2[(sum sqrt a)(sum sqrt b) - sum sqrt(a b)].
    """
    ns = summation_window(field.window).values()
    v = ns.astype(float)
    stats = np.stack([
        v,
        np.sqrt(v),
        np.sqrt(v + 1.0),
        np.sqrt(v + 2.0),
        np.sqrt(v * (v + 1.0)),
        np.sqrt((v + 1.0) * (v + 2.0)),
        np.sqrt(np.maximum(v - 1.0, 0.0) * v),
        np.sqrt(np.maximum(v - 1.0, 0.0)),
        (v == 0).astype(float),
    ])
    weights = np.stack([field.amplitudes_at(ns + shift) for shift in range(3)])
    return stats, weights


class LiteralTerms:
    """The multimode literal amplitudes x1, x2, x3 of a set of summation
    configurations, split into a gt-independent part, built once here from
    their summed statistics and multiplied factors (the rows of
    literal_features), and a per-gt part,
    `branches`, which only evaluates cosines and sines:

        x1 = coef1 * (cos(gt w1) - 1)
        x2 = c0 * (ratio2 * (cos(gt w2) - 1) + 1)
        x3 = coef3 * sin(gt w3)

    The x2 frequency argument involves sqrt(n_k - 1) and is evaluated with
    complex square roots; configurations containing zero photons therefore
    produce a complex frequency, exactly as the expressions read.  The
    all-zero configuration, whose cosine coefficient vanishes, is
    short-circuited to w2 = 1 and ratio2 = 0 to avoid 0*cosh overflow.

    Configurations whose x2 frequency is real take real arithmetic
    throughout, with the same bits as the real parts of the complex
    evaluation: numpy divides by d + 0j as a * (1 / d), so ratio2 is
    computed that way.  x2 is evaluated in one pass over every
    configuration, with frequency 0 and ratio 0 where the frequency is
    complex, and only those positions are then overwritten by the complex
    evaluation.  Real weights stay real.
    """

    def __init__(self, mode_count: int, stats: np.ndarray, weights: np.ndarray):
        m = mode_count
        sn, s0, s1p, s2p, t01, t12, tm0, sm_re, n_zeros = stats
        c0, c1, c2 = weights
        self.size = sn.size

        d1 = (m - 1) * (2 * sn + 3 * m) + 2 * (s1p * s2p - t12)
        self.w1 = np.sqrt(d1)
        self.coef1 = c2 * (2 * s1p * s2p / d1)

        d3 = (m - 1) * (2 * sn + m) + 2 * (s0 * s1p - t01)
        self.w3 = np.sqrt(d3)
        self.coef3 = c1 * (s1p / self.w3)

        # the real part of the x2 denominator; each zero photon number adds
        # 2j * s0 to it
        d2 = (m - 1) * (2 * sn - m) + 2 * (s0 * sm_re - tm0)
        zero = s0 == 0.0
        real = zero | ((n_zeros == 0.0) & (d2 >= 0.0))
        d2_eff = np.where(real & ~zero, d2, 1.0)
        self.w2 = np.where(real, np.sqrt(d2_eff), 0.0)
        self.ratio2 = np.where(real, (2 * s0 ** 2) * (1.0 / d2_eff), 0.0)
        self.c0 = c0

        self.complex2 = np.flatnonzero(~real)
        c = self.complex2
        sm = sm_re[c] + 1j * n_zeros[c]
        d2_c = (m - 1) * (2 * sn[c] - m) + 2 * (s0[c] * sm - tm0[c])
        self.w2_c, self.ratio2_c = np.sqrt(d2_c), 2 * s0[c] ** 2 / d2_c
        self.c0_c = self.c0[c]

    def branches(self, gts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the branch amplitudes (x1, -i x3, -i x3, x2) of gts, a
        checked grid, into out, a (len(gts), 4, size) complex array, and
        return it.  The complex x2 terms grow like cosh and may overflow;
        that is left to the density's non-finite check to report, without
        numpy warnings."""
        t = gts[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(self.coef1, np.cos(t * self.w1) - 1.0, out=out[:, 0])
            np.multiply(-1j, self.coef3 * np.sin(t * self.w3), out=out[:, 1])
            out[:, 2] = out[:, 1]
            x2 = out[:, 3]
            np.multiply(self.c0, self.ratio2 * (np.cos(t * self.w2) - 1.0) + 1.0, out=x2)
            if self.complex2.size:
                x2[:, self.complex2] = self._x2_complex(t[:, 0])
        return out

    def _x2_complex(self, t: np.ndarray) -> np.ndarray:
        """(len(t), n) x2 at the n complex-frequency positions, from flat,
        contiguous operands: numpy can round a complex product on broadcast
        2-D operands differently (seen for a 1 x 1 result), and x2 must not
        depend on how the gts are chunked.  The constants are tiled for
        this call alone."""
        g, n = t.size, self.complex2.size
        c0, ratio2, w2 = (np.tile(a, g) for a in (self.c0_c, self.ratio2_c, self.w2_c))
        return (c0 * (ratio2 * (np.cos(np.repeat(t, n) * w2) - 1.0) + 1.0)).reshape(g, n)


# the bytes ProductLiteral holds per configuration: three complex factor
# rows (48); LiteralTerms' four float64 and two complex rows (64) and,
# where x2's frequency is complex, an int64 index and three complex rows
# (56).  Its build's transient, nine float64 statistic rows and seven
# float64 temporaries (128), is gone before the density contraction is
# allocated, and within that contraction's allowance
PRODUCT_LITERAL_ROW_BYTES = 48 + 64 + 56


class ProductLiteral(AnchoredRoute):
    """Published multimode amplitudes over the full product of summation
    windows (summation_window), for fields that are not all identical;
    all four branches of a configuration share it as their anchor.  The
    gt-independent terms are built once (LiteralTerms).

    Requires m >= 2: for a single mode every pairwise i<j frequency sum is
    empty and the denominators vanish; use SingleModeLiteral instead.
    """

    def __init__(self, fields: list[FieldDistribution]):
        m = len(fields)
        if m < 2:
            raise ConfigurationError(
                "multimode amplitudes need at least two modes; "
                "use SingleModeLiteral for m=1")
        ranges = [summation_window(f.window) for f in fields]
        super().__init__(fields, ranges)
        shape = tuple(r.size for r in ranges)
        count = math.prod(shape)
        self.memory_bytes += count * PRODUCT_LITERAL_ROW_BYTES
        check_memory(self.memory_bytes, f"{count} literal multimode configurations")
        # summed and multiplied over the modes in mode order, each mode's
        # values broadcast along its axis, a row at a time: numpy can round
        # the complex product of a whole stack differently (seen for rows
        # of one configuration)
        stats = np.zeros((9, *shape))
        weights = np.ones((3, *shape), dtype=complex)
        for k, f in enumerate(fields):
            axis = [-1 if j == k else 1 for j in range(m)]
            feats, wfeats = literal_features(f)
            for row, values in zip(stats, feats):
                row += values.reshape(axis)
            for row, values in zip(weights, wfeats):
                row *= values.reshape(axis)
        self.terms = LiteralTerms(m, stats.reshape(9, count), weights.reshape(3, count))

    def branch_amplitudes(self, gts: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.terms.branches(gts, out)


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

    def __init__(self, fields: list[FieldDistribution]):
        m = len(fields)
        if m < 2:
            raise ConfigurationError("ConsistentBlocks requires m >= 2")
        self.mode_count = m
        self.pairs = [(k, l) for k in range(m) for l in range(k, m)]
        self.dim = 1 + m + len(self.pairs)
        super().__init__(fields, [f.window for f in fields])

        # the bytes held per configuration: its int64 row and a float64
        # copy of it (16 m), the complex weight (16), the float64
        # eigenvectors (8 dim**2), three vectors of dim: the float64
        # eigenvalues, their complex rates and the eigenvectors' complex
        # overlaps with |aa, n> (40 dim); and the float64 block Hamiltonian
        # during eigh (8 dim**2).  One gt's evaluation, after eigh, takes
        # less for dim >= 6: two complex vectors of dim (the exponentials
        # and their products, or the products and the amplitudes) and two
        # complex columns (a one-photon half, still bound from the last
        # gt, and einsum's buffers), 32 dim + 32
        count = math.prod(f.window.size for f in fields)
        self.memory_bytes += count * (16 + 16 * m + 16 * self.dim ** 2 + 40 * self.dim)
        check_memory(self.memory_bytes,
                     f"{count} consistent cascade blocks of {self.dim}x{self.dim} entries")
        self.configs = configs = config_array([f.window for f in fields])
        self.weights = joint_amplitudes(fields, configs)

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
        self._rates = -1j * self.eigvals

    def branch_amplitudes(self, gts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The weighted block amplitudes summed per branch into out zeroed,
        in cascade order: aa; ab, the one-photon state over sqrt(2) per
        mode, and ba its copy; bb per mode pair.  einsum casts the real
        eigenvectors to complex for each gt's call alone."""
        m = self.mode_count
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        out.fill(0.0)
        for block, gt in zip(out, gts):
            amps = np.einsum("ndm,nm->nd", self.eigvecs, np.exp(self._rates * gt) * self._p0)
            np.multiply(amps, self.weights[:, None], out=amps)
            block[0] += amps[:, 0]
            for k in range(m):
                block[1] += amps[:, 1 + k] * inv_sqrt2
            block[2] = block[1]
            for pi in range(len(self.pairs)):
                block[3] += amps[:, 1 + m + pi]
            del amps    # freed before the next gt's are made
        return out

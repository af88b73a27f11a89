"""Closed-form time-evolved amplitudes for the two-atom, m-mode system.

Two conventions are implemented side by side:

``literal``
    The closed-form branch amplitudes in their published algebraic form,
    including their index placement.  In this form the t=0 limit puts the
    surviving amplitude on the |bb> branch instead of the initial |aa>,
    and the amplitude set is not norm-preserving; the deficit is recorded
    rather than enforced.

``consistent``
    Amplitudes re-anchored to the initial photon numbers so that gt=0
    reproduces the initial condition exactly.  For a single mode this is
    the exact solution of the 3-state block {|aa,n>, |s,n+1>, |bb,n+2>}
    (|s> the symmetric one-excitation atomic state); for m >= 2 each
    initial configuration evolves unitarily inside its truncated cascade
    block {|aa,n>, |s,n+e_k>, |bb,n+e_k+e_l>}, the direct multimode
    generalization of the single-mode block.

Every gt is the dimensionless product of the coupling g and time t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BRANCHES
from .errors import ConfigurationError
from .fock_field import FieldDistribution, TruncationWindow, config_array

LITERAL = "literal"
CONSISTENT = "consistent"
CONVENTIONS = (LITERAL, CONSISTENT)

# resource guards for multimode enumeration (overridable per call)
MAX_LITERAL_CONFIGS = 5_000_000
MAX_BLOCK_ENTRIES = 10_000_000


@dataclass(frozen=True)
class BranchAmplitudes:
    """The four atomic-branch amplitudes produced by one initial (or, in
    literal mode, one summation) Fock configuration.  Phases are included:
    a_ab and a_ba already carry the -i of the one-excitation branches."""

    a_aa: complex
    a_ab: complex
    a_ba: complex
    a_bb: complex

    def as_vector(self) -> np.ndarray:
        return np.array([self.a_aa, self.a_ab, self.a_ba, self.a_bb])

    def probability_sum(self) -> float:
        return float(np.sum(np.abs(self.as_vector()) ** 2))


@dataclass(frozen=True)
class EvolutionParams:
    """Dimensionless interaction time and mode count."""

    gt: float
    mode_count: int

    def __post_init__(self):
        if self.gt < 0:
            raise ConfigurationError(f"gt must be nonnegative, got {self.gt}")
        if self.mode_count < 1:
            raise ConfigurationError(f"mode_count must be >= 1, got {self.mode_count}")


class AmplitudeSet:
    """Map (atomic branch, final Fock configuration) -> complex amplitude.

    Amplitudes are stored as one dense complex vector per branch over the
    product of per-mode extended windows (initial window widened by two on
    both reachable sides).  Configurations outside the extended windows
    carry amplitude zero.

    Besides the final-configuration attachment, every amplitude keeps an
    *anchor*: the summation configuration it belongs to (the shared final
    configuration in literal mode, the initial configuration in consistent
    mode).  The reduced density matrix pairs amplitudes by anchor, which
    reproduces the published sixteen-term bilinear structure; see
    reduced_density.partial_trace.

    Norms: single-mode consistent sets conserve the initial norm exactly
    (per-branch final configurations never collide).  For m >= 2,
    amplitudes from different initial configurations land on shared final
    keys and add coherently, so the assembled norm may drift from 1 even
    though each block evolves unitarily; the deviation is reported by
    norm_deficit, never silently renormalized here.
    """

    def __init__(self, mode_count: int, gt: float, convention: str,
                 windows: list[TruncationWindow]):
        if convention not in CONVENTIONS:
            raise ConfigurationError(f"unknown convention {convention!r}")
        if len(windows) != mode_count:
            raise ConfigurationError("one extended window per mode required")
        self.mode_count = mode_count
        self.gt = gt
        self.convention = convention
        self.windows = list(windows)
        self._shape = tuple(w.size for w in self.windows)
        size = int(np.prod(self._shape))
        self._arrays = {b: np.zeros(size, dtype=complex) for b in BRANCHES}
        self._anchored = {b: np.zeros(size, dtype=complex) for b in BRANCHES}

    # -- construction ------------------------------------------------

    def _flat_index(self, configs: np.ndarray) -> np.ndarray:
        idx = configs - np.array([w.n_min for w in self.windows])
        return np.ravel_multi_index(tuple(idx.T), self._shape)

    def add(self, branch: str, configs: np.ndarray, amps: np.ndarray,
            anchors: np.ndarray | None = None) -> None:
        """Coherently accumulate amplitudes on (branch, config) keys; anchors
        default to the final configurations themselves."""
        amps = np.atleast_1d(amps)
        self.add_final(branch, configs, amps)
        anchors = configs if anchors is None else anchors
        np.add.at(self._anchored[branch], self._flat_index(np.atleast_2d(anchors)),
                  amps)

    def add_final(self, branch: str, configs: np.ndarray, amps: np.ndarray) -> None:
        """Accumulate amplitudes on (branch, final config) keys only."""
        np.add.at(self._arrays[branch], self._flat_index(np.atleast_2d(configs)),
                  np.atleast_1d(amps))

    def add_anchored(self, branch: str, vector: np.ndarray) -> None:
        """Accumulate a dense anchored vector laid out like anchored_array."""
        self._anchored[branch] += vector

    # -- access ------------------------------------------------------

    def branch_array(self, branch: str) -> np.ndarray:
        return self._arrays[branch]

    def anchored_array(self, branch: str) -> np.ndarray:
        return self._anchored[branch]

    def amplitude(self, branch: str, config: tuple[int, ...]) -> complex:
        if branch not in self._arrays:
            raise KeyError(f"unknown branch {branch!r}")
        if len(config) != self.mode_count:
            raise ConfigurationError(
                f"configuration has {len(config)} modes, expected {self.mode_count}")
        for n, w in zip(config, self.windows):
            if not w.contains(n):
                return 0.0
        return complex(self._arrays[branch][self._flat_index(np.array([config]))[0]])

    def entries(self):
        """Yield ((branch, config), amplitude) for every nonzero amplitude."""
        lows = [w.n_min for w in self.windows]
        for branch, arr in self._arrays.items():
            nz = np.nonzero(arr)[0]
            for flat in nz:
                idx = np.unravel_index(flat, self._shape)
                config = tuple(int(i + lo) for i, lo in zip(idx, lows))
                yield (branch, config), complex(arr[flat])

    def total_norm(self) -> float:
        return float(sum(np.sum(np.abs(a) ** 2) for a in self._arrays.values()))

    def norm_deficit(self) -> float:
        return 1.0 - self.total_norm()

    def with_global_phase(self, theta: float) -> "AmplitudeSet":
        out = AmplitudeSet(self.mode_count, self.gt, self.convention, self.windows)
        phase = np.exp(1j * theta)
        for b in BRANCHES:
            out._arrays[b] = self._arrays[b] * phase
            out._anchored[b] = self._anchored[b] * phase
        return out


def extended_window(window: TruncationWindow) -> TruncationWindow:
    """Final-configuration window: two photons below (literal summation
    reach) and two above (two-photon emission) the initial window."""
    return TruncationWindow(max(0, window.n_min - 2), window.n_max + 2)


# ---------------------------------------------------------------------------
# single mode
# ---------------------------------------------------------------------------

def _single_mode_literal_xs(ns: np.ndarray, gt: float, c: FieldDistribution):
    """Published single-mode branch amplitudes x1, x2, x3 for an array of
    summation indices n."""
    ns = np.asarray(ns)
    c0 = c.amplitudes_at(ns)
    c1 = c.amplitudes_at(ns + 1)
    c2 = c.amplitudes_at(ns + 2)

    x1 = c2 * np.sqrt((ns + 1.0) * (ns + 2.0)) / (2 * ns + 3.0) \
        * (np.cos(gt * np.sqrt(4 * ns + 6.0)) - 1.0)

    # the n=0 term of x2 has a vanishing cosine coefficient; its direct
    # evaluation is the constant c_0
    x2 = np.where(ns == 0, c0, 0.0).astype(complex)
    pos = ns >= 1
    if np.any(pos):
        n = ns[pos].astype(float)
        x2[pos] = c0[pos] * (n * np.cos(gt * np.sqrt(4 * n - 2.0)) + n - 1.0) \
            / (2 * n - 1.0)

    x3 = c1 * np.sqrt((ns + 1.0) / (4 * ns + 2.0)) * np.sin(gt * np.sqrt(4 * ns + 2.0))
    return x1, x2, x3


def single_mode_literal(n: int, gt: float, c: FieldDistribution) -> BranchAmplitudes:
    """Published single-mode amplitudes at summation index n.

    x1 attaches to (aa, n), x2 to (bb, n), and x3 = x4 attach with phase -i
    to (ba, n) and (ab, n).  c-indices shifted outside the window contribute
    zero.
    """
    if n < 0:
        raise ConfigurationError(f"photon number must be nonnegative, got {n}")
    x1, x2, x3 = _single_mode_literal_xs(np.array([n]), gt, c)
    return BranchAmplitudes(a_aa=complex(x1[0]), a_ab=-1j * complex(x3[0]),
                            a_ba=-1j * complex(x3[0]), a_bb=complex(x2[0]))


def _single_mode_consistent_block(ns: np.ndarray, gt: float):
    """Exact 3-state block amplitudes (A_aa, A_ab, A_bb) for initial photon
    numbers ns; A_ab = A_ba includes the -i phase and attaches to n+1,
    A_bb attaches to n+2."""
    ns = np.asarray(ns, dtype=float)
    om_sq = 4 * ns + 6.0
    om = np.sqrt(om_sq)
    cos = np.cos(om * gt)
    a_aa = (2 * (ns + 2.0) + 2 * (ns + 1.0) * cos) / om_sq
    a_ab = -1j * np.sqrt(ns + 1.0) * np.sin(om * gt) / om
    a_bb = 2 * np.sqrt((ns + 1.0) * (ns + 2.0)) * (cos - 1.0) / om_sq
    return a_aa.astype(complex), a_ab, a_bb.astype(complex)


def single_mode_consistent(n_init: int, gt: float) -> BranchAmplitudes:
    """Exact single-mode block amplitudes for initial state |aa, n_init>.

    The three coupled states are |aa,n>, |s,n+1>, |bb,n+2> with couplings
    g*sqrt(2(n+1)) and g*sqrt(2(n+2)); the antisymmetric atomic combination
    decouples.  Unitary: |A_aa|^2 + 2|A_ab|^2 + |A_bb|^2 = 1.
    """
    if n_init < 0:
        raise ConfigurationError(f"photon number must be nonnegative, got {n_init}")
    a_aa, a_ab, a_bb = _single_mode_consistent_block(np.array([n_init]), gt)
    return BranchAmplitudes(a_aa=complex(a_aa[0]), a_ab=complex(a_ab[0]),
                            a_ba=complex(a_ab[0]), a_bb=complex(a_bb[0]))


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


def literal_xs_from_stats(gt: float, mode_count: int, stats: dict):
    """Multimode literal amplitudes x1, x2, x3 at one gt from configuration
    statistics; see LiteralTerms."""
    x1, x2, x3 = LiteralTerms(mode_count, stats).at([gt])
    return x1[0], x2[0], x3[0]


def multimode_literal(config: tuple[int, ...], gt: float,
                      fields: list[FieldDistribution]) -> BranchAmplitudes:
    """Published multimode amplitudes at one summation configuration.

    All four branches attach to the same final configuration.  Requires
    m >= 2: for a single mode every pairwise i<j frequency sum is empty and
    the denominators vanish; use the single-mode operations instead.
    """
    m = len(fields)
    if m < 2:
        raise ConfigurationError(
            "multimode amplitudes need at least two modes; "
            "use single_mode_literal / single_mode_consistent for m=1")
    if len(config) != m:
        raise ConfigurationError(
            f"configuration has {len(config)} modes but {m} fields given")
    if any(n < 0 for n in config):
        raise ConfigurationError("photon numbers must be nonnegative")
    configs = np.array([config], dtype=int)
    x1, x2, x3 = literal_xs_from_stats(gt, m, literal_stats(configs, fields))
    return BranchAmplitudes(a_aa=complex(x1[0]), a_ab=-1j * complex(x3[0]),
                            a_ba=-1j * complex(x3[0]), a_bb=complex(x2[0]))


# ---------------------------------------------------------------------------
# multimode consistent: truncated cascade blocks
# ---------------------------------------------------------------------------

class ConsistentBlocks:
    """Per-initial-configuration unitary evolution inside the truncated
    cascade block {|aa,n>, |s,n+e_k>, |bb,n+e_k+e_l>} for m >= 2.

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
        self.fields = fields
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
        # the anchors' (initial configurations') flat indices over the
        # extended windows, the layout of AmplitudeSet.anchored_array
        windows = [extended_window(f.window) for f in fields]
        shape = tuple(w.size for w in windows)
        self.vector_size = int(np.prod(shape))
        self._anchor_flat = np.ravel_multi_index(
            tuple((configs - [w.n_min for w in windows]).T), shape)

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

    def _terms(self, amps: np.ndarray):
        """Yield (branch index, modes that gained a photon, amplitudes) for
        every block state of the weighted block amplitudes, in cascade
        order."""
        m = self.mode_count
        yield 0, (), amps[:, 0]
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for k in range(m):
            half = amps[:, 1 + k] * inv_sqrt2
            yield 1, (k,), half
            yield 2, (k,), half
        for pi, pair in enumerate(self.pairs):
            yield 3, pair, amps[:, 1 + m + pi]

    def _anchored(self, amps: np.ndarray) -> np.ndarray:
        block = np.zeros((4, len(self.configs)), dtype=complex)
        for b, _, a in self._terms(amps):
            block[b] += a
        vectors = np.zeros((4, self.vector_size), dtype=complex)
        vectors[:, self._anchor_flat] = block
        return vectors

    def anchored_vectors(self, gt: float) -> np.ndarray:
        """(4, vector_size) branch amplitudes at gt keyed by initial
        configuration, laid out like AmplitudeSet.anchored_array: what the
        density contraction reads."""
        return self._anchored(self.amplitudes_at(gt) * self.weights[:, None])

    def fill(self, amp_set: AmplitudeSet, gt: float) -> None:
        """Add the amplitudes at gt to amp_set, anchored at the initial
        configuration and keyed by the final one."""
        amps = self.amplitudes_at(gt) * self.weights[:, None]
        for branch, vector in zip(BRANCHES, self._anchored(amps)):
            amp_set.add_anchored(branch, vector)
        for b, modes, a in self._terms(amps):
            shifted = self.configs.copy()
            for k in modes:
                shifted[:, k] += 1
            amp_set.add_final(BRANCHES[b], shifted, a)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble(params: EvolutionParams, fields: list[FieldDistribution],
             convention: str = CONSISTENT,
             blocks: ConsistentBlocks | None = None) -> AmplitudeSet:
    """Build the full amplitude set at time params.gt.

    For repeated times with m >= 2 and the consistent convention, pass a
    prebuilt ConsistentBlocks to reuse its eigendecompositions.
    """
    if convention not in CONVENTIONS:
        raise ConfigurationError(f"unknown convention {convention!r}")
    m = params.mode_count
    if len(fields) != m:
        raise ConfigurationError(
            f"{len(fields)} fields given for mode_count {m}")
    gt = params.gt
    windows_ext = [extended_window(f.window) for f in fields]
    out = AmplitudeSet(m, gt, convention, windows_ext)

    if m == 1:
        f = fields[0]
        if convention == LITERAL:
            ns = np.arange(max(0, f.window.n_min - 2), f.window.n_max + 1)
            x1, x2, x3 = _single_mode_literal_xs(ns, gt, f)
            cfgs = ns[:, None]
            out.add("aa", cfgs, x1)
            out.add("ab", cfgs, -1j * x3)
            out.add("ba", cfgs, -1j * x3)
            out.add("bb", cfgs, x2)
        else:
            ns = f.window.values()
            c = f.amplitudes
            a_aa, a_ab, a_bb = _single_mode_consistent_block(ns, gt)
            out.add("aa", ns[:, None], c * a_aa)
            out.add("ab", ns[:, None] + 1, c * a_ab, anchors=ns[:, None])
            out.add("ba", ns[:, None] + 1, c * a_ab, anchors=ns[:, None])
            out.add("bb", ns[:, None] + 2, c * a_bb, anchors=ns[:, None])
        return out

    if convention == LITERAL:
        ranges = [TruncationWindow(max(0, f.window.n_min - 2), f.window.n_max)
                  for f in fields]
        count = int(np.prod([w.size for w in ranges]))
        if count > MAX_LITERAL_CONFIGS:
            raise ConfigurationError(
                f"literal multimode assembly would enumerate {count} configurations "
                f"(budget {MAX_LITERAL_CONFIGS}); reduce windows or mode count")
        configs = config_array(ranges)
        x1, x2, x3 = literal_xs_from_stats(gt, m, literal_stats(configs, fields))
        out.add("aa", configs, x1)
        out.add("ab", configs, -1j * x3)
        out.add("ba", configs, -1j * x3)
        out.add("bb", configs, x2)
        return out

    if blocks is None:
        blocks = ConsistentBlocks(fields)
    elif blocks.mode_count != m:
        raise ConfigurationError("prebuilt blocks do not match the mode count")
    blocks.fill(out, gt)
    return out

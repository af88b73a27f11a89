"""Exact brute-force evolution of the two-atom, m-mode interaction.

The excitation-conserving interaction V = S+ sum_k a_k + S- sum_k a_k^+
(resonant, interaction picture, hbar = g = 1; the free Hamiltonian only
contributes a sector-constant phase and is omitted) is block diagonal over
sectors of fixed total excitation N = sum_k n_k + (number of excited
atoms).  Each sector block is diagonalized once and the propagator
exp(-i H gt) is applied per requested time, which is exactly unitary.

The oracle Fock window extends the field window by the most photons a
branch emits (basis.EMITTED), two per mode, enough to absorb the at most
two photons the atoms emit into one mode.
For m >= 2 the box is not closed under photon exchange between modes and
cuts the dynamics there, with no norm drift to show it (docs/decisions.md,
"Open point: photon exchange leaves the oracle box").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import BRANCHES, EMITTED
from .errors import ConfigurationError
from .fock_field import FieldDistribution, TruncationWindow, config_array, joint_amplitudes
from .reduced_density import (DensityContraction, check_grid, check_memory, contraction_bytes,
                              raise_at_first)

NORM_DRIFT_TOL = 1e-8
# bounds each sector's eigh time
MAX_SECTOR_DIM = 4000

# (branch, target branch) index pairs of S- a_k^+, which lowers one atom
# and adds a photon to mode k: aa -> ab, ba and ab, ba -> bb
_LOWERING = ((0, 1), (0, 2), (1, 3), (2, 3))

# the Python objects of a sector: its _Sector, SectorBasis and eight array
# headers, about 1.2 KB measured
SECTOR_OBJECT_BYTES = 2048


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered basis of one conserved-excitation sector: state i is branch
    BRANCHES[branch_of[i]] with field configuration configs[i], and
    sum(configs[i]) + excited atoms == excitation; branch order (aa, ab,
    ba, bb), configs lexicographic within a branch."""

    excitation: int
    branch_of: np.ndarray
    configs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.branch_of)


def _flat(configs: np.ndarray, lows, shape: tuple) -> np.ndarray:
    """Row-major indices of configurations in the box shape starting at lows."""
    return np.ravel_multi_index(tuple((configs - lows).T), shape)


def build_hamiltonian(basis: SectorBasis) -> np.ndarray:
    """The sector's interaction matrix in units of hbar*g: elements
    <branch', f+e_k| V |branch, f> = sqrt(f_k + 1), summed over modes and
    both atoms, symmetrized.

    Each state is keyed by its branch and the row-major index of its
    configuration in a box one photon wider than the sector's; the keys
    ascend in state order, so a neighbour's key is found by searchsorted."""
    dim = basis.dim
    h = np.zeros((dim, dim))
    if dim == 0:
        return h
    cfgs = basis.configs
    lows = cfgs.min(axis=0)
    shape = tuple(cfgs.max(axis=0) - lows + 2)
    size = int(np.prod(shape))
    keys = basis.branch_of * size + _flat(cfgs, lows, shape)
    # the key steps of one more photon in each mode
    strides = _flat(np.eye(len(shape), dtype=int), 0, shape)
    for branch, target in _LOWERING:
        i = np.flatnonzero(basis.branch_of == branch)
        up = keys[i, None] + (target - branch) * size + strides
        j = np.minimum(np.searchsorted(keys, up), dim - 1)
        hit = keys[j] == up
        rows, cols = np.broadcast_to(i[:, None], up.shape)[hit], j[hit]
        h[rows, cols] = h[cols, rows] = np.sqrt(cfgs[i][hit] + 1.0)
    return h


class _Sector:
    """One diagonalized block, its initial coefficients, and where its
    coefficients land in the flattened (4, N) branch vectors.

    The eigenvectors are held once, as float64, with the initial
    coefficients' eigenbasis projection, so that propagating many gts
    repeats neither.  evolve multiplies the real eigenvectors by complex
    operands; numpy casts them to the C-ordered complex operand for that
    call alone, the one a held complex copy would be, so every coefficient
    keeps its bits."""

    def __init__(self, basis: SectorBasis, rows: np.ndarray, size: int,
                 initial: np.ndarray):
        self.basis = basis
        self.eigvals, self.eigvecs = np.linalg.eigh(build_hamiltonian(basis))
        # the initial state |aa> x fields: only aa states carry weight
        self.c0 = np.where(basis.branch_of == 0, initial[rows], 0)
        # every coefficient at its branch and final configuration, whose
        # row is its row-major index in the box
        self.final = basis.branch_of * size + rows
        self._rates = -1j * self.eigvals
        self._proj = self.eigvecs.T @ self.c0

    def evolve(self, gts: np.ndarray) -> np.ndarray:
        """(len(gts), dim) coefficients of the initial state: one stacked
        matrix-vector product per gt.  Overflowing phases are left to the
        density's non-finite check, without numpy warnings."""
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(self._rates * gts[:, None])
            return (self.eigvecs @ (phases * self._proj)[:, :, None])[:, :, 0]


class ExactEvolver:
    """Diagonalizes every sector holding initial weight and evolves the
    initial state |a1, a2> x prod_k |field_k> over gt grids.

    This is the one place that decides which states a sector holds: the
    box's configurations are ordered once by photon total, and the counts
    per total both size the sectors for the budget and cut them."""

    def __init__(self, fields: list[FieldDistribution]):
        if not fields:
            raise ConfigurationError("at least one field is required")
        self.windows = [TruncationWindow(f.window.n_min,
                                         f.window.n_max + max(EMITTED))
                        for f in fields]
        self.shape = tuple(w.size for w in self.windows)
        self._vector_size = math.prod(self.shape)
        m = len(fields)
        # the bytes held per configuration: its int64 row (8 m), its int64
        # photon total and place in the order by total (16) and complex
        # initial amplitude (16); the sector states it is in, at most one
        # per branch, each an int64 branch and row (8 + 8 m), complex
        # initial coefficient, rates and eigenbasis projection (48), float64
        # eigenvalue (8) and int64 final key (8); beside them all, the
        # density contraction of the branch vectors, whose allowance holds
        # a chunk's one-mode shift, checked before the rows are enumerated
        box_bytes = (self._vector_size * (8 * m + 32 + 4 * (72 + 8 * m))
                     + contraction_bytes(self._vector_size))
        check_memory(box_bytes, f"{self._vector_size} oracle configurations")
        configs = config_array(self.windows)
        totals = configs.sum(axis=1)
        low = int(totals[0]) + 2

        # one sector per initial photon total t, of excitation N = t + 2:
        # its branch that emitted k photons holds the configurations of
        # total t + k, so it has c(t) + 2 c(t + 1) + c(t + 2) states, with c
        # the configuration count by photon total.  branch_total[i, b] is
        # the photon total, less the lowest, of branch b's configurations in
        # sector i.  The sector dimensions and the memory are checked before
        # the first sector is built.
        counts = np.bincount(totals - totals[0])
        n = sum(f.window.size - 1 for f in fields) + 1
        branch_total = np.arange(n)[:, None] + EMITTED
        sizes = counts[branch_total]
        dims = sizes.sum(axis=1)
        over = np.flatnonzero(dims > MAX_SECTOR_DIM)
        if over.size:
            raise ConfigurationError(
                f"sector {low + over[0]} has dimension {dims[over[0]]} "
                f"(budget {MAX_SECTOR_DIM}); reduce modes, mean, or coverage")
        # beside the rows: every sector's float64 eigenvectors (8 an entry)
        # and Python objects, and while one sector is built or propagated,
        # its float64 Hamiltonian during eigh or the complex cast of its
        # eigenvectors in a product (16 an entry).  The phases, products and
        # coefficients of a chunk's gts (3 x 16 a gt and state, a sector
        # holding each configuration at most twice) and their float64 norms
        # per sector are within the contraction's allowance
        entries = int(np.sum(dims ** 2))
        largest = int(dims.max())
        self.memory_bytes = box_bytes + 8 * entries + SECTOR_OBJECT_BYTES * n + 16 * largest ** 2
        check_memory(self.memory_bytes,
                     f"the {n} sectors of {entries} matrix entries over {len(configs)} "
                     "oracle configurations")

        # the initial state: the rows inside the field windows, where the
        # oracle windows start, carry the fields' joint amplitudes.  inner
        # and weights stay alive while the sectors are built: freed before,
        # they shift the heap so that compare-oracle --modes 2 --mean 5
        # peaks 0.9 MB higher in densities
        inside = np.all(configs <= [f.window.n_max for f in fields], axis=1)
        inner = configs[inside]
        weights = joint_amplitudes(fields, inner)
        initial = np.zeros(len(configs), dtype=complex)
        initial[inside] = weights
        # the rows of each photon total, less the lowest, in lexicographic
        # order: the stable sort keeps the box's row-major order in a total
        by_total = np.split(np.argsort(totals, kind="stable"), np.cumsum(counts[:-1]))
        self.sectors = []
        for i in range(n):
            rows = np.concatenate([by_total[t] for t in branch_total[i]])
            basis = SectorBasis(low + i, np.repeat(np.arange(len(BRANCHES)), sizes[i]),
                                configs[rows])
            self.sectors.append(_Sector(basis, rows, self._vector_size, initial))
        self._norm0 = float(sum(np.sum(np.abs(s.c0) ** 2) for s in self.sectors))

    def densities(self, gts) -> tuple[np.ndarray, np.ndarray]:
        """(G, 4, 4) unnormalized two-atom densities and (G,) total norms,
        propagated and contracted a chunk of gts at a time
        (reduced_density.DensityContraction).  Each sector's coefficients
        are written to their final configurations in the chunk's stack as
        they are computed, and their norms into a table summed per gt, so
        one sector's are held at a time.  Each gt's bits are those of a
        grid of that gt alone, whatever the chunk.

        After the last chunk the grid fails at its first gt whose total
        norm drifted from the initial one by more than NORM_DRIFT_TOL.
        Every sector Hamiltonian, truncated or not, is Hermitian, so drift
        detects propagation that lost unitarity, not a small window; it is
        reported ahead of the density failures it causes.

        For a single mode amplitudes are paired by initial photon number
        (final occupation minus the photons emitted), as the published
        bilinear pairing and the consistent closed form pair them: each
        branch is shifted back in place by the photons it emitted, and
        states shifted below the window drop out.  For m >= 2 they are
        paired by final configuration: the standard partial trace over
        field states."""
        gts = check_grid(gts)
        contraction = DensityContraction(gts.size, self._vector_size, self.memory_bytes)
        norms = np.empty(gts.size)
        for chunk, vectors, _ in contraction.chunks(self._vector_size):
            flat = vectors.reshape(len(vectors), -1)
            flat.fill(0.0)
            sector_norms = np.empty((len(vectors), len(self.sectors)))
            for i, sector in enumerate(self.sectors):
                c = sector.evolve(gts[chunk])
                sector_norms[:, i] = np.sum(np.abs(c) ** 2, axis=-1)
                flat[:, sector.final] = c
            norms[chunk] = sector_norms.sum(axis=-1)
            if len(self.shape) == 1:
                for b, shift in enumerate(EMITTED[1:], 1):
                    vectors[:, b, :-shift] = vectors[:, b, shift:]
                    vectors[:, b, -shift:] = 0
            contraction.add(chunk, vectors)
        drift = np.abs(norms - self._norm0)
        raise_at_first(drift > NORM_DRIFT_TOL, lambda i: (
            f"norm drift {drift[i]:.3e} beyond {NORM_DRIFT_TOL:g}; "
            "the propagation lost unitarity"))
        return contraction.raw, norms

    def branch_vectors(self, gts) -> np.ndarray:
        """(G, 4, N) amplitudes per branch over the final configurations,
        row-major over the oracle windows and unshifted: what the standard
        partial trace over field states pairs.  Checked first, beside the
        evolver's statement: the vectors (64 bytes a gt and configuration)
        and one sector's phases, products and coefficients over the whole
        grid (3 x 16 bytes a gt and state of the largest sector)."""
        gts = check_grid(gts)
        largest = max(s.basis.dim for s in self.sectors)
        check_memory(self.memory_bytes + gts.size * (64 * self._vector_size + 48 * largest),
                     f"a grid of {gts.size} gts and its branch vectors")
        vectors = np.zeros((gts.size, 4 * self._vector_size), dtype=complex)
        for sector in self.sectors:
            vectors[:, sector.final] = sector.evolve(gts)
        return vectors.reshape(gts.size, 4, self._vector_size)


# ---------------------------------------------------------------------------
# operator-power expansion diagnostic
# ---------------------------------------------------------------------------

@dataclass
class ExpansionReport:
    """Entrywise deviation between V^(2p) / V^(2p+1) and their closed
    operator-power expansions, evaluated on a small truncated space.

    Non-gating: the report documents agreement or disagreement of the
    expansions rather than asserting it (measured deviations are at
    rounding level for p <= 3, confirming them for two atoms).  interior_*
    restrict the comparison to matrix elements unaffected by the
    Fock-space cut; trace and powering cross-checks validate the harness
    itself.
    """

    p: int
    mode_count: int
    n_cut: int
    dim: int
    max_dev_even: float
    max_dev_odd: float
    interior_dev_even: float | None
    interior_dev_odd: float | None
    trace_check_dev: float
    powering_dev: float

    def render(self) -> str:
        def fmt(x):
            return "n/a (interior empty)" if x is None else f"{x:.6e}"

        return "\n".join([
            f"operator-power expansion diagnostic (p={self.p}, modes={self.mode_count}, "
            f"per-mode cut {self.n_cut}, space dim {self.dim})",
            f"  max |V^(2p)   - expansion| : {self.max_dev_even:.6e}",
            f"  max |V^(2p+1) - expansion| : {self.max_dev_odd:.6e}",
            f"  interior-only even dev     : {fmt(self.interior_dev_even)}",
            f"  interior-only odd dev      : {fmt(self.interior_dev_odd)}",
            f"  tr(V^2) vs sum|V_ij|^2 dev : {self.trace_check_dev:.6e}",
            f"  powering methods dev       : {self.powering_dev:.6e}",
        ])


def _atomic_ops():
    """4x4 atomic operators in the (aa, ab, ba, bb) basis."""
    def op(pairs):
        out = np.zeros((4, 4))
        for (i, j), v in pairs:
            out[i, j] += v
        return out

    aa, ab, ba, bb = 0, 1, 2, 3
    s_plus = op([(((aa, ab)), 1.0), ((aa, ba), 1.0), ((ab, bb), 1.0), ((ba, bb), 1.0)])
    terms = {
        # sum_{i != j} (O)_i (Q)_j for the printed even-power expansion
        "ab_ab": op([((aa, bb), 2.0)]),
        "ba_ba": op([((bb, aa), 2.0)]),
        "ab_ba": op([((ab, ba), 1.0), ((ba, ab), 1.0)]),
        "aa_aa": op([((aa, aa), 2.0)]),
        "bb_bb": op([((bb, bb), 2.0)]),
        "aa_bb": op([((ab, ab), 1.0), ((ba, ba), 1.0)]),
        # odd-power expansion
        "aa_ab": op([((aa, ab), 1.0), ((aa, ba), 1.0)]),
        "bb_ab": op([((ba, bb), 1.0), ((ab, bb), 1.0)]),
        "aa_ba": op([((ab, aa), 1.0), ((ba, aa), 1.0)]),
        "bb_ba": op([((bb, ba), 1.0), ((bb, ab), 1.0)]),
    }
    return s_plus, terms


def expansion_diagnostic(p: int, mode_count: int, n_cut: int = 3) -> ExpansionReport:
    """Compare V^(2p) and V^(2p+1), computed by repeated multiplication,
    with the printed closed expansions, term by term, on the truncated
    space of two atoms and mode_count modes cut at n_cut photons."""
    if p < 1 or p > 3:
        raise ConfigurationError(f"p must be in [1, 3], got {p}")
    if n_cut < 1 or n_cut > 3:
        raise ConfigurationError(f"n_cut must be in [1, 3], got {n_cut}")
    if mode_count < 1 or mode_count > 3:
        raise ConfigurationError(f"mode_count must be in [1, 3], got {mode_count}")

    local = n_cut + 1
    a_local = np.diag(np.sqrt(np.arange(1, local)), k=1)
    a_sum = np.zeros((local ** mode_count,) * 2)
    for k in range(mode_count):
        op = np.eye(1)
        for j in range(mode_count):
            op = np.kron(op, a_local if j == k else np.eye(local))
        a_sum += op
    ad_sum = a_sum.T
    mixed = a_sum @ ad_sum + ad_sum @ a_sum

    s_plus, t = _atomic_ops()
    s_minus = s_plus.T
    v = np.kron(s_plus, a_sum) + np.kron(s_minus, ad_sum)

    mixed_pm1 = np.linalg.matrix_power(mixed, p - 1)
    mixed_p = np.linalg.matrix_power(mixed, p)
    pref = 2.0 ** (p - 1)
    rhs_even = (
        np.kron(t["ab_ab"], pref * a_sum @ mixed_pm1 @ a_sum)
        + np.kron(t["ba_ba"], pref * ad_sum @ mixed_pm1 @ ad_sum)
        + np.kron(t["ab_ba"], pref * mixed_p)
        + np.kron(t["aa_aa"], pref * a_sum @ mixed_pm1 @ ad_sum)
        + np.kron(t["bb_bb"], pref * ad_sum @ mixed_pm1 @ a_sum)
        + np.kron(t["aa_bb"], pref * mixed_p)
    )
    pref_odd = 2.0 ** p
    rhs_odd = (
        np.kron(t["aa_ab"], pref_odd * a_sum @ mixed_p)
        + np.kron(t["bb_ab"], pref_odd * mixed_p @ a_sum)
        + np.kron(t["aa_ba"], pref_odd * mixed_p @ ad_sum)
        + np.kron(t["bb_ba"], pref_odd * ad_sum @ mixed_p)
    )

    v_even = np.linalg.matrix_power(v, 2 * p)
    v_odd = v_even @ v

    # sequential multiplication as an independent check on the powering
    seq = np.eye(v.shape[0])
    for _ in range(2 * p):
        seq = seq @ v
    powering_dev = float(np.max(np.abs(seq - v_even)))

    trace_check_dev = float(abs(np.trace(v @ v) - np.sum(v * v)))

    max_dev_even = float(np.max(np.abs(v_even - rhs_even)))
    max_dev_odd = float(np.max(np.abs(v_odd - rhs_odd)))

    # interior: field occupations at most n_cut - 2p on every mode are
    # unaffected by the truncation boundary for products of <= 2p+1 factors
    interior_dev_even = interior_dev_odd = None
    cap = n_cut - 2 * p
    if cap >= 0:
        cfgs = np.array(list(itertools.product(range(local), repeat=mode_count)))
        ok = np.all(cfgs <= cap, axis=1)
        mask = np.kron(np.ones(4, dtype=bool), ok)
        sub = np.ix_(mask, mask)
        interior_dev_even = float(np.max(np.abs(v_even[sub] - rhs_even[sub])))
        interior_dev_odd = float(np.max(np.abs(v_odd[sub] - rhs_odd[sub])))

    return ExpansionReport(
        p=p, mode_count=mode_count, n_cut=n_cut, dim=v.shape[0],
        max_dev_even=max_dev_even, max_dev_odd=max_dev_odd,
        interior_dev_even=interior_dev_even, interior_dev_odd=interior_dev_odd,
        trace_check_dev=trace_check_dev, powering_dev=powering_dev)

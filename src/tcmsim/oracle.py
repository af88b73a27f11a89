"""Exact brute-force evolution of the two-atom, m-mode interaction.

The excitation-conserving interaction V = S+ sum_k a_k + S- sum_k a_k^+
(resonant, interaction picture, hbar = g = 1; the free Hamiltonian only
contributes a sector-constant phase and is omitted) is block diagonal over
sectors of fixed total excitation N = sum_k n_k + (number of excited
atoms).  Each sector block is diagonalized once and the propagator
exp(-i H gt) is applied per requested time, which is exactly unitary.

The oracle Fock window extends the field window by two photons per mode,
enough to absorb the at most two photons the atoms can emit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .basis import BRANCHES, EXCITED_COUNT
from .errors import ConfigurationError
from .fock_field import FieldDistribution, TruncationWindow, config_array
from .reduced_density import FirstFailure, TwoAtomDensity, raw_density

NORM_DRIFT_TOL = 1e-8
# gts propagated at once: bounds the (CHUNK_GTS, 4, N) branch vectors
CHUNK_GTS = 32
MAX_SECTOR_DIM = 4000
ORACLE_WINDOW_EXTENSION = 2


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of one conserved-excitation sector: states (branch,
    config) with sum(config) + excited_atoms(branch) == excitation, branch
    order (aa, ab, ba, bb), configs lexicographic within a branch."""

    excitation: int
    states: tuple

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class HamiltonianBlock:
    """Interaction matrix of one sector, in units of hbar*g."""

    sector: SectorBasis
    matrix: np.ndarray


def _configs_by_total(windows: list[TruncationWindow]) -> dict[int, np.ndarray]:
    arr = config_array(windows)
    totals = arr.sum(axis=1)
    return {t: arr[totals == t] for t in sorted(set(totals.tolist()))}


def build_sector_basis(excitation: int, mode_count: int,
                       windows: list[TruncationWindow]) -> SectorBasis:
    if excitation < 0:
        raise ConfigurationError(f"excitation must be nonnegative, got {excitation}")
    if len(windows) != mode_count:
        raise ConfigurationError("one window per mode required")
    return _sector_basis(excitation, _configs_by_total(windows))


def _sector_basis(excitation: int, groups: dict[int, np.ndarray]) -> SectorBasis:
    """The sector's basis from the configurations grouped by photon total."""
    states = []
    for branch in BRANCHES:
        for cfg in groups.get(excitation - EXCITED_COUNT[branch], ()):
            states.append((branch, tuple(int(n) for n in cfg)))
    return SectorBasis(excitation=excitation, states=tuple(states))


# transitions that raise the photon number by one in mode k: S- a_k^+
_LOWERING = {"aa": ("ab", "ba"), "ab": ("bb",), "ba": ("bb",)}

# photons emitted along each branch relative to the initial |aa> state
_EMITTED = {"aa": 0, "ab": 1, "ba": 1, "bb": 2}


def build_hamiltonian(sector: SectorBasis) -> HamiltonianBlock:
    """Matrix elements <branch', f+e_k| V |branch, f> = sqrt(f_k + 1),
    summed over modes and both atoms, symmetrized."""
    index = {state: i for i, state in enumerate(sector.states)}
    dim = sector.dim
    h = np.zeros((dim, dim))
    for i, (branch, cfg) in enumerate(sector.states):
        for target_branch in _LOWERING.get(branch, ()):
            for k, n_k in enumerate(cfg):
                cfg_up = cfg[:k] + (n_k + 1,) + cfg[k + 1:]
                j = index.get((target_branch, cfg_up))
                if j is not None:
                    h[i, j] = h[j, i] = np.sqrt(n_k + 1.0)
    return HamiltonianBlock(sector=sector, matrix=h)


class _Sector:
    """One diagonalized block plus the bookkeeping to scatter its
    coefficients back into the product-space branch vectors.

    The initial coefficients' eigenbasis projection and a C-ordered complex
    copy of the eigenvectors are kept, so that propagating many gts repeats
    neither; the complex copy is the operand numpy's mixed real-complex
    matmul would build, which keeps every coefficient bit for bit."""

    def __init__(self, block: HamiltonianBlock, shape: tuple, lows: np.ndarray,
                 c0: np.ndarray):
        self.basis = block.sector
        self.eigvals, self.eigvecs = np.linalg.eigh(block.matrix)
        self.branch_of = np.array([BRANCHES.index(b) for b, _ in self.basis.states])
        cfgs = np.array([c for _, c in self.basis.states], dtype=int)
        self.flat = np.ravel_multi_index(tuple((cfgs - lows).T), shape)
        # where rho_atom_exact's (4, N) branch vectors take each coefficient;
        # for a single mode each branch is shifted back by the photons it
        # emitted, and states shifted below the window drop out
        flat = self.flat
        if len(shape) == 1:
            flat = flat - np.array([_EMITTED[b] for b in BRANCHES])[self.branch_of]
        self.positions = np.flatnonzero(flat >= 0)
        self.targets = (self.branch_of[self.positions] * int(np.prod(shape))
                        + flat[self.positions])
        self.c0 = c0
        self._rates = -1j * self.eigvals
        self._eigvecs_c = np.ascontiguousarray(self.eigvecs, dtype=complex)
        self._proj = self.eigvecs.T @ c0

    def propagate(self, coeffs: np.ndarray, gt: float) -> np.ndarray:
        phases = np.exp(-1j * self.eigvals * gt)
        return self.eigvecs @ (phases * (self.eigvecs.T @ coeffs))

    def evolve(self, gts: np.ndarray) -> np.ndarray:
        """(len(gts), dim) coefficients of the initial state: one stacked
        matrix-vector product per gt."""
        phases = np.exp(self._rates * gts[:, None])
        return (self._eigvecs_c @ (phases * self._proj)[:, :, None])[:, :, 0]


def _sector_norms(coeffs: list) -> np.ndarray:
    """(..., sectors) squared norms of per-sector coefficient arrays of
    shape (..., dim)."""
    return np.stack([np.sum(np.abs(c) ** 2, axis=-1) for c in coeffs], axis=-1)


@dataclass
class OracleState:
    """Per-sector coefficient vectors of the exactly evolved state; norm is
    its total norm, computed once on construction."""

    gt: float
    evolver: "ExactEvolver"
    coeffs: list
    norm: float = field(init=False)

    def __post_init__(self):
        self.norm = self.total_norm()

    def sector_norms(self) -> np.ndarray:
        return _sector_norms(self.coeffs)

    def total_norm(self) -> float:
        return float(self.sector_norms().sum())

    def branch_vectors(self) -> dict[str, np.ndarray]:
        """Amplitudes per branch over the final configurations, unshifted:
        what the standard partial trace over field states pairs."""
        size = int(np.prod(self.evolver.shape))
        out = {b: np.zeros(size, dtype=complex) for b in BRANCHES}
        for sector, c in zip(self.evolver.sectors, self.coeffs):
            for bi, branch in enumerate(BRANCHES):
                mask = sector.branch_of == bi
                out[branch][sector.flat[mask]] = c[mask]
        return out


class ExactEvolver:
    """Diagonalizes every sector holding initial weight and evolves the
    initial state |a1, a2> x prod_k |field_k> to arbitrary times.

    Many gts are evaluated CHUNK_GTS at a time (densities); state_at and
    rho_atom_exact are the one-gt views of the same code."""

    def __init__(self, fields: list[FieldDistribution],
                 extension: int = ORACLE_WINDOW_EXTENSION,
                 max_sector_dim: int = MAX_SECTOR_DIM):
        if not fields:
            raise ConfigurationError("at least one field is required")
        self.windows = [TruncationWindow(f.window.n_min, f.window.n_max + extension)
                        for f in fields]
        self.shape = tuple(w.size for w in self.windows)
        lows = np.array([w.n_min for w in self.windows])

        groups = _configs_by_total(self.windows)
        init_cfgs = config_array([f.window for f in fields])
        init_weights = np.ones(len(init_cfgs), dtype=complex)
        for k, f in enumerate(fields):
            init_weights *= f.amplitudes_at(init_cfgs[:, k])
        init_totals = init_cfgs.sum(axis=1)

        self.sectors: list[_Sector] = []
        for total in sorted(set(init_totals.tolist())):
            excitation = total + 2
            basis = _sector_basis(excitation, groups)
            if basis.dim > max_sector_dim:
                raise ConfigurationError(
                    f"sector {excitation} has dimension {basis.dim} "
                    f"(budget {max_sector_dim}); reduce modes, mean, or coverage")
            c0 = np.zeros(basis.dim, dtype=complex)
            sel = init_totals == total
            idx = {s: i for i, s in enumerate(basis.states)}
            for cfg, w in zip(init_cfgs[sel], init_weights[sel]):
                c0[idx[("aa", tuple(int(n) for n in cfg))]] = w
            self.sectors.append(_Sector(build_hamiltonian(basis), self.shape, lows, c0))
        self._norm0 = float(sum(np.sum(np.abs(s.c0) ** 2) for s in self.sectors))
        self._vector_size = int(np.prod(self.shape))

    def check_drift(self, norms: np.ndarray, first: FirstFailure) -> None:
        """Flag the gts whose total norm drifted from the initial one."""
        drift = np.abs(np.asarray(norms) - self._norm0)
        first.check(drift > NORM_DRIFT_TOL, lambda i: (
            f"norm drift {drift[i]:.3e} beyond {NORM_DRIFT_TOL:g}; "
            "the truncation window is too small"))

    def _contract(self, coeffs: list) -> np.ndarray:
        """(G, 4, 4) unnormalized densities of per-sector (G, dim)
        coefficient arrays."""
        g = coeffs[0].shape[0]
        vectors = np.zeros((g, 4 * self._vector_size), dtype=complex)
        for sector, c in zip(self.sectors, coeffs):
            vectors[:, sector.targets] = c[:, sector.positions]
        return raw_density(vectors.reshape(g, 4, self._vector_size))

    def state_at(self, gt: float) -> OracleState:
        coeffs = [s.evolve(np.array([gt], dtype=float))[0] for s in self.sectors]
        state = OracleState(gt=gt, evolver=self, coeffs=coeffs)
        first = FirstFailure(1)
        self.check_drift([state.norm], first)
        first.raise_if_failed()
        return state

    def densities(self, gts) -> tuple[np.ndarray, np.ndarray]:
        """(G, 4, 4) unnormalized densities and (G,) total norms,
        propagating CHUNK_GTS gts at once; check_drift checks the norms."""
        gts = np.atleast_1d(np.asarray(gts, dtype=float))
        raws = np.empty((gts.size, 4, 4), dtype=complex)
        norms = np.empty(gts.size)
        for start in range(0, gts.size, CHUNK_GTS):
            chunk = slice(start, start + CHUNK_GTS)
            coeffs = [s.evolve(gts[chunk]) for s in self.sectors]
            norms[chunk] = _sector_norms(coeffs).sum(axis=-1)
            raws[chunk] = self._contract(coeffs)
        return raws, norms

    def evolve_from(self, state: OracleState, dgt: float) -> OracleState:
        coeffs = [s.propagate(c, dgt) for s, c in zip(self.sectors, state.coeffs)]
        return OracleState(gt=state.gt + dgt, evolver=self, coeffs=coeffs)


def evolve(fields: list[FieldDistribution], gt: float) -> OracleState:
    """One-shot exact evolution; build an ExactEvolver directly when many
    times are needed."""
    return ExactEvolver(fields).state_at(gt)


def rho_atom_exact(state: OracleState) -> TwoAtomDensity:
    """Two-atom reduced density matrix of an evolved state.

    For a single mode the branch amplitudes are paired by initial photon
    number (the branch's final occupation minus the photons it emitted),
    matching the published bilinear pairing and the consistent closed form.
    For m >= 2 no per-mode emission bookkeeping survives the exact
    evolution, so amplitudes are paired by final configuration: the
    standard partial trace over field states.
    """
    raw = state.evolver._contract([c[None, :] for c in state.coeffs])
    return TwoAtomDensity.from_unnormalized(raw[0])


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

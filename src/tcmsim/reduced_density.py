"""Two-atom reduced density matrix obtained by tracing out the field."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BRANCHES
from .errors import NumericalFailureError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass
class TwoAtomDensity:
    """4x4 density matrix in the basis (|aa>, |ab>, |ba>, |bb>).

    norm_deficit is 1 minus the trace the matrix had before normalization
    (nonzero for truncated or literal-convention amplitude sets).
    """

    matrix: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NumericalFailureError(f"density matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericalFailureError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise NumericalFailureError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise NumericalFailureError(f"density matrix trace {np.trace(m)} != 1")
        try:
            lo = float(np.linalg.eigvalsh(m).min())
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"density matrix eigenvalues: {exc}") from exc
        if lo < -PSD_TOL:
            raise NumericalFailureError(
                f"density matrix has negative eigenvalue {lo:.3e} beyond tolerance")
        self.matrix = m

    @classmethod
    def from_unnormalized(cls, raw: np.ndarray) -> "TwoAtomDensity":
        raw = np.asarray(raw, dtype=complex)
        if not np.all(np.isfinite(raw)):
            raise NumericalFailureError(
                "unnormalized density matrix has non-finite entries: the "
                "amplitude sums overflowed")
        raw = 0.5 * (raw + raw.conj().T)
        trace = float(np.trace(raw).real)
        if trace <= 0.0:
            raise NumericalFailureError("amplitude set has zero total norm")
        return cls(raw / trace, norm_deficit=1.0 - trace)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def entry(self, bra: str, ket: str) -> complex:
        return complex(self.matrix[BRANCHES.index(bra), BRANCHES.index(ket)])


def raw_density(vectors: np.ndarray) -> np.ndarray:
    """Unnormalized rho[..., b, b'] = sum_f v[..., b, f] conj(v[..., b', f])
    of (..., 4, N) branch vectors over a shared configuration indexing; a
    stack of gts gives the same matrices as one gt at a time."""
    return vectors @ np.swapaxes(vectors.conj(), -1, -2)


def density_from_branch_vectors(vectors: dict[str, np.ndarray]) -> TwoAtomDensity:
    """rho[b, b'] = sum_f amp(b, f) conj(amp(b', f)) over a shared final-
    configuration indexing, then normalized to unit trace."""
    stacked = np.stack([np.ravel(vectors[b]) for b in BRANCHES])
    return TwoAtomDensity.from_unnormalized(raw_density(stacked))


def partial_trace(amp_set) -> TwoAtomDensity:
    """Trace the field out of an AmplitudeSet.

    Branch amplitudes are paired by their anchor (summation) configuration:
    rho[b, b'] = sum_n amp(b, n) conj(amp(b', n)), which reproduces the
    published sixteen-term bilinear structure verbatim, the +-i phases
    riding along in the stored amplitudes.  In literal mode the anchor is
    the final configuration all four branches share; in consistent mode it
    is the initial configuration of the evolution block, so each block's
    interbranch coherences are retained.
    """
    return density_from_branch_vectors(
        {b: amp_set.anchored_array(b) for b in BRANCHES})

"""Two-atom reduced density matrices obtained by tracing out the field.

Densities are normalized and validated as (G, 4, 4) stacks, one matrix per
gt; a single matrix is a stack of one.  A stack fails where a loop over its
matrices, stopping at the first exception, would fail (FirstFailure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailureError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


class FirstFailure:
    """The first failing gt of a stack checked one stage at a time, and
    its error.

    Each check sees only the gts before the first failure found so far
    (stop), so the error kept is the one a per-gt loop running every check
    on one gt before moving to the next would raise first."""

    def __init__(self, size: int):
        self.stop = size
        self.error: NumericalFailureError | None = None

    def check(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """bad flags the failing gts (at least the first stop of them);
        message(i) is the error text of gt i."""
        hits = np.flatnonzero(bad[:self.stop])
        if hits.size:
            self.stop = int(hits[0])
            self.error = NumericalFailureError(message(self.stop))

    def stacked(self, fn, stack: np.ndarray, what: str) -> np.ndarray:
        """fn over the stack's first stop matrices.  numpy raises
        LinAlgError for a whole stack if one matrix fails, so then the
        matrices are retried one at a time to find the first."""
        stack = stack[:self.stop]
        try:
            return fn(stack)
        except np.linalg.LinAlgError:
            for i, matrix in enumerate(stack):
                try:
                    fn(matrix)
                except np.linalg.LinAlgError as exc:
                    self.check(np.arange(stack.shape[0]) == i, lambda _: f"{what}: {exc}")
                    return fn(stack[:i])
            raise

    def raise_if_failed(self) -> None:
        if self.error is not None:
            raise self.error


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def normalize(raws: np.ndarray, first: FirstFailure) -> tuple[np.ndarray, np.ndarray]:
    """Unit-trace matrices and norm deficits (1 minus the trace before
    normalization) of a (G, 4, 4) unnormalized stack, Hermitian-symmetrized;
    the gts from the first failure on are cut off."""
    raws = np.asarray(raws, dtype=complex)
    first.check(~np.isfinite(raws).all(axis=(-2, -1)), lambda i: (
        "unnormalized density matrix has non-finite entries: the amplitude "
        "sums overflowed"))
    raw = raws[:first.stop]
    raw = 0.5 * (raw + _adjoint(raw))
    trace = np.trace(raw, axis1=-2, axis2=-1).real
    first.check(trace <= 0.0, lambda i: "amplitude set has zero total norm")
    n = first.stop
    return raw[:n] / trace[:n, None, None], 1.0 - trace[:n]


def validate(rho: np.ndarray, first: FirstFailure) -> None:
    """Check a (G, 4, 4) stack of density matrices: finite, Hermitian, unit
    trace and positive semidefinite, each within its tolerance."""
    first.check(~np.isfinite(rho).all(axis=(-2, -1)),
                lambda i: "density matrix has non-finite entries")
    m = rho[:first.stop]
    skew = np.abs(m - _adjoint(m)).max(axis=(-2, -1), initial=0.0)
    first.check(skew > HERMITICITY_TOL, lambda i: "density matrix is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    first.check((np.abs(tr.real - 1.0) > TRACE_TOL) | (np.abs(tr.imag) > TRACE_TOL),
                lambda i: f"density matrix trace {tr[i]} != 1")
    lo = first.stacked(np.linalg.eigvalsh, m, "density matrix eigenvalues").min(
        axis=-1, initial=np.inf)
    first.check(lo < -PSD_TOL, lambda i: (
        f"density matrix has negative eigenvalue {lo[i]:.3e} beyond tolerance"))


@dataclass
class TwoAtomDensity:
    """4x4 density matrix in the basis (|aa>, |ab>, |ba>, |bb>).

    norm_deficit is 1 minus the trace the matrix had before normalization
    (nonzero for truncated or literal-convention amplitudes).
    """

    matrix: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NumericalFailureError(f"density matrix must be 4x4, got {m.shape}")
        first = FirstFailure(1)
        validate(m[None], first)
        first.raise_if_failed()
        self.matrix = m

    @classmethod
    def from_unnormalized(cls, raw: np.ndarray) -> "TwoAtomDensity":
        first = FirstFailure(1)
        rho, deficit = normalize(np.asarray(raw, dtype=complex)[None], first)
        first.raise_if_failed()
        return cls(rho[0], norm_deficit=float(deficit[0]))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def raw_density(vectors: np.ndarray) -> np.ndarray:
    """Unnormalized rho[..., b, b'] = sum_f v[..., b, f] conj(v[..., b', f])
    of (..., 4, N) branch vectors over a shared configuration indexing; a
    stack of gts gives the same matrices as one gt at a time."""
    return vectors @ np.swapaxes(vectors.conj(), -1, -2)

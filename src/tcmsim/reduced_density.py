"""Two-atom reduced density matrices obtained by tracing out the field.

Densities are normalized and validated as (G, 4, 4) stacks, one matrix per
gt; a single matrix is a stack of one.  Each check runs on the whole stack,
and a stack fails at the first check that fails, at that check's first
failing gt (raise_at_first).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalFailureError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def raise_at_first(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise NumericalFailureError(message(i)) for the first gt i that bad
    flags, if any."""
    if bad.any():
        raise NumericalFailureError(message(int(np.argmax(bad))))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def normalize(raws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-trace matrices and norm deficits (1 minus the trace before
    normalization) of a (G, 4, 4) unnormalized stack, Hermitian-symmetrized."""
    raw = np.asarray(raws, dtype=complex)
    raise_at_first(~np.isfinite(raw).all(axis=(-2, -1)), lambda i: (
        "unnormalized density matrix has non-finite entries: the amplitude "
        "sums overflowed"))
    raw = 0.5 * (raw + _adjoint(raw))
    trace = np.trace(raw, axis1=-2, axis2=-1).real
    raise_at_first(trace <= 0.0, lambda i: "amplitude set has zero total norm")
    return raw / trace[:, None, None], 1.0 - trace


def validate(rho: np.ndarray) -> None:
    """Check a (G, 4, 4) stack of density matrices: finite, Hermitian, unit
    trace and positive semidefinite, each within its tolerance."""
    raise_at_first(~np.isfinite(rho).all(axis=(-2, -1)),
                   lambda i: "density matrix has non-finite entries")
    skew = np.abs(rho - _adjoint(rho)).max(axis=(-2, -1), initial=0.0)
    raise_at_first(skew > HERMITICITY_TOL, lambda i: "density matrix is not Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    raise_at_first((np.abs(tr.real - 1.0) > TRACE_TOL) | (np.abs(tr.imag) > TRACE_TOL),
                   lambda i: f"density matrix trace {tr[i]} != 1")
    try:
        lo = np.linalg.eigvalsh(rho).min(axis=-1, initial=np.inf)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"density matrix eigenvalues: {exc}") from exc
    raise_at_first(lo < -PSD_TOL, lambda i: (
        f"density matrix has negative eigenvalue {lo[i]:.3e} beyond tolerance"))


def raw_density(vectors: np.ndarray) -> np.ndarray:
    """Unnormalized rho[..., b, b'] = sum_f v[..., b, f] conj(v[..., b', f])
    of (..., 4, N) branch vectors over a shared configuration indexing; a
    stack of gts gives the same matrices as one gt at a time."""
    return vectors @ np.swapaxes(vectors.conj(), -1, -2)

"""Wootters concurrence and entanglement of formation for two qubits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError
from .reduced_density import TwoAtomDensity

EIG_IMAG_TOL = 1e-10
EIG_NEG_TOL = 1e-10

# sigma_y (x) sigma_y in the (aa, ab, ba, bb) basis: antidiagonal -1, 1, 1, -1
_SPIN_FLIP = np.zeros((4, 4))
_SPIN_FLIP[0, 3] = -1.0
_SPIN_FLIP[1, 2] = 1.0
_SPIN_FLIP[2, 1] = 1.0
_SPIN_FLIP[3, 0] = -1.0


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, TwoAtomDensity):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def spin_flip(rho) -> np.ndarray:
    """rho_tilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    m = _as_matrix(rho)
    return _SPIN_FLIP @ m.conj() @ _SPIN_FLIP


class ConcurrenceResult(NamedTuple):
    value: float
    lambdas: np.ndarray  # eigenvalues of rho * rho_tilde, descending


def concurrence(rho) -> ConcurrenceResult:
    """C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    eigenvalues of rho * rho_tilde in descending order.

    The product matrix is not Hermitian, so a general eigensolver is used;
    physically the spectrum is real and nonnegative, and violations beyond
    tolerance raise NumericalFailureError.
    """
    m = _as_matrix(rho)
    try:
        eigs = np.linalg.eigvals(m @ spin_flip(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"concurrence eigenvalues: {exc}") from exc
    max_imag = float(np.max(np.abs(eigs.imag)))
    if max_imag > EIG_IMAG_TOL:
        raise NumericalFailureError(
            f"concurrence eigenvalues have imaginary part {max_imag:.3e}")
    lam = eigs.real
    if float(lam.min()) < -EIG_NEG_TOL:
        raise NumericalFailureError(
            f"concurrence eigenvalue {lam.min():.3e} negative beyond tolerance")
    lam = np.sort(np.clip(lam, 0.0, None))[::-1]
    # eigenvalues at relative machine-noise level snap to zero: the square
    # root would otherwise amplify O(1e-16) junk into O(1e-8) concurrence
    # errors on pure states
    if lam[0] > 0.0:
        lam[lam < 1e-13 * lam[0]] = 0.0
    roots = np.sqrt(lam)
    value = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
    return ConcurrenceResult(min(value, 1.0), lam)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x) with h(0) = h(1) = 0."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * np.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * np.log2(1.0 - x)
    return float(out)


def eof(c: float) -> float:
    """Entanglement of formation E_F = h((1 + sqrt(1 - C^2))/2)."""
    if c < -1e-12 or c > 1.0 + 1e-12:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


@dataclass(frozen=True)
class EntanglementPoint:
    """Entanglement measures of one time sample."""

    gt: float
    concurrence: float
    eof: float
    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (4,) or np.any(np.diff(lam) > 0):
            raise NumericalFailureError("lambda diagnostics must be 4 descending values")
        object.__setattr__(self, "lambdas", lam)


def entanglement_point(gt: float, rho) -> EntanglementPoint:
    c, lam = concurrence(rho)
    return EntanglementPoint(gt=gt, concurrence=c, eof=eof(c), lambdas=lam)

"""Wootters concurrence and entanglement of formation for two qubits."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .reduced_density import FirstFailure, TwoAtomDensity

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


def concurrences(rho: np.ndarray, first: FirstFailure) -> tuple[np.ndarray, np.ndarray]:
    """Concurrences and their descending lambdas of a (G, 4, 4) stack of
    density matrices, for the gts before the first failure.

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    eigenvalues of rho * rho_tilde in descending order.  The product matrix
    is not Hermitian, so a general eigensolver is used; physically the
    spectrum is real and nonnegative, and violations beyond tolerance are
    failures.
    """
    m = rho[:first.stop]
    eigs = first.stacked(np.linalg.eigvals, m @ spin_flip(m), "concurrence eigenvalues")
    max_imag = np.abs(eigs.imag).max(axis=-1, initial=0.0)
    first.check(max_imag > EIG_IMAG_TOL, lambda i: (
        f"concurrence eigenvalues have imaginary part {max_imag[i]:.3e}"))
    lam = eigs.real
    lo = lam.min(axis=-1, initial=np.inf)
    first.check(lo < -EIG_NEG_TOL, lambda i: (
        f"concurrence eigenvalue {lo[i]:.3e} negative beyond tolerance"))
    lam = np.sort(np.clip(lam[:first.stop], 0.0, None), axis=-1)[..., ::-1]
    # eigenvalues at relative machine-noise level snap to zero: the square
    # root would otherwise amplify O(1e-16) junk into O(1e-8) concurrence
    # errors on pure states
    lam[lam < 1e-13 * lam[..., :1]] = 0.0
    roots = np.sqrt(lam)
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    value = np.where(value > 0.0, value, 0.0)
    return np.where(value > 1.0, 1.0, value), lam


def concurrence(rho) -> ConcurrenceResult:
    """The concurrence of one density matrix: concurrences on a stack of
    one."""
    first = FirstFailure(1)
    values, lambdas = concurrences(_as_matrix(rho)[None], first)
    first.raise_if_failed()
    return ConcurrenceResult(float(values[0]), lambdas[0])


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x) with h(0) = h(1) = 0,
    elementwise; a float for a scalar x."""
    x = np.asarray(x, dtype=float)
    if np.any((x < -1e-12) | (x > 1.0 + 1e-12)):
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.0 - np.where(x > 0.0, x * np.log2(x), 0.0)
        out = out - np.where(x < 1.0, (1.0 - x) * np.log2(1.0 - x), 0.0)
    return float(out) if out.ndim == 0 else out


def eof(c):
    """Entanglement of formation E_F = h((1 + sqrt(1 - C^2))/2),
    elementwise; a float for a scalar C."""
    c = np.asarray(c, dtype=float)
    if np.any((c < -1e-12) | (c > 1.0 + 1e-12)):
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)

"""Wootters concurrence and entanglement of formation for two qubits."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .reduced_density import raise_at_first

EIG_IMAG_TOL = 1e-10
EIG_NEG_TOL = 1e-10
# how far W may leave [-1, 1], and a concurrence or E_F [0, 1], by rounding
RANGE_TOL = 1e-12

# sigma_y (x) sigma_y in the (aa, ab, ba, bb) basis: antidiagonal -1, 1, 1, -1
_SPIN_FLIP = np.zeros((4, 4))
_SPIN_FLIP[0, 3] = -1.0
_SPIN_FLIP[1, 2] = 1.0
_SPIN_FLIP[2, 1] = 1.0
_SPIN_FLIP[3, 0] = -1.0


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho_tilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y), for
    one matrix or a stack."""
    return _SPIN_FLIP @ np.conj(rho) @ _SPIN_FLIP


def concurrences(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrences and their descending lambdas of a (G, 4, 4) stack of
    density matrices.

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    eigenvalues of rho * rho_tilde in descending order.  The product matrix
    is not Hermitian, so a general eigensolver is used; physically the
    spectrum is real and nonnegative, and violations beyond tolerance are
    failures.
    """
    try:
        eigs = np.linalg.eigvals(rho @ spin_flip(rho))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"concurrence eigenvalues: {exc}") from exc
    max_imag = np.abs(eigs.imag).max(axis=-1, initial=0.0)
    raise_at_first(max_imag > EIG_IMAG_TOL, lambda i: (
        f"concurrence eigenvalues have imaginary part {max_imag[i]:.3e}"))
    lam = eigs.real
    lo = lam.min(axis=-1, initial=np.inf)
    raise_at_first(lo < -EIG_NEG_TOL, lambda i: (
        f"concurrence eigenvalue {lo[i]:.3e} negative beyond tolerance"))
    lam = np.sort(np.clip(lam, 0.0, None), axis=-1)[..., ::-1]
    # eigenvalues at relative machine-noise level snap to zero: the square
    # root would otherwise amplify O(1e-16) junk into O(1e-8) concurrence
    # errors on pure states
    lam[lam < 1e-13 * lam[..., :1]] = 0.0
    roots = np.sqrt(lam)
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    value = np.where(value > 0.0, value, 0.0)
    return np.where(value > 1.0, 1.0, value), lam


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x) with h(0) = h(1) = 0,
    elementwise; a float for a scalar x.  The first x outside [0, 1]
    beyond RANGE_TOL, or NaN, is named in a ConfigurationError."""
    x = np.asarray(x, dtype=float)
    bad = ~((x >= -RANGE_TOL) & (x <= 1.0 + RANGE_TOL))
    if bad.any():
        raise ConfigurationError(f"binary entropy argument {x[bad][0]} outside [0, 1]")
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.0 - np.where(x > 0.0, x * np.log2(x), 0.0)
        out = out - np.where(x < 1.0, (1.0 - x) * np.log2(1.0 - x), 0.0)
    return float(out) if out.ndim == 0 else out


def eof(c):
    """Entanglement of formation E_F = h((1 + sqrt(1 - C^2))/2),
    elementwise; a float for a scalar C.  The first C outside [0, 1]
    beyond RANGE_TOL, or NaN, is named in a ConfigurationError."""
    c = np.asarray(c, dtype=float)
    bad = ~((c >= -RANGE_TOL) & (c <= 1.0 + RANGE_TOL))
    if bad.any():
        raise ConfigurationError(f"concurrence {c[bad][0]} outside [0, 1]")
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)

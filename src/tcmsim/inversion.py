"""One-atom population inversion: the collapse-and-revival comparator.
The two-atom inversion W is the W column of every observables series."""

from __future__ import annotations

import numpy as np

from .fock_field import FieldDistribution


def single_atom_jcm_series(field: FieldDistribution, gts: np.ndarray) -> np.ndarray:
    """Resonant one-atom inversion W(gt) = sum_n p_n cos(2 gt sqrt(n+1)),
    the standard comparator for collapse-and-revival timing."""
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    p = field.probabilities()
    p = p / p.sum()
    rabi = 2.0 * np.sqrt(field.window.values() + 1.0)
    return np.cos(np.outer(gts, rabi)) @ p

"""One-atom population inversion: the collapse-and-revival comparator.
The two-atom inversion W is the W column of every observables series."""

from __future__ import annotations

import numpy as np

from .fock_field import FieldDistribution
from .reduced_density import check_grid, check_memory, raise_at_first


def single_atom_jcm_series(field: FieldDistribution, gts: np.ndarray) -> np.ndarray:
    """Resonant one-atom inversion W(gt) = sum_n p_n cos(2 gt sqrt(n+1)),
    the standard comparator for collapse-and-revival timing.  A gt whose
    phase 2 gt sqrt(n+1) overflows raises NumericalFailureError."""
    gts = check_grid(gts)
    p = field.probabilities()
    p = p / p.sum()
    rabi = 2.0 * np.sqrt(field.window.values() + 1.0)
    # the float64 phases and their cosines, a gt and photon number each
    check_memory(16 * gts.size * rabi.size,
                 f"the one-atom phases and cosines of {gts.size} gts over "
                 f"{rabi.size} photon numbers")
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.outer(gts, rabi)
        w = np.cos(phases) @ p
    raise_at_first(~np.isfinite(phases).all(axis=1), lambda i: (
        f"the one-atom phase 2 gt sqrt(n+1) overflowed at gt {gts[i]:g}"))
    return w

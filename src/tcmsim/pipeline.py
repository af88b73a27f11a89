"""Observable time series built from the closed-form or oracle routes."""

from __future__ import annotations

import numpy as np

from .closed_form import (CONSISTENT, LITERAL, ConsistentBlocks, EvolutionParams,
                          assemble)
from .entanglement import concurrence, eof
from .errors import ConfigurationError
from .fock_field import FieldDistribution, same_fields
from .oracle import ExactEvolver
from .reduced_density import TwoAtomDensity, partial_trace, raw_density
from .series import TimeSeries
from .symmetric import SymmetricLiteralEvaluator


def observables_from_density(rho: TwoAtomDensity) -> tuple[float, float, float]:
    """(W, C, E_F) of one normalized two-atom density matrix."""
    w = float(rho.matrix[0, 0].real - rho.matrix[3, 3].real)
    c = concurrence(rho).value
    return w, c, eof(c)


def compute_observables(fields: list[FieldDistribution], gts: np.ndarray,
                        convention: str = CONSISTENT) -> dict[str, np.ndarray]:
    """W, concurrence, eof, and norm_deficit arrays over the gt grid.

    Identical per-mode fields with the literal convention go through the
    permutation-symmetric evaluator; other multimode cases enumerate the
    configuration product directly (with resource guards).  Consistent
    multimode runs reuse one block eigendecomposition for every time.
    """
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    m = len(fields)
    out = {k: np.zeros(gts.size) for k in ("w", "concurrence", "eof", "norm_deficit")}

    def fill_point(i, rho):
        w, c, e = observables_from_density(rho)
        out["w"][i] = w
        out["concurrence"][i] = c
        out["eof"][i] = e
        out["norm_deficit"][i] = rho.norm_deficit

    if m >= 2 and convention == LITERAL and same_fields(fields):
        evaluator = SymmetricLiteralEvaluator(fields[0], m)
        raws = evaluator.raw_densities(gts)
        for i in range(gts.size):
            fill_point(i, TwoAtomDensity.from_unnormalized(raws[i]))
        return out

    if m >= 2 and convention == CONSISTENT:
        blocks = ConsistentBlocks(fields)
        for i, gt in enumerate(gts):
            params = EvolutionParams(gt=float(gt), mode_count=m)
            fill_point(i, TwoAtomDensity.from_unnormalized(
                raw_density(blocks.anchored_vectors(params.gt))))
        return out

    for i, gt in enumerate(gts):
        amp_set = assemble(EvolutionParams(gt=float(gt), mode_count=m), fields,
                           convention)
        fill_point(i, partial_trace(amp_set))
    return out


def closed_form_series(fields: list[FieldDistribution], gts: np.ndarray,
                       convention: str = CONSISTENT) -> TimeSeries:
    obs = compute_observables(fields, gts, convention)
    return TimeSeries(gt=np.asarray(gts, dtype=float), w=obs["w"],
                      concurrence=obs["concurrence"], eof=obs["eof"],
                      extras={"norm_deficit": obs["norm_deficit"]})


def oracle_series(fields: list[FieldDistribution], gts: np.ndarray,
                  evolver: ExactEvolver | None = None) -> TimeSeries:
    """Exact-evolution observables on the grid, with per-point norm drift."""
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    if evolver is None:
        evolver = ExactEvolver(fields)
    w = np.zeros(gts.size)
    c = np.zeros(gts.size)
    e = np.zeros(gts.size)
    drift = np.zeros(gts.size)
    norm0 = evolver.state_at(0.0).norm
    for i, (raw, norm) in enumerate(evolver.densities(gts)):
        w[i], c[i], e[i] = observables_from_density(
            TwoAtomDensity.from_unnormalized(raw))
        drift[i] = abs(norm - norm0)
    return TimeSeries(gt=gts, w=w, concurrence=c, eof=e,
                      extras={"norm_drift": drift})


def uniform_grid(gt_max: float, gt_steps: int) -> np.ndarray:
    if gt_steps < 2:
        raise ConfigurationError(f"gt_steps must be >= 2, got {gt_steps}")
    if gt_max <= 0:
        raise ConfigurationError(f"gt_max must be positive, got {gt_max}")
    return np.linspace(0.0, gt_max, gt_steps)

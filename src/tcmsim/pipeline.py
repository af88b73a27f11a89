"""Observable time series built from the closed-form or oracle routes:
each route evaluates a whole gt grid into a (G, 4, 4) stack of unnormalized
densities, and one batched pass (observables) makes the columns."""

from __future__ import annotations

import numpy as np

from .closed_form import (CONSISTENT, CONVENTIONS, LITERAL, ConsistentBlocks,
                          ProductLiteral, SingleModeConsistent, SingleModeLiteral)
from .entanglement import concurrences, eof
from .errors import ConfigurationError
from .fock_field import FieldDistribution, same_fields
from .oracle import ExactEvolver
from .reduced_density import normalize, validate
from .series import TimeSeries
from .symmetric import SymmetricLiteralEvaluator


def check_grid(gts) -> np.ndarray:
    """gts as a 1-D float array; NaN, infinite and negative values are
    configuration errors.  Every route's grid passes through here."""
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    bad = ~(np.isfinite(gts) & (gts >= 0.0))
    if bad.any():
        raise ConfigurationError(
            f"gt must be finite and nonnegative, got {gts[bad][0]}")
    return gts


def closed_form_route(fields: list[FieldDistribution], convention: str):
    """The route whose raw_densities(gts) gives the fields' (G, 4, 4)
    unnormalized densities in the convention.  Identical multimode literal
    fields sum over occupation multisets; other multimode literal fields
    enumerate the configuration product (with resource guards)."""
    if convention not in CONVENTIONS:
        raise ConfigurationError(f"unknown convention {convention!r}")
    m = len(fields)
    if m == 1:
        route = SingleModeLiteral if convention == LITERAL else SingleModeConsistent
        return route(fields[0])
    if convention == CONSISTENT:
        return ConsistentBlocks(fields)
    if same_fields(fields):
        return SymmetricLiteralEvaluator(fields[0], m)
    return ProductLiteral(fields)


def observables(raws: np.ndarray) -> dict[str, np.ndarray]:
    """W, concurrence, eof and norm_deficit arrays of a (G, 4, 4) stack of
    unnormalized densities, all gts at once: normalize, validate and the
    Wootters concurrence each run on the whole stack.  NumericalFailureError
    reports the first check that fails, at its first failing gt."""
    rho, deficit = normalize(raws)
    validate(rho)
    c, _ = concurrences(rho)
    return {"w": rho[:, 0, 0].real - rho[:, 3, 3].real, "concurrence": c,
            "eof": eof(c), "norm_deficit": deficit}


def closed_form_series(fields: list[FieldDistribution], gts: np.ndarray,
                       convention: str = CONSISTENT) -> TimeSeries:
    """Closed-form observables on the grid, with the per-point norm deficit
    as an extra column."""
    gts = check_grid(gts)
    obs = observables(closed_form_route(fields, convention).raw_densities(gts))
    return TimeSeries(gt=gts, w=obs["w"], concurrence=obs["concurrence"],
                      eof=obs["eof"], extras={"norm_deficit": obs["norm_deficit"]})


def oracle_series(fields: list[FieldDistribution], gts: np.ndarray) -> TimeSeries:
    """Exact-evolution observables on the grid, with per-point norm drift
    from the gt = 0 norm.  The gt = 0 norm and then the grid's norms are
    checked for drift before the densities: propagation that lost
    unitarity is reported ahead of the density failures it causes."""
    gts = check_grid(gts)
    evolver = ExactEvolver(fields)
    _, norm0 = evolver.densities([0.0])
    evolver.check_drift(norm0)
    raws, norms = evolver.densities(gts)
    evolver.check_drift(norms)
    obs = observables(raws)
    drift = np.abs(norms - norm0[0])
    return TimeSeries(gt=gts, w=obs["w"], concurrence=obs["concurrence"],
                      eof=obs["eof"], extras={"norm_drift": drift})


def uniform_grid(gt_max: float, gt_steps: int) -> np.ndarray:
    if gt_steps < 2:
        raise ConfigurationError(f"gt_steps must be >= 2, got {gt_steps}")
    if not 0 < gt_max < np.inf:
        raise ConfigurationError(f"gt_max must be positive and finite, got {gt_max}")
    return np.linspace(0.0, gt_max, gt_steps)

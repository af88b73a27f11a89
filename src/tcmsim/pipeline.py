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
from .reduced_density import FirstFailure, normalize, validate
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


def observables(raws: np.ndarray, first: FirstFailure | None = None) -> dict[str, np.ndarray]:
    """W, concurrence, eof and norm_deficit arrays of a (G, 4, 4) stack of
    unnormalized densities, all gts at once, by the code TwoAtomDensity and
    concurrence run on stacks of one.  NumericalFailureError reports the
    first failing gt, counting failures already flagged in first."""
    first = FirstFailure(len(raws)) if first is None else first
    rho, deficit = normalize(raws, first)
    validate(rho, first)
    c, _ = concurrences(rho, first)
    first.raise_if_failed()
    return {"w": rho[:, 0, 0].real - rho[:, 3, 3].real, "concurrence": c,
            "eof": eof(c), "norm_deficit": deficit}


def compute_observables(fields: list[FieldDistribution], gts: np.ndarray,
                        convention: str = CONSISTENT) -> dict[str, np.ndarray]:
    """W, concurrence, eof, and norm_deficit arrays over the gt grid."""
    gts = check_grid(gts)
    return observables(closed_form_route(fields, convention).raw_densities(gts))


def closed_form_series(fields: list[FieldDistribution], gts: np.ndarray,
                       convention: str = CONSISTENT) -> TimeSeries:
    obs = compute_observables(fields, gts, convention)
    return TimeSeries(gt=np.asarray(gts, dtype=float), w=obs["w"],
                      concurrence=obs["concurrence"], eof=obs["eof"],
                      extras={"norm_deficit": obs["norm_deficit"]})


def oracle_series(fields: list[FieldDistribution], gts: np.ndarray,
                  evolver: ExactEvolver | None = None) -> TimeSeries:
    """Exact-evolution observables on the grid, with per-point norm drift."""
    gts = check_grid(gts)
    if evolver is None:
        evolver = ExactEvolver(fields)
    norm0 = evolver.state_at(0.0).norm
    raws, norms = evolver.densities(gts)
    first = FirstFailure(gts.size)
    evolver.check_drift(norms, first)
    obs = observables(raws, first)
    drift = np.abs(norms - norm0)
    return TimeSeries(gt=gts, w=obs["w"], concurrence=obs["concurrence"],
                      eof=obs["eof"], extras={"norm_drift": drift})


def uniform_grid(gt_max: float, gt_steps: int) -> np.ndarray:
    if gt_steps < 2:
        raise ConfigurationError(f"gt_steps must be >= 2, got {gt_steps}")
    if not 0 < gt_max < np.inf:
        raise ConfigurationError(f"gt_max must be positive and finite, got {gt_max}")
    return np.linspace(0.0, gt_max, gt_steps)

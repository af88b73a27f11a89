"""Observable series built from the closed-form or oracle routes: each
route evaluates a whole gt grid into a (G, 4, 4) stack of unnormalized
densities, and one batched pass (observables), a block of gts at a time,
makes the columns.  A series is the dict of its CSV columns, gt first."""

from __future__ import annotations

import numpy as np

from .closed_form import (CONSISTENT, CONVENTIONS, LITERAL, ConsistentBlocks,
                          ProductLiteral, SingleModeConsistent, SingleModeLiteral)
from .entanglement import RANGE_TOL, concurrences, eof
from .errors import ConfigurationError, NumericalFailureError
from .fock_field import FieldDistribution, same_fields
from .oracle import ExactEvolver
from .reduced_density import check_grid, normalize, raise_at_first
from .symmetric import SymmetricLiteralEvaluator


def closed_form_route(fields: list[FieldDistribution], convention: str):
    """The route whose raw_densities(gts) gives the fields' (G, 4, 4)
    unnormalized densities in the convention.  Identical multimode literal
    fields sum over occupation multisets; other multimode literal fields
    enumerate the configuration product (with resource guards)."""
    if convention not in CONVENTIONS:
        raise ConfigurationError(f"unknown convention {convention!r}")
    if not fields:
        raise ConfigurationError("at least one field is required")
    m = len(fields)
    if m == 1:
        route = SingleModeLiteral if convention == LITERAL else SingleModeConsistent
        return route(fields[0])
    if convention == CONSISTENT:
        return ConsistentBlocks(fields)
    if same_fields(fields):
        return SymmetricLiteralEvaluator(fields[0], m)
    return ProductLiteral(fields)


# gts per observables block: one gt's normalize, eigvalsh, eigvals and
# snap temporaries come to about 1.1 KB, so a block holds about 280 KB
BLOCK_GTS = 256


def _block_observables(raws: np.ndarray) -> tuple[np.ndarray, ...]:
    """The W, concurrence, eof and norm_deficit columns of one pass over a
    (G, 4, 4) stack, each check on the whole of it."""
    rho, deficit = normalize(raws)
    c, _ = concurrences(rho)
    w = rho[:, 0, 0].real - rho[:, 3, 3].real
    raise_at_first(np.abs(w) > 1 + RANGE_TOL, lambda i: f"|W| = {abs(w[i]):.15g} exceeds 1")
    return w, c, eof(c), deficit


def observables(raws: np.ndarray) -> dict[str, np.ndarray]:
    """The W, concurrence, eof and norm_deficit columns of a (G, 4, 4)
    stack of unnormalized densities, BLOCK_GTS gts at a time: normalize
    and its checks, the Wootters concurrence and the range of W act on each
    matrix alone, so no bit depends on the block.  A stack with a failing
    block goes through the same pass whole, which raises
    NumericalFailureError for the first check that fails, at its first
    failing gt.  The concurrence and eof clip into [0, 1]."""
    columns = [np.empty(len(raws)) for _ in range(4)]
    try:
        for start in range(0, len(raws), BLOCK_GTS):
            block = slice(start, start + BLOCK_GTS)
            for column, values in zip(columns, _block_observables(raws[block])):
                column[block] = values
    except NumericalFailureError:
        _block_observables(raws)
        raise
    return dict(zip(("W", "concurrence", "eof", "norm_deficit"), columns))


def closed_form_series(fields: list[FieldDistribution], gts: np.ndarray,
                       convention: str = CONSISTENT) -> dict[str, np.ndarray]:
    """The columns gt, W, concurrence, eof and norm_deficit of the
    closed-form observables on a strictly increasing grid."""
    gts = check_grid(gts, increasing=True)
    return {"gt": gts} | observables(closed_form_route(fields, convention).raw_densities(gts))


def oracle_series(fields: list[FieldDistribution],
                  gts: np.ndarray) -> dict[str, np.ndarray]:
    """The columns gt, W, concurrence, eof and norm_drift (from the gt = 0
    norm) of the exact-evolution observables on a strictly increasing
    grid.  gt = 0 is propagated with the grid, in one densities call that
    checks every norm for drift before the observables are made."""
    gts = check_grid(gts, increasing=True)
    raws, norms = ExactEvolver(fields).densities(np.concatenate(([0.0], gts)))
    obs = observables(raws[1:])
    del obs["norm_deficit"]
    return {"gt": gts} | obs | {"norm_drift": np.abs(norms[1:] - norms[0])}


def uniform_grid(gt_max: float, gt_steps: int) -> np.ndarray:
    if gt_steps < 2:
        raise ConfigurationError(f"gt_steps must be >= 2, got {gt_steps}")
    if not 0 < gt_max < np.inf:
        raise ConfigurationError(f"gt_max must be positive and finite, got {gt_max}")
    return np.linspace(0.0, gt_max, gt_steps)

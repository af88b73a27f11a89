"""The sampled observable series shared by the pipeline and the analysis
helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass
class TimeSeries:
    """Uniformly sampled (gt, W, C, E_F) records, plus optional named
    extra columns (oracle observables, deltas, norm deficits)."""

    gt: np.ndarray
    w: np.ndarray
    concurrence: np.ndarray
    eof: np.ndarray
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.gt = np.asarray(self.gt, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.concurrence = np.asarray(self.concurrence, dtype=float)
        self.eof = np.asarray(self.eof, dtype=float)
        n = self.gt.size
        if any(a.shape != (n,) for a in (self.w, self.concurrence, self.eof)):
            raise ConfigurationError("all series columns must share the gt grid")
        if n >= 2 and np.any(np.diff(self.gt) <= 0):
            raise ConfigurationError("gt grid must be strictly increasing")
        tol = 1e-12
        if np.any(np.abs(self.w) > 1 + tol):
            raise ConfigurationError("|W| exceeds 1")
        for name, col in (("concurrence", self.concurrence), ("eof", self.eof)):
            if np.any(col < -tol) or np.any(col > 1 + tol):
                raise ConfigurationError(f"{name} outside [0, 1]")

    def channel(self, name: str) -> np.ndarray:
        key = {"W": "w", "concurrence": "concurrence", "eof": "eof"}.get(name)
        if key is None:
            raise ConfigurationError(f"unknown channel {name!r}")
        return getattr(self, key)

    @property
    def step(self) -> float:
        return float(self.gt[1] - self.gt[0]) if self.gt.size >= 2 else 0.0

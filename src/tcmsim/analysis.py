"""Post-processing: revival peaks, collapse windows, oscillation rates,
mode sweeps, and closed-form-versus-oracle deviation summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline
from .errors import ConfigurationError
from .fock_field import coherent_field
from .series import TimeSeries

ENVELOPE_WINDOW_GT = 1.0


def moving_average(values: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average; the window is truncated at the edges."""
    if half_width <= 0:
        return np.asarray(values, dtype=float)
    n = values.size
    csum = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(n)
    lo = np.maximum(idx - half_width, 0)
    hi = np.minimum(idx + half_width, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def find_peaks(x: np.ndarray, distance: int, height: float) -> np.ndarray:
    """Indices of the local maxima of x that reach height and lie at least
    distance samples apart, as ``scipy.signal.find_peaks(x,
    distance=distance, height=height)`` returns them.

    A local maximum is a strict rise, a plateau of equal values and a
    strict fall; it sits at the plateau's midpoint.  Among peaks closer
    than distance, the highest is kept, visited in ``np.argsort`` order.
    """
    x = np.asarray(x, dtype=float)
    # a rise, then a fall at the next step between unequal neighbours
    diffs = np.diff(x)
    steps = np.flatnonzero(diffs)
    diffs = diffs[steps]
    tops = np.flatnonzero((diffs[:-1] > 0) & (diffs[1:] < 0))
    peaks = (steps[tops] + 1 + steps[tops + 1]) // 2
    peaks = peaks[x[peaks] >= height]
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if not keep[j]:
            continue
        near = np.abs(peaks - peaks[j]) < distance
        near[j] = False
        keep &= ~near
    return peaks[keep]


@dataclass
class RevivalReport:
    """Detected revival peak times paired in order with the coherent-state
    prediction gt_j = 2 j pi sqrt(mean)."""

    channel: str
    mean: float
    max_j: int
    peak_times: list
    predicted: list
    relative_errors: list

    @property
    def found(self) -> int:
        return len(self.peak_times)

    def render(self) -> str:
        lines = [f"revival peaks on channel {self.channel} (mean={self.mean:g}, "
                 f"requested {self.max_j}, found {self.found})"]
        for j, t in enumerate(self.peak_times, start=1):
            pred = self.predicted[j - 1]
            err = self.relative_errors[j - 1]
            lines.append(f"  j={j}: detected gt={t:.4f}  predicted {pred:.4f}  "
                         f"rel. error {err:+.3%}")
        if self.found < self.max_j:
            lines.append(f"  only {self.found} of {self.max_j} peaks found")
        return "\n".join(lines)


def detect_revival_peaks(series: TimeSeries, channel: str, max_j: int,
                         mean: float) -> RevivalReport:
    """Locate revival peaks of |channel|.

    The envelope is the centered moving average of |channel| over a gt
    window of 1.0; peaks are its local maxima separated by at least
    pi*sqrt(mean).  The search starts at gt = pi*sqrt(mean), past the
    initial Rabi transient, which would otherwise register as a peak.
    """
    if max_j < 1:
        raise ConfigurationError(f"max_j must be >= 1, got {max_j}")
    if mean <= 0:
        raise ConfigurationError("revival prediction needs a positive mean")
    values = np.abs(series.channel(channel))
    needed = 2 * max_j * np.pi * np.sqrt(mean) * 1.2
    if series.gt[-1] < needed:
        raise ConfigurationError(
            f"series reaches gt={series.gt[-1]:g} but peak detection up to "
            f"j={max_j} needs gt >= {needed:g}")
    dgt = series.step
    envelope = moving_average(values, int(round(0.5 * ENVELOPE_WINDOW_GT / dgt)))
    separation = np.pi * np.sqrt(mean)
    start = int(np.searchsorted(series.gt, separation))
    region = envelope[start:]
    # ignore numerical ripple in the collapsed stretches: a revival must
    # reach a nonnegligible fraction of the strongest envelope value
    floor = 0.05 * float(region.max())
    peaks = find_peaks(region, distance=max(1, int(np.ceil(separation / dgt))),
                       height=floor)
    times = [float(series.gt[start + i]) for i in peaks][:max_j]
    predicted = [2 * j * np.pi * np.sqrt(mean) for j in range(1, max_j + 1)]
    rel = [(t - p) / p for t, p in zip(times, predicted)]
    return RevivalReport(channel=channel, mean=mean, max_j=max_j,
                         peak_times=times, predicted=predicted, relative_errors=rel)


def collapse_windows(series: TimeSeries, threshold: float) -> list[tuple[float, float]]:
    """Maximal gt intervals (at least two grid steps long) where the
    concurrence stays below the threshold."""
    if not 0.0 < threshold <= 0.1:
        raise ConfigurationError(f"threshold must be in (0, 0.1], got {threshold}")
    below = series.concurrence < threshold
    out = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= 3:  # >= 2 grid steps
                out.append((float(series.gt[start]), float(series.gt[i - 1])))
            start = None
    if start is not None and below.size - start >= 3:
        out.append((float(series.gt[start]), float(series.gt[-1])))
    return out


def oscillation_rate(series: TimeSeries, channel: str,
                     window: tuple[float, float]) -> float:
    """Zero crossings of (channel - its window mean) per unit gt.

    The rate estimates a frequency only on a window where the channel
    oscillates about a steady mean, such as the Rabi stretch before a
    collapse.  Over a window that holds a collapse, or a stretch clipped at
    zero (a concurrence that has died), the crossings stop early and the
    rate measures how long the channel oscillates, not how fast.
    """
    lo, hi = window
    eps = 1e-9
    if lo >= hi or lo < series.gt[0] - eps or hi > series.gt[-1] + eps:
        raise ConfigurationError(f"window {window} not inside the gt grid")
    sel = (series.gt >= lo - eps) & (series.gt <= hi + eps)
    y = series.channel(channel)[sel]
    signs = np.sign(y - y.mean())
    signs = signs[signs != 0]
    crossings = int(np.count_nonzero(np.diff(signs)))
    return crossings / (hi - lo)


@dataclass(frozen=True)
class SweepRow:
    mode_count: int
    gt: float
    concurrence: float
    eof: float


def mode_sweep(gt_values: list[float], mean: float, m_range: list[int],
               convention: str, sigma_width: float | None = None,
               coverage_epsilon: float | None = None) -> list[SweepRow]:
    """Entanglement per (mode count, gt) cell for identical coherent fields
    of the given per-mode mean.  Single-mode cells use the single-mode
    amplitudes; every gt must be finite and nonnegative."""
    if not m_range:
        raise ConfigurationError("empty mode list")
    if len(set(m_range)) != len(m_range):
        raise ConfigurationError(f"duplicate mode counts in {m_range}")
    if any(m < 1 for m in m_range):
        raise ConfigurationError("mode counts must be >= 1")
    if not gt_values:
        raise ConfigurationError("empty gt list")
    pipeline.check_grid(gt_values)

    kwargs = {}
    if sigma_width is not None:
        kwargs["sigma_width"] = sigma_width
    if coverage_epsilon is not None:
        kwargs["coverage_epsilon"] = coverage_epsilon
    gts = np.asarray(sorted(set(gt_values)), dtype=float)

    rows = []
    for m in sorted(m_range):
        fields = [coherent_field(mean, **kwargs) for _ in range(m)]
        obs = pipeline.compute_observables(fields, gts, convention)
        by_gt = {float(g): i for i, g in enumerate(gts)}
        for gt in sorted(gt_values):
            i = by_gt[float(gt)]
            rows.append(SweepRow(mode_count=m, gt=float(gt),
                                 concurrence=float(obs["concurrence"][i]),
                                 eof=float(obs["eof"][i])))
    return rows


@dataclass
class DeviationSummary:
    """Max/mean absolute differences between a closed-form series and the
    exact oracle on a shared grid, plus norm-deficit diagnostics."""

    max_dw: float
    mean_dw: float
    max_dc: float
    mean_dc: float
    max_def: float
    mean_def: float
    max_norm_deficit: float | None = None
    max_norm_drift: float | None = None

    def render(self) -> str:
        lines = [
            "closed form vs oracle deviations",
            f"  |dW|  : max {self.max_dw:.6e}  mean {self.mean_dw:.6e}",
            f"  |dC|  : max {self.max_dc:.6e}  mean {self.mean_dc:.6e}",
            f"  |dE_F|: max {self.max_def:.6e}  mean {self.mean_def:.6e}",
        ]
        if self.max_norm_deficit is not None:
            lines.append(f"  closed-form norm deficit: max {self.max_norm_deficit:.6e}")
        if self.max_norm_drift is not None:
            lines.append(f"  oracle norm drift:        max {self.max_norm_drift:.6e}")
        return "\n".join(lines)


def deviation_report(closed: TimeSeries,
                     exact: TimeSeries) -> tuple[DeviationSummary, TimeSeries]:
    """Summary plus a copy of the closed series with the oracle columns and
    per-point deltas appended as extras."""
    if closed.gt.shape != exact.gt.shape or not np.array_equal(closed.gt, exact.gt):
        raise ConfigurationError("deviation report requires identical gt grids")
    dw = np.abs(closed.w - exact.w)
    dc = np.abs(closed.concurrence - exact.concurrence)
    de = np.abs(closed.eof - exact.eof)
    deficit = closed.extras.get("norm_deficit")
    drift = exact.extras.get("norm_drift")
    summary = DeviationSummary(
        max_dw=float(dw.max()), mean_dw=float(dw.mean()),
        max_dc=float(dc.max()), mean_dc=float(dc.mean()),
        max_def=float(de.max()), mean_def=float(de.mean()),
        max_norm_deficit=None if deficit is None else float(np.abs(deficit).max()),
        max_norm_drift=None if drift is None else float(np.abs(drift).max()))
    extras = dict(closed.extras)
    extras.update({"W_oracle": exact.w, "concurrence_oracle": exact.concurrence,
                   "eof_oracle": exact.eof, "delta_W": dw, "delta_C": dc,
                   "delta_EF": de})
    combined = TimeSeries(gt=closed.gt, w=closed.w, concurrence=closed.concurrence,
                          eof=closed.eof, extras=extras)
    return summary, combined

"""Post-processing: revival peaks, collapse windows, oscillation rates,
mode sweeps, and closed-form-versus-oracle deviation summaries.  A series
is the dict of its CSV columns: gt, and the channels W, concurrence and
eof by their headers; any array-likes will do."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline
from .entanglement import RANGE_TOL
from .errors import ConfigurationError
from .fock_field import DEFAULT_COVERAGE_EPSILON, DEFAULT_SIGMA_WIDTH, coherent_field
from .reduced_density import check_finite, check_grid

ENVELOPE_WINDOW_GT = 1.0
CHANNELS = ("W", "concurrence", "eof")


def check_series(series: dict, *channels: str) -> list[np.ndarray]:
    """The gt column and then the named channels of series, as float
    arrays.  A gt grid that check_grid(increasing=True) refuses, columns
    that do not share it, |W| > 1, a concurrence or eof outside [0, 1]
    (each checked where series holds it, NaN failing both), an unknown
    channel and a gt or named channel that series lacks are configuration
    errors."""
    unknown = [name for name in channels if name not in CHANNELS]
    if unknown:
        raise ConfigurationError(f"unknown channel {unknown[0]!r}")
    missing = [name for name in ("gt", *channels) if name not in series]
    if missing:
        raise ConfigurationError(f"series has no {missing[0]!r} column")
    gt = check_grid(series["gt"], increasing=True)
    columns = {name: np.asarray(series[name], dtype=float)
               for name in CHANNELS if name in series}
    if any(col.shape != gt.shape for col in columns.values()):
        raise ConfigurationError("all series columns must share the gt grid")
    if "W" in columns and not np.all(np.abs(columns["W"]) <= 1 + RANGE_TOL):
        raise ConfigurationError("|W| exceeds 1")
    for name in CHANNELS[1:]:
        col = columns.get(name)
        if col is not None and not np.all((col >= -RANGE_TOL) & (col <= 1 + RANGE_TOL)):
            raise ConfigurationError(f"{name} outside [0, 1]")
    return [gt, *(columns[name] for name in channels)]


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


def detect_revival_peaks(series: dict, channel: str, max_j: int,
                         mean: float) -> RevivalReport:
    """Locate revival peaks of |channel|.

    The envelope is the centered moving average of |channel| over a gt
    window of 1.0; peaks are its local maxima separated by at least
    pi*sqrt(mean), which must be at least one grid step.  The search starts
    at gt = pi*sqrt(mean), past the initial Rabi transient, which would
    otherwise register as a peak.
    """
    gt, values = check_series(series, channel)
    if max_j < 1:
        raise ConfigurationError(f"max_j must be >= 1, got {max_j}")
    if not mean > 0:
        raise ConfigurationError("revival prediction needs a positive mean")
    if gt.size < 2:
        raise ConfigurationError("peak detection needs at least two gt samples")
    # the envelope window and the peak separation are counted in steps
    dgt = float(gt[1] - gt[0])
    if np.any(np.abs(np.diff(gt) - dgt) > 1e-6 * dgt):
        raise ConfigurationError("peak detection needs a uniform gt grid")
    separation = np.pi * np.sqrt(mean)
    if separation < dgt:
        raise ConfigurationError(
            f"revival peak separation pi*sqrt(mean) = {separation:g} is below "
            f"the gt step {dgt:g}")
    needed = 2 * max_j * np.pi * np.sqrt(mean) * 1.2
    if gt[-1] < needed:
        raise ConfigurationError(
            f"series reaches gt={gt[-1]:g} but peak detection up to "
            f"j={max_j} needs gt >= {needed:g}")
    envelope = moving_average(np.abs(values), int(round(0.5 * ENVELOPE_WINDOW_GT / dgt)))
    start = int(np.searchsorted(gt, separation))
    region = envelope[start:]
    # ignore numerical ripple in the collapsed stretches: a revival must
    # reach a nonnegligible fraction of the strongest envelope value
    floor = 0.05 * float(region.max())
    peaks = find_peaks(region, distance=int(np.ceil(separation / dgt)), height=floor)
    times = [float(gt[start + i]) for i in peaks][:max_j]
    predicted = [2 * j * np.pi * np.sqrt(mean) for j in range(1, max_j + 1)]
    rel = [(t - p) / p for t, p in zip(times, predicted)]
    return RevivalReport(channel=channel, mean=mean, max_j=max_j,
                         peak_times=times, predicted=predicted, relative_errors=rel)


def collapse_windows(series: dict, threshold: float) -> list[tuple[float, float]]:
    """Maximal gt intervals (at least two grid steps long) where the
    concurrence stays below the threshold."""
    gt, concurrence = check_series(series, "concurrence")
    if not 0.0 < threshold <= 0.1:
        raise ConfigurationError(f"threshold must be in (0, 0.1], got {threshold}")
    below = concurrence < threshold
    out = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= 3:  # >= 2 grid steps
                out.append((float(gt[start]), float(gt[i - 1])))
            start = None
    if start is not None and below.size - start >= 3:
        out.append((float(gt[start]), float(gt[-1])))
    return out


def oscillation_rate(series: dict, channel: str,
                     window: tuple[float, float]) -> float:
    """Zero crossings of (channel - its window mean) per unit gt.

    The rate estimates a frequency only on a window where the channel
    oscillates about a steady mean, such as the Rabi stretch before a
    collapse.  Over a window that holds a collapse, or a stretch clipped at
    zero (a concurrence that has died), the crossings stop early and the
    rate measures how long the channel oscillates, not how fast.  A window
    with a NaN bound, or one that holds fewer than two gt samples, is
    refused.
    """
    gt, values = check_series(series, channel)
    lo, hi = window
    eps = 1e-9
    if not gt[0] - eps <= lo < hi <= gt[-1] + eps:
        raise ConfigurationError(f"window {window} not inside the gt grid")
    y = values[(gt >= lo - eps) & (gt <= hi + eps)]
    if y.size < 2:
        raise ConfigurationError(
            f"window {window} holds {y.size} gt samples; an oscillation rate needs at least two")
    signs = np.sign(y - y.mean())
    signs = signs[signs != 0]
    crossings = int(np.count_nonzero(np.diff(signs)))
    return crossings / (hi - lo)


def mode_sweep(gt_values, mean: float, m_range, convention: str,
               sigma_width: float = DEFAULT_SIGMA_WIDTH,
               coverage_epsilon: float = DEFAULT_COVERAGE_EPSILON) -> dict[str, np.ndarray]:
    """Entanglement per (mode count, gt) cell for identical coherent fields
    of the given per-mode mean, as the columns m, gt, concurrence and eof
    with one row per cell, by ascending m and then gt.  Single-mode cells
    use the single-mode amplitudes; every mode count must be an integer
    >= 1 and every gt finite and nonnegative, each given once.

    Each mode count's raw densities fail at once on a non-finite entry;
    the rest of the observables' checks run in one observables call over
    the whole table, after the last route has freed its working set."""
    counts = np.asarray(m_range, dtype=float)
    if counts.ndim != 1:
        raise ConfigurationError(f"mode counts must be one-dimensional, got shape {counts.shape}")
    if not counts.size:
        raise ConfigurationError("empty mode list")
    fractional = ~np.isfinite(counts) | (counts != np.floor(counts))
    if fractional.any():
        raise ConfigurationError(f"mode counts must be integers, got {counts[fractional][0]:g}")
    ms = sorted(int(m) for m in counts)
    if len(set(ms)) != len(ms):
        raise ConfigurationError(f"duplicate mode counts in {m_range}")
    if ms[0] < 1:
        raise ConfigurationError("mode counts must be >= 1")
    gts = np.sort(check_grid(gt_values))
    if not gts.size:
        raise ConfigurationError("empty gt list")
    if np.any(np.diff(gts) == 0):
        raise ConfigurationError(f"duplicate gt values in {gt_values}")

    field = coherent_field(mean, sigma_width, coverage_epsilon)
    # no eigensolver runs before the last route: the pages it faults in
    # would stay resident under the largest route's working set
    raws = [check_finite(pipeline.closed_form_route([field] * m, convention).raw_densities(gts))
            for m in ms]
    obs = pipeline.observables(np.concatenate(raws))
    return {"m": np.repeat(ms, gts.size), "gt": np.tile(gts, len(ms)),
            "concurrence": obs["concurrence"], "eof": obs["eof"]}


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


def deviation_report(closed: dict,
                     exact: dict) -> tuple[DeviationSummary, dict[str, np.ndarray]]:
    """Summary plus the per-point deltas delta_W, delta_C and delta_EF of
    two series; closed's norm_deficit and exact's norm_drift columns, where
    present, are summarized too."""
    gt, w, c, e = check_series(closed, *CHANNELS)
    gt_exact, w_exact, c_exact, e_exact = check_series(exact, *CHANNELS)
    if not np.array_equal(gt, gt_exact):
        raise ConfigurationError("deviation report requires identical gt grids")
    dw = np.abs(w - w_exact)
    dc = np.abs(c - c_exact)
    de = np.abs(e - e_exact)
    deficit = closed.get("norm_deficit")
    drift = exact.get("norm_drift")
    summary = DeviationSummary(
        max_dw=float(dw.max()), mean_dw=float(dw.mean()),
        max_dc=float(dc.max()), mean_dc=float(dc.mean()),
        max_def=float(de.max()), mean_def=float(de.mean()),
        max_norm_deficit=None if deficit is None else float(np.abs(deficit).max()),
        max_norm_drift=None if drift is None else float(np.abs(drift).max()))
    return summary, {"delta_W": dw, "delta_C": dc, "delta_EF": de}

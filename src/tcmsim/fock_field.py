"""Initial photon-number distributions and multimode Fock configurations.

A mode's initial state is a vector of complex amplitudes c_n over a
contiguous truncation window of photon numbers.  Coherent states use the
real-phase Poissonian convention c_n = exp(-mean/2) mean^(n/2) / sqrt(n!);
Fock and custom distributions are normalized exactly.  Multimode
configurations are rows of per-mode occupation numbers (config_array).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

DEFAULT_SIGMA_WIDTH = 6.0
DEFAULT_COVERAGE_EPSILON = 1e-12

# custom distributions are renormalized; deviations beyond this warn
NORM_WARN_TOLERANCE = 1e-6

# the widest window default_window builds; its photon numbers must also
# stay below 2**53, above which doubles no longer hold every integer
MAX_WINDOW_SIZE = 1_000_000


@dataclass(frozen=True)
class TruncationWindow:
    """Contiguous inclusive range [n_min, n_max] of photon numbers."""

    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min < 0 or self.n_max < 0:
            raise ConfigurationError("window bounds must be nonnegative")
        if self.n_min > self.n_max:
            raise ConfigurationError(
                f"empty window: n_min={self.n_min} > n_max={self.n_max}")

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1

    def values(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def contains(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max


# log(n!) for n = 0..11: the values Cephes' lgam (scipy.special.gammaln)
# returns for x = n + 1 < 13
_LOG_FACTORIAL_TABLE = (
    0.0, 0.0, 0.6931471805599453, 1.791759469228055, 3.1780538303479458,
    4.787491742782046, 6.579251212010101, 8.525161361065415,
    10.60460290274525, 12.801827480081469, 15.104412573075516,
    17.502307845873887,
)
# Cephes lgam's Stirling-series coefficients in 1/x**2 (highest power first)
_STIRLING_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def log_factorial(ns) -> np.ndarray:
    """log(n!) for nonnegative integers n, bit for bit what
    ``scipy.special.gammaln(n + 1)`` returns: a port of Cephes' lgam.

    The logarithm is libm's, taken per value with ``math.log``; numpy's
    vectorized ``np.log`` rounds a few arguments differently.
    """
    ns = np.asarray(ns)
    x = ns + 1.0
    log_x = np.array([math.log(v) for v in x.ravel()]).reshape(x.shape)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    poly = np.full_like(p, _STIRLING_A[0])
    for a in _STIRLING_A[1:]:
        poly = poly * p + a
    short = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    out = np.where(x > 1.0e8, q, q + np.where(x >= 1000.0, short, poly) / x)
    small = ns < len(_LOG_FACTORIAL_TABLE)
    out[small] = np.take(_LOG_FACTORIAL_TABLE, ns[small])
    return out


def _poisson_pmf(mean: float, ns: np.ndarray) -> np.ndarray:
    if mean == 0.0:
        return np.where(ns == 0, 1.0, 0.0)
    log_p = -mean + ns * np.log(mean) - log_factorial(ns)
    return np.exp(log_p)


def coherent_amplitudes(mean: float, window: TruncationWindow) -> np.ndarray:
    """Poissonian amplitudes c_n = exp(-mean/2) mean^(n/2)/sqrt(n!) on the window.

    Real phase convention: all values are real and nonnegative.
    """
    if not 0 <= mean < np.inf:
        raise ConfigurationError(
            f"coherent mean must be finite and nonnegative, got {mean}")
    ns = window.values()
    if mean == 0.0:
        return np.where(ns == 0, 1.0, 0.0).astype(complex)
    log_c = -mean / 2.0 + 0.5 * ns * np.log(mean) - 0.5 * log_factorial(ns)
    return np.exp(log_c).astype(complex)


def default_window(mean: float,
                   sigma_width: float = DEFAULT_SIGMA_WIDTH,
                   coverage_epsilon: float = DEFAULT_COVERAGE_EPSILON) -> TruncationWindow:
    """Window mean +- sigma_width*sqrt(mean), widened until the Poisson
    probability captured is at least 1 - coverage_epsilon."""
    if not 0 <= mean < np.inf:
        raise ConfigurationError(f"mean must be finite and nonnegative, got {mean}")
    if not (0 < sigma_width < np.inf and 0 < coverage_epsilon < np.inf):
        raise ConfigurationError(
            "sigma_width and coverage_epsilon must be finite and positive, got "
            f"{sigma_width} and {coverage_epsilon}")
    spread = sigma_width * np.sqrt(mean)
    lo = max(0, int(np.floor(mean - spread)))
    hi = max(lo, int(np.ceil(mean + spread)))
    target = 1.0 - coverage_epsilon
    while True:
        if hi - lo + 1 > MAX_WINDOW_SIZE or hi >= 2 ** 53:
            raise ConfigurationError(
                f"the window [{lo:.6g}, {hi:.6g}] for mean {mean:g} exceeds the budget of "
                f"{MAX_WINDOW_SIZE} photon numbers below 2**53; reduce the mean, "
                "sigma_width or coverage")
        ns = np.arange(lo, hi + 1)
        if _poisson_pmf(mean, ns).sum() >= target:
            return TruncationWindow(lo, hi)
        # widen toward the heavier tail first
        p_lo = _poisson_pmf(mean, np.array([lo - 1]))[0] if lo > 0 else -1.0
        p_hi = _poisson_pmf(mean, np.array([hi + 1]))[0]
        # the pmf falls away from the mean: once neither side adds
        # probability, no wider window does either
        if p_hi == 0.0 and p_lo <= 0.0:
            raise ConfigurationError(
                f"coverage 1 - {coverage_epsilon:g} is out of reach in double "
                f"precision for mean {mean:g}; relax coverage_epsilon")
        if p_lo > p_hi:
            lo -= 1
        else:
            hi += 1


@dataclass(frozen=True, eq=False)
class FieldDistribution:
    """Per-mode initial amplitudes c_n over a truncation window.

    kind is one of "coherent", "fock", "custom".  For coherent fields the
    truncated norm may fall short of 1 by at most coverage_epsilon; fock
    and custom fields are exactly normalized.
    """

    kind: str
    window: TruncationWindow
    amplitudes: np.ndarray
    mean: float = 0.0
    coverage_epsilon: float = DEFAULT_COVERAGE_EPSILON

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.window.size,):
            raise ConfigurationError(
                f"amplitude vector length {amps.shape} does not match window size "
                f"{self.window.size}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        norm = self.norm_squared()
        # rounding slack on top of the configured coverage budget
        if norm < 1.0 - self.coverage_epsilon - 1e-14 or norm > 1.0 + 1e-14:
            raise ConfigurationError(
                f"window coverage {norm:.17g} outside [1 - {self.coverage_epsilon:g}, 1]; "
                "widen the window or relax coverage_epsilon")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amplitude(self, n: int) -> complex:
        """c_n for n inside the window; IndexError outside."""
        if not self.window.contains(n):
            raise IndexError(f"photon number {n} outside window "
                             f"[{self.window.n_min}, {self.window.n_max}]")
        return complex(self.amplitudes[n - self.window.n_min])

    def amplitudes_at(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized c_n lookup with zero fill outside the window."""
        ns = np.asarray(ns)
        idx = ns - self.window.n_min
        inside = (idx >= 0) & (idx < self.window.size)
        out = np.zeros(ns.shape, dtype=complex)
        out[inside] = self.amplitudes[idx[inside]]
        return out

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def coherent_field(mean: float,
                   sigma_width: float = DEFAULT_SIGMA_WIDTH,
                   coverage_epsilon: float = DEFAULT_COVERAGE_EPSILON,
                   window: TruncationWindow | None = None) -> FieldDistribution:
    if window is None:
        window = default_window(mean, sigma_width, coverage_epsilon)
    amps = coherent_amplitudes(mean, window)
    return FieldDistribution("coherent", window, amps, mean=mean,
                             coverage_epsilon=coverage_epsilon)


def fock_field(n0: int) -> FieldDistribution:
    if n0 < 0 or int(n0) != n0:
        raise ConfigurationError(f"fock occupation must be a nonnegative integer, got {n0}")
    n0 = int(n0)
    return FieldDistribution("fock", TruncationWindow(n0, n0),
                             np.array([1.0 + 0.0j]), mean=float(n0),
                             coverage_epsilon=0.0)


def custom_field(amplitudes) -> FieldDistribution:
    """Custom distribution starting at n=0, normalized on load."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise ConfigurationError("custom amplitudes must be a nonempty 1-D vector")
    if not np.isfinite(amps).all():
        raise ConfigurationError("custom amplitudes must be finite")
    norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    if norm == 0.0:
        raise ConfigurationError("custom amplitudes have zero norm")
    if abs(norm - 1.0) > NORM_WARN_TOLERANCE:
        warnings.warn(f"custom distribution norm {norm:.9g} != 1; renormalizing",
                      stacklevel=2)
    amps = amps / norm
    mean = float(np.sum(np.arange(amps.size) * np.abs(amps) ** 2))
    return FieldDistribution("custom", TruncationWindow(0, amps.size - 1),
                             amps, mean=mean, coverage_epsilon=0.0)


def load_custom_field(path) -> FieldDistribution:
    """Read a custom distribution file: one line per photon number starting
    at n=0, each line ``re [im]`` (imaginary part optional)."""
    values = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) > 2:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 're [im]', got {line!r}")
            try:
                re = float(parts[0])
                im = float(parts[1]) if len(parts) == 2 else 0.0
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ConfigurationError(
                    f"{path}:{lineno}: amplitude must be finite, got {line!r}")
            values.append(complex(re, im))
    if not values:
        raise ConfigurationError(f"{path}: no amplitudes found")
    return custom_field(values)


def config_array(windows: list[TruncationWindow]) -> np.ndarray:
    """The Cartesian product of the per-mode windows as an (N, m) integer
    array, in lexicographic order."""
    if not windows:
        raise ConfigurationError("at least one mode window is required")
    axes = [w.values() for w in windows]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def same_fields(fields: list[FieldDistribution]) -> bool:
    """True when every mode carries an identical distribution (enables the
    permutation-symmetric fast paths)."""
    first = fields[0]
    for f in fields[1:]:
        if f.kind != first.kind or f.window != first.window:
            return False
        if not np.array_equal(f.amplitudes, first.amplitudes):
            return False
    return True

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmsim import (CONSISTENT, LITERAL, ConfigurationError, NumericalFailureError,
                    coherent_field, collapse_windows, detect_revival_peaks,
                    deviation_report, mode_sweep, oscillation_rate, pipeline)
from tcmsim.analysis import check_series, find_peaks, moving_average
from tcmsim.fock_field import same_fields
from tcmsim.pipeline import closed_form_series


def flat_series(gts, c=0.0, w=0.0):
    n = gts.size
    return {"gt": gts, "W": np.full(n, w), "concurrence": np.full(n, c),
            "eof": np.zeros(n)}


def test_series_validation():
    gts = np.linspace(0, 1, 10)
    with pytest.raises(ConfigurationError):
        check_series({"gt": gts[::-1], "W": np.zeros(10), "concurrence": np.zeros(10),
                      "eof": np.zeros(10)})
    with pytest.raises(ConfigurationError):
        check_series({"gt": gts, "W": np.full(10, 1.5), "concurrence": np.zeros(10),
                      "eof": np.zeros(10)})
    with pytest.raises(ConfigurationError):
        check_series({"gt": gts, "W": np.zeros(10), "concurrence": np.full(10, 1.2),
                      "eof": np.zeros(10)})


@pytest.mark.parametrize("channel, message", [("W", r"^\|W\| exceeds 1$"),
                                              ("concurrence", r"^concurrence outside \[0, 1\]$"),
                                              ("eof", r"^eof outside \[0, 1\]$")],
                         ids=["W", "concurrence", "eof"])
def test_nan_channels_are_refused(channel, message):
    gts = np.linspace(0, 1, 10)
    series = flat_series(gts)
    series[channel] = np.where(gts > 0.5, np.nan, 0.0)
    with pytest.raises(ConfigurationError, match=message):
        check_series(series)


def test_an_all_nan_series_is_refused_by_every_analysis():
    gts = np.linspace(0, 1, 10)
    nan = {"gt": gts, **{name: np.full(10, np.nan) for name in ("W", "concurrence", "eof")}}
    for analysis in (lambda: check_series(nan, "W"), lambda: collapse_windows(nan, 0.05),
                     lambda: deviation_report(nan, nan)):
        with pytest.raises(ConfigurationError, match=r"^\|W\| exceeds 1$"):
            analysis()


def test_a_series_without_a_requested_column_is_refused():
    gts = np.linspace(0, 1, 10)
    with pytest.raises(ConfigurationError, match="^series has no 'concurrence' column$"):
        collapse_windows({"gt": gts}, 0.05)
    no_w = {"gt": gts, "concurrence": np.zeros(10), "eof": np.zeros(10)}
    with pytest.raises(ConfigurationError, match="^series has no 'W' column$"):
        deviation_report(no_w, flat_series(gts))
    with pytest.raises(ConfigurationError, match="^series has no 'gt' column$"):
        check_series({"W": np.zeros(10)}, "W")


def test_moving_average_constant():
    assert np.allclose(moving_average(np.ones(20), 3), np.ones(20))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 6), max_size=60),
       distance=st.integers(1, 12), height=st.integers(0, 6))
def test_find_peaks_matches_scipy(values, distance, height):
    # few distinct values, so plateaus and equal-height peaks are common
    from scipy.signal import find_peaks as scipy_find_peaks

    x = np.asarray(values, dtype=float) / 4.0
    expected, _ = scipy_find_peaks(x, distance=distance, height=height / 4.0)
    assert np.array_equal(find_peaks(x, distance, height / 4.0), expected)


def test_detect_triangular_bump():
    gts = np.linspace(0, 20, 801)
    w = np.maximum(0.0, 1.0 - np.abs(gts - 10.0) / 2.0)
    series = {"gt": gts, "W": w, "concurrence": np.zeros_like(w), "eof": np.zeros_like(w)}
    report = detect_revival_peaks(series, "W", 1, 1.0)
    assert report.found == 1
    assert report.peak_times[0] == pytest.approx(10.0, abs=0.1)


def test_detect_requires_long_enough_series():
    gts = np.linspace(0, 5, 100)
    series = flat_series(gts)
    with pytest.raises(ConfigurationError):
        detect_revival_peaks(series, "W", 2, 25.0)
    # one sample has no grid step to smooth over
    with pytest.raises(ConfigurationError, match="two gt samples"):
        detect_revival_peaks(flat_series(np.array([1000.0])), "W", 1, 1.0)


def test_a_nan_mean_is_refused_by_revival_detection():
    gts = np.linspace(0, 20, 1001)
    series = flat_series(gts) | {"W": np.cos(gts)}
    with pytest.raises(ConfigurationError, match="^revival prediction needs a positive mean$"):
        detect_revival_peaks(series, "W", 1, np.nan)


def test_detect_scale_invariance():
    gts = np.linspace(0, 20, 801)
    w = np.maximum(0.0, 1.0 - np.abs(gts - 10.0) / 2.0)
    base = {"gt": gts, "W": w, "concurrence": np.zeros_like(w), "eof": np.zeros_like(w)}
    scaled = {"gt": gts, "W": 0.3 * w, "concurrence": np.zeros_like(w),
              "eof": np.zeros_like(w)}
    t1 = detect_revival_peaks(base, "W", 1, 1.0).peak_times
    t2 = detect_revival_peaks(scaled, "W", 1, 1.0).peak_times
    assert t1 == t2


def test_collapse_windows_trivial():
    gts = np.linspace(0, 10, 101)
    assert collapse_windows(flat_series(gts, c=0.0), 0.02) == [(0.0, 10.0)]
    assert collapse_windows(flat_series(gts, c=0.5), 0.02) == []
    with pytest.raises(ConfigurationError):
        collapse_windows(flat_series(gts), 0.5)


def test_collapse_windows_mean5_consistent():
    # consistent convention, grid [0, 15]: at least one interval below the
    # threshold, with the concurrence exceeding 0.1 afterwards
    gts = np.linspace(0, 15, 900)
    series = closed_form_series([coherent_field(5.0)], gts)
    wins = collapse_windows(series, 0.02)
    assert wins
    a, b = wins[0]
    assert series["concurrence"][series["gt"] > b].max() > 0.1


def test_collapse_windows_sorted_disjoint():
    gts = np.linspace(0, 10, 201)
    c = np.where((gts > 2) & (gts < 4) | (gts > 6) & (gts < 7), 0.0, 0.5)
    wins = collapse_windows({"gt": gts, "W": np.zeros_like(c),
                             "concurrence": c, "eof": np.zeros_like(c)}, 0.02)
    assert len(wins) == 2
    assert wins == sorted(wins)
    assert wins[0][1] < wins[1][0]


def test_oscillation_rate_cosine():
    gts = np.linspace(0, 2 * np.pi, 2001)
    series = {"gt": gts, "W": np.cos(2 * gts), "concurrence": np.zeros_like(gts),
              "eof": np.zeros_like(gts)}
    rate = oscillation_rate(series, "W", (0.0, 2 * np.pi))
    assert rate == pytest.approx(4 / (2 * np.pi), rel=1e-3)


def test_oscillation_rate_constant_and_offset_invariance():
    gts = np.linspace(0, 5, 500)
    assert oscillation_rate(flat_series(gts, w=0.3), "W", (0.0, 5.0)) == 0.0
    base = np.cos(3 * gts)
    s1 = {"gt": gts, "W": base * 0.5, "concurrence": np.zeros_like(gts),
          "eof": np.zeros_like(gts)}
    s2 = {"gt": gts, "W": base * 0.5 + 0.4, "concurrence": np.zeros_like(gts),
          "eof": np.zeros_like(gts)}
    r1 = oscillation_rate(s1, "W", (0.0, 5.0))
    r2 = oscillation_rate(s2, "W", (0.0, 5.0))
    assert r1 == r2


def test_oscillation_rate_window_validation():
    gts = np.linspace(0, 5, 100)
    with pytest.raises(ConfigurationError):
        oscillation_rate(flat_series(gts), "W", (1.0, 99.0))


@pytest.mark.parametrize("window, message", [
    ((np.nan, 5.0), r"^window \(nan, 5\.0\) not inside the gt grid$"),
    ((0.0, np.nan), r"^window \(0\.0, nan\) not inside the gt grid$"),
    ((1.01, 1.05), r"^window \(1\.01, 1\.05\) holds 0 gt samples; "),
    ((1.0, 1.05), r"^window \(1\.0, 1\.05\) holds 1 gt samples; "),
], ids=["nan-lo", "nan-hi", "no-sample", "one-sample"])
def test_oscillation_rate_refuses_windows_it_cannot_measure(window, message):
    # a 0.1-step grid: the last two windows fall between or on its samples
    gts = np.linspace(0, 5, 51)
    series = flat_series(gts) | {"W": np.cos(3 * gts)}
    with pytest.raises(ConfigurationError, match=message):
        oscillation_rate(series, "W", window)


def test_mode_sweep_wellformed():
    columns = mode_sweep([0.0, 1.0], 2.0, [1, 2], LITERAL,
                         sigma_width=4.0, coverage_epsilon=1e-8)
    assert list(columns) == ["m", "gt", "concurrence", "eof"]
    assert all(col.shape == (4,) for col in columns.values())
    assert list(zip(columns["m"], columns["gt"])) == [(1, 0.0), (1, 1.0),
                                                      (2, 0.0), (2, 1.0)]
    assert np.all((0.0 <= columns["eof"]) & (columns["eof"] <= 1.0))
    assert np.all(columns["eof"][columns["gt"] == 0.0] == 0.0)


def test_mode_sweep_errors():
    with pytest.raises(ConfigurationError):
        mode_sweep([1.0], 2.0, [1, 1], LITERAL)
    with pytest.raises(ConfigurationError):
        mode_sweep([1.0], 2.0, [], LITERAL)
    with pytest.raises(ConfigurationError):
        mode_sweep([], 2.0, [1], LITERAL)
    with pytest.raises(ConfigurationError, match=r"^duplicate gt values in \[1\.5, 1\.5, 3\.0\]$"):
        mode_sweep([1.5, 1.5, 3.0], 2.0, [1, 2], LITERAL)


def test_mode_sweep_takes_arrays_and_refuses_fractional_mode_counts():
    table = mode_sweep([1.5, 2.25], 2.0, [1, 2], LITERAL)
    for gts, modes in (([1.5, 2.25], (2, 1)), (np.array([2.25, 1.5]), [1, 2]),
                       ([1.5, 2.25], np.array([1, 2])), ((1.5, 2.25), np.array([2.0, 1.0]))):
        other = mode_sweep(gts, 2.0, modes, LITERAL)
        assert all(np.array_equal(other[k], table[k]) for k in table)
    assert table["m"].dtype.kind == "i"
    for modes, value in (([2.5], r"2\.5"), (np.array([1.0, 1.5]), r"1\.5"), ([1, np.nan], "nan")):
        with pytest.raises(ConfigurationError,
                           match=rf"^mode counts must be integers, got {value}$"):
            mode_sweep([1.5], 2.0, modes, LITERAL)
    for modes in (2, [[1, 2]]):
        with pytest.raises(ConfigurationError, match="^mode counts must be one-dimensional"):
            mode_sweep([1.5], 2.0, modes, LITERAL)
    with pytest.raises(ConfigurationError, match="^empty gt list$"):
        mode_sweep(np.array([]), 2.0, [1], LITERAL)
    with pytest.raises(ConfigurationError, match="^empty mode list$"):
        mode_sweep([1.5], 2.0, np.array([], dtype=int), LITERAL)


def test_mode_sweep_fails_at_the_first_overflowing_mode_count(monkeypatch):
    # gt = 1e308 overflows the m = 1 amplitudes: the sweep stops there,
    # without building the m = 6 route first
    built = []
    route = pipeline.closed_form_route

    def counted(fields, convention):
        built.append(len(fields))
        return route(fields, convention)

    monkeypatch.setattr(pipeline, "closed_form_route", counted)
    with pytest.raises(NumericalFailureError, match="^unnormalized density matrix has non-finite"):
        mode_sweep([1e308], 15.0, [1, 6], LITERAL, sigma_width=4, coverage_epsilon=1e-6)
    assert built == [1]


@pytest.mark.parametrize("gts, mean, modes, convention, widths", [
    ([1.5, 2.25, 3.0], 15.0, [1, 2, 3, 4, 5, 6], LITERAL,
     {"sigma_width": 4, "coverage_epsilon": 1e-6}),
    ([0.0, 0.5, 1.0, 2.5], 2.0, [1, 2, 3, 4], LITERAL, {}),
    ([0.5, 1.0, 2.0], 2.0, [1, 2, 3], CONSISTENT, {}),
    ([2.25], 5.0, [1, 2, 3, 4], LITERAL, {}),
], ids=["canonical", "window-from-0", "consistent", "single-gt"])
def test_mode_sweep_is_one_observables_pass_with_the_series_bits(monkeypatch, gts, mean, modes,
                                                                  convention, widths):
    field = coherent_field(mean, **widths)
    if mean == 2.0:  # these tables' window reaches n = 0
        assert field.window.n_min == 0
    # each route's raw stack as the sweep builds it, and the routes it asks for
    routes, stacks = [], []
    route = pipeline.closed_form_route

    class Recorded:
        def __init__(self, fields, convention):
            assert same_fields([field, *fields])
            routes.append((len(fields), convention))
            self.route = route(fields, convention)

        def raw_densities(self, gts):
            raws = self.route.raw_densities(gts)
            stacks.append(raws.copy())
            return raws

    passes = []
    observables = pipeline.observables

    def counted(raws):
        passes.append(len(raws))
        return observables(raws)

    monkeypatch.setattr(pipeline, "closed_form_route", Recorded)
    monkeypatch.setattr(pipeline, "observables", counted)
    table = mode_sweep(gts, mean, modes, convention, **widths)
    assert passes == [len(modes) * len(gts)]
    assert routes == [(m, convention) for m in modes]
    # closed_form_series's bits: one observables pass per mode count
    series = [observables(raws) for raws in stacks]
    for name in ("concurrence", "eof"):
        expected = np.concatenate([s[name] for s in series])
        assert table[name].tobytes() == expected.tobytes()


def test_deviation_report_identical_and_mismatch():
    gts = np.linspace(0, 3, 50)
    series = closed_form_series([coherent_field(2.0)], gts)
    summary, deltas = deviation_report(series, series)
    assert summary.max_dw == 0.0 and summary.max_dc == 0.0 and summary.max_def == 0.0
    assert np.all(deltas["delta_C"] == 0.0)
    other = closed_form_series([coherent_field(2.0)], np.linspace(0, 3, 49))
    with pytest.raises(ConfigurationError):
        deviation_report(series, other)


def test_mode_frequency_evidence(literal_mean25_series):
    """The closed-form oscillation frequencies grow with the mode count, and
    the inversion's pre-collapse crossing rate ranks accordingly."""
    from tcmsim.closed_form import LiteralTerms, literal_features
    stats, weights = literal_features(coherent_field(25.0))
    at25 = np.flatnonzero(stats[0] == 25.0)
    freqs = []
    for m in (1, 2, 3):
        if m == 1:
            freqs.append(np.sqrt(4 * 25 + 6.0))
        else:
            # the configuration with every mode at 25 photons
            terms = LiteralTerms(m, m * stats[:, at25], weights[:, at25] ** m)
            freqs.append(float(terms.w1[0]))
    assert freqs[0] < freqs[1] < freqs[2]

    rates = []
    for m in (1, 2, 3):
        series = literal_mean25_series[m]
        rates.append(oscillation_rate(series, "W", (0.0, 1.0)))
    assert rates[0] < rates[1] < rates[2]

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmsim import (ConfigurationError, TruncationWindow, coherent_amplitudes,
                    coherent_field, custom_field, default_window, fock_field,
                    load_custom_field)
from tcmsim.fock_field import (MAX_WINDOW_SIZE, _poisson_pmf, config_array, log_factorial,
                               same_fields)


def test_window_validation():
    w = TruncationWindow(2, 5)
    assert w.size == 4
    assert list(w.values()) == [2, 3, 4, 5]
    with pytest.raises(ConfigurationError):
        TruncationWindow(3, 1)
    with pytest.raises(ConfigurationError):
        TruncationWindow(-1, 2)


def test_coherent_vacuum():
    amps = coherent_amplitudes(0.0, TruncationWindow(0, 0))
    assert amps[0] == 1.0


def test_coherent_mean_one_values():
    # direct evaluation of exp(-1/2) / sqrt(n!)
    amps = coherent_amplitudes(1.0, TruncationWindow(0, 10))
    assert amps[0].real == pytest.approx(0.60653065971263342, abs=1e-14)
    assert amps[1].real == pytest.approx(0.60653065971263342, abs=1e-14)
    assert amps[2].real == pytest.approx(0.42888194248035338, abs=1e-14)
    assert np.all(amps.imag == 0.0)


def test_coherent_mean_five_coverage():
    f = coherent_field(5.0)
    assert f.norm_squared() >= 1 - 1e-12


def test_negative_mean_rejected():
    with pytest.raises(ConfigurationError):
        coherent_amplitudes(-1.0, TruncationWindow(0, 3))
    with pytest.raises(ConfigurationError):
        default_window(-2.0)


def test_default_window_examples():
    assert default_window(0.0) == TruncationWindow(0, 0)
    w = default_window(25.0, sigma_width=6.0)
    assert w.n_min == 0 and w.n_max >= 55
    w50 = default_window(50.0, coverage_epsilon=1e-12)
    f = coherent_field(50.0, window=w50)
    assert f.norm_squared() >= 1 - 1e-12


def _one_pass_window(mean, sigma_width, coverage_epsilon):
    """default_window as first written: the pmf of the whole window is
    recomputed after every one-step widening."""
    spread = sigma_width * np.sqrt(mean)
    lo = max(0, int(np.floor(mean - spread)))
    hi = max(lo, int(np.ceil(mean + spread)))
    while True:
        if hi - lo + 1 > MAX_WINDOW_SIZE or hi >= 2 ** 53:
            raise ConfigurationError(
                f"the window [{lo:.6g}, {hi:.6g}] for mean {mean:g} exceeds the budget of "
                f"{MAX_WINDOW_SIZE} photon numbers below 2**53; reduce the mean, "
                "sigma_width or coverage")
        if _poisson_pmf(mean, np.arange(lo, hi + 1)).sum() >= 1.0 - coverage_epsilon:
            return TruncationWindow(lo, hi)
        p_lo = _poisson_pmf(mean, np.array([lo - 1]))[0] if lo > 0 else -1.0
        p_hi = _poisson_pmf(mean, np.array([hi + 1]))[0]
        if p_hi == 0.0 and p_lo <= 0.0:
            raise ConfigurationError(
                f"coverage 1 - {coverage_epsilon:g} is out of reach in double "
                f"precision for mean {mean:g}; relax coverage_epsilon")
        if p_lo > p_hi:
            lo -= 1
        else:
            hi += 1


def _outcome(window_of, *args):
    try:
        return window_of(*args)
    except ConfigurationError as exc:
        return str(exc)


def test_default_window_matches_one_pass_reference():
    # the incremental pmf sums the same values in the same order
    # (sigma_width, coverage_epsilon) = (2, 1e-14) is out of reach for some
    # means, and the reference pays a long widening for each of those
    wide = np.linspace(0.0, 400.0, 21)
    narrow = np.random.default_rng(3).uniform(0.0, 60.0, 30)
    cases = [(mean, sigma_width, eps) for mean in np.concatenate((wide, narrow))
             for sigma_width, eps in ((6.0, 1e-12), (4.0, 1e-6), (1.0, 1e-3))]
    cases += [(mean, 2.0, 1e-14) for mean in narrow]
    outcomes = set()
    for mean, sigma_width, eps in cases:
        args = (float(mean), sigma_width, eps)
        got = _outcome(default_window, *args)
        assert got == _outcome(_one_pass_window, *args), args
        outcomes.add(type(got))
    assert outcomes == {TruncationWindow, str}


def test_default_window_widens_a_long_way_quickly():
    # ~61k one-value widenings from a window of three photon numbers: each
    # one used to re-sum the whole window (11 s)
    start = time.perf_counter()
    window = default_window(4.13e7, 3.56e-6, 1.73e-6)
    assert time.perf_counter() - start < 1.0
    assert window == TruncationWindow(41269272, 41330734)


def test_log_factorial_is_scipy_gammaln_bit_for_bit():
    from scipy.special import gammaln

    ns = np.arange(2_000_001)
    assert np.array_equal(log_factorial(ns).view(np.uint64),
                          gammaln(ns + 1.0).view(np.uint64))
    # the x >= 1e3 and x > 1e8 branches and a 2-D argument
    ns = np.array([[999, 1000, 10**8 - 1], [10**8, 10**8 + 7, 10**15]])
    assert np.array_equal(log_factorial(ns).view(np.uint64),
                          gammaln(ns + 1.0).view(np.uint64))


@pytest.mark.parametrize("eps", [1e-16, 1e-17, 1e-300])
def test_default_window_rejects_unreachable_coverage(eps):
    with pytest.raises(ConfigurationError, match="out of reach"):
        default_window(5.0, coverage_epsilon=eps)


@pytest.mark.parametrize("kwargs", [
    {"mean": math.nan}, {"mean": math.inf}, {"mean": 5.0, "sigma_width": math.nan},
    {"mean": 5.0, "sigma_width": math.inf}, {"mean": 5.0, "coverage_epsilon": math.nan},
    {"mean": 5.0, "coverage_epsilon": math.inf},
])
def test_default_window_rejects_non_finite_input(kwargs):
    with pytest.raises(ConfigurationError, match="finite"):
        default_window(**kwargs)


@pytest.mark.parametrize("kwargs", [
    # bounds beyond int64 (an object-dtype arange), a window wider than the
    # budget, photon numbers doubles cannot all hold, and a spread that
    # overflows to inf
    {"mean": 1e300}, {"mean": 1.0, "sigma_width": 1e7},
    {"mean": 1e17, "sigma_width": 1e-9}, {"mean": 5.0, "sigma_width": 1e308},
])
def test_default_window_rejects_windows_beyond_the_budget(kwargs):
    with pytest.raises(ConfigurationError, match="budget"):
        default_window(**kwargs)


def test_means_beyond_the_pmf_budget_are_refused():
    # at mean 1e14 the log-space pmf errs by about 6e-4 relative; at 8e15
    # default_window used to return [8e15, 8e15] as covering 1 - 1e-3
    budget = "coherent mean .* exceeds the budget"
    with pytest.raises(ConfigurationError, match=budget):
        coherent_amplitudes(1e14, TruncationWindow(10**14 - 5, 10**14 + 5))
    with pytest.raises(ConfigurationError, match=budget):
        default_window(1e14, 1e-4, 1e-3)
    with pytest.raises(ConfigurationError, match=budget):
        default_window(8e15, 1e-9, 1e-3)


def test_non_finite_amplitudes_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="finite"):
        coherent_amplitudes(math.nan, TruncationWindow(0, 3))
    with pytest.raises(ConfigurationError, match="finite"):
        custom_field([0.5, math.inf])
    path = tmp_path / "amps.txt"
    path.write_text("0.5\n0.5 nan\n")
    with pytest.raises(ConfigurationError, match=r"amps.txt:2: .*finite"):
        load_custom_field(path)


@settings(max_examples=30, deadline=None)
@given(mean=st.floats(min_value=0.0, max_value=40.0))
def test_default_window_coverage_property(mean):
    f = coherent_field(mean)
    assert 1 - 1e-12 <= f.norm_squared() <= 1 + 1e-15


def test_explicit_window_coverage_enforced():
    with pytest.raises(ConfigurationError):
        coherent_field(10.0, window=TruncationWindow(9, 11))


def test_fock_field():
    f = fock_field(3)
    assert f.window == TruncationWindow(3, 3)
    assert f.amplitudes_at(3) == 1.0
    assert f.amplitudes_at(np.array([2]))[0] == 0.0
    with pytest.raises(ConfigurationError):
        fock_field(-1)


def test_custom_field_normalizes_and_warns():
    f = custom_field([0.6, 0.8])
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-15)
    with pytest.warns(UserWarning):
        g = custom_field([1.0, 1.0])
    assert g.norm_squared() == pytest.approx(1.0, abs=1e-15)
    assert g.amplitudes_at(0) == pytest.approx(1 / math.sqrt(2))


@pytest.mark.parametrize("amps, expected", [([1e200, 1.0], [1.0, 1e-200]),
                                            ([1e-200, 1e-300], [1.0, 1e-100])])
def test_custom_field_normalizes_amplitudes_whose_squares_leave_the_range(amps, expected):
    # the squares overflow, or underflow to a zero norm, unless scaled first
    with pytest.warns(UserWarning, match="renormalizing") as record:
        f = custom_field(amps)
    assert [w.category for w in record] == [UserWarning]
    assert np.array_equal(f.amplitudes, expected)


def test_load_custom_field(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("0.6\n0.0 0.8\n")
    f = load_custom_field(path)
    assert f.amplitudes_at(0) == pytest.approx(0.6)
    assert f.amplitudes_at(1) == pytest.approx(0.8j)

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ConfigurationError):
        load_custom_field(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ConfigurationError):
        load_custom_field(empty)


def enumerate_configs(windows):
    """config_array as a list of tuples, in lexicographic order."""
    return [tuple(int(n) for n in row) for row in config_array(windows)]


def test_enumerate_configs_examples():
    cfgs = enumerate_configs([TruncationWindow(0, 2), TruncationWindow(0, 1)])
    assert len(cfgs) == 6
    assert cfgs[0] == (0, 0) and cfgs[-1] == (2, 1)
    assert len(set(cfgs)) == 6
    assert enumerate_configs([TruncationWindow(3, 3)]) == [(3,)]
    assert len(enumerate_configs([TruncationWindow(0, 1)] * 3)) == 8
    with pytest.raises(ConfigurationError):
        enumerate_configs([])


def test_config_array_matches_enumeration():
    windows = [TruncationWindow(1, 3), TruncationWindow(0, 2)]
    arr = config_array(windows)
    assert [tuple(r) for r in arr] == list(itertools.product(range(1, 4), range(0, 3)))


def test_total_weight_over_configs():
    from tcmsim.closed_form import ConsistentBlocks

    fields = [coherent_field(2.0)] * 2
    total = np.sum(np.abs(ConsistentBlocks(fields).weights) ** 2)
    assert (1 - 1e-12) ** 2 <= total <= 1.0 + 1e-12


def test_same_fields():
    a = coherent_field(2.0)
    assert same_fields([a, a])
    assert same_fields([a, coherent_field(2.0)])
    assert not same_fields([a, coherent_field(3.0)])
    assert not same_fields([a, fock_field(2)])

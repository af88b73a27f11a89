import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmsim import (ConfigurationError, TruncationWindow, coherent_amplitudes,
                    coherent_field, custom_field, default_window,
                    enumerate_configs, fock_field, joint_weight,
                    load_custom_field)
from tcmsim.fock_field import config_array, log_factorial, same_fields


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
    assert f.amplitude(3) == 1.0
    assert f.amplitude_or_zero(2) == 0.0
    with pytest.raises(IndexError):
        f.amplitude(4)
    with pytest.raises(ConfigurationError):
        fock_field(-1)


def test_custom_field_normalizes_and_warns():
    f = custom_field([0.6, 0.8])
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-15)
    with pytest.warns(UserWarning):
        g = custom_field([1.0, 1.0])
    assert g.norm_squared() == pytest.approx(1.0, abs=1e-15)
    assert g.amplitude(0) == pytest.approx(1 / math.sqrt(2))


def test_load_custom_field(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("0.6\n0.0 0.8\n")
    f = load_custom_field(path)
    assert f.amplitude(0) == pytest.approx(0.6)
    assert f.amplitude(1) == pytest.approx(0.8j)

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ConfigurationError):
        load_custom_field(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ConfigurationError):
        load_custom_field(empty)


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
    assert [tuple(r) for r in arr] == enumerate_configs(windows)


def test_joint_weight_examples():
    fields = [fock_field(2), fock_field(5)]
    assert joint_weight((2, 5), fields) == 1.0
    coh = [coherent_field(1.0)] * 2
    assert joint_weight((0, 1), coh) == pytest.approx(0.36787944117144233, abs=1e-12)
    with pytest.raises(IndexError):
        joint_weight((0, 99), coh)
    with pytest.raises(ConfigurationError):
        joint_weight((0,), coh)


def test_total_weight_over_configs():
    fields = [coherent_field(2.0)] * 2
    total = sum(abs(joint_weight(c, fields)) ** 2
                for c in enumerate_configs([f.window for f in fields]))
    assert (1 - 1e-12) ** 2 <= total <= 1.0 + 1e-12


def test_same_fields():
    a = coherent_field(2.0)
    assert same_fields([a, a])
    assert same_fields([a, coherent_field(2.0)])
    assert not same_fields([a, coherent_field(3.0)])
    assert not same_fields([a, fock_field(2)])

"""Unit-conversion contracts: dBm <-> watt and noise power."""

import math

import pytest
from hypothesis import given, strategies as st

from crnoma import dbm_to_watt, noise_power_w, watt_to_dbm

# High-precision references evaluated with 50-digit arithmetic.
REF_MINUS_174_DBM_W = 3.9810717055349725e-21
REF_0_7_W_DBM = 28.45098040014257


def test_dbm_to_watt_definition_points():
    assert dbm_to_watt(30.0) == 1.0
    assert dbm_to_watt(0.0) == pytest.approx(1.0e-3, rel=1e-15)
    assert dbm_to_watt(-174.0) == pytest.approx(REF_MINUS_174_DBM_W, rel=1e-12)


def test_watt_to_dbm_definition_points():
    assert watt_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    assert watt_to_dbm(1.0e-3) == pytest.approx(0.0, abs=1e-12)
    assert watt_to_dbm(0.7) == pytest.approx(REF_0_7_W_DBM, abs=1e-12)


def test_noise_power_cases():
    assert noise_power_w(-174.0, 1.0) == pytest.approx(REF_MINUS_174_DBM_W, rel=1e-12)
    assert noise_power_w(-174.0, 1e6) == pytest.approx(REF_MINUS_174_DBM_W * 1e6, rel=1e-12)
    assert noise_power_w(0.0, 1.0) == pytest.approx(1.0e-3, rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dbm_to_watt_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        dbm_to_watt(bad)


def test_dbm_to_watt_overflow_is_value_error():
    with pytest.raises(ValueError, match="overflows"):
        dbm_to_watt(5000.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_watt_to_dbm_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        watt_to_dbm(bad)


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan])
def test_noise_power_rejects_bad_bandwidth(bad):
    with pytest.raises(ValueError):
        noise_power_w(-174.0, bad)


@given(st.floats(min_value=-200.0, max_value=100.0))
def test_round_trip_within_1e12_absolute(dbm):
    assert abs(watt_to_dbm(dbm_to_watt(dbm)) - dbm) <= 1e-12


def test_round_trip_grid():
    worst = max(
        abs(watt_to_dbm(dbm_to_watt(-200.0 + i * 0.25)) - (-200.0 + i * 0.25))
        for i in range(1201)
    )
    assert worst <= 1e-12

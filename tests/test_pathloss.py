"""Pathloss model: LOS/NLOS formulas, weighted average, power gain."""

import math
import warnings

import pytest
from hypothesis import given, strategies as st

from crnoma import (
    ModelRangeWarning,
    pathloss_average_db,
    pathloss_los_db,
    pathloss_nlos_db,
    power_gain,
)

# Hand evaluations of the printed formulas.
LOS_100M_5GHZ = 85.97940008672037
NLOS_100M_5GHZ = 114.2732201127365
AVG_100M_5GHZ = 100.12631009972844
LOS_1KM_2GHZ = 100.02059991327963
NLOS_1KM_2GHZ = 140.62677988726352
GAIN_AVG_100M_5GHZ = 9.713348929289155e-11

in_range_d = st.floats(min_value=10.0, max_value=1900.0)
in_range_f = st.floats(min_value=2.0, max_value=6.0)
prob = st.floats(min_value=0.0, max_value=1.0)


def test_los_values():
    with pytest.warns(ModelRangeWarning):
        assert pathloss_los_db(1.0, 1.0) == pytest.approx(28.0, abs=1e-12)
    assert pathloss_los_db(100.0, 5.0) == pytest.approx(LOS_100M_5GHZ, rel=1e-14)
    assert pathloss_los_db(1000.0, 2.0) == pytest.approx(LOS_1KM_2GHZ, rel=1e-14)


def test_nlos_values():
    with pytest.warns(ModelRangeWarning):
        assert pathloss_nlos_db(1.0, 1.0) == pytest.approx(22.7, abs=1e-12)
    assert pathloss_nlos_db(100.0, 5.0) == pytest.approx(NLOS_100M_5GHZ, rel=1e-14)
    assert pathloss_nlos_db(1000.0, 2.0) == pytest.approx(NLOS_1KM_2GHZ, rel=1e-14)


def test_average_degenerates_and_midpoint():
    assert pathloss_average_db(100.0, 5.0, 1.0) == pathloss_los_db(100.0, 5.0)
    assert pathloss_average_db(100.0, 5.0, 0.0) == pathloss_nlos_db(100.0, 5.0)
    assert pathloss_average_db(100.0, 5.0, 0.5) == pytest.approx(AVG_100M_5GHZ, rel=1e-14)


def test_power_gain_values():
    assert power_gain(0.0) == 1.0
    assert power_gain(10.0) == pytest.approx(0.1, rel=1e-15)
    assert power_gain(AVG_100M_5GHZ) == pytest.approx(GAIN_AVG_100M_5GHZ, rel=1e-12)


def test_linear_combine_mixes_gains():
    los = pathloss_los_db(100.0, 5.0)
    nlos = pathloss_nlos_db(100.0, 5.0)
    linear = pathloss_average_db(100.0, 5.0, 0.5, combine="linear")
    expected = -10.0 * math.log10(0.5 * power_gain(los) + 0.5 * power_gain(nlos))
    assert linear == pytest.approx(expected, rel=1e-14)
    # Mixing gains always favors the stronger path relative to the dB mix.
    assert los <= linear <= pathloss_average_db(100.0, 5.0, 0.5)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        pathloss_los_db(0.0, 5.0)
    with pytest.raises(ValueError):
        pathloss_los_db(100.0, -1.0)
    with pytest.raises(ValueError):
        pathloss_average_db(100.0, 5.0, 1.5)
    with pytest.raises(ValueError):
        pathloss_average_db(100.0, 5.0, 0.5, combine="median")
    with pytest.raises(ValueError):
        power_gain(math.nan)
    with pytest.raises(ValueError, match="overflows"):
        power_gain(-5000.0)


def test_out_of_range_warns_not_fails():
    with pytest.warns(ModelRangeWarning):
        pathloss_los_db(5.0, 5.0)
    with pytest.warns(ModelRangeWarning):
        pathloss_los_db(100.0, 7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pathloss_los_db(100.0, 5.0)


@given(d=in_range_d, f=in_range_f)
def test_monotone_in_distance(d, f):
    assert pathloss_los_db(d * 1.01, f) > pathloss_los_db(d, f)
    assert pathloss_nlos_db(d * 1.01, f) > pathloss_nlos_db(d, f)


@given(d=in_range_d, f=st.floats(min_value=2.0, max_value=5.9))
def test_monotone_in_frequency(d, f):
    assert pathloss_los_db(d, f + 0.1) > pathloss_los_db(d, f)
    assert pathloss_nlos_db(d, f + 0.1) > pathloss_nlos_db(d, f)


@given(d=in_range_d, f=in_range_f, omega=prob)
def test_average_bounded_by_components(d, f, omega):
    los = pathloss_los_db(d, f)
    nlos = pathloss_nlos_db(d, f)
    avg = pathloss_average_db(d, f, omega)
    assert min(los, nlos) - 1e-12 <= avg <= max(los, nlos) + 1e-12


@given(d=in_range_d, f=in_range_f, omega=prob)
def test_gain_decreases_with_distance(d, f, omega):
    near = power_gain(pathloss_average_db(d, f, omega))
    far = power_gain(pathloss_average_db(d * 1.05, f, omega))
    assert far < near


@given(pl=st.floats(min_value=-50.0, max_value=250.0))
def test_gain_inverts_pathloss(pl):
    assert power_gain(pl) * 10.0 ** (pl / 10.0) == pytest.approx(1.0, rel=1e-12)

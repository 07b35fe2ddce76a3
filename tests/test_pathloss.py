"""Pathloss model: LOS/NLOS formulas, weighted average, power gain."""

import math

import pytest
from hypothesis import given, strategies as st

from crnoma import (
    pathloss_average_db,
    pathloss_los_db,
    pathloss_nlos_db,
    power_gain,
)
from crnoma.pathloss import range_notes

# Hand evaluations of the printed formulas.
LOS_100M_5GHZ = 85.97940008672037
NLOS_100M_5GHZ = 114.2732201127365
AVG_100M_5GHZ = 100.12631009972844
LOS_1KM_2GHZ = 100.02059991327963
NLOS_1KM_2GHZ = 140.62677988726352
GAIN_AVG_100M_5GHZ = 9.713348929289155e-11

DISTANCE_1M_NOTE = "distance 1.0 m outside the model validity range (10.0, 2000.0) m"
CARRIER_1GHZ_NOTE = "carrier 1.0 GHz outside the model validity range (2.0, 6.0) GHz"

in_range_d = st.floats(min_value=10.0, max_value=1900.0)
in_range_f = st.floats(min_value=2.0, max_value=6.0)
prob = st.floats(min_value=0.0, max_value=1.0)


def test_los_values():
    assert pathloss_los_db(1.0, 1.0) == pytest.approx(28.0, abs=1e-12)
    assert range_notes(1.0, 1.0) == [DISTANCE_1M_NOTE, CARRIER_1GHZ_NOTE]
    assert pathloss_los_db(100.0, 5.0) == pytest.approx(LOS_100M_5GHZ, rel=1e-14)
    assert pathloss_los_db(1000.0, 2.0) == pytest.approx(LOS_1KM_2GHZ, rel=1e-14)


def test_nlos_values():
    assert pathloss_nlos_db(1.0, 1.0) == pytest.approx(22.7, abs=1e-12)
    assert range_notes(1000.0, 2.0) == []
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


def test_power_gain_that_underflows_to_zero_raises():
    # 10 ** -323.3 rounds to the smallest subnormal, which is a valid gain;
    # 10 ** -324 rounds to 0, which no loader or solver can use.
    assert power_gain(3233.0) == 5e-324
    with pytest.raises(ValueError, match=r"^pathloss 3240.0 dB underflows to a power gain of 0$"):
        power_gain(3240.0)
    far = pathloss_average_db(1e200, 5.0)
    with pytest.raises(ValueError, match="underflows to a power gain of 0"):
        power_gain(far)
    # The linear mix takes each term as it is, so one term may underflow.
    assert pathloss_average_db(1e100, 5.0, 0.5, combine="linear") == pytest.approx(
        -10.0 * math.log10(0.5 * power_gain(pathloss_los_db(1e100, 5.0))), rel=1e-14
    )
    with pytest.raises(ValueError, match="mix to a power gain of 0$"):
        pathloss_average_db(1e100, 5.0, 0.0, combine="linear")


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


def test_out_of_range_notes_not_fails():
    assert pathloss_los_db(5.0, 5.0) == pytest.approx(28.0 + 42.0 * math.log10(5.0), rel=1e-14)
    assert range_notes(5.0, 5.0) == [
        "distance 5.0 m outside the model validity range (10.0, 2000.0) m"
    ]
    assert range_notes(100.0, 7.0) == [
        "carrier 7.0 GHz outside the model validity range (2.0, 6.0) GHz"
    ]
    # The range is closed at both ends.
    for d, f in ((100.0, 5.0), (10.0, 2.0), (2000.0, 6.0)):
        assert range_notes(d, f) == []


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


def _two_call_average_db(distance_m, carrier_ghz, los_probability, combine):
    """pathloss_average_db as it was written with one validated call per
    formula, each taking its own logarithms."""
    if not (0.0 <= los_probability <= 1.0):
        raise ValueError(f"los_probability must lie in [0, 1], got {los_probability!r}")
    terms = []
    for slope, intercept, freq_slope in ((22.0, 28.0, 20.0), (36.7, 22.7, 26.0)):
        if not math.isfinite(distance_m) or distance_m <= 0.0:
            raise ValueError(f"distance_m must be finite and > 0, got {distance_m!r}")
        if not math.isfinite(carrier_ghz) or carrier_ghz <= 0.0:
            raise ValueError(f"carrier_ghz must be finite and > 0, got {carrier_ghz!r}")
        terms.append(
            slope * math.log10(distance_m) + intercept + freq_slope * math.log10(carrier_ghz)
        )
    los, nlos = terms
    if combine == "db":
        return los_probability * los + (1.0 - los_probability) * nlos
    if combine == "linear":
        mixed = los_probability * 10.0 ** (-los / 10.0) + (1.0 - los_probability) * 10.0 ** (
            -nlos / 10.0
        )
        return -10.0 * math.log10(mixed)
    raise ValueError(f"combine must be 'db' or 'linear', got {combine!r}")


def test_average_is_bit_identical_to_two_call_form():
    distances = [m * 10.0**e for e in range(-3, 6) for m in (1.0, 1.37, 2.5, 5.0, 7.93)] + [1e6]
    carriers = [0.5, 0.9, 1.0, 2.4, 3.5, 5.0, 5.8, 6.0, 10.0, 28.0, 39.0, 60.0, 73.5, 100.0]
    checked = 0
    for d in distances:
        for f in carriers:
            for omega in (0.0, 0.3, 0.5, 1.0):
                for combine in ("db", "linear"):
                    got = pathloss_average_db(d, f, omega, combine)
                    expected = _two_call_average_db(d, f, omega, combine)
                    assert got.hex() == expected.hex(), (d, f, omega, combine)
                    checked += 1
    assert checked == 46 * 14 * 4 * 2
    assert pathloss_los_db(37.0, 2.4) == _two_call_average_db(37.0, 2.4, 1.0, "db")
    assert pathloss_nlos_db(37.0, 2.4) == _two_call_average_db(37.0, 2.4, 0.0, "db")


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 5.0, 0.5, "db"),
        (-1.0, 5.0, 0.5, "linear"),
        (math.nan, 5.0, 0.5, "db"),
        (math.inf, 5.0, 0.5, "db"),
        (100.0, 0.0, 0.5, "db"),
        (100.0, -2.0, 0.5, "linear"),
        (100.0, math.nan, 0.5, "db"),
        (100.0, 5.0, 0.5, "median"),
        (0.0, 5.0, 0.5, "median"),
        (0.0, 5.0, 1.5, "db"),
        (100.0, 5.0, math.nan, "db"),
    ],
)
def test_average_raises_the_two_call_messages(args):
    with pytest.raises(ValueError) as expected:
        _two_call_average_db(*args)
    with pytest.raises(ValueError) as got:
        pathloss_average_db(*args)
    assert str(got.value) == str(expected.value)

import math

import pytest
from hypothesis import HealthCheck, settings

from crnoma import (
    DevicePair,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    Scenario,
    SensingProfile,
    ee_of_power,
    load_default_scenario,
)

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def default_scenario():
    return load_default_scenario()


def make_scenario(
    hrc_gains=(1e-13, 5e-14),
    mrc_gains=(8e-14, 4e-14),
    hrc_power_w=0.7,
    mrc_power_w=0.3,
    primary_power_w=50.0,
    primary_gain=1.5e-14,
    circuit_w=99.0,
    sensing_w=1.0,
    p_false_alarm=0.1,
    p_detection=0.9,
    grid=(0.0, 0.25, 0.5, 0.75, 1.0),
):
    """Small programmatic scenario for optimizer/sweep tests."""
    pairs = tuple(
        DevicePair(
            hrc_power_w=hrc_power_w,
            mrc_power_w=mrc_power_w,
            hrc_gain=gh,
            mrc_gain=gm,
        )
        for gh, gm in zip(hrc_gains, mrc_gains)
    )
    return Scenario(
        env=RadioEnvironment(bandwidth_hz=1e6, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0),
        sensing=SensingProfile(
            t_transmit_s=0.125e-3,
            t_sense_s=0.125e-3,
            p_inactive=0.5,
            p_active=0.5,
            p_false_alarm=p_false_alarm,
            p_detection=p_detection,
        ),
        pairs=pairs,
        primary=PrimaryLink(power_w=primary_power_w, gain=primary_gain),
        overheads=PowerOverheads(circuit_w=circuit_w, sensing_w=sensing_w),
        sweep_grid=tuple(grid),
        label="synthetic",
    )


def reference_argmax(problem):
    """Golden-section search over ee_of_power from a 1e6 W bracket, written out step by step."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    hi = 1e6
    while ee_of_power(hi, problem) >= ee_of_power(hi * 0.5, problem):
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("unbounded")
    a, b = 0.0, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc = ee_of_power(c, problem)
    fd = ee_of_power(d, problem)
    while (b - a) > 1e-9 * max(abs(a), abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = ee_of_power(c, problem)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = ee_of_power(d, problem)
    return 0.5 * (a + b)

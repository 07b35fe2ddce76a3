"""Link metrics: throughputs, EE, improvement percentage."""

import pytest
from hypothesis import given, strategies as st

from crnoma import (
    HRC,
    MRC,
    DevicePair,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    SensingProfile,
    duty_factor,
    energy_efficiency,
    improvement_percent,
    throughput,
)

# Reference EE operating points: throughput bps / tx watts under 99+1 W
# overheads, and the published improvement-percentage pairs.
EE_HRC_INTERFERENCE = 42.99900695134061
EE_MRC_INTERFERENCE = 37.41774675972084
IMP_MRC_EFFECTUAL = 73.95556797540868
IMP_HRC_INTERFERENCE = 94.16363391292627

# b = 1 Hz and 0 dBm/Hz noise PSD give a 1 mW noise floor; powers are then
# chosen to hit exact SINR values.
UNIT_ENV = RadioEnvironment(bandwidth_hz=1.0, noise_psd_dbm_hz=0.0, carrier_ghz=5.0)
OVERHEADS = PowerOverheads(circuit_w=99.0, sensing_w=1.0)


def sensing(p_inactive=1.0, p_active=1.0, p_false_alarm=0.0, p_detection=0.0):
    return SensingProfile(
        t_transmit_s=1.0,
        t_sense_s=1.0,
        p_inactive=p_inactive,
        p_active=p_active,
        p_false_alarm=p_false_alarm,
        p_detection=p_detection,
    )


def pair(hrc_power=1e-3, mrc_power=1e-4, hrc_gain=1.0, mrc_gain=1.0):
    return DevicePair(
        hrc_power_w=hrc_power,
        mrc_power_w=mrc_power,
        hrc_gain=hrc_gain,
        mrc_gain=mrc_gain,
    )


def test_duty_factor():
    assert duty_factor(SensingProfile(0.125e-3, 0.125e-3)) == 0.5
    assert duty_factor(SensingProfile(1.0, 0.0)) == 1.0
    assert duty_factor(SensingProfile(1.0, 3.0)) == 0.25


def test_hrc_effectual_unit_snr():
    # P_H * g_h equals the noise floor, so log2(1 + 1) = 1, halved by duty.
    assert throughput(sensing(), UNIT_ENV, [pair()], HRC) == 0.5


def test_hrc_effectual_sums_over_pairs():
    pairs = [pair(), pair()]
    assert throughput(sensing(), UNIT_ENV, pairs, HRC) == 1.0


def test_hrc_effectual_zero_probability():
    assert throughput(sensing(p_inactive=0.0), UNIT_ENV, [pair()], HRC) == 0.0


def test_mrc_effectual_unit_sinr():
    # P_M * g_m equals noise + HRC received power.
    p = pair(hrc_power=1e-3, mrc_power=2e-3)
    value = throughput(sensing(), UNIT_ENV, [p], MRC)
    assert value == pytest.approx(0.5, rel=1e-12)


def test_mrc_effectual_zero_power():
    p = pair(mrc_power=0.0)
    assert throughput(sensing(), UNIT_ENV, [p], MRC) == 0.0


def test_mrc_effectual_vanishes_under_huge_pair_interference():
    p = pair(hrc_power=1e9, mrc_power=1e-3)
    assert throughput(sensing(), UNIT_ENV, [p], MRC) < 1e-9


def test_hrc_interference_three_to_one():
    # P_H * g_h = 3 * (noise + primary received) gives log2(4) = 2.
    primary = PrimaryLink(power_w=3e-3, gain=1.0)
    p = pair(hrc_power=3.0 * (1e-3 + 3e-3), mrc_power=1e-4)
    value = throughput(sensing(), UNIT_ENV, [p], HRC, primary)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_hrc_interference_perfect_detection_suppresses():
    primary = PrimaryLink(power_w=3e-3, gain=1.0)
    value = throughput(sensing(p_detection=1.0), UNIT_ENV, [pair()], HRC, primary)
    assert value == 0.0


def test_hrc_interference_reduces_to_effectual_without_primary():
    primary = PrimaryLink(power_w=0.0, gain=1.0)
    s = sensing()
    assert throughput(s, UNIT_ENV, [pair()], HRC, primary) == (
        throughput(s, UNIT_ENV, [pair()], HRC)
    )


def test_mrc_interference_unit_sinr():
    primary = PrimaryLink(power_w=2e-3, gain=1.0)
    # numerator = noise + HRC received + primary received = 4 mW
    p = pair(hrc_power=1e-3, mrc_power=4e-3)
    value = throughput(sensing(), UNIT_ENV, [p], MRC, primary)
    assert value == pytest.approx(0.5, rel=1e-12)


def test_mrc_interference_zero_probability():
    primary = PrimaryLink(power_w=2e-3, gain=1.0)
    value = throughput(sensing(p_active=0.0), UNIT_ENV, [pair()], MRC, primary)
    assert value == 0.0


def test_mrc_interference_reduces_without_hrc_and_primary():
    primary = PrimaryLink(power_w=0.0, gain=1.0)
    p = pair(hrc_power=0.0, mrc_power=1e-3)
    s = sensing()
    value = throughput(s, UNIT_ENV, [p], MRC, primary)
    assert value == pytest.approx(0.5, rel=1e-12)


def test_throughput_rejects_unknown_device():
    with pytest.raises(ValueError, match="device must be one of"):
        throughput(sensing(), UNIT_ENV, [pair()], "xrc")


def test_energy_efficiency_reference_points():
    assert energy_efficiency(4330.0, 0.7, OVERHEADS) == pytest.approx(
        EE_HRC_INTERFERENCE, rel=1e-12
    )
    assert energy_efficiency(3753.0, 0.3, OVERHEADS) == pytest.approx(
        EE_MRC_INTERFERENCE, rel=1e-12
    )
    assert energy_efficiency(0.0, 0.3, OVERHEADS) == 0.0


def test_energy_efficiency_errors():
    with pytest.raises(ValueError):
        energy_efficiency(-1.0, 0.3, OVERHEADS)
    with pytest.raises(ValueError):
        energy_efficiency(100.0, -0.1, OVERHEADS)
    with pytest.raises(ValueError):
        PowerOverheads(circuit_w=0.0, sensing_w=0.0)


def test_improvement_reference_points():
    assert improvement_percent(5.0, 5.0) == 0.0
    assert improvement_percent(1.864e5, 7.157e5) == pytest.approx(
        IMP_MRC_EFFECTUAL, rel=1e-12
    )
    assert improvement_percent(4330.0, 7.419e4) == pytest.approx(
        IMP_HRC_INTERFERENCE, rel=1e-12
    )


def test_improvement_errors():
    with pytest.raises(ValueError):
        improvement_percent(1.0, 0.0)
    with pytest.raises(ValueError):
        improvement_percent(1.0, -2.0)
    with pytest.raises(ValueError):
        improvement_percent(-1.0, 2.0)


def test_sic_ordering_ok():
    assert not pair(hrc_power=0.1, mrc_power=0.3).sic_ordering_ok()
    assert not pair(hrc_power=0.3, mrc_power=0.3).sic_ordering_ok()
    assert pair(hrc_power=0.7, mrc_power=0.3).sic_ordering_ok()
    # Received power, not transmit power, sets the order.
    assert not pair(hrc_power=0.7, mrc_power=0.3, hrc_gain=0.1).sic_ordering_ok()


def test_pair_validation_errors():
    with pytest.raises(ValueError):
        pair(hrc_power=-1.0)
    with pytest.raises(ValueError):
        pair(hrc_gain=0.0)
    with pytest.raises(ValueError):
        pair(mrc_gain=-2.0)


@given(p_x=st.floats(min_value=1e-6, max_value=1.0))
def test_linearity_in_probability(p_x):
    """Halving the state probability halves every throughput exactly."""
    s_full = sensing(p_inactive=p_x, p_active=p_x)
    s_half = sensing(p_inactive=p_x / 2.0, p_active=p_x / 2.0)
    p = pair(hrc_power=2.5e-3, mrc_power=1e-3, mrc_gain=0.5)
    primary = PrimaryLink(power_w=1e-3, gain=0.75)
    for full, half in (
        (
            throughput(s_full, UNIT_ENV, [p], HRC),
            throughput(s_half, UNIT_ENV, [p], HRC),
        ),
        (
            throughput(s_full, UNIT_ENV, [p], MRC),
            throughput(s_half, UNIT_ENV, [p], MRC),
        ),
        (
            throughput(s_full, UNIT_ENV, [p], HRC, primary),
            throughput(s_half, UNIT_ENV, [p], HRC, primary),
        ),
        (
            throughput(s_full, UNIT_ENV, [p], MRC, primary),
            throughput(s_half, UNIT_ENV, [p], MRC, primary),
        ),
    ):
        assert half == full / 2.0


@given(
    gains=st.lists(
        st.floats(min_value=1e-16, max_value=1e-9), min_size=1, max_size=6
    )
)
def test_summation_additivity(gains):
    pairs = [pair(hrc_power=0.7, mrc_power=0.3, hrc_gain=g, mrc_gain=g / 2) for g in gains]
    env = RadioEnvironment(bandwidth_hz=1e6, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0)
    s = sensing(p_inactive=0.5)
    combined = throughput(s, env, pairs, HRC)
    summed = sum(throughput(s, env, [p], HRC) for p in pairs)
    assert combined == pytest.approx(summed, rel=1e-12)


def test_hrc_dominates_mrc_effectual():
    """Same gains, larger HRC power: MRC also suffers the extra denominator."""
    p = pair(hrc_power=0.7, mrc_power=0.3, hrc_gain=1e-12, mrc_gain=1e-12)
    env = RadioEnvironment(bandwidth_hz=1e6, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0)
    s = sensing(p_inactive=0.5, p_false_alarm=0.1)
    assert throughput(s, env, [p], HRC) > throughput(s, env, [p], MRC)


def test_effectual_dominates_interference_per_state():
    env = RadioEnvironment(bandwidth_hz=1e6, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0)
    s = sensing(p_inactive=0.5, p_active=0.5, p_false_alarm=0.1, p_detection=0.9)
    assert s.meets_regulatory_sensing()
    p = pair(hrc_power=0.7, mrc_power=0.3, hrc_gain=1e-13, mrc_gain=8e-14)
    primary = PrimaryLink(power_w=50.0, gain=1e-14)
    assert primary.received_w() > 0.0
    assert throughput(s, env, [p], HRC) > throughput(s, env, [p], HRC, primary)
    assert throughput(s, env, [p], MRC) > throughput(s, env, [p], MRC, primary)


@given(scale=st.floats(min_value=1.1, max_value=100.0))
def test_monotone_in_own_power_and_interference(scale):
    env = RadioEnvironment(bandwidth_hz=1e6, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0)
    s = sensing(p_inactive=0.5, p_active=0.5, p_false_alarm=0.1, p_detection=0.9)
    base = pair(hrc_power=0.7, mrc_power=0.3, hrc_gain=1e-13, mrc_gain=8e-14)
    boosted_hrc = pair(hrc_power=0.7 * scale, mrc_power=0.3, hrc_gain=1e-13, mrc_gain=8e-14)
    boosted_mrc = pair(hrc_power=0.7, mrc_power=0.3 * scale, hrc_gain=1e-13, mrc_gain=8e-14)
    primary = PrimaryLink(power_w=50.0, gain=1e-14)
    stronger_primary = PrimaryLink(power_w=50.0 * scale, gain=1e-14)

    # Own power strictly raises throughput.
    assert throughput(s, env, [boosted_hrc], HRC) > throughput(s, env, [base], HRC)
    assert throughput(s, env, [boosted_mrc], MRC) > throughput(s, env, [base], MRC)
    # Interference powers strictly lower it.
    assert throughput(s, env, [boosted_hrc], MRC) < throughput(s, env, [base], MRC)
    weaker = throughput(s, env, [base], HRC, stronger_primary)
    assert weaker < throughput(s, env, [base], HRC, primary)
    weaker = throughput(s, env, [base], MRC, stronger_primary)
    assert weaker < throughput(s, env, [base], MRC, primary)

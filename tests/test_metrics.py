"""Link metrics: throughputs, EE, improvement percentage."""

import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import crnoma.metrics
import crnoma.optimizer
from crnoma import (
    EFFECTUAL,
    HRC,
    INTERFERENCE,
    MRC,
    DevicePair,
    MetricPoint,
    OptProblem,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    SensingProfile,
    duty_factor,
    ee_of_power,
    energy_efficiency,
    improvement_percent,
    load_scenario,
    optimize_scenario,
    run_sweep,
    throughput,
)
from crnoma.scenario import default_scenario_text
from conftest import make_scenario

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


def test_sensing_profile_defaults():
    s = SensingProfile(1.0, 1.0)
    assert (s.p_inactive, s.p_active, s.p_false_alarm, s.p_detection) == (0.5, 0.5, 0.1, 0.9)


@pytest.mark.parametrize(
    "p_detection, p_false_alarm, meets",
    [
        (0.9, 0.1, True),
        (1.0, 0.0, True),
        (0.8999, 0.1, False),
        (0.9, 0.1001, False),
    ],
)
def test_regulatory_sensing_edges(p_detection, p_false_alarm, meets):
    """IEEE 802.22-style envelope: p_d >= 0.9 and p_f <= 0.1, both edges included."""
    s = sensing(p_false_alarm=p_false_alarm, p_detection=p_detection)
    assert s.meets_regulatory_sensing() is meets


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


STATE_ERROR = "state must be one of ('effectual', 'interference'), got 'bogus'"
DEVICE_ERROR = "device must be one of ('hrc', 'mrc'), got 'bogus'"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda scn: run_sweep(scn, "bogus", HRC, True), STATE_ERROR),
        (lambda scn: run_sweep(scn, EFFECTUAL, "bogus", True), DEVICE_ERROR),
        (lambda scn: optimize_scenario(scn, "bogus"), STATE_ERROR),
        (lambda scn: MetricPoint(0.5, "bogus", HRC, 0.0, 0.0, 0.0, False), STATE_ERROR),
        (lambda scn: MetricPoint(0.5, EFFECTUAL, "bogus", 0.0, 0.0, 0.0, False), DEVICE_ERROR),
        (lambda scn: throughput(scn.sensing, scn.env, scn.pairs, "bogus"), DEVICE_ERROR),
    ],
    ids=[
        "run_sweep-state",
        "run_sweep-device",
        "optimize_scenario-state",
        "MetricPoint-state",
        "MetricPoint-device",
        "throughput-device",
    ],
)
def test_unknown_state_or_device_has_one_message(default_scenario, call, message):
    with pytest.raises(ValueError) as err:
        call(default_scenario)
    assert str(err.value) == message


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


def test_energy_efficiency_rejects_non_finite_throughput():
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError) as err:
            energy_efficiency(value, 0.7, OVERHEADS)
        assert str(err.value) == f"throughput_bps must be >= 0, got {value!r}"


def _explicit_hrc_gain(value):
    line = "  hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]\n"
    text = default_scenario_text()
    assert line in text
    load_scenario(text.replace(line, f"  hrc_gains: [{value!r}, 1.0, 1.0, 1.0, 1.0]\n"))


# In the effectual state the base denominator is the noise power alone, so a
# patched noise power reaches _base_denominator_w's own check as is.
def _optimize_with_base_denominator(value):
    with mock.patch.object(RadioEnvironment, "noise_w", return_value=value):
        optimize_scenario(make_scenario(), EFFECTUAL)


def _optimize_with_mrc_denominator(value):
    # D = 1.0 + (value - 1.0) * 1.0 is exactly value for each value tested.
    with mock.patch.object(crnoma.optimizer, "_base_denominator_w", return_value=1.0), \
            mock.patch.object(crnoma.optimizer, "_coupled_hrc_powers", return_value=[value - 1.0]):
        optimize_scenario(make_scenario(hrc_gains=(1.0,), mrc_gains=(1.0,)), EFFECTUAL)


def _sweep_with_base_denominator(value):
    with mock.patch.object(RadioEnvironment, "noise_w", return_value=value):
        run_sweep(make_scenario(), EFFECTUAL, HRC, False)


def _throughput_with_base_denominator(value):
    scenario = make_scenario()
    with mock.patch.object(RadioEnvironment, "noise_w", return_value=value):
        throughput(scenario.sensing, scenario.env, scenario.pairs, HRC)


_UNIT_PROBLEM = OptProblem(gain=1.0, denom_power_w=1.0, overheads=OVERHEADS)
_POSITIVE = (-1.0, math.nan, math.inf, 0.0)
_NONNEGATIVE = (-1.0, math.nan, math.inf)

# Every site of the finite-and-sign rule: (call with the value, exact message
# before ", got <value>", values it rejects).
SIGN_SITES = {
    "SensingProfile.t_transmit_s": (
        lambda v: SensingProfile(t_transmit_s=v, t_sense_s=1.0),
        "t_transmit_s must be > 0",
        _POSITIVE,
    ),
    "SensingProfile.t_sense_s": (
        lambda v: SensingProfile(t_transmit_s=1.0, t_sense_s=v),
        "t_sense_s must be >= 0",
        _NONNEGATIVE,
    ),
    "RadioEnvironment.bandwidth_hz": (
        lambda v: RadioEnvironment(bandwidth_hz=v, noise_psd_dbm_hz=0.0, carrier_ghz=5.0),
        "bandwidth_hz must be > 0",
        _POSITIVE,
    ),
    "RadioEnvironment.carrier_ghz": (
        lambda v: RadioEnvironment(bandwidth_hz=1.0, noise_psd_dbm_hz=0.0, carrier_ghz=v),
        "carrier_ghz must be > 0",
        _POSITIVE,
    ),
    "DevicePair.hrc_power_w": (
        lambda v: pair(hrc_power=v), "hrc_power_w must be >= 0", _NONNEGATIVE
    ),
    "DevicePair.mrc_power_w": (
        lambda v: pair(mrc_power=v), "mrc_power_w must be >= 0", _NONNEGATIVE
    ),
    "DevicePair.hrc_gain": (lambda v: pair(hrc_gain=v), "hrc_gain must be > 0", _POSITIVE),
    "DevicePair.mrc_gain": (lambda v: pair(mrc_gain=v), "mrc_gain must be > 0", _POSITIVE),
    "PrimaryLink.power_w": (
        lambda v: PrimaryLink(power_w=v, gain=1.0), "power_w must be >= 0", _NONNEGATIVE
    ),
    "PrimaryLink.gain": (
        lambda v: PrimaryLink(power_w=1.0, gain=v), "gain must be > 0", _POSITIVE
    ),
    "PowerOverheads.circuit_w": (
        lambda v: PowerOverheads(circuit_w=v, sensing_w=1.0),
        "circuit_w must be >= 0",
        _NONNEGATIVE,
    ),
    "PowerOverheads.sensing_w": (
        lambda v: PowerOverheads(circuit_w=1.0, sensing_w=v),
        "sensing_w must be >= 0",
        _NONNEGATIVE,
    ),
    # NaN and inf throughput are rejected since the check became the shared
    # validator; test_energy_efficiency_rejects_non_finite_throughput pins them.
    "energy_efficiency.throughput_bps": (
        lambda v: energy_efficiency(v, 0.7, OVERHEADS), "throughput_bps must be >= 0", (-1.0,)
    ),
    "energy_efficiency.tx_power_w": (
        lambda v: energy_efficiency(1.0, v, OVERHEADS), "tx_power_w must be >= 0", _NONNEGATIVE
    ),
    "improvement_percent.optimized": (
        lambda v: improvement_percent(1.0, v), "optimized must be > 0", _POSITIVE
    ),
    "improvement_percent.original": (
        lambda v: improvement_percent(v, 1.0), "original must be >= 0", _NONNEGATIVE
    ),
    "OptProblem.gain": (
        lambda v: OptProblem(gain=v, denom_power_w=1.0, overheads=OVERHEADS),
        "gain must be > 0",
        _POSITIVE,
    ),
    "OptProblem.denom_power_w": (
        lambda v: OptProblem(gain=1.0, denom_power_w=v, overheads=OVERHEADS),
        "denom_power_w must be > 0",
        _POSITIVE,
    ),
    "ee_of_power.power_w": (
        lambda v: ee_of_power(v, _UNIT_PROBLEM), "power_w must be >= 0", _NONNEGATIVE
    ),
    "optimize_scenario.base_denominator": (
        _optimize_with_base_denominator, "denom_power_w must be > 0", _POSITIVE
    ),
    "optimize_scenario.mrc_denominator": (
        _optimize_with_mrc_denominator, "denom_power_w must be > 0", _POSITIVE
    ),
    "run_sweep.base_denominator": (
        _sweep_with_base_denominator, "denom_power_w must be > 0", _POSITIVE
    ),
    "throughput.base_denominator": (
        _throughput_with_base_denominator, "denom_power_w must be > 0", _POSITIVE
    ),
    "load_scenario.explicit_gain": (
        _explicit_hrc_gain, "devices.hrc[0]: gain must be > 0", _POSITIVE
    ),
}


@pytest.mark.parametrize(
    "site, value",
    [(site, value) for site, (_, _, values) in SIGN_SITES.items() for value in values],
)
def test_finite_and_sign_messages(site, value):
    call, message, _ = SIGN_SITES[site]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{message}, got {value!r}"


def test_improvement_reference_points():
    assert improvement_percent(5.0, 5.0) == 0.0
    assert improvement_percent(1.864e5, 7.157e5) == pytest.approx(
        IMP_MRC_EFFECTUAL, rel=1e-12
    )
    assert improvement_percent(4330.0, 7.419e4) == pytest.approx(
        IMP_HRC_INTERFERENCE, rel=1e-12
    )


def test_improvement_is_finite_when_the_scaled_change_overflows():
    # 100 * (optimized - original) overflows; the percentage does not.
    assert improvement_percent(1.0, 1e307) == 100.0
    assert improvement_percent(0.0, 1.7976931348623157e308) == 100.0


def test_improvement_is_within_two_ulps_of_the_exact_percentage():
    # optimized log-uniform from 1e-300 to 1e307, original from 0 to 4 times
    # it or log-uniform below it; 1e307 is where 100 * change would overflow.
    # The reference is 100 * change / optimized in exact rationals, with
    # change the float optimized - original.  When original is not within a
    # factor 2 of optimized, that subtraction can round too, and against the
    # exact percentage the worst error is then about 2.1 ulps.
    rng = random.Random(7)
    cases = [(1.0, 1e307), (0.0, 1e307), (3e307, 1e307), (1e-300, 1e-300), (2.5e-300, 1e-300)]
    for _ in range(5000):
        optimized = 10.0 ** rng.uniform(-300.0, 307.0)
        ratio = rng.uniform(0.0, 4.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-20.0, 0.0)
        cases.append((optimized * ratio, optimized))
    for original, optimized in cases:
        exact = 100 * Fraction(optimized - original) / Fraction(optimized)
        error = abs(Fraction(improvement_percent(original, optimized)) - exact)
        assert error <= 2 * Fraction(math.ulp(float(exact))), (original, optimized)


def test_improvement_below_the_float_range_raises():
    with pytest.raises(ValueError) as err:
        improvement_percent(1e300, 1e-10)
    assert str(err.value) == "improvement of 1e-10 over 1e+300 overflows to -inf percent"


def test_overflowing_energy_efficiency_raises():
    with pytest.raises(ValueError) as err:
        energy_efficiency(1e10, 0.0, PowerOverheads(circuit_w=1e-300, sensing_w=0.0))
    assert str(err.value) == "energy efficiency is not finite: 10000000000.0 over 1e-300 W"


def test_energy_efficiency_raises_when_consumed_power_overflows():
    # 1e308 W transmit plus 1e308 W overhead is inf, so the quotient alone would read 0.0.
    with pytest.raises(ValueError) as err:
        energy_efficiency(1e6, 1e308, PowerOverheads(circuit_w=1e308, sensing_w=0.0))
    assert str(err.value) == "energy efficiency is not finite: 1000000.0 over inf W"


def test_improvement_errors():
    with pytest.raises(ValueError):
        improvement_percent(1.0, 0.0)
    with pytest.raises(ValueError):
        improvement_percent(1.0, -2.0)
    with pytest.raises(ValueError):
        improvement_percent(-1.0, 2.0)


def test_non_finite_sinr_raises_naming_device_and_pair():
    # 1e308 W at gain 1e10 overflows S.
    huge = pair(hrc_power=1e308, mrc_power=1e308, hrc_gain=1e10, mrc_gain=1e10)
    with pytest.raises(ValueError) as err:
        throughput(sensing(), UNIT_ENV, [pair(), huge], HRC)
    assert str(err.value) == "hrc pair 1: S/D = inf is not finite"


def test_overflowing_mrc_denominator_raises_on_every_path():
    # The paired HRC's received power 1e308 W * 1e10 overflows the MRC's D.
    # throughput, the original series and the optimizer build D on one path.
    scenario = make_scenario()
    huge = pair(hrc_power=1e308, mrc_power=0.3, hrc_gain=1e10, mrc_gain=4e-14)
    scenario = scenario._replace(pairs=(scenario.pairs[0], huge))
    calls = {
        "throughput": lambda: throughput(scenario.sensing, scenario.env, scenario.pairs, MRC),
        "run_sweep": lambda: run_sweep(scenario, EFFECTUAL, MRC, False),
        "optimize_scenario": lambda: optimize_scenario(scenario, EFFECTUAL),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "denom_power_w must be > 0, got inf", name
    # With D finite, an overflowing MRC signal still names the pair.
    loud = pair(mrc_power=1e308, mrc_gain=1e10)
    with pytest.raises(ValueError) as err:
        throughput(sensing(), UNIT_ENV, [pair(), loud], MRC)
    assert str(err.value) == "mrc pair 1: S/D = inf is not finite"


def test_subnormal_noise_power_raises_on_every_path(default_scenario):
    # Built in the library (the loader rejects this noise power, exit 2):
    # with a 4e-322 W base denominator the optimizer solved the HRC p* to
    # 8.744961931390e-12 W where the same problem scaled by 2**600 gives
    # 8.749409688712e-12 W.  All three paths take D from one function.
    env = default_scenario.env._replace(bandwidth_hz=1.0, noise_psd_dbm_hz=-3184.0)
    noise = env.noise_w()
    assert 0.0 < noise < sys.float_info.min
    scenario = default_scenario._replace(
        env=env,
        pairs=(default_scenario.pairs[0]._replace(hrc_gain=1e-310, mrc_gain=1e-310),),
        overheads=PowerOverheads(1.5 * noise / 1e-310, 0.0),
    )
    calls = {
        "throughput": lambda: throughput(scenario.sensing, scenario.env, scenario.pairs, HRC),
        "run_sweep": lambda: run_sweep(scenario, EFFECTUAL, HRC, False),
        "optimize_scenario": lambda: optimize_scenario(scenario, EFFECTUAL),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == (
            f"denom_power_w {noise!r} is below the smallest normal float {sys.float_info.min!r}"
        ), name
    # The interference state adds the primary's received power, so its D is
    # normal and accepted (C*g2 < D here, so the pair is infeasible).
    assert not optimize_scenario(scenario, INTERFERENCE).hrc[0].feasible


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


_POWERS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_GAINS = st.floats(-16.0, -8.0).map(lambda e: 10.0**e)


@given(
    pairs=st.lists(st.tuples(_POWERS, _POWERS, _GAINS, _GAINS), min_size=1, max_size=6),
    primary=st.none() | st.tuples(_POWERS, _GAINS),
    device=st.sampled_from([HRC, MRC]),
    k=st.integers(-60, 60),
)
def test_trading_power_for_gain_by_a_power_of_two_changes_no_bit(pairs, primary, device, k):
    """Every power (the primary's too) times 2^k and every gain times 2^-k
    leave each received power, and so the throughput, bit-identical."""
    env = RadioEnvironment(bandwidth_hz=1e6, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0)
    s = sensing(p_inactive=0.5, p_active=0.5, p_false_alarm=0.1, p_detection=0.9)

    def traded(up):
        ldexp = math.ldexp
        devices = [
            DevicePair(ldexp(a, up), ldexp(b, up), ldexp(c, -up), ldexp(d, -up))
            for a, b, c, d in pairs
        ]
        link = None
        if primary is not None:
            link = PrimaryLink(ldexp(primary[0], up), ldexp(primary[1], -up))
        return throughput(s, env, devices, device, link)

    assert traded(k) == traded(0)


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

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


def reference_argmax(problem, log2=math.log2):
    """Golden-section search in x = p * g2 / D with one parabolic step,
    written out step by step.

    The curve is f(x) = log2(1 + x) / (x + a) with a = C * g2 / D, searched
    on [0, max(a, 8)] and mapped back as p = x * D / g2.  The bracket ends'
    f values are evaluated, not carried, so bit-equality with
    ``numerical_argmax`` also shows that its f(0) = 0 is exact.  Golden
    section stops at a relative width of 1e-4 and returns the vertex of the
    parabola through the final triple when the middle point is highest, the
    denominator is nonzero and the vertex lies strictly inside the triple;
    otherwise it returns the triple's middle point.  A ValueError stands for
    each of the oracle's range errors.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = problem.overheads.total_w * problem.gain / problem.denom_power_w
    if not 0.0 < a or math.isinf(max(a, 8.0) + a):
        raise ValueError("C*g2/D out of range")

    def f(x):
        return log2(1.0 + x) / (x + a)

    lo, hi = 0.0, max(a, 8.0)
    c = hi - (hi - lo) * invphi
    d = lo + (hi - lo) * invphi
    fc = f(c)
    fd = f(d)
    while (hi - lo) > 1e-4 * max(abs(lo), abs(hi)):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * invphi
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * invphi
            fd = f(d)
    x1, x2, x3 = (lo, c, d) if fc > fd else (c, d, hi)
    f1, f2, f3 = f(x1), f(x2), f(x3)
    x = x2
    if f2 >= f1 and f2 >= f3:
        left = (x2 - x1) * (f2 - f3)
        right = (x3 - x2) * (f2 - f1)
        if left + right != 0.0:
            vertex = x2 - 0.5 * ((x2 - x1) * left - (x3 - x2) * right) / (left + right)
            if x1 < vertex < x3:
                x = vertex
    power = x * problem.denom_power_w / problem.gain
    if math.isinf(power):
        raise ValueError("power overflows")
    return power


def reference_lambert_w0(x):
    """``lambert_w0`` as first written, for bit-identity checks of faster versions.

    The same start, Halley steps, stop test and iteration cap, with
    ``abs(residual) <= 1e-14 * max(1, |x|)`` spelled out; arguments above
    1e50 take the same log-form Newton steps.
    """
    branch_point = -math.exp(-1.0)
    if not math.isfinite(x):
        raise ValueError(f"lambert_w0 requires finite input, got {x!r}")
    if x < branch_point:
        if x < branch_point - 1e-12:
            raise ValueError(f"lambert_w0 undefined below the branch point -1/e: got {x!r}")
        x = branch_point
    if x == branch_point:
        return -1.0
    if x == 0.0:
        return 0.0
    if x > 1e50:
        log_x = math.log(x)
        l2 = math.log(log_x)
        w = log_x - l2 + l2 / log_x
        tol = 1e-14 * log_x
        for _ in range(50):
            residual = w + math.log(w) - log_x
            if abs(residual) <= tol:
                return w
            w -= residual * w / (w + 1.0)
        raise ValueError(f"lambert_w0({x!r}) did not converge in 50 iterations")
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    else:
        w = math.log1p(x)
    tol = 1e-14 * max(1.0, abs(x))
    for _ in range(50):
        ew = math.exp(w)
        residual = w * ew - x
        if abs(residual) <= tol:
            return w
        wp1 = w + 1.0
        w -= residual / (ew * wp1 - (w + 2.0) * residual / (2.0 * wp1))
        if w < -1.0:
            w = -1.0 + 1e-16
    raise ValueError(f"lambert_w0({x!r}) did not converge in 50 iterations")

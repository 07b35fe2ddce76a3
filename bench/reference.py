"""Independent reference model and output checks.

The benchmark judges the program's outputs against formulas kept here. No
``crnoma`` function is called: the model is built from the generated
scenario tokens (``scenarios.Spec``) and restates

* the pathloss model and dBm conversion that turn tokens into watts/gains,
* the per-pair Shannon rate: a series value is the mean over pairs of
  ``duty * p_x * (1 - p_fa | 1 - p_d) * b * log2(1 + S / D)``,
* energy efficiency ``EE = T / (P + C)``,
* the EE-optimal power, found by a safeguarded Newton solve of the
  stationarity condition (not by the Lambert-W closed form), and
* finite-difference stationarity at every reported ``p_star_w``.

Every check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

#: Relative tolerance for values that follow from the formulas alone. CSV
#: numbers carry 13 significant digits, so this leaves the formulas' own
#: rounding far inside it while catching any change to a result.
REL_TOL = 1e-8
#: Relative tolerance for an optimal power and for values computed from
#: one: the package's closed form agrees with an oracle to 1e-6, and close
#: to the feasibility edge (a tiny Lambert argument) it is no tighter.
OPTIMUM_REL_TOL = 1e-6
#: |dEE/dP| * P / EE at a reported optimum (the package's own stationarity
#: tolerance).
STATIONARITY_TOL = 1e-6
#: Pathloss values are printed with 6 decimals.
PATHLOSS_ABS_TOL_DB = 1e-6

EFFECTUAL, INTERFERENCE = "effectual", "interference"
HRC, MRC = "hrc", "mrc"
STATES = (EFFECTUAL, INTERFERENCE)
DEVICES = (HRC, MRC)
COUPLINGS = ("nominal", "cascaded")


def close(a: float, b: float, rel: float = REL_TOL, floor: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def pathloss_db(d: float, f_ghz: float, omega: float, combine: str) -> Tuple[float, float, float]:
    """(LOS, NLOS, LOS-probability-weighted) pathloss in dB."""
    los = 22.0 * math.log10(d) + 28.0 + 20.0 * math.log10(f_ghz)
    nlos = 36.7 * math.log10(d) + 22.7 + 26.0 * math.log10(f_ghz)
    if combine == "db":
        return los, nlos, omega * los + (1.0 - omega) * nlos
    mixed = omega * 10.0 ** (-los / 10.0) + (1.0 - omega) * 10.0 ** (-nlos / 10.0)
    return los, nlos, -10.0 * math.log10(mixed)


def gain_of(pathloss: float) -> float:
    return 10.0 ** (-pathloss / 10.0)


def optimum(g: float, d: float, c: float) -> Optional[float]:
    """EE-maximizing power for rate log2(1 + p g / d) and overhead c.

    With u = p g / d the stationarity condition is
    (u + q) / (1 + u) = ln(1 + u), q = c g / d. In s = ln(1 + u) it reads
    psi(s) = 1 + k e^-s - s = 0 with k = q - 1: decreasing and convex, with
    the root bracketed by [0, 1 + ln(1 + k)]. Returns None where the
    program's feasibility rule (c g > d) fails.
    """
    k = (c * g - d) / d
    if not k > 0.0:
        return None
    lo, hi = 0.0, 1.0 + math.log1p(k)
    s = 0.5 * (lo + hi)
    for _ in range(200):
        e = k * math.exp(-s)
        f = 1.0 + e - s
        if f > 0.0:
            lo = s
        else:
            hi = s
        nxt = s + f / (e + 1.0)
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= 1e-15 * max(1.0, abs(s)):
            s = nxt
            break
        s = nxt
    return math.expm1(s) * d / g


def ee(p: float, g: float, d: float, c: float, kappa_b: float = 1.0) -> float:
    return kappa_b * math.log2(1.0 + p * g / d) / (p + c)


def stationarity(p: float, g: float, d: float, c: float) -> float:
    """|dEE/dP| * P / EE by central difference, step 6e-6 * P."""
    h = p * 6e-6
    slope = (ee(p + h, g, d, c) - ee(p - h, g, d, c)) / (2.0 * h)
    return abs(slope) * p / ee(p, g, d, c)


class Model:
    """The scenario in linear units, read from the generator's tokens."""

    def __init__(self, spec) -> None:
        watt = spec.unit_mode == "watt"

        def power(token: str) -> float:
            return float(token) if watt else dbm_to_w(float(token))

        self.b = float(spec.bandwidth_hz)
        self.noise = dbm_to_w(float(spec.noise_psd_dbm_hz)) * self.b
        carrier = float(spec.carrier_ghz)
        omega = float(spec.los_probability)

        def gains(explicit, distances) -> List[float]:
            if explicit is not None:
                return [float(g) for g in explicit]
            return [
                gain_of(pathloss_db(float(x), carrier, omega, spec.combine)[2])
                for x in distances
            ]

        self.distances = [
            (section, float(x))
            for section, tokens in (
                ("hrc", spec.hrc_distances_m),
                ("mrc", spec.mrc_distances_m),
                ("primary", [spec.primary_distance_m] if spec.primary_distance_m else None),
            )
            for x in tokens or ()
        ]
        self.gh = gains(spec.hrc_gains, spec.hrc_distances_m)
        self.gm = gains(spec.mrc_gains, spec.mrc_distances_m)
        self.gp = gains(
            [spec.primary_gain] if spec.primary_gain else None,
            [spec.primary_distance_m] if spec.primary_distance_m else None,
        )[0]
        self.ph = power(spec.hrc_power)
        self.pm = power(spec.mrc_power)
        self.primary_rx = power(spec.primary_power) * self.gp
        self.c = power(spec.circuit_power) + power(spec.sensing_power)
        tt, ts = float(spec.t_transmit_s), float(spec.t_sense_s)
        self.duty = tt / (tt + ts)
        self.p_fa = float(spec.p_false_alarm)
        self.p_d = float(spec.p_detection)
        self.p_state = {EFFECTUAL: float(spec.p_inactive), INTERFERENCE: float(spec.p_active)}
        start, stop, step = (float(x) for x in spec.sweep)
        self.grid = (start, stop, int(math.floor((stop - start) / step + 1e-9)) + 1)
        self._optima = {}

    @property
    def n(self) -> int:
        return len(self.gh)

    def kappa(self, state: str, p_x: float) -> float:
        miss = 1.0 - self.p_fa if state == EFFECTUAL else 1.0 - self.p_d
        return self.duty * p_x * miss

    def base(self, state: str) -> float:
        return self.noise + (self.primary_rx if state == INTERFERENCE else 0.0)

    def optima(self, state: str, coupling: str) -> List[Tuple[Optional[float], float, Optional[float], float]]:
        """Per pair: (HRC p*, HRC denominator, MRC p*, MRC denominator)."""
        key = (state, coupling)
        if key not in self._optima:
            base = self.base(state)
            rows = []
            for gh, gm in zip(self.gh, self.gm):
                hrc = optimum(gh, base, self.c)
                hrc_power = hrc if coupling == "cascaded" and hrc is not None else self.ph
                d_mrc = base + hrc_power * gh
                rows.append((hrc, base, optimum(gm, d_mrc, self.c), d_mrc))
            self._optima[key] = rows
        return self._optima[key]

    def series_link(self, state: str, device: str, optimized: bool, coupling: str):
        """(sum over pairs of log2(1 + S/D), mean tx power, infeasible pair indices)."""
        base = self.base(state)
        optima = self.optima(state, coupling) if optimized else None
        total, tx_sum, infeasible = 0.0, 0.0, []
        for i, (gh, gm) in enumerate(zip(self.gh, self.gm)):
            ph, pm = self.ph, self.pm
            if optima is not None:
                hrc, _, mrc, _ = optima[i]
                mine = hrc if device == HRC else mrc
                if mine is None:
                    infeasible.append(i)
                elif device == HRC:
                    ph = hrc
                else:
                    pm = mrc
                    if coupling == "cascaded" and hrc is not None:
                        ph = hrc
            if device == HRC:
                total += math.log2(1.0 + ph * gh / base)
                tx_sum += ph
            else:
                total += math.log2(1.0 + pm * gm / (base + ph * gh))
                tx_sum += pm
        return total, tx_sum / self.n, infeasible

    def point(self, state: str, link, p_x: float) -> Tuple[float, float]:
        """(mean throughput, EE) at one grid point."""
        total, mean_tx, _ = link
        throughput = self.kappa(state, p_x) * self.b * total / self.n
        return throughput, throughput / (mean_tx + self.c)


# ---------------------------------------------------------------- checks


def check_points(
    model: Model,
    where: str,
    state: str,
    device: str,
    optimized: bool,
    coupling: str,
    points: Sequence[Tuple[float, float, float]],
    infeasible: Sequence[int],
) -> List[str]:
    """Check (p_x, throughput, EE) rows of one series."""
    errors = []
    link = model.series_link(state, device, optimized, coupling)
    if list(infeasible) != link[2]:
        errors.append(f"{where}: infeasible pairs {list(infeasible)} != {link[2]}")
    start, stop, count = model.grid
    if len(points) != count:
        errors.append(f"{where}: {len(points)} grid points, expected {count}")
    elif points[0][0] != start or not close(points[-1][0], stop, floor=1e-12):
        errors.append(f"{where}: grid {points[0][0]}..{points[-1][0]} != {start}..{stop}")
    rel = OPTIMUM_REL_TOL if optimized else REL_TOL
    for p_x, throughput, ee_value in points:
        ref_t, ref_ee = model.point(state, link, p_x)
        if not (close(throughput, ref_t, rel) and close(ee_value, ref_ee, rel)):
            errors.append(
                f"{where} p_x={p_x}: (T, EE) = ({throughput!r}, {ee_value!r}), "
                f"reference ({ref_t!r}, {ref_ee!r})"
            )
            break
    return errors


def check_sweep_csv(model: Model, where: str, text: str, state: str, device: str, coupling: str) -> List[str]:
    """One ``crnoma sweep`` CSV: original and optimized series, EE and gain."""
    header = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line and not line.startswith("p_x,"):
            rows.append([float(x) for x in line.split(",")])
    errors = []
    for key, expected in (("state", state), ("device", device), ("coupling", coupling)):
        if header.get(key) != expected:
            errors.append(f"{where}: header {key}={header.get(key)!r}, expected {expected!r}")
    original = [(r[0], r[1], r[3]) for r in rows]
    optimized = [(r[0], r[2], r[4]) for r in rows]
    infeasible = model.series_link(state, device, True, coupling)[2]
    if header.get("infeasible_pairs") != str(len(infeasible)):
        errors.append(f"{where}: infeasible_pairs {header.get('infeasible_pairs')} != {len(infeasible)}")
    errors += check_points(model, where + " original", state, device, False, coupling, original, [])
    errors += check_points(model, where + " optimized", state, device, True, coupling, optimized, infeasible)
    for r in rows:
        ee_orig, ee_opt = r[3], r[4]
        expected = 100.0 * (ee_opt - ee_orig) / ee_opt if ee_opt > 0.0 else math.nan
        if not close(r[5], expected, floor=100.0 * REL_TOL):
            errors.append(f"{where} p_x={r[0]}: improvement {r[5]!r}, reference {expected!r}")
            break
    return errors


def check_optimum(
    model: Model,
    where: str,
    state: str,
    g: float,
    d: float,
    feasible: bool,
    power: float,
    ee_value: float,
    lambert_arg: float,
) -> List[str]:
    """One optimizer result against the reference optimum and EE = T/(P+C)."""
    errors = []
    ref_arg = (model.c * g - d) / d * math.exp(-1.0)
    if not close(lambert_arg, ref_arg):
        errors.append(f"{where}: lambert_arg {lambert_arg!r}, reference {ref_arg!r}")
    ref = optimum(g, d, model.c)
    if ref is None or not feasible:
        if (ref is None) != (not feasible) or not (math.isnan(power) and math.isnan(ee_value)):
            errors.append(f"{where}: feasible={feasible} p*={power!r}, reference p*={ref!r}")
        return errors
    kappa_b = model.kappa(state, model.p_state[state]) * model.b
    ref_ee = ee(power, g, d, model.c, kappa_b)
    ratio = stationarity(power, g, d, model.c)
    if not close(power, ref, OPTIMUM_REL_TOL):
        errors.append(f"{where}: p*={power!r}, reference {ref!r}")
    if not close(ee_value, ref_ee):
        errors.append(f"{where}: EE={ee_value!r}, reference T/(P+C)={ref_ee!r}")
    if not ratio <= STATIONARITY_TOL:
        errors.append(f"{where}: stationarity {ratio:.3e} > {STATIONARITY_TOL:g}")
    return errors


def check_optima(model: Model, where: str, state: str, coupling: str, results) -> List[str]:
    """results: {"hrc": [(feasible, p*, EE, lambert_arg)], "mrc": [...]}, one per pair."""
    errors = []
    for i, (hrc, d_hrc, mrc, d_mrc) in enumerate(model.optima(state, coupling)):
        for device, g, d in ((HRC, model.gh[i], d_hrc), (MRC, model.gm[i], d_mrc)):
            errors += check_optimum(model, f"{where} pair {i} {device}", state, g, d, *results[device][i])
        if len(errors) > 4:
            break
    return errors


def check_optimize_csv(model: Model, where: str, text: str, state: str, coupling: str) -> List[str]:
    results = {HRC: [], MRC: []}
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("pair,"):
            continue
        _, device, feasible, power, ee_value, arg = line.split(",")
        results[device].append((feasible == "yes", float(power), float(ee_value), float(arg)))
    if len(results[HRC]) != model.n or len(results[MRC]) != model.n:
        return [f"{where}: {len(results[HRC])}/{len(results[MRC])} rows for {model.n} pairs"]
    return check_optima(model, where, state, coupling, results)


def check_pathloss(where: str, text: str, d: float, f: float, omega: float, combine: str) -> List[str]:
    values = dict(line.split(": ") for line in text.splitlines())
    los, nlos, avg = pathloss_db(d, f, omega, combine)
    expected = (
        ("los_db", los, 0.0, PATHLOSS_ABS_TOL_DB),
        ("nlos_db", nlos, 0.0, PATHLOSS_ABS_TOL_DB),
        ("average_db", avg, 0.0, PATHLOSS_ABS_TOL_DB),
        ("power_gain", gain_of(avg), REL_TOL, 0.0),
    )
    return [
        f"{where}: {key}={values.get(key)!r}, reference {ref!r}"
        for key, ref, rel, floor in expected
        if key not in values or not close(float(values[key]), ref, rel, floor)
    ]

"""Cognitive-radio NOMA uplink: throughput and energy-efficiency toolkit.

Computes the per-state Shannon throughputs and energy efficiencies of
paired high/moderate-reliability uplink devices under an intermittently
active primary transmitter, and maximizes each device's energy efficiency
in closed form via the principal Lambert W branch, cross-checked by an
independent golden-section oracle.
"""

from .lambertw import BRANCH_POINT, lambert_w0
from .metrics import (
    DEVICES,
    EFFECTUAL,
    HRC,
    INTERFERENCE,
    MRC,
    STATES,
    DevicePair,
    MetricPoint,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    SensingProfile,
    duty_factor,
    energy_efficiency,
    improvement_percent,
    throughput,
)
from .optimizer import (
    OptProblem,
    OptResult,
    ScenarioOptima,
    ee_of_power,
    numerical_argmax,
    optimal_power,
    optimize_scenario,
)
from .pathloss import (
    DEFAULT_LOS_PROBABILITY,
    pathloss_average_db,
    pathloss_los_db,
    pathloss_nlos_db,
    power_gain,
)
from .scenario import (
    ConfigError,
    Scenario,
    SweepSeries,
    load_default_scenario,
    load_scenario,
    load_scenario_file,
    run_sweep,
)
from .units import dbm_to_watt, noise_power_w, watt_to_dbm
from .validation import CheckResult, ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "BRANCH_POINT",
    "CheckResult",
    "ConfigError",
    "DEFAULT_LOS_PROBABILITY",
    "DEVICES",
    "DevicePair",
    "EFFECTUAL",
    "HRC",
    "INTERFERENCE",
    "MRC",
    "MetricPoint",
    "OptProblem",
    "OptResult",
    "PowerOverheads",
    "PrimaryLink",
    "RadioEnvironment",
    "STATES",
    "Scenario",
    "ScenarioOptima",
    "SensingProfile",
    "SweepSeries",
    "ValidationReport",
    "dbm_to_watt",
    "duty_factor",
    "ee_of_power",
    "energy_efficiency",
    "improvement_percent",
    "lambert_w0",
    "load_default_scenario",
    "load_scenario",
    "load_scenario_file",
    "noise_power_w",
    "numerical_argmax",
    "optimal_power",
    "optimize_scenario",
    "pathloss_average_db",
    "pathloss_los_db",
    "pathloss_nlos_db",
    "power_gain",
    "run_sweep",
    "run_validation",
    "throughput",
    "watt_to_dbm",
]

"""Rate-energy region simulator for collaborative RF and lightwave
information and power transfer."""

from .channel_optical import (
    OpticalGeometry,
    channel_gain,
    illuminance_at,
    irradiance_at,
    lambertian_order,
)
from .channel_rf import mean_rf_received_power, mrt_received_power, path_gain, sample_rician
from .harvest import optical_harvest, rf_harvest
from .link_rates import admissible_ac_peak, lightwave_rate, rf_rate
from .protocols import (
    InfeasibleControlsError,
    OperatingPoint,
    PinnedControlError,
    ProtocolControls,
    ProtocolId,
    SweepBudgetError,
    controls_for,
    enumerate_controls,
    evaluate,
    free_controls,
)
from .region import (
    DegenerateRegionError,
    RateEnergyRegion,
    dominates,
    max_energy,
    max_rate,
    pareto,
    sweep,
)
from .safety import SafetyVerdict, check_illuminance, check_irradiance, check_sar, evaluate_safety
from .scenario import (
    EhOpticalModel,
    EhRfModel,
    SafetyLimits,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    default_scenario,
    parse_scenario,
    render_scenario,
)

__version__ = "0.1.0"

"""Safety checks: SAR power budget, NIRL irradiance, VL illuminance.

SAR is checked as a radiated-power budget proxy against constant-power
schedules (the averaging window is carried in the limits for forward
compatibility).  All boundary values pass, matching how the underlying
standards phrase their limits as maxima.
"""

from dataclasses import dataclass

from .channel_optical import illuminance_at, irradiance_at

ILLUMINANCE_WITHIN = "within"
ILLUMINANCE_BELOW = "below"
ILLUMINANCE_ABOVE = "above"


@dataclass(frozen=True)
class SafetyVerdict:
    sar_ok: bool
    sar_margin: float          # W
    irradiance_ok: bool
    irradiance_margin: float   # W/m^2
    illuminance_class: str     # within / below / above
    illuminance: float         # lx
    dim_mode: bool
    overall_ok: bool


def check_sar(avg_radiated_rf_power, limits):
    """Compare average radiated RF power against the SAR budget."""
    margin = limits.sar_power_budget - avg_radiated_rf_power
    return margin >= 0.0, margin


def check_irradiance(scenario, body_geometry):
    """NIRL irradiance on a body at the given geometry.

    Passes unconditionally when beam steering keeps the light off the body;
    otherwise the per-element beam power must stay under the limit.
    """
    level = irradiance_at(scenario.nirl_power_per_device(), body_geometry)
    margin = scenario.safety.nirl_irradiance_limit - level
    ok = scenario.safety.nirl_beam_avoids_body or margin >= 0.0
    return ok, margin


def check_illuminance(scenario, dim_mode):
    """Classify the VL illuminance at the receiver plane against the range."""
    fraction = scenario.vl_dim_fraction if dim_mode else 1.0
    level = illuminance_at(fraction * scenario.vl_bulb_power, scenario.luminous_efficacy,
                           scenario.vl_geometry())
    if level < scenario.safety.illuminance_min:
        cls = ILLUMINANCE_BELOW
    elif level > scenario.safety.illuminance_max:
        cls = ILLUMINANCE_ABOVE
    else:
        cls = ILLUMINANCE_WITHIN
    return cls, level


def evaluate_safety(scenario, dim_mode=False):
    """Full verdict for protocol-mode operation (RF at the WPT power level).

    In dim mode the illuminance class is reported but does not fail the
    overall verdict; a dimmed room is outside the illumination range on
    purpose.  The NIRL irradiance is checked at the NIRL link's geometry.
    """
    sar_ok, sar_margin = check_sar(scenario.rf_wpt_tx_power, scenario.safety)
    irradiance_ok, irradiance_margin = check_irradiance(scenario, scenario.nirl_geometry())
    illuminance_class, illuminance = check_illuminance(scenario, dim_mode)
    overall = sar_ok and irradiance_ok and (illuminance_class == ILLUMINANCE_WITHIN or dim_mode)
    return SafetyVerdict(
        sar_ok=sar_ok,
        sar_margin=sar_margin,
        irradiance_ok=irradiance_ok,
        irradiance_margin=irradiance_margin,
        illuminance_class=illuminance_class,
        illuminance=illuminance,
        dim_mode=dim_mode,
        overall_ok=overall,
    )

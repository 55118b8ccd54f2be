"""Line-of-sight optics for the visible-light and near-infrared links.

Both downlinks are modelled as generalized Lambertian point sources:

    H = (m + 1) * A / (2 pi d^2) * cos^m(phi) * T * g * cos(psi)

where m is the Lambertian order of the source, A the photodetector area,
d the link distance, phi the irradiance angle at the source, psi the
incidence angle at the detector, T the optical filter gain and g the
concentrator gain.  All angles are in degrees.  Reflections are ignored;
only the direct path is modelled.

The same per-watt flux density kernel also yields the radiometric
irradiance (W/m^2) and, scaled by the luminous efficacy, the photometric
illuminance (lx) used by the safety checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

# Receiver field of view. Incidence at or beyond this angle contributes no
# signal; there is no concentrator so the gain inside the FoV is flat.
RECEIVER_FOV = 90.0


@dataclass(frozen=True)
class OpticalGeometry:
    """Arrangement of one optical link (distances in m, angles in degrees)."""

    distance: float
    irradiance_angle: float  # phi, at the source
    incidence_angle: float   # psi, at the photodetector
    semi_angle: float        # half-power semi-angle of the source

    def __post_init__(self):
        if not self.distance > 0.0:
            raise ValueError(f"distance must be positive, got {self.distance}")
        for name in ("irradiance_angle", "incidence_angle"):
            angle = getattr(self, name)
            # 90 deg is allowed: grazing incidence simply kills the link.
            if not 0.0 <= angle <= 90.0:
                raise ValueError(f"{name} must lie in [0, 90] degrees, got {angle}")
        if not 0.0 < self.semi_angle < 90.0:
            raise ValueError(
                f"semi_angle must lie in (0, 90) degrees, got {self.semi_angle}"
            )


def _cos_deg(angle):
    return math.cos(math.radians(angle))


@lru_cache(maxsize=1024)  # mpmath is slow; bounded so long studies do not grow it
def lambertian_order(semi_angle):
    """Lambertian mode number m = -ln 2 / ln(cos(semi_angle)).

    Evaluated through mpmath at extended precision so the special angles
    come out exact (m(60) == 1.0, m(45) == 2.0); the plain float path is
    one ulp off there because radians(60) is not representable.
    """
    if not 0.0 < semi_angle < 90.0:
        raise ValueError(f"semi_angle must lie in (0, 90) degrees, got {semi_angle}")
    with mpmath.workdps(30):
        cosine = mpmath.cospi(mpmath.mpf(semi_angle) / 180)
        return float(-mpmath.log(2) / mpmath.log(cosine))


def _flux_density_per_watt(geometry):
    """Received flux density (1/m^2) per watt of radiated optical power."""
    m = lambertian_order(geometry.semi_angle)
    return (
        (m + 1.0)
        / (2.0 * math.pi * geometry.distance**2)
        * _cos_deg(geometry.irradiance_angle) ** m
        * _cos_deg(geometry.incidence_angle)
    )


def channel_gain(geometry, pd_area, filter_gain=1.0, concentrator_gain=1.0):
    """DC channel gain of a Lambertian LoS link onto a flat photodetector.

    Returns 0 when the incidence angle reaches the receiver field of view.
    """
    if not pd_area > 0.0:
        raise ValueError(f"pd_area must be positive, got {pd_area}")
    if geometry.incidence_angle >= RECEIVER_FOV:
        return 0.0
    return _flux_density_per_watt(geometry) * pd_area * filter_gain * concentrator_gain


def received_optical_power(tx_optical_power, gain):
    """Optical power collected by the photodetector."""
    if tx_optical_power < 0.0 or gain < 0.0:
        raise ValueError("tx_optical_power and gain must be nonnegative")
    return tx_optical_power * gain


def irradiance_at(tx_optical_power, geometry):
    """Radiometric irradiance (W/m^2) produced at the given geometry."""
    return tx_optical_power * _flux_density_per_watt(geometry)


def illuminance_at(led_power, efficacy, geometry):
    """Photometric illuminance (lx) of an LED with the given luminous efficacy."""
    if not efficacy > 0.0:
        raise ValueError(f"efficacy must be positive, got {efficacy}")
    return led_power * efficacy * _flux_density_per_watt(geometry)

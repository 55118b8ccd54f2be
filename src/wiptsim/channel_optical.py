"""Line-of-sight optics for the visible-light and near-infrared links.

Both downlinks are modelled as generalized Lambertian point sources:

    H = (m + 1) * A / (2 pi d^2) * cos^m(phi) * T * cos(psi)

where m is the Lambertian order of the source, A the photodetector area,
d the link distance, phi the irradiance angle at the source, psi the
incidence angle at the detector and T the optical filter gain.  All
angles are in degrees.  Reflections are ignored; only the direct path is
modelled.

The same per-watt flux density kernel also yields the radiometric
irradiance (W/m^2) and, scaled by the luminous efficacy, the photometric
illuminance (lx) used by the safety checks.
"""

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache

# Receiver field of view. Incidence at or beyond this angle contributes no
# signal; there is no concentrator so the gain inside the FoV is flat.
RECEIVER_FOV = 90.0

# Semi-angles (degrees) of the wide-beam bulbs the Lambertian model describes
SEMI_ANGLE_DOMAIN = (1.0, 89.0)


def check_semi_angle(name, value, error=ValueError):
    """Raise error, naming the value, when it lies outside SEMI_ANGLE_DOMAIN."""
    low, high = SEMI_ANGLE_DOMAIN
    if not low <= value <= high:
        raise error(f"{name} must lie in [{low:g}, {high:g}] degrees, got {value}")


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
        check_semi_angle("semi_angle", self.semi_angle)


@lru_cache(maxsize=1024)  # each order costs ~0.1 ms; bounded so long studies do not grow it
def lambertian_order(semi_angle):
    """Lambertian mode number m = -ln 2 / ln(cos(semi_angle)).

    The double nearest the true order (see _decimal_order), so the special
    angles come out exact (m(60) == 1.0, m(45) == 2.0); the plain float
    path is one ulp off there because radians(60) is not representable.
    """
    check_semi_angle("semi_angle", semi_angle)
    return _decimal_order(semi_angle)


_PI = Decimal("3.14159265358979323846264338327950288419716939937510"
               "58209749445923078164062862089986280348253421170679")
_LN2 = Decimal("0.69314718055994530941723212145817656807550013436025"
               "52541206800094933936219696947156058633269964186875")
_RETRY_DIGITS = 80  # _PI and _LN2 carry 100 digits


def _decimal_order(semi_angle, digits=40):
    """The order as the double nearest its true value.

    At the given digits the decimal value lies within 10**(5 - digits) of
    the true order on the semi-angle domain (relative; worst cases against
    120 digits, just above 1 degree: 1.4e-36 at 40 digits, 2.5e-76 at 80).
    So where a window of 10**(10 - digits) around it rounds to one double,
    that double is the nearest; where it does not, which no tested angle
    meets at 40 digits, the order is recomputed at _RETRY_DIGITS.
    """
    with localcontext(Context(prec=digits)):
        x = Decimal(semi_angle) * _PI / 180
        x2 = x * x
        term = cosine = Decimal(1)
        k = 0
        cutoff = Decimal(10) ** (-digits - 5)
        while abs(term) > cutoff:  # cos x = sum of (-x^2)^j / (2j)!
            k += 2
            term = -term * x2 / (k * (k - 1))
            cosine += term
        order = -_LN2 / cosine.ln()
        window = Decimal(10) ** (10 - digits)
        low, high = float(order * (1 - window)), float(order * (1 + window))
    if low == high or digits >= _RETRY_DIGITS:
        return float(order)
    return _decimal_order(semi_angle, _RETRY_DIGITS)


def _flux_density_per_watt(geometry):
    """Received flux density (1/m^2) per watt of radiated optical power."""
    m = lambertian_order(geometry.semi_angle)
    return (
        (m + 1.0)
        / (2.0 * math.pi * geometry.distance**2)
        * math.cos(math.radians(geometry.irradiance_angle)) ** m
        * math.cos(math.radians(geometry.incidence_angle))
    )


def channel_gain(geometry, pd_area, filter_gain=1.0):
    """DC channel gain of a Lambertian LoS link onto a flat photodetector.

    Returns 0 when the incidence angle reaches the receiver field of view.
    """
    if not pd_area > 0.0:
        raise ValueError(f"pd_area must be positive, got {pd_area}")
    if geometry.incidence_angle >= RECEIVER_FOV:
        return 0.0
    return _flux_density_per_watt(geometry) * pd_area * filter_gain


def irradiance_at(tx_optical_power, geometry):
    """Radiometric irradiance (W/m^2) produced at the given geometry."""
    return tx_optical_power * _flux_density_per_watt(geometry)


def illuminance_at(led_power, efficacy, geometry):
    """Photometric illuminance (lx) of an LED with the given luminous efficacy."""
    if not efficacy > 0.0:
        raise ValueError(f"efficacy must be positive, got {efficacy}")
    return led_power * efficacy * _flux_density_per_watt(geometry)

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
from decimal import Context, Decimal, localcontext
from functools import lru_cache

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


@lru_cache(maxsize=1024)  # each order costs ~0.1 ms; bounded so long studies do not grow it
def lambertian_order(semi_angle):
    """Lambertian mode number m = -ln 2 / ln(cos(semi_angle)).

    Evaluated at extended precision so the special angles come out exact
    (m(60) == 1.0, m(45) == 2.0); the plain float path is one ulp off
    there because radians(60) is not representable.  The result is the
    mpmath evaluation at 30 digits, bit for bit (see _decimal_order).
    """
    if not 0.0 < semi_angle < 90.0:
        raise ValueError(f"semi_angle must lie in (0, 90) degrees, got {semi_angle}")
    order = _decimal_order(semi_angle)
    return order if order is not None else _mpmath_order(semi_angle)


_DECIMAL = Context(prec=40)
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_LN2 = _DECIMAL.ln(2)
_TAYLOR_CUTOFF = Decimal("1e-45")
# On [1, 89] degrees mpmath at 30 digits lies within 1e-27 (relative) of
# the true order, and this 40-digit evaluation within 1e-35 (worst cases
# against 70 digits: 3.2e-28 and 1.5e-36, both just above 1 degree).  A
# window of 1e-25 around the latter holds both, so where the whole window
# rounds to one double, that double is also what mpmath yields.
_WINDOW = Decimal("1e-25")


def _decimal_order(semi_angle):
    """The order in 40-digit decimal arithmetic, or None where uncertified.

    None below 1 or above 89 degrees (1 - cos loses digits near 0, and
    the order's conditioning worsens near 90), and where the window
    around the value straddles a rounding boundary between doubles, which
    no tested angle does.
    """
    if not 1.0 <= semi_angle <= 89.0:
        return None
    with localcontext(_DECIMAL):
        x = Decimal(semi_angle) * _PI / 180
        x2 = x * x
        term = cosine = Decimal(1)
        k = 0
        while abs(term) > _TAYLOR_CUTOFF:  # cos x = sum of (-x^2)^j / (2j)!
            k += 2
            term = -term * x2 / (k * (k - 1))
            cosine += term
        order = -_LN2 / cosine.ln()
        low, high = float(order * (1 - _WINDOW)), float(order * (1 + _WINDOW))
    return low if low == high else None


def _mpmath_order(semi_angle):
    import mpmath  # ~4 MB resident and ~50 ms to import; only this path needs it

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

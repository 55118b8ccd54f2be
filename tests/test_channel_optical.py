import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wiptsim
from wiptsim import (
    OpticalGeometry,
    channel_gain,
    channel_optical,
    illuminance_at,
    irradiance_at,
    lambertian_order,
)

VL_GEOMETRY = OpticalGeometry(distance=2.05, irradiance_angle=60.0, incidence_angle=60.0, semi_angle=60.0)
NIRL_GEOMETRY = OpticalGeometry(distance=2.05, irradiance_angle=0.0, incidence_angle=60.0, semi_angle=15.0)

# hand-evaluated Lambertian products for the default link parameters
H_VL = 1.6095383893885917e-4
H_NIRL = 3.379021011989084e-3


def test_lambertian_order_special_angles():
    assert lambertian_order(60.0) == 1.0
    assert lambertian_order(45.0) == 2.0


def test_lambertian_order_15_degrees():
    m = lambertian_order(15.0)
    assert m == pytest.approx(19.99, rel=1e-3)
    # defining property: intensity halves at the semi-angle
    assert math.cos(math.radians(15.0)) ** m == pytest.approx(0.5, rel=1e-12)


# Just outside the semi-angle domain [1, 89] degrees, and far outside it.
OUTSIDE_DOMAIN = [math.nextafter(1.0, 0.0), 0.5, 1e-30, 5e-324, math.nextafter(89.0, 90.0)]


@pytest.mark.parametrize("bad", [0.0, 90.0, -10.0, 120.0, *OUTSIDE_DOMAIN])
def test_lambertian_order_domain(bad):
    with pytest.raises(ValueError, match=r"semi_angle must lie in \[1, 89\] degrees"):
        lambertian_order(bad)


def test_channel_gain_vl():
    assert channel_gain(VL_GEOMETRY, 0.0085) == pytest.approx(H_VL, rel=1e-12)


def test_channel_gain_nirl():
    assert channel_gain(NIRL_GEOMETRY, 0.0085) == pytest.approx(H_NIRL, rel=1e-12)


def test_channel_gain_grazing_incidence_is_zero():
    grazing = OpticalGeometry(distance=2.05, irradiance_angle=0.0, incidence_angle=90.0, semi_angle=60.0)
    assert channel_gain(grazing, 0.0085) == 0.0


def test_channel_gain_scales_with_filter():
    base = channel_gain(VL_GEOMETRY, 0.0085)
    assert channel_gain(VL_GEOMETRY, 0.0085, filter_gain=0.5) == pytest.approx(0.5 * base)


def test_channel_gain_rejects_bad_area():
    with pytest.raises(ValueError):
        channel_gain(VL_GEOMETRY, 0.0)


@pytest.mark.parametrize("field,values", [
    ("distance", [1.0, 2.0, 3.0, 5.0]),
    ("irradiance_angle", [0.0, 20.0, 40.0, 60.0, 80.0]),
    ("incidence_angle", [0.0, 20.0, 40.0, 60.0, 80.0]),
])
def test_channel_gain_monotone_decreasing(field, values):
    gains = []
    for value in values:
        geometry = dataclasses.replace(VL_GEOMETRY, **{field: value})
        gains.append(channel_gain(geometry, 0.0085))
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_channel_gain_cos_squared_at_unit_order():
    # with m = 1 and phi = psi the gain is proportional to cos^2
    reference = channel_gain(
        OpticalGeometry(distance=2.05, irradiance_angle=0.0, incidence_angle=0.0, semi_angle=60.0), 0.0085
    )
    for theta in (10.0, 30.0, 55.0, 75.0):
        geometry = OpticalGeometry(distance=2.05, irradiance_angle=theta, incidence_angle=theta, semi_angle=60.0)
        expected = reference * math.cos(math.radians(theta)) ** 2
        assert channel_gain(geometry, 0.0085) == pytest.approx(expected, rel=1e-12)


def test_irradiance_nirl():
    assert irradiance_at(22.0, NIRL_GEOMETRY) == pytest.approx(8.745701442795276, rel=1e-12)
    assert irradiance_at(0.0, NIRL_GEOMETRY) == 0.0


def test_irradiance_matches_channel_gain_identity():
    # H * P / (A * T) == irradiance for any shared geometry
    for geometry in (VL_GEOMETRY, NIRL_GEOMETRY):
        gain = channel_gain(geometry, 0.0085, filter_gain=0.9)
        lhs = gain * 22.0 / (0.0085 * 0.9)
        assert lhs == pytest.approx(irradiance_at(22.0, geometry), rel=1e-12)


def test_illuminance_vl_default():
    assert illuminance_at(22.0, 120.0, VL_GEOMETRY) == pytest.approx(49.99036879983391, rel=1e-12)


def test_illuminance_linear_in_efficacy():
    base = illuminance_at(22.0, 120.0, VL_GEOMETRY)
    assert illuminance_at(22.0, 240.0, VL_GEOMETRY) == pytest.approx(2.0 * base, rel=1e-12)


def test_illuminance_boresight_closed_form():
    geometry = OpticalGeometry(distance=1.0, irradiance_angle=0.0, incidence_angle=0.0, semi_angle=60.0)
    assert illuminance_at(1.0, 1.0, geometry) == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"distance": 0.0},
    {"irradiance_angle": 91.0},
    {"incidence_angle": -1.0},
    {"semi_angle": 90.0},
    {"semi_angle": 0.0},
    *({"semi_angle": bad} for bad in OUTSIDE_DOMAIN),
])
def test_geometry_validation(kwargs):
    base = dict(distance=2.05, irradiance_angle=60.0, incidence_angle=60.0, semi_angle=60.0)
    with pytest.raises(ValueError):
        OpticalGeometry(**{**base, **kwargs})


def _angles_to_check():
    rng = random.Random(2024)
    grid = [i / 4 for i in range(4, 357)]  # every quarter degree in [1, 89]
    return grid + [rng.uniform(1.0, 89.0) for _ in range(1500)] + [
        1.0, 89.0, math.nextafter(1.0, 2.0), math.nextafter(89.0, 0.0),
    ]


def _true_order(angle):
    """The double nearest the order, from mpmath at 60 digits."""
    import mpmath  # the test oracle; the package itself never imports it

    with mpmath.workdps(60):
        cosine = mpmath.cospi(mpmath.mpf(angle) / 180)
        return float(-mpmath.log(2) / mpmath.log(cosine))


def test_lambertian_order_equals_mpmath_evaluation():
    # Every angle's order is the double nearest its 60-digit mpmath value.
    for angle in _angles_to_check():
        lambertian_order.cache_clear()
        assert lambertian_order(angle).hex() == _true_order(angle).hex(), angle


def test_order_retries_at_80_digits_when_uncertified(monkeypatch):
    # At 17 or 12 digits the certification window (1e-7 or 1e-2 relative) always
    # straddles a rounding boundary, so every angle takes the 80-digit retry, which
    # gives the certified 40-digit order.
    digits_used = []
    real = channel_optical._decimal_order

    def spy(angle, digits=40):
        digits_used.append(digits)
        return real(angle, digits)

    monkeypatch.setattr(channel_optical, "_decimal_order", spy)
    for angle in (1.0, 7.3, 15.0, 33.3, 45.0, 60.0, 71.9, 73.125, 89.0):
        for digits in (17, 12):
            digits_used.clear()
            assert spy(angle, digits).hex() == _true_order(angle).hex(), (angle, digits)
            assert digits_used == [digits, 80], (angle, digits)
            assert spy(angle, digits) == real(angle), (angle, digits)
    assert spy(60.0, 17) == 1.0 and spy(45.0, 17) == 2.0


def test_import_and_default_orders_leave_mpmath_unloaded():
    # the package needs numpy alone at run time, at the domain's edges too
    code = ("import sys, wiptsim; "
            "print([wiptsim.lambertian_order(a) > 0 for a in (60.0, 15.0, 1.0, 89.0)]); "
            "print('mpmath' in sys.modules)")
    src = Path(wiptsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[True, True, True, True]", "False"]

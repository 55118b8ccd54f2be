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
    illuminance_at,
    irradiance_at,
    lambertian_order,
    received_optical_power,
)
from wiptsim.channel_optical import _decimal_order, _mpmath_order

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


@pytest.mark.parametrize("bad", [0.0, 90.0, -10.0, 120.0])
def test_lambertian_order_domain(bad):
    with pytest.raises(ValueError):
        lambertian_order(bad)


def test_channel_gain_vl():
    assert channel_gain(VL_GEOMETRY, 0.0085) == pytest.approx(H_VL, rel=1e-12)


def test_channel_gain_nirl():
    assert channel_gain(NIRL_GEOMETRY, 0.0085) == pytest.approx(H_NIRL, rel=1e-12)


def test_channel_gain_grazing_incidence_is_zero():
    grazing = OpticalGeometry(distance=2.05, irradiance_angle=0.0, incidence_angle=90.0, semi_angle=60.0)
    assert channel_gain(grazing, 0.0085) == 0.0


def test_channel_gain_scales_with_filter_and_concentrator():
    base = channel_gain(VL_GEOMETRY, 0.0085)
    assert channel_gain(VL_GEOMETRY, 0.0085, filter_gain=0.5) == pytest.approx(0.5 * base)
    assert channel_gain(VL_GEOMETRY, 0.0085, concentrator_gain=3.0) == pytest.approx(3.0 * base)


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


def test_received_optical_power():
    assert received_optical_power(22.0, H_VL) == pytest.approx(3.540984456654902e-3, rel=1e-12)
    assert received_optical_power(22.0, H_NIRL) == pytest.approx(7.433846226375986e-2, rel=1e-12)
    assert received_optical_power(0.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        received_optical_power(-1.0, 0.5)


def test_irradiance_nirl():
    assert irradiance_at(22.0, NIRL_GEOMETRY) == pytest.approx(8.745701442795276, rel=1e-12)
    assert irradiance_at(0.0, NIRL_GEOMETRY) == 0.0


def test_irradiance_matches_channel_gain_identity():
    # H * P / (A * T * g) == irradiance for any shared geometry
    for geometry in (VL_GEOMETRY, NIRL_GEOMETRY):
        gain = channel_gain(geometry, 0.0085, filter_gain=0.9, concentrator_gain=1.2)
        lhs = gain * 22.0 / (0.0085 * 0.9 * 1.2)
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
])
def test_geometry_validation(kwargs):
    base = dict(distance=2.05, irradiance_angle=60.0, incidence_angle=60.0, semi_angle=60.0)
    with pytest.raises(ValueError):
        OpticalGeometry(**{**base, **kwargs})


def _angles_to_check():
    rng = random.Random(2024)
    grid = [i / 4 for i in range(1, 360)]  # every quarter degree in (0, 90)
    return grid + [rng.uniform(0.0, 90.0) for _ in range(1500)] + [
        1.0, 89.0, math.nextafter(1.0, 0.0), math.nextafter(89.0, 90.0), 1e-9, 90.0 - 1e-9,
    ]


def test_lambertian_order_equals_mpmath_evaluation():
    # The decimal path must give mpmath's 30-digit result bit for bit, and
    # fall back to it outside [1, 89] degrees.
    for angle in _angles_to_check():
        lambertian_order.cache_clear()
        got = lambertian_order(angle)
        assert got.hex() == _mpmath_order(angle).hex(), angle
        decimal = _decimal_order(angle)
        assert (decimal is not None) == (1.0 <= angle <= 89.0), angle


def test_import_and_default_orders_leave_mpmath_unloaded():
    # mpmath costs about 4 MB resident per process; only uncertified angles need it
    code = ("import sys, wiptsim; wiptsim.lambertian_order(60.0); "
            "wiptsim.lambertian_order(15.0); print('mpmath' in sys.modules)")
    src = Path(wiptsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"

import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiptsim
from wiptsim import mean_rf_received_power, mrt_received_power, path_gain, sample_rician
from wiptsim.channel_rf import _CHUNK_ROWS, _mean_mrt_norm_sq
from wiptsim.scenario import _MAX_RF_ANTENNAS


def test_sample_rician_deterministic():
    a = sample_rician(4, 3.981, np.random.default_rng(123))
    b = sample_rician(4, 3.981, np.random.default_rng(123))
    assert a.shape == (4,)
    assert np.array_equal(a, b)


def test_sample_rician_pure_los_limit():
    h = sample_rician(8, 1e12, np.random.default_rng(0))
    assert np.allclose(h, 1.0 + 0.0j, atol=1e-5)
    # Monte Carlo variance of the received power collapses with the scatter
    norms = [
        float(np.real(np.vdot(v, v)))
        for v in (sample_rician(4, 1e12, np.random.default_rng(7)) for _ in range(50))
    ]
    assert np.var(norms) < 1e-9


def test_sample_rician_rayleigh_unit_power():
    # K = 0: entries are unit-variance complex Gaussians
    rng = np.random.default_rng(2024)
    entries = np.concatenate([sample_rician(1000, 0.0, rng) for _ in range(100)])
    assert entries.size == 100_000
    assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(entries)) < 0.02


def test_path_gain_values():
    assert path_gain(1.0, 2.6) == 1.0
    assert path_gain(4.0, 2.6) == pytest.approx(0.027204705103003875, rel=1e-15)
    assert path_gain(4.0, 2.0) == 0.0625


def test_path_gain_below_reference():
    with pytest.raises(ValueError):
        path_gain(0.5, 2.6)


def test_mrt_received_power():
    ones = np.ones(4, dtype=complex)
    assert mrt_received_power(1.0, ones, 1.0) == pytest.approx(4.0)
    assert mrt_received_power(0.1 / 3, ones, 0.027204705103003875) == pytest.approx(
        3.62729401373385e-3, rel=1e-12
    )
    assert mrt_received_power(1.0, np.zeros(4, dtype=complex), 1.0) == 0.0


def test_mrt_received_power_linearity():
    rng = np.random.default_rng(5)
    h = sample_rician(4, 2.0, rng)
    base = mrt_received_power(1.0, h, 0.02)
    assert mrt_received_power(3.0, h, 0.02) == pytest.approx(3.0 * base, rel=1e-12)
    assert mrt_received_power(1.0, h, 0.04) == pytest.approx(2.0 * base, rel=1e-12)


def test_mrt_phase_convention_immaterial():
    rng = np.random.default_rng(11)
    h = sample_rician(4, 2.0, rng)
    rotated = h * np.exp(1j * 0.73)
    assert mrt_received_power(1.0, rotated, 1.0) == pytest.approx(
        mrt_received_power(1.0, h, 1.0), rel=1e-12
    )


def test_mean_rf_single_sample_equals_single_draw(scenario):
    s = dataclasses.replace(scenario, mc_samples=1)
    h = sample_rician(s.n_rf_antennas, s.rician_k, np.random.default_rng(s.rng_seed))
    expected = mrt_received_power(0.05, h, path_gain(s.rf_distance, s.pathloss_exponent))
    assert mean_rf_received_power(s, 0.05) == pytest.approx(expected, rel=1e-12)


def test_mean_rf_los_limit(scenario):
    s = dataclasses.replace(scenario, rician_k=1e12, rf_distance=1.0)
    assert mean_rf_received_power(s, 1.0) == pytest.approx(4.0, rel=1e-6)


def test_mean_rf_default_close_to_expectation(scenario):
    # E||h||^2 = n_antennas, so the mean sits near P * d^-gamma * 4
    per_device = scenario.rf_total_tx_power / scenario.n_devices
    expected = per_device * path_gain(4.0, 2.6) * 4.0
    assert mean_rf_received_power(scenario, per_device) == pytest.approx(expected, rel=0.1)


def test_mean_rf_reproducible_bit_for_bit(scenario):
    first = mean_rf_received_power(scenario, 0.0132)
    _mean_mrt_norm_sq.cache_clear()
    second = mean_rf_received_power(scenario, 0.0132)
    assert first == second


def test_mean_rf_linear_in_power(scenario):
    one = mean_rf_received_power(scenario, 1.0)
    assert mean_rf_received_power(scenario, 0.25) == 0.25 * one


def _per_sample_mean(n_antennas, k_factor, seed, samples):
    """The ensemble mean as one sample_rician per draw, summed in draw order."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(samples):
        h = sample_rician(n_antennas, k_factor, rng)
        total += float(np.real(np.vdot(h, h)))
    return total / samples


@settings(max_examples=40, deadline=None)
@given(
    n_antennas=st.integers(1, 32),
    k_factor=st.one_of(
        st.sampled_from([0.0, 1.0, 10.0 ** 0.6, 10.0, 1e12]),
        st.floats(0.0, 1e15, allow_nan=False, allow_infinity=False),
    ),
    seed=st.integers(0, 2**32 - 1),
    samples=st.sampled_from([1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                             2 * _CHUNK_ROWS + 1]),
)
def test_chunked_ensemble_equals_per_sample_draws(n_antennas, k_factor, seed, samples):
    # A compensated or vectorised sum would differ in the last bits on
    # some keys; chunk boundaries must not show either.
    chunked = _mean_mrt_norm_sq.__wrapped__(n_antennas, k_factor, seed, samples)
    assert type(chunked) is float
    assert chunked.hex() == _per_sample_mean(n_antennas, k_factor, seed, samples).hex()


def test_ensemble_memory_bounded_by_chunk():
    # All 200,000 x 32 draws at once would take about 100 MB of arrays.
    tracemalloc.start()
    try:
        _mean_mrt_norm_sq.__wrapped__(32, 3.0, 5, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("samples", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
@pytest.mark.parametrize("n_antennas", [33, 64, 128, _MAX_RF_ANTENNAS])
def test_wide_ensembles_equal_per_sample_draws(n_antennas, samples):
    # Wider rows than the hypothesis test draws: BLAS may take another
    # unrolled path there, and the row norms must still be vdot's.
    chunked = _mean_mrt_norm_sq.__wrapped__(n_antennas, 3.981, 2024, samples)
    assert chunked.hex() == _per_sample_mean(n_antennas, 3.981, 2024, samples).hex()


def _in_process(coretype, code):
    # OPENBLAS_CORETYPE is read once, when OpenBLAS loads, so each kernel
    # needs a process of its own.  Other BLAS libraries ignore it.
    src = Path(wiptsim.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=coretype)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


_BLAS_KEYS = [(n, 3.981, 7, 2 * _CHUNK_ROWS + 1) for n in (1, 4, 33, _MAX_RF_ANTENNAS)]


@pytest.mark.parametrize("coretype", ["Prescott", "Haswell", "SkylakeX"])
def test_chunked_ensemble_equals_per_sample_draws_under_each_blas_kernel(coretype):
    # vecdot and vdot call the same zdotc whichever kernel OpenBLAS picks.
    # The kernels themselves differ in the last bits (the default scenario's
    # mean ends in ...a13 under Prescott and Haswell, ...a16 under SkylakeX),
    # so each process is checked against the oracle run in that process.
    code = ("from test_channel_rf import _BLAS_KEYS, _per_sample_mean; "
            "from wiptsim.channel_rf import _mean_mrt_norm_sq as f; "
            "print(*(f.__wrapped__(*k).hex() + '/' + _per_sample_mean(*k).hex() "
            "for k in _BLAS_KEYS))")
    pairs = [pair.split("/") for pair in _in_process(coretype, code)]
    assert len(pairs) == len(_BLAS_KEYS)
    assert all(chunked == per_sample for chunked, per_sample in pairs)


@pytest.mark.skipif(platform.machine() != "x86_64", reason="pinned on OpenBLAS's x86-64 kernel")
def test_default_ensemble_mean_pinned(scenario):
    # Pinned from the per-vector vdot loop under Prescott, OpenBLAS's generic
    # SSE kernel, which every x86-64 host runs: any change of draw, norm or
    # sum order shows, whatever vector width the host's own kernel has.
    s = scenario
    code = ("from wiptsim.channel_rf import _mean_mrt_norm_sq as f; "
            f"print(f.__wrapped__{(s.n_rf_antennas, s.rician_k, s.rng_seed, s.mc_samples)!r}.hex())")
    assert _in_process("Prescott", code) == ["0x1.ff8adb5cdea13p+1"]

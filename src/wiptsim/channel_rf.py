"""Rician fading, power-law pathloss and MRT combining for the RF downlink.

A channel vector is a complex ndarray with one entry per transmit antenna.
Entries are normalized to unit mean power, so the expected MRT array gain
equals the antenna count.  The line-of-sight phase is taken as zero on all
antennas; MRT performance depends only on the channel norm, so the phase
convention is immaterial.
"""

import math
from functools import lru_cache

import numpy as np


def sample_rician(n_antennas, k_factor, rng):
    """Draw one Rician fading vector from the given numpy Generator.

    Each entry is sqrt(K/(K+1)) + sqrt(1/(K+1)) * g with g a unit-variance
    circularly-symmetric complex Gaussian.  Identical generator states
    yield identical vectors.
    """
    return _rician(k_factor, rng.standard_normal(n_antennas), rng.standard_normal(n_antennas))


def _rician(k_factor, re, im):
    # The one Rician formula, for one vector or a chunk of rows alike: each
    # entry depends only on its own (re, im), so the shape never changes a bit.
    los = math.sqrt(k_factor / (k_factor + 1.0))
    diffuse = math.sqrt(1.0 / (k_factor + 1.0))
    return los + diffuse * ((re + 1j * im) / math.sqrt(2.0))


def path_gain(distance, exponent):
    """Power pathloss gain d^-exponent with unit reference gain at 1 m."""
    if distance < 1.0:
        raise ValueError(
            f"pathloss model is undefined below the 1 m reference, got {distance}"
        )
    return distance**-exponent


def mrt_received_power(tx_power_per_device, channel, path_gain):
    """Received power under maximal ratio transmission: P * gain * ||h||^2."""
    norm_sq = float(np.real(np.vdot(channel, channel)))
    return tx_power_per_device * path_gain * norm_sq


# Fading vectors drawn per chunk: bounds the ensemble's memory whatever
# mc_samples is; a vector costs its draw plus one zdotc called from C.
_CHUNK_ROWS = 512


# Bounded, but large enough that a parameter study revisiting up to 256
# fading configurations never rebuilds an ensemble it has already drawn.
@lru_cache(maxsize=256)
def _mean_mrt_norm_sq(n_antennas, k_factor, seed, samples):
    # One seeded ensemble per (scenario) key so every sweep point shares
    # the identical channel draw set.  A (rows, 2, n) draw takes the
    # generator's stream in the same order as one sample_rician per row.
    # vecdot calls vdot's BLAS zdotc once per row, and the norms are added
    # one at a time in draw order, so the mean equals the per-sample loop bit
    # for bit (an |h|**2 row sum, np.sum or a compensated sum() would not).
    rng = np.random.default_rng(seed)
    total = 0.0
    for start in range(0, samples, _CHUNK_ROWS):
        draws = rng.standard_normal((min(_CHUNK_ROWS, samples - start), 2, n_antennas))
        h = _rician(k_factor, draws[:, 0], draws[:, 1])
        for norm_sq in np.vecdot(h, h).real.tolist():
            total += norm_sq
    return total / samples


def mean_rf_received_power(scenario, tx_power_per_device):
    """Ensemble-average MRT received power over the scenario's fading draws.

    Deterministic for a fixed (rng_seed, mc_samples) and exactly linear in
    the transmit power.
    """
    gain = path_gain(scenario.rf_distance, scenario.pathloss_exponent)
    norm_sq = _mean_mrt_norm_sq(
        scenario.n_rf_antennas, scenario.rician_k, scenario.rng_seed, scenario.mc_samples
    )
    return tx_power_per_device * gain * norm_sq

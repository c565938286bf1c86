"""Geometry, fading and rate unit tests.

Expected constants were computed with mpmath at 50 digits; grid checks
recompute the oracle live.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from vecafl.channel import (advance_position, bessel_j0,
                            channel_correlation, complex_gaussian,
                            doppler_freq, evolve_gain, lane_geometry,
                            transmission_rate)
from vecafl.config import SimConfig
from vecafl.rng import substream


def geometry(x, lane_offset=5.0, antenna_height=10.0):
    """Distance and bearing cosine of one vehicle at lane coordinate x."""
    dist, cos_theta = lane_geometry(np.array([x]), lane_offset,
                                    antenna_height)
    return float(dist[0]), float(cos_theta[0])


# -- kinematics --------------------------------------------------------------


def test_advance_position_zero_elapsed():
    assert advance_position(0.0, 20.0, 0, 0.5) == 0.0


def test_advance_position_hand_case():
    assert advance_position(0.0, 20.0, 3, 0.5) == pytest.approx(30.0)


def test_advance_position_stationary():
    assert advance_position(10.0, 0.0, 7, 0.5) == 10.0


def test_advance_position_rejects_bad_args():
    with pytest.raises(ValueError):
        advance_position(0.0, 20.0, -1, 0.5)


# -- geometry ----------------------------------------------------------------


def test_distance_sqrt125():
    d, _ = geometry(0.0)
    assert d == pytest.approx(11.180339887498948, abs=1e-12)


def test_distance_identical_points():
    with np.errstate(invalid="ignore"):   # the bearing is 0 / 0 there
        d, _ = geometry(0.0, lane_offset=0.0, antenna_height=0.0)
    assert d == 0.0


def test_distance_15():
    d, _ = geometry(-10.0)
    assert d == pytest.approx(15.0, abs=1e-12)


def test_cos_bearing_two_thirds():
    _, c = geometry(-10.0)
    assert c == pytest.approx(10.0 / 15.0, abs=1e-12)


def test_cos_bearing_orthogonal():
    assert geometry(0.0)[1] == 0.0


def test_cos_bearing_antiparallel():
    _, c = geometry(10.0, lane_offset=0.0, antenna_height=0.0)
    assert c == pytest.approx(-1.0, abs=1e-12)


def test_doppler_hand_case():
    assert doppler_freq(20.0, 7.0, 2.0 / 3.0) \
        == pytest.approx(1.9047619047619048, abs=1e-12)


def test_doppler_zero_cases():
    assert doppler_freq(20.0, 7.0, 0.0) == 0.0
    assert doppler_freq(0.0, 7.0, 1.0) == 0.0


# -- Bessel J0 ---------------------------------------------------------------


def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_first_zero():
    assert abs(bessel_j0(2.404825557695773)) < 1e-9


def test_j0_at_one():
    assert bessel_j0(1.0) == pytest.approx(0.76519768655796655, abs=1e-12)


def test_j0_grid_against_mpmath():
    # straddles the series / asymptotic switchover at 12
    mp.mp.dps = 30
    for x in (0.1, 0.5, 2.0, 5.0, 8.5, 11.9, 12.0, 12.1, 20.0, 35.0, 50.0):
        want = float(mp.besselj(0, mp.mpf(repr(x))))
        assert bessel_j0(x) == pytest.approx(want, abs=1e-9), x
        assert bessel_j0(-x) == pytest.approx(want, abs=1e-9), -x


# -- correlation and AR evolution --------------------------------------------


def test_correlation_zero_doppler():
    assert channel_correlation(0.0, 0.5) == 1.0


def test_correlation_hand_case():
    # 2*pi*(40/21)*0.5 = 5.98398...; J0 of that from the oracle
    rho = channel_correlation(1.9047619047619048, 0.5)
    assert rho == pytest.approx(0.14618937686626132, abs=1e-9)


def test_correlation_at_first_bessel_zero():
    f_d = 2.404825557695773 / (2.0 * math.pi * 0.5)
    assert abs(channel_correlation(f_d, 0.5)) < 1e-9


def test_evolve_perfectly_correlated():
    gain = complex_gaussian(substream(3, "chan"))
    out = evolve_gain(gain, 1.0, complex(0.3, -0.4))
    assert out == gain


def test_evolve_memoryless():
    gain = complex_gaussian(substream(3, "chan"))
    out = evolve_gain(gain, 0.0, complex(0.3, -0.4))
    assert out == complex(0.3, -0.4)


def test_evolve_rejects_rho_above_one():
    gain = complex_gaussian(substream(3, "chan"))
    with pytest.raises(ValueError):
        evolve_gain(gain, 1.5, complex(0.0, 0.0))


def test_ar_trace_lag1_and_variance():
    # fixed rho=0.8 trace; empirical lag-1 correlation and second moment
    rng = substream(99, "ar-trace")
    rho = 0.8
    n = 100_000
    gains = np.empty(n, dtype=complex)
    gain = complex_gaussian(rng)   # drawn from the stationary law
    for i in range(n):
        gain = evolve_gain(gain, rho, complex_gaussian(rng))
        gains[i] = gain
    lag1 = float(np.mean(gains[1:] * np.conj(gains[:-1])).real
                 / np.mean(np.abs(gains) ** 2))
    assert lag1 == pytest.approx(rho, abs=0.02)
    assert float(np.mean(np.abs(gains) ** 2)) == pytest.approx(1.0, abs=0.03)


def test_complex_gaussian_unit_second_moment():
    rng = substream(5, "cg")
    draws = np.array([complex_gaussian(rng) for _ in range(50_000)])
    assert float(np.mean(np.abs(draws) ** 2)) == pytest.approx(1.0, abs=0.03)
    assert abs(complex(np.mean(draws))) < 0.02


# -- Shannon rate ------------------------------------------------------------


# the default radio: 1 kHz, 0.25 W, 1e-12 W of noise, path loss exponent 2
RADIO = SimConfig()


def test_rate_table_constants():
    rate = transmission_rate(RADIO, complex(1.0, 0.0), 1.0)
    assert rate == pytest.approx(37863.137138654119, abs=1.0)
    assert rate == pytest.approx(37863.137138654119, rel=1e-12)


def test_rate_zero_gain():
    assert transmission_rate(RADIO, 0.0, 1.0) == 0.0


def test_rate_distance_power_law():
    snr = lambda d: 2.0 ** (transmission_rate(RADIO, 1.0, d)
                            / RADIO.bandwidth_hz) - 1.0
    assert snr(2.0) == pytest.approx(snr(1.0) / 4.0, rel=1e-9)


def test_rate_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        transmission_rate(RADIO, 1.0, 0.0)

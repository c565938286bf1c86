"""Geometry, fading and rate unit tests.

Expected constants were computed with mpmath at 50 digits; grid checks
recompute the oracle live.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from vecafl.channel import (ChannelState, DegenerateGeometryError, LinkBudget,
                            Position3, advance_position, bessel_j0,
                            channel_correlation, complex_gaussian,
                            cos_bearing_angle, distance_to_antenna,
                            doppler_freq, evolve_channel, transmission_rate)
from vecafl.rng import substream

RSU = Position3(0.0, 0.0, 10.0)


def stationary_state(rho, rng):
    """A fading state whose gain is drawn from the stationary law."""
    return ChannelState(gain=complex_gaussian(rng), rho=rho, doppler_hz=0.0)


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
    with pytest.raises(ValueError):
        advance_position(0.0, 20.0, 1, 0.0)


# -- geometry ----------------------------------------------------------------


def test_distance_sqrt125():
    d = distance_to_antenna(Position3(0.0, 5.0, 0.0), RSU)
    assert d == pytest.approx(11.180339887498948, abs=1e-12)


def test_distance_identical_points():
    assert distance_to_antenna(Position3(0.0, 0.0, 10.0), RSU) == 0.0


def test_distance_15():
    assert distance_to_antenna(Position3(-10.0, 5.0, 0.0), RSU) \
        == pytest.approx(15.0, abs=1e-12)


def test_cos_bearing_two_thirds():
    c = cos_bearing_angle(Position3(-10.0, 5.0, 0.0), RSU)
    assert c == pytest.approx(10.0 / 15.0, abs=1e-12)


def test_cos_bearing_orthogonal():
    assert cos_bearing_angle(Position3(0.0, 5.0, 0.0), RSU) == 0.0


def test_cos_bearing_antiparallel():
    c = cos_bearing_angle(Position3(10.0, 0.0, 0.0),
                          Position3(0.0, 0.0, 0.0))
    assert c == pytest.approx(-1.0, abs=1e-12)


def test_cos_bearing_degenerate():
    with pytest.raises(DegenerateGeometryError):
        cos_bearing_angle(Position3(0.0, 0.0, 10.0), RSU)


def test_doppler_hand_case():
    assert doppler_freq(20.0, 7.0, 2.0 / 3.0) \
        == pytest.approx(1.9047619047619048, abs=1e-12)


def test_doppler_zero_cases():
    assert doppler_freq(20.0, 7.0, 0.0) == 0.0
    assert doppler_freq(0.0, 7.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        doppler_freq(20.0, 0.0, 1.0)


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


def test_correlation_rejects_bad_duration():
    with pytest.raises(ValueError):
        channel_correlation(1.0, 0.0)


def test_evolve_perfectly_correlated():
    state = stationary_state(1.0, substream(3, "chan"))
    out = evolve_channel(state, complex(0.3, -0.4))
    assert out.gain == state.gain


def test_evolve_memoryless():
    state = stationary_state(0.0, substream(3, "chan"))
    out = evolve_channel(state, complex(0.3, -0.4))
    assert out.gain == complex(0.3, -0.4)


def test_evolve_rejects_rho_above_one():
    state = stationary_state(0.0, substream(3, "chan"))
    state.rho = 1.5
    with pytest.raises(ValueError):
        evolve_channel(state, complex(0.0, 0.0))


def test_ar_trace_lag1_and_variance():
    # fixed rho=0.8 trace; empirical lag-1 correlation and second moment
    rng = substream(99, "ar-trace")
    rho = 0.8
    n = 100_000
    gains = np.empty(n, dtype=complex)
    state = stationary_state(rho, rng)
    for i in range(n):
        state = evolve_channel(state, complex_gaussian(rng))
        gains[i] = state.gain
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


def test_rate_table_constants():
    link = LinkBudget(1000.0, 0.25, 1e-12, 2.0)
    rate = transmission_rate(link, complex(1.0, 0.0), 1.0)
    assert rate == pytest.approx(37863.137138654119, abs=1.0)
    assert rate == pytest.approx(37863.137138654119, rel=1e-12)


def test_rate_zero_gain():
    link = LinkBudget(1000.0, 0.25, 1e-12, 2.0)
    assert transmission_rate(link, 0.0, 1.0) == 0.0


def test_rate_distance_power_law():
    link = LinkBudget(1000.0, 0.25, 1e-12, 2.0)
    snr = lambda d: 2.0 ** (transmission_rate(link, 1.0, d)
                            / link.bandwidth_hz) - 1.0
    assert snr(2.0) == pytest.approx(snr(1.0) / 4.0, rel=1e-9)


def test_rate_rejects_nonpositive_distance():
    link = LinkBudget()
    with pytest.raises(ValueError):
        transmission_rate(link, 1.0, 0.0)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(noise_power_w=-1.0)

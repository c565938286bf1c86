"""Uplink geometry, mobility and small-scale fading.

Vehicles drive along a straight lane past a roadside antenna.  The uplink
is a flat Rayleigh channel that decorrelates with vehicle motion: the slot
to slot correlation is the zeroth-order Bessel function of the Doppler
angle, and the complex gain follows a first-order autoregression driven by
circularly symmetric Gaussian innovations.  Achievable uplink throughput is
the Shannon rate under distance path loss.
"""

import math

import numpy as np


def advance_position(start_x, speed: float, slot_index: int,
                     slot_duration: float):
    """Lane coordinate after ``slot_index`` whole slots of constant speed;
    ``start_x`` is a float or an array of them."""
    if slot_index < 0:
        raise ValueError("slot_index must be nonnegative")
    return start_x + speed * (slot_index * slot_duration)


def lane_geometry(x: np.ndarray, lane_offset: float, antenna_height: float):
    """Distance to the antenna and bearing cosine at lane coordinates ``x``.

    The lane runs along +x, ``lane_offset`` metres from the foot of an
    antenna ``antenna_height`` metres up at x = 0.  The bearing cosine is
    the cosine of the angle between the lane direction and the uplink
    bearing: positive while a vehicle approaches the antenna, negative once
    it has passed.  Elementwise arithmetic only, so no BLAS kernel's sum
    order or fused multiply-add reaches the result.
    """
    dx = 0.0 - x   # antenna minus vehicle
    dist = np.sqrt(dx * dx + lane_offset * lane_offset
                   + antenna_height * antenna_height)
    return dist, dx / dist


def doppler_freq(speed: float, wavelength: float, cos_theta: float) -> float:
    """Doppler shift in Hz for motion at ``speed`` along ``cos_theta``."""
    return (speed / wavelength) * cos_theta


# Hankel asymptotic coefficients a_m = prod_{j<=m} (2j-1)^2 / (m! 8^m),
# generated on import; enough terms that truncation at the smallest term
# stays below 1e-10 down to the series switchover.
_J0_SWITCH = 12.0
_J0_ASYM = [1.0]
for _m in range(30):
    _J0_ASYM.append(_J0_ASYM[-1] * (2 * _m + 1) ** 2 / (8.0 * (_m + 1)))


def bessel_j0(x: float) -> float:
    """Zeroth-order Bessel function of the first kind.

    Ascending power series for |x| <= 12, Hankel asymptotic expansion with
    optimal truncation beyond.  Absolute error stays below 1e-9 well past
    |x| = 50.
    """
    ax = abs(float(x))
    if ax <= _J0_SWITCH:
        # sum_k (-1)^k (x^2/4)^k / (k!)^2
        q = 0.25 * ax * ax
        term = 1.0
        total = 1.0
        k = 0
        while abs(term) > 1e-18:
            k += 1
            term *= -q / (k * k)
            total += term
        return total
    # J0 = sqrt(2/(pi x)) [P cos(x - pi/4) - Q sin(x - pi/4)]
    p_sum = 1.0
    q_sum = -_J0_ASYM[1] / ax
    sign = -1.0
    prev = abs(q_sum)
    for m in range(2, len(_J0_ASYM) - 1, 2):
        tp = sign * _J0_ASYM[m] / ax**m
        tq = -sign * _J0_ASYM[m + 1] / ax ** (m + 1)
        if abs(tp) >= prev:
            break  # asymptotic terms started growing
        p_sum += tp
        q_sum += tq
        prev = abs(tp)
        sign = -sign
    chi = ax - 0.25 * math.pi
    amp = math.sqrt(2.0 / (math.pi * ax))
    return amp * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def channel_correlation(doppler_hz: float, slot_duration: float) -> float:
    """Gain correlation across one slot; sign-symmetric in the Doppler."""
    return bessel_j0(2.0 * math.pi * doppler_hz * slot_duration)


def complex_gaussian(rng: np.random.Generator) -> complex:
    """Circularly symmetric complex normal sample with unit second moment."""
    re, im = rng.standard_normal(2)
    return complex(re, im) / math.sqrt(2.0)


def evolve_gain(gain: complex, rho: float, innovation: complex) -> complex:
    """One autoregressive step of the complex gain at correlation ``rho``.

    gain' = rho * gain + innovation * sqrt(1 - rho^2); unit innovation power
    keeps the gain's second moment at one for any |rho| <= 1.
    """
    if abs(rho) > 1.0:
        raise ValueError("correlation magnitude cannot exceed one")
    return rho * gain + innovation * math.sqrt(1.0 - rho * rho)


def transmission_rate(cfg, gain: complex, distance: float) -> float:
    """Shannon uplink rate in bit/s at the given gain and separation,
    under the radio keys of ``cfg`` (a ``SimConfig``)."""
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    power_gain = abs(gain) ** 2
    snr = (cfg.tx_power_w * power_gain * distance ** (-cfg.path_loss_exp)
           / cfg.noise_power_w)
    return cfg.bandwidth_hz * math.log2(1.0 + snr)

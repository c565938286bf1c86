"""Uplink geometry, mobility and small-scale fading.

Vehicles drive along a straight lane past a roadside antenna.  The uplink
is a flat Rayleigh channel that decorrelates with vehicle motion: the slot
to slot correlation is the zeroth-order Bessel function of the Doppler
angle, and the complex gain follows a first-order autoregression driven by
circularly symmetric Gaussian innovations.  Achievable uplink throughput is
the Shannon rate under distance path loss.
"""

import math
from dataclasses import dataclass

import numpy as np


class DegenerateGeometryError(ValueError):
    """Vehicle and antenna positions coincide; the bearing is undefined."""


@dataclass
class Position3:
    """Cartesian position in metres."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass
class LinkBudget:
    """Static uplink radio constants.

    bandwidth_hz   channel bandwidth
    tx_power_w     vehicle transmit power
    noise_power_w  receiver noise power over the band
    path_loss_exp  distance attenuation exponent
    """

    bandwidth_hz: float = 1000.0
    tx_power_w: float = 0.25
    noise_power_w: float = 1e-12
    path_loss_exp: float = 2.0

    def __post_init__(self):
        for field in ("bandwidth_hz", "tx_power_w", "noise_power_w"):
            if getattr(self, field) <= 0.0:
                raise ValueError(f"{field} must be positive")


@dataclass
class ChannelState:
    """Per-vehicle fading state carried between slots.

    gain        complex small-scale gain, unit second moment in steady state
    rho         slot-to-slot correlation of the gain process
    doppler_hz  signed Doppler shift along the vehicle-antenna bearing
    """

    gain: complex
    rho: float
    doppler_hz: float


def advance_position(start_x: float, speed: float, slot_index: int,
                     slot_duration: float) -> float:
    """Lane coordinate after ``slot_index`` whole slots of constant speed."""
    if slot_index < 0:
        raise ValueError("slot_index must be nonnegative")
    if slot_duration <= 0.0:
        raise ValueError("slot_duration must be positive")
    return start_x + speed * (slot_index * slot_duration)


def distance_to_antenna(vehicle: Position3, antenna: Position3) -> float:
    """Euclidean vehicle-antenna separation in metres."""
    return float(np.linalg.norm(antenna.as_array() - vehicle.as_array()))


def cos_bearing_angle(vehicle: Position3, antenna: Position3) -> float:
    """Cosine of the angle between the lane direction and the uplink bearing.

    The lane direction is the +x unit vector, so this is the x component of
    the normalised vehicle-to-antenna vector.  Positive while the vehicle
    approaches the antenna, negative once it has passed.
    """
    diff = antenna.as_array() - vehicle.as_array()
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        raise DegenerateGeometryError("vehicle is at the antenna position")
    return float(diff[0] / norm)


def doppler_freq(speed: float, wavelength: float, cos_theta: float) -> float:
    """Doppler shift in Hz for motion at ``speed`` along ``cos_theta``."""
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
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
    if slot_duration <= 0.0:
        raise ValueError("slot_duration must be positive")
    return bessel_j0(2.0 * math.pi * doppler_hz * slot_duration)


def complex_gaussian(rng: np.random.Generator) -> complex:
    """Circularly symmetric complex normal sample with unit second moment."""
    re, im = rng.standard_normal(2)
    return complex(re, im) / math.sqrt(2.0)


def evolve_channel(state: ChannelState, innovation: complex) -> ChannelState:
    """One autoregressive step of the gain.

    gain' = rho * gain + innovation * sqrt(1 - rho^2); unit innovation power
    keeps the gain's second moment at one for any |rho| <= 1.  The caller
    refreshes rho and doppler from the new vehicle position before the next
    step.
    """
    rho = state.rho
    if abs(rho) > 1.0:
        raise ValueError("correlation magnitude cannot exceed one")
    new_gain = rho * state.gain + innovation * math.sqrt(1.0 - rho * rho)
    return ChannelState(gain=new_gain, rho=rho, doppler_hz=state.doppler_hz)


def transmission_rate(link: LinkBudget, gain: complex,
                      distance: float) -> float:
    """Shannon uplink rate in bit/s at the given gain and separation."""
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    power_gain = abs(gain) ** 2
    snr = (link.tx_power_w * power_gain * distance ** (-link.path_loss_exp)
           / link.noise_power_w)
    return link.bandwidth_hz * math.log2(1.0 + snr)

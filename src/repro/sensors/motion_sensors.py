"""Motion-driven sensors: accelerometer/gyro (ACC) and magnetometer (MAG).

Both model the MPU9250 IMU the paper mounts on the printhead.  The
accelerometer feels the tool acceleration plus gravity plus the structural
ringing excited at every acceleration transient; the magnetometer picks up
the stray fields of the stepper motors, whose currents follow the joint
velocities, buried under the earth field and substantial noise — which is
why the paper finds MAG's ``h_disp`` noisy but correctly shaped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..printer.firmware import MachineTrace
from .base import Sensor, SensorConfig, resample_track

__all__ = ["Accelerometer", "Magnetometer"]

#: Elements per row block of :func:`_gaussian_smooth`: its passes over
#: one block stay in cache.
_SMOOTH_BLOCK = 1 << 15


def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter1d(x, sigma, axis=0)``, bit for bit.

    Same kernel (radius ``int(4 sigma + 0.5)``, normalised, reversed), same
    ``mode="reflect"`` edges (numpy's ``"symmetric"`` padding) and the same
    summation order as ndimage's symmetric-kernel correlation: the centre
    tap first, then ``(x[i-k] + x[i+k]) * w[r-k]`` for ``k = r .. 1``.
    Returns a C-ordered float64 array.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    r = int(4.0 * float(sigma) + 0.5)
    taps = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    w = (phi / phi.sum())[::-1].tolist()
    n = x.shape[0]
    padded = np.pad(x, [(r, r)] + [(0, 0)] * (x.ndim - 1), mode="symmetric")
    out = x * w[r]
    rows = max(1, _SMOOTH_BLOCK // max(1, x[:1].size))
    tmp = np.empty((min(rows, n),) + x.shape[1:])
    for s in range(0, n, rows):
        e = min(s + rows, n)
        block, pair = out[s:e], tmp[: e - s]
        for k in range(r, 0, -1):
            np.add(padded[s + r - k : e + r - k], padded[s + r + k : e + r + k], out=pair)
            pair *= w[r - k]
            block += pair
    return out


class Accelerometer(Sensor):
    """6-channel IMU: linear acceleration (x, y, z) + angular-rate proxy.

    The paper's ACC channel has 6 channels at 4 kHz; we keep 6 channels
    (3 accel + 3 "gyro") at the scaled rate.  Structural ringing is modelled
    as an exponentially decaying oscillation injected at each jerk event,
    with amplitude proportional to the acceleration step — the dominant
    high-frequency content a printhead IMU actually sees.
    """

    channel_id = "ACC"

    def __init__(
        self,
        config: SensorConfig,
        ringing_freq: float = 55.0,
        ringing_decay: float = 18.0,
        ringing_gain: float = 0.15,
        gravity: float = 9810.0,
        mechanical_smoothing: float = 0.03,
    ) -> None:
        super().__init__(config)
        self.ringing_freq = ringing_freq
        self.ringing_decay = ringing_decay
        self.ringing_gain = ringing_gain
        self.gravity = gravity  # mm/s^2
        # The printhead assembly is a mass on compliant mounts: it acts as a
        # mechanical low-pass with a time constant of a few tens of ms.
        self.mechanical_smoothing = mechanical_smoothing  # seconds (Gaussian)

    def physical_track(
        self, trace: MachineTrace, rng: np.random.Generator
    ) -> np.ndarray:
        fs = self.config.sample_rate
        accel = resample_track(trace.acceleration, trace, fs)  # (n, 3)
        if self.mechanical_smoothing > 0:
            accel = _gaussian_smooth(accel, self.mechanical_smoothing * fs)
        n = accel.shape[0]
        t = np.arange(n) / fs

        # Structural ringing: convolve |jerk| with a decaying sinusoid.
        jerk = np.abs(np.diff(accel, axis=0, prepend=accel[:1, :]))
        kernel_len = int(fs * min(0.5, 5.0 / self.ringing_decay))
        tk = np.arange(max(kernel_len, 2)) / fs
        kernel = np.exp(-self.ringing_decay * tk) * np.sin(
            2.0 * np.pi * self.ringing_freq * tk
        )
        ringing = np.column_stack(
            [
                np.convolve(jerk[:, c], kernel, mode="full")[:n]
                for c in range(3)
            ]
        )
        linear = accel + self.ringing_gain * ringing
        linear[:, 2] += self.gravity

        # Angular-rate proxy: the printhead pitches/rolls with horizontal
        # acceleration and yaws with differential XY motion.
        gyro = np.column_stack(
            [
                0.002 * linear[:, 1],
                -0.002 * linear[:, 0],
                0.001 * (linear[:, 0] - linear[:, 1]),
            ]
        )
        return np.column_stack([linear, gyro])


@dataclass
class _MotorCoupling:
    """Geometric coupling of one motor's stray field into the IMU axes."""

    weights: np.ndarray  # (3,)


class Magnetometer(Sensor):
    """3-channel magnetometer dominated by earth field + motor stray fields.

    Motor current magnitude follows ``|joint velocity|`` (plus a holding
    current), and each motor couples into the three axes with fixed
    geometric weights.  The noise level is deliberately high: Table/Fig. 10
    show MAG's ``h_disp`` is noisy yet overall correct.
    """

    channel_id = "MAG"

    def __init__(
        self,
        config: SensorConfig,
        earth_field: float = 45.0,
        motor_gain: float = 0.4,
        holding_current: float = 0.3,
    ) -> None:
        super().__init__(config)
        self.earth_field = earth_field
        self.motor_gain = motor_gain
        self.holding_current = holding_current

    def physical_track(
        self, trace: MachineTrace, rng: np.random.Generator
    ) -> np.ndarray:
        fs = self.config.sample_rate
        joint_vel = resample_track(trace.joint_velocity, trace, fs)
        extrusion = resample_track(trace.extrusion_rate, trace, fs)
        # The extruder motor sits on the printhead right next to the IMU, so
        # its stray field is part of what the magnetometer picks up.
        all_motors = np.column_stack([joint_vel, extrusion])
        currents = self.holding_current + np.abs(all_motors)  # (n, J + 1)

        n_joints = currents.shape[1]
        # Fixed (deterministic) coupling geometry per joint.
        couplings = np.array(
            [
                [np.cos(0.7 * k + 0.3), np.sin(1.3 * k + 1.1), np.cos(2.1 * k)]
                for k in range(n_joints)
            ]
        )
        field = self.motor_gain * currents @ couplings  # (n, 3)
        field[:, 0] += self.earth_field
        field[:, 2] += 0.6 * self.earth_field
        return field

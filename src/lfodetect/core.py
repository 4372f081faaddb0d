"""Shared domain types and configuration.

Everything here is an immutable value object: windows, estimated modes,
spectral peaks, alarms, and the tuning configuration shared by the whole
analysis pipeline.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

TWO_PI = 2.0 * math.pi

#: Widened merge band for hunting control-mode oscillations (supervisory
#: equipment can ring well above the default 0.1-2 Hz electromechanical range).
CONTROL_HUNT_BAND = (0.1, 10.0)

#: The fewest samples any window, windowing policy or synthesis spec holds.
MIN_WINDOW_SAMPLES = 4


class Channel(str, enum.Enum):
    """Measured quantity carried by an archive stream / analysis window."""

    Frequency_Hz = "Frequency_Hz"
    VoltageMag_pu = "VoltageMag_pu"
    VoltageAngle_rad = "VoltageAngle_rad"
    ActivePower_MW = "ActivePower_MW"


class ModeClass(str, enum.Enum):
    """Oscillation taxonomy by frequency band."""

    InterArea = "InterArea"
    Local = "Local"
    Control = "Control"
    Torsional = "Torsional"


#: Classification bands in Hz: (low, high, low_inclusive, high_inclusive).
#: Local and Control deliberately overlap on (1.5, 2.0]; the gaps below
#: 0.1 Hz and on (8, 10] classify to the empty set.
MODE_BANDS: dict[ModeClass, tuple[float, float, bool, bool]] = {
    ModeClass.InterArea: (0.1, 1.0, True, False),
    ModeClass.Local: (1.0, 2.0, True, True),
    ModeClass.Control: (1.5, 8.0, False, True),
    ModeClass.Torsional: (10.0, math.inf, False, False),
}


class Severity(str, enum.Enum):
    Info = "Info"
    Warning = "Warning"
    Critical = "Critical"


class EmptyBand(Exception):
    """No component falls inside the requested frequency band."""


def wrap_angle(theta: float) -> float:
    """Normalize an angle to the half-open interval (-pi, pi]."""
    w = (theta + math.pi) % TWO_PI - math.pi
    return math.pi if w == -math.pi else w


def _readonly(values, dtype=float) -> np.ndarray:
    """A frozen `dtype` copy of `values`."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class _Shared:
    """Samples a window may hold without a copy: a read-only float view of
    a buffer that the package froze and never writes to again, as
    `ingest.make_windows` cuts from each stream."""

    __slots__ = ("view",)

    def __init__(self, view: np.ndarray):
        if view.flags.writeable or view.dtype != np.float64:
            raise ValueError("only a frozen float64 buffer can be shared")
        self.view = view


def _window_samples(values) -> np.ndarray:
    """What a `SampleWindow` stores: a `_Shared` view as it is, any other
    array as a read-only float copy. A caller's array is copied even when
    it is frozen, since its owner can make it writable again."""
    if isinstance(values, _Shared):
        return values.view
    return _readonly(values)


@dataclass(frozen=True, eq=False)
class SampleWindow:
    """A uniformly sampled scalar channel segment, valid by construction.

    Building one (the constructor or `dataclasses.replace`) raises
    `ValueError` unless all four hold, checked in this order:
    `samples` is one-dimensional; `dt` is positive and finite; there are
    at least MIN_WINDOW_SAMPLES samples; every sample is finite (the
    message names the first that is not). `replace_samples` alone keeps
    non-finite samples, and every analysis stage refuses such a window
    through `require_finite`, which reads what the build found.

    Attributes:
        station_id: opaque identifier of the reporting substation.
        channel: which measured quantity the samples carry.
        t0_ms: UTC timestamp of the first sample, in milliseconds.
        dt: sample interval in seconds (stored, never inferred from
            timestamps, so ingestion decides resampling exactly once).
        samples: sample values, a read-only float array. A window built
            from a caller's array holds a copy of it, so changing that
            array later never changes the window. Gapless windows that
            `make_windows` cuts from one stream are read-only views of one
            frozen buffer per stream, which holds the stream's filled
            slots only, so overlapping windows share memory instead of
            each holding its own copy, and a stream's windows keep alive
            at most its filled values.
    """

    station_id: str
    channel: Channel
    t0_ms: int
    dt: float
    samples: np.ndarray

    #: Index of the first non-finite sample, which only `replace_samples` keeps.
    _missing = None

    def __post_init__(self):
        object.__setattr__(self, "samples", _window_samples(self.samples))
        self._check()
        self.require_finite()

    def _check(self) -> None:
        """Check shape, `dt` and length, in that order; note `_missing`."""
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"sample interval must be a positive finite number, got {self.dt}")
        if self.count < MIN_WINDOW_SAMPLES:
            raise ValueError(f"window has {self.count} samples, need at least {MIN_WINDOW_SAMPLES}")
        finite = np.isfinite(self.samples)
        object.__setattr__(self, "_missing", None if finite.all() else int(np.flatnonzero(~finite)[0]))

    def require_finite(self) -> None:
        """Raise ValueError naming the first non-finite sample, without
        scanning the samples again."""
        if self._missing is not None:
            raise ValueError(f"sample {self._missing} is not finite")

    @property
    def count(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration(self) -> float:
        """Window length in seconds: (count - 1) * dt."""
        return (self.count - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        """Sample times in seconds relative to the window start."""
        return np.arange(self.count) * self.dt

    def replace_samples(self, samples) -> "SampleWindow":
        """New window with the same identity and grid, holding `samples`.
        Unlike `dataclasses.replace` it keeps non-finite samples, which mark
        missing values for `write_archive`; no stage analyses that window."""
        w = copy.copy(self)
        object.__setattr__(w, "samples", _window_samples(samples))
        w._check()
        return w


@dataclass(frozen=True)
class PronyMode:
    """One estimated damped sinusoid  A * exp(damping * t) * cos(2*pi*frequency*t + phase).

    Sign convention: positive damping means the oscillation grows with time
    (the dangerous case). Note that some published mode tables report the
    same quantity with the opposite sign.

    energy_fraction is this mode's share of the reconstruction energy over
    the analyzed window; it only ranks modes and plays no physical role.
    """

    amplitude: float
    damping: float
    frequency: float
    phase: float
    energy_fraction: float = 0.0

    def __post_init__(self):
        if not self.amplitude >= 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not self.frequency >= 0:
            raise ValueError(f"frequency must be >= 0, got {self.frequency}")
        if not math.isfinite(self.damping):
            raise ValueError(f"damping must be finite, got {self.damping}")
        if not (-math.pi < self.phase <= math.pi):
            raise ValueError(f"phase must lie in (-pi, pi], got {self.phase}")
        if not (0.0 <= self.energy_fraction <= 1.0):
            raise ValueError(f"energy_fraction must lie in [0, 1], got {self.energy_fraction}")


@dataclass(frozen=True, eq=False)
class PronyFit:
    """Result of a damped-sinusoid decomposition.

    Attributes:
        order: order of the linear prediction model.
        modes: surviving modes after artifact and amplitude pruning,
            sorted by energy_fraction descending.
        fit_quality: 1 - relative rms reconstruction error, clamped to [0, 1].
    """

    order: int
    modes: tuple[PronyMode, ...]
    fit_quality: float

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))


@dataclass(frozen=True)
class SpectrumPeak:
    """Dominant spectral component: frequency in Hz, peak magnitude in
    signal units (half the tone amplitude under the 1/M normalization),
    and phase in radians from the four-quadrant arctangent."""

    frequency: float
    magnitude: float
    phase: float

    def __post_init__(self):
        if not self.frequency >= 0:
            raise ValueError(f"frequency must be >= 0, got {self.frequency}")
        if not self.magnitude >= 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")


@dataclass(frozen=True)
class AlarmEvent:
    """A cross-validated, classified oscillation finding for the operator.

    An alarm only exists when an estimated mode and a spectral peak agree
    in frequency within the detector's match tolerance.
    """

    station_id: str
    channel: Channel
    t0_ms: int
    duration_s: float
    matched_frequency_hz: float
    prony_mode: PronyMode
    fft_peak: SpectrumPeak
    classes: frozenset[ModeClass]
    growing: bool
    severity: Severity

    def __post_init__(self):
        if not self.classes:
            raise ValueError("alarm class set must be non-empty")
        object.__setattr__(self, "classes", frozenset(self.classes))

    def to_json_dict(self) -> dict:
        return dict(
            vars(self),
            channel=self.channel.value,
            prony_mode=dict(vars(self.prony_mode)),
            fft_peak=dict(vars(self.fft_peak)),
            classes=sorted(c.value for c in self.classes),
            severity=self.severity.value,
        )


def mode_matrix(params, count: int, dt: float) -> np.ndarray:
    """(count, modes) matrix whose column k is the k-th (amplitude, damping,
    frequency, phase) mode of `params` sampled at t = 0, dt, ..."""
    amplitude, damping, frequency, phase = np.array(params, dtype=float).reshape(-1, 4).T
    t = np.arange(count)[:, None] * dt
    return amplitude * np.exp(damping * t) * np.cos(TWO_PI * frequency * t + phase)


@dataclass(frozen=True)
class AnalysisConfig:
    """The pipeline's settable tuning value: the analysis band in Hz, which
    the EMD band-pass keeps and the spectral peak search reads. The fixed
    parts of the recipe are constants beside the stage that uses them
    (prony, emd, detector); the Prony model order is prony's own rule.
    """

    emd_band_hz: tuple[float, float] = (0.1, 2.0)
    #: Fixed, not a field: an alarm mode decaying slower than this (1/s)
    #: still rates Warning.
    slow_decay_threshold: ClassVar[float] = 0.05

    def __post_init__(self):
        lo, hi = self.emd_band_hz
        if not (0 < lo < hi):
            raise ValueError(f"band must satisfy 0 < low < high, got {self.emd_band_hz}")
        object.__setattr__(self, "emd_band_hz", (float(lo), float(hi)))

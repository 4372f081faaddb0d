"""Synthetic damped-sinusoid generation.

Generated windows are the test oracle for the whole pipeline: every tone
parameter is known exactly, so estimator output can be checked against the
closed-form signal. Generation uses the cosine parameterization

    y(t) = sum_n  A_n * exp(sigma_n * t) * cos(2*pi*f_n*t + theta_n)

evaluated by core.mode_matrix, the routine the mode estimator reconstructs
with; a sine tone is a cosine tone with its phase shifted by -pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MIN_WINDOW_SAMPLES, Channel, SampleWindow, mode_matrix


class InvalidSpec(ValueError):
    """A synthesis spec violates its invariants."""


@dataclass(frozen=True)
class ToneSpec:
    """One damped cosine: amplitude, frequency in Hz, phase in radians,
    and damping in 1/s (positive grows, zero for a pure tone)."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    damping: float = 0.0

    def __post_init__(self):
        if not self.amplitude >= 0:
            raise InvalidSpec(f"amplitude must be >= 0, got {self.amplitude}")
        if not self.frequency >= 0:
            raise InvalidSpec(f"frequency must be >= 0, got {self.frequency}")
        for name in ("frequency", "damping", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class SynthSpec:
    """A multi-tone window recipe.

    Noise is zero-mean white Gaussian. Its standard deviation comes either
    from noise_snr_db (relative to the mean power of the noiseless sum) or
    directly from noise_sigma (required for tone-free, noise-only windows).
    """

    tones: tuple[ToneSpec, ...]
    dt: float
    count: int
    noise_snr_db: float | None = None
    noise_sigma: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if self.count < MIN_WINDOW_SAMPLES:
            raise InvalidSpec(f"count must be >= {MIN_WINDOW_SAMPLES}, got {self.count}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InvalidSpec(f"dt must be positive and finite, got {self.dt}")
        if self.noise_snr_db is not None and self.noise_sigma is not None:
            raise InvalidSpec("give either noise_snr_db or noise_sigma, not both")
        # NaN fails every comparison, so it would silently mean no noise
        if self.noise_sigma is not None and not self.noise_sigma >= 0:
            raise InvalidSpec(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.noise_snr_db is not None and math.isnan(self.noise_snr_db):
            raise InvalidSpec("noise_snr_db must be a number, got nan")
        # numpy's default_rng takes no negative seed
        if self.rng_seed < 0:
            raise InvalidSpec(f"rng_seed must be >= 0, got {self.rng_seed}")


@np.errstate(over="ignore", invalid="ignore")
def generate(
    spec: SynthSpec,
    *,
    station_id: str = "synthetic",
    channel: Channel = Channel.Frequency_Hz,
    t0_ms: int = 0,
) -> SampleWindow:
    """Render a SynthSpec into a SampleWindow.

    Deterministic: equal specs produce bitwise-identical windows (noise is
    drawn from a generator seeded with rng_seed).

    Raises:
        InvalidSpec: noise_snr_db given but the tone sum carries no power,
            or a sample is not finite (a tone or the noise overflows float
            range); the message names the first such sample.
    """
    params = [(tone.amplitude, tone.damping, tone.frequency, tone.phase) for tone in spec.tones]
    samples = np.zeros(spec.count)
    # column by column, left to right: a sum over the row would reorder
    # the additions and change the last bit
    for column in mode_matrix(params, spec.count, spec.dt).T:
        samples += column

    sigma = None
    if spec.noise_snr_db is not None:
        power = float(np.mean(samples**2))
        if power <= 0.0:
            raise InvalidSpec("noise_snr_db needs a nonzero tone sum; use noise_sigma instead")
        try:
            ratio = 10.0 ** (spec.noise_snr_db / 10.0)
        except OverflowError:  # past about 3083 dB: as noiseless as inf
            ratio = math.inf
        # a ratio that underflows to 0 means unbounded noise, refused below
        sigma = float(np.sqrt(power / ratio)) if ratio > 0.0 else math.inf
    elif spec.noise_sigma is not None:
        sigma = float(spec.noise_sigma)

    if sigma is not None and sigma > 0.0:
        rng = np.random.default_rng(spec.rng_seed)
        samples = samples + sigma * rng.standard_normal(spec.count)

    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise InvalidSpec(f"synthesised sample {bad[0]} is not finite: the spec overflows float range")
    return SampleWindow(station_id, channel, t0_ms, spec.dt, samples)

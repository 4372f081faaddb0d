"""Discrete Fourier analysis of sample windows and dominant-peak extraction.

Peak picking applies two fixed rules, the module constants MAX_PEAKS and
PEAK_MIN_FRACTION.

Bins follow the 1/M normalization, so a pure in-bin tone of amplitude A
shows |Y(k)| = A/2 at its bin. Any window length is supported; the values,
not the transform algorithm, are the contract.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import SampleWindow, SpectrumPeak, _readonly, wrap_angle


class WindowFunction(str, enum.Enum):
    Rectangular = "rectangular"
    Hann = "hann"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex bins Y(k), k = 0..M-1, scaled by 1/M; df is the bin width."""

    bins: np.ndarray
    df: float

    def __post_init__(self):
        object.__setattr__(self, "bins", _readonly(self.bins, complex))
        if self.df <= 0:
            raise ValueError(f"df must be positive, got {self.df}")

    @property
    def count(self) -> int:
        return int(self.bins.shape[0])

    @property
    def nyquist_hz(self) -> float:
        return 0.5 * self.count * self.df

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.count) * self.df

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.bins)

    @property
    def phases(self) -> np.ndarray:
        """Four-quadrant phase angle per bin."""
        return np.angle(self.bins)

    def one_sided(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frequencies, magnitudes, phases) for bins 0..M//2."""
        k = self.count // 2 + 1
        return self.frequencies[:k], self.magnitudes[:k], self.phases[:k]


def dft(w: SampleWindow, window_fn: WindowFunction = WindowFunction.Rectangular) -> Spectrum:
    """Transform a window into a Spectrum.

    Hann tapering is compensated by the taper's coherent gain (scale by
    M / sum(taper)), so a pure in-bin tone keeps |Y(k)| = A/2 either way.
    """
    w.require_finite()
    y = w.samples
    count = y.size
    if window_fn is WindowFunction.Hann:
        taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(count) / count)
        bins = np.fft.fft(y * taper) / np.sum(taper)
    else:
        bins = np.fft.fft(y) / count
    return Spectrum(bins, 1.0 / (count * w.dt))


def _refine_peak(mags: np.ndarray, k: int, df: float) -> tuple[float, float]:
    """Three-point parabolic interpolation on log magnitude around bin k."""
    left, mid, right = mags[k - 1], mags[k], mags[k + 1]
    if left <= 1e-9 * mid or right <= 1e-9 * mid:
        # shoulders at numerical-dust level: the tone sits on the bin exactly
        return k * df, float(mid)
    la, lb, lg = math.log(left), math.log(mid), math.log(right)
    denom = la - 2.0 * lb + lg
    if denom >= 0.0:
        return k * df, float(mid)
    delta = 0.5 * (la - lg) / denom
    delta = min(0.5, max(-0.5, delta))
    magnitude = math.exp(lb - 0.25 * (la - lg) * delta)
    return (k + delta) * df, magnitude


def check_band_below_nyquist(band_hz: tuple[float, float], nyquist_hz: float) -> None:
    """Refuse a band whose upper edge lies above nyquist_hz; a relative
    slack of 1e-12 lets a band end at a Nyquist frequency computed another
    way (0.5 / dt rather than from the bin width).

    Raises:
        ValueError: the band's upper edge exceeds nyquist_hz.
    """
    hi = band_hz[1]
    if hi > nyquist_hz * (1.0 + 1e-12):
        raise ValueError(f"band upper edge {hi} Hz exceeds Nyquist {nyquist_hz} Hz")


#: At most this many peaks, strongest first, leave find_peaks.
MAX_PEAKS = 10

#: Peaks below this fraction of the band maximum are ignored: band-pass
#: sifting leaks percent-level slow artifacts that Prony would otherwise
#: confirm.
PEAK_MIN_FRACTION = 0.1


def find_peaks(s: Spectrum, band_hz: tuple[float, float]) -> list[SpectrumPeak]:
    """Local magnitude maxima over the one-sided bins inside band_hz,
    refined by parabolic interpolation and sorted by magnitude descending.

    Peaks below PEAK_MIN_FRACTION of the band maximum are discarded; at
    most MAX_PEAKS survive. A band that holds no bin or no peak above the
    threshold gives [], a normal outcome for one window.

    Raises:
        ValueError: band outside [0, Nyquist] or ill-ordered.
    """
    lo, hi = band_hz
    if not (0.0 <= lo <= hi):
        raise ValueError(f"band must satisfy 0 <= low <= high, got {band_hz}")
    check_band_below_nyquist(band_hz, s.nyquist_hz)

    half = s.count // 2
    k_lo = max(0, int(math.ceil(lo / s.df - 1e-9)))
    k_hi = min(half, int(math.floor(hi / s.df + 1e-9)))
    if k_lo > k_hi:
        return []

    mags = s.magnitudes
    threshold = PEAK_MIN_FRACTION * float(np.max(mags[k_lo : k_hi + 1]))
    peaks: list[SpectrumPeak] = []
    for k in range(max(1, k_lo), min(k_hi, s.count - 2) + 1):
        if not (mags[k] > mags[k - 1] and mags[k] >= mags[k + 1]):
            continue
        if mags[k] < threshold or mags[k] <= 0.0:
            continue
        freq, magnitude = _refine_peak(mags, k, s.df)
        freq = min(max(freq, 0.0), s.nyquist_hz)
        peaks.append(SpectrumPeak(freq, magnitude, wrap_angle(float(np.angle(s.bins[k])))))
    peaks.sort(key=lambda p: (-p.magnitude, p.frequency))
    return peaks[:MAX_PEAKS]

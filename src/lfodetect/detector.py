"""Situational-awareness detector.

One window goes through: EMD band-pass, then damped-sinusoid estimation and
spectral peak picking on the same filtered signal, then frequency matching
across the two methods. Only modes confirmed by both routes raise alarms,
which keeps single-method artifacts away from the operator.

Two more gates suppress alarms on noise. They and the match tolerance
are fixed parts of the method, so their thresholds are the module
constants below, not AnalysisConfig fields:
  * the whole fit must reconstruct the filtered window reasonably
    (fit_quality >= MIN_FIT_QUALITY);
  * a candidate mode must persist in independent fits of the two window
    halves (noise modes wander between halves, real modes do not).
Which spectral peaks take part is the peak picker's own rule
(spectrum.MAX_PEAKS and spectrum.PEAK_MIN_FRACTION).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from . import emd, prony, spectrum
from .core import (
    AlarmEvent,
    AnalysisConfig,
    EmptyBand,
    MODE_BANDS,
    ModeClass,
    PronyFit,
    PronyMode,
    SampleWindow,
    Severity,
    SpectrumPeak,
)

logger = logging.getLogger(__name__)

_ESCALATION_CLASSES = frozenset({ModeClass.InterArea, ModeClass.Local})

#: Fits reconstructing the band-passed window worse than this raise no alarm.
MIN_FIT_QUALITY = 0.5

#: A mode and a peak match within the window's Rayleigh limit, 1/duration,
#: but never within less than this (Hz).
MATCH_TOLERANCE_FLOOR_HZ = 0.05


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Everything one window produced: the full-window Prony fit, the
    spectral peaks that took part in matching, and the alarms."""

    prony_fit: PronyFit | None = None
    fft_peaks: tuple[SpectrumPeak, ...] = ()
    alarms: tuple[AlarmEvent, ...] = ()


def classify(frequency_hz: float) -> frozenset[ModeClass]:
    """Every declared band containing the frequency; empty for gap regions
    (below 0.1 Hz and on (8, 10] Hz)."""
    if not frequency_hz >= 0:
        raise ValueError(f"frequency must be >= 0, got {frequency_hz}")
    out = set()
    for mode_class, (lo, hi, lo_inc, hi_inc) in MODE_BANDS.items():
        above = frequency_hz >= lo if lo_inc else frequency_hz > lo
        below = frequency_hz <= hi if hi_inc else frequency_hz < hi
        if above and below:
            out.add(mode_class)
    return frozenset(out)


def match_modes(
    prony_modes,
    peaks,
    tol_hz: float,
) -> list[tuple[PronyMode, SpectrumPeak]]:
    """Greedy frequency matching, strongest mode first.

    Modes are visited in descending energy order; each claims the nearest
    unused peak within tol_hz (ties broken toward the lower-frequency
    peak). Deterministic, each peak used at most once.
    """
    if not 0 < tol_hz < float("inf"):
        raise ValueError(f"tol_hz must be positive and finite, got {tol_hz}")
    ordered = sorted(prony_modes, key=lambda m: (-m.energy_fraction, m.frequency))
    available = list(peaks)
    pairs: list[tuple[PronyMode, SpectrumPeak]] = []
    for mode in ordered:
        best = None
        best_key = None
        for peak in available:
            dist = abs(mode.frequency - peak.frequency)
            if dist > tol_hz:
                continue
            key = (dist, peak.frequency)
            if best_key is None or key < best_key:
                best, best_key = peak, key
        if best is not None:
            available.remove(best)
            pairs.append((mode, best))
    return pairs


def _severity(damping: float, classes: frozenset[ModeClass], cfg: AnalysisConfig) -> Severity:
    if damping > 0:
        return Severity.Critical if classes & _ESCALATION_CLASSES else Severity.Warning
    if abs(damping) < cfg.slow_decay_threshold:
        return Severity.Warning
    return Severity.Info


#: Windows whose halves hold fewer samples skip the stability gate.
_MIN_STABILITY_HALF = 12


def _stable_modes(bp: SampleWindow, modes):
    """Modes whose frequency persists in independent fits of both window
    halves. A half fit that finds too little excitation or whose root
    solver diverges keeps the list unfiltered (degenerate windows are
    already gated by fit quality)."""
    if not modes:
        return modes
    half = bp.count // 2
    if half < _MIN_STABILITY_HALF:
        return modes
    try:
        first = prony.prony_analyze(replace(bp, samples=bp.samples[:half]))
        second = prony.prony_analyze(replace(bp, samples=bp.samples[half:]))
    except (prony.InsufficientExcitation, prony.RootSolverDiverged):
        return modes
    # half windows cannot resolve finer than twice the full-window limit
    tol = max(2.0 / bp.duration, MATCH_TOLERANCE_FLOOR_HZ)
    stable = []
    for mode in modes:
        in_first = any(abs(m.frequency - mode.frequency) <= tol for m in first.modes)
        in_second = any(abs(m.frequency - mode.frequency) <= tol for m in second.modes)
        if in_first and in_second:
            stable.append(mode)
    return stable


def detect(w: SampleWindow, cfg: AnalysisConfig | None = None) -> DetectionReport:
    """Run the full pipeline on one window. Prony fits the window and its
    halves at the automatic order, which every window supports; cfg sets
    only the analysis band.

    An empty band-pass result (nothing inside cfg.emd_band_hz) yields an
    empty report rather than an error.
    """
    cfg = cfg or AnalysisConfig()
    try:
        bp = emd.bandpass(w, cfg)
    except EmptyBand:
        logger.info("%s/%s@%d: nothing inside the analysis band", w.station_id, w.channel.value, w.t0_ms)
        return DetectionReport()

    try:
        fit = prony.prony_analyze(bp)
    except prony.InsufficientExcitation:
        return DetectionReport()

    peaks = spectrum.find_peaks(spectrum.dft(bp, spectrum.WindowFunction.Hann), cfg.emd_band_hz)

    candidates = _stable_modes(bp, fit.modes)
    if fit.fit_quality < MIN_FIT_QUALITY:
        candidates = ()

    pairs = match_modes(candidates, peaks, max(1.0 / w.duration, MATCH_TOLERANCE_FLOOR_HZ))

    alarms = []
    for mode, peak in pairs:
        matched_freq = 0.5 * (mode.frequency + peak.frequency)
        classes = classify(matched_freq)
        if not classes:
            continue
        alarms.append(
            AlarmEvent(
                station_id=w.station_id,
                channel=w.channel,
                t0_ms=w.t0_ms,
                duration_s=w.duration,
                matched_frequency_hz=matched_freq,
                prony_mode=mode,
                fft_peak=peak,
                classes=classes,
                growing=mode.damping > 0,
                severity=_severity(mode.damping, classes, cfg),
            )
        )

    return DetectionReport(fit, tuple(peaks), tuple(alarms))

"""Deterministic benchmark inputs, built with the program's own signal
generator and archive writer.

Every function here takes the run's seed and returns the inputs together with
the synthetic truth the output checks compare against. The program only
ever sees the inputs: sample windows for the library workload, archive
CSV files for the CLI and ingest workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lfodetect as lf

DT = 0.04
FRAMES_PER_S = 25
#: One default CLI window: 25 s at 25 frames/s, both ends included.
WINDOW_SAMPLES = 626
#: Default CLI stride: 5 s.
STRIDE_SAMPLES = 125

DEFAULT_BAND = (0.1, 2.0)


@dataclass(frozen=True)
class Tone:
    """One generated damped cosine: A * exp(damping * t) * cos(2 pi f t + phase)."""

    amplitude: float
    frequency: float
    damping: float
    phase: float = 0.0

    def spec(self) -> lf.ToneSpec:
        return lf.ToneSpec(self.amplitude, self.frequency, phase=self.phase, damping=self.damping)


# --- event_windows ---------------------------------------------------------

#: The acceptance suite's AC1 three-tone mix, phases included.
AC1_TONES = (
    Tone(0.10, 0.52, 0.05, 0.3),
    Tone(0.05, 0.84, -0.20, -1.0),
    Tone(0.02, 1.40, -0.30, 2.0),
)

#: (name, tones, snr_db, analysis band). Single tones get a phase drawn
#: from the seed; tone-free windows carry unit-free white noise so that
#: false alarms have somewhere to happen.
EVENT_CATEGORIES = (
    ("ac1_20db", AC1_TONES, 20.0, DEFAULT_BAND),
    ("ac1_30db", AC1_TONES, 30.0, DEFAULT_BAND),
    ("ac1_40db", AC1_TONES, 40.0, DEFAULT_BAND),
    ("ac1_50db", AC1_TONES, 50.0, DEFAULT_BAND),
    ("growing_0.52hz", (Tone(0.10, 0.52, 0.05),), 40.0, DEFAULT_BAND),
    ("decaying_0.84hz", (Tone(0.07, 0.84, -0.22),), 38.0, DEFAULT_BAND),
    ("control_3.2hz", (Tone(0.05, 3.2, -0.08),), 40.0, lf.CONTROL_HUNT_BAND),
    ("noise_only", (), None, DEFAULT_BAND),
)

#: 8 categories x 25 rounds = 200 windows: one pass already holds enough
#: samples for a p95 with ten beyond it.
EVENT_ROUNDS = 25

_NOISE_ONLY_SIGMA = 0.01


@dataclass(frozen=True)
class EventCase:
    category: str
    samples: np.ndarray
    band: tuple[float, float]
    tones: tuple[Tone, ...]


def event_corpus(seed: int, rounds: int = EVENT_ROUNDS) -> list[EventCase]:
    """Windows of every category, interleaved round by round so that any
    prefix of the list holds the same mix as the whole."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for _ in range(rounds):
        for name, tones, snr_db, band in EVENT_CATEGORIES:
            if tones is not AC1_TONES:
                tones = tuple(
                    Tone(t.amplitude, t.frequency, t.damping, float(rng.uniform(-math.pi, math.pi)))
                    for t in tones
                )
            spec = lf.SynthSpec(
                tones=tuple(t.spec() for t in tones),
                dt=DT,
                count=WINDOW_SAMPLES,
                noise_snr_db=snr_db,
                noise_sigma=None if tones else _NOISE_ONLY_SIGMA,
                rng_seed=int(rng.integers(2**31)),
            )
            cases.append(EventCase(name, np.asarray(lf.generate(spec).samples), band, tones))
    return cases


def save_event_inputs(path: Path, cases: list[EventCase]) -> None:
    """What the program receives: the samples and each window's band."""
    np.savez(
        path,
        samples=np.stack([c.samples for c in cases]),
        band=np.array([c.band for c in cases], dtype=float),
    )


# --- archives ----------------------------------------------------------------

@dataclass(frozen=True)
class Stream:
    station: str
    channel: lf.Channel
    tones: tuple[Tone, ...]
    t0_ms: int
    count: int

    @property
    def window_t0s(self) -> list[int]:
        n = (self.count - WINDOW_SAMPLES) // STRIDE_SAMPLES + 1
        step_ms = STRIDE_SAMPLES * 1000 // FRAMES_PER_S
        return [self.t0_ms + k * step_ms for k in range(max(0, n))]


@dataclass(frozen=True)
class Archive:
    path: Path
    streams: tuple[Stream, ...]
    records: int
    parse_issues: int

    @property
    def window_keys(self) -> list[tuple[str, str, int]]:
        return [
            (s.station, s.channel.value, t0) for s in self.streams for t0 in s.window_t0s
        ]

    def tones_by_window(self) -> dict[tuple[str, str, int], tuple[Tone, ...]]:
        return {
            (s.station, s.channel.value, t0): s.tones for s in self.streams for t0 in s.window_t0s
        }


def _stream_lines(scratch: Path, window: lf.SampleWindow) -> list[str]:
    lf.write_archive(scratch, [window])
    lines = scratch.read_text(encoding="utf-8").splitlines()
    scratch.unlink()
    return lines[1:]


def _interleave(streams_lines: list[list[str]]) -> list[str]:
    """Time-aligned streams merged the way a concentrator writes them:
    every station's sample for one instant, then the next instant."""
    return [line for group in zip(*streams_lines) for line in group]


# --- fleet_archive -------------------------------------------------------------

FLEET_STATIONS = ("ST01", "ST02", "ST03", "ST04")
FLEET_CHANNELS = (lf.Channel.Frequency_Hz, lf.Channel.VoltageMag_pu)
#: The one station whose two channels carry a growing inter-area swing.
FLEET_EVENT_STATION = "ST01"
#: Its lines end in CRLF; everyone else's in LF.
FLEET_CRLF_STATION = "ST03"
FLEET_SECONDS = 35
#: Deviation-from-nominal scale per channel, as `lfodetect synth` writes them.
_FLEET_SCALE = {lf.Channel.Frequency_Hz: 0.01, lf.Channel.VoltageMag_pu: 0.002}
_FLEET_SWING = Tone(1.0, 0.52, 0.05)
_FLEET_SWING_SNR_DB = 40.0
#: Consecutive NaN samples in one quiet stream; the windowing policy
#: interpolates up to 1% of 626 samples, so no window is lost.
FLEET_NAN_RUN = 3
#: Archives a fleet run cycles through. Two, so that a 25 s run repeats
#: each about three times and a window's median time over its repeats
#: is not one slow moment of the host.
FLEET_ARCHIVES = 2
_FLEET_T0_MS = 1_700_000_000_000


def fleet_archive(directory: Path, seed: int, index: int, seconds: int = FLEET_SECONDS) -> Archive:
    """A multi-station, two-channel archive with a few hostile lines the
    parser handles: mixed CRLF endings, a short NaN run and one malformed
    line."""
    rng = np.random.default_rng([seed, 2, index])
    count = seconds * FRAMES_PER_S + 1
    t0_ms = _FLEET_T0_MS + index * 3_600_000
    nan_stream = (FLEET_STATIONS[1], FLEET_CHANNELS[1])
    streams, lines = [], []
    scratch = directory / f"fleet-{index}.part"
    for station in FLEET_STATIONS:
        for channel in FLEET_CHANNELS:
            scale = _FLEET_SCALE[channel]
            tones: tuple[Tone, ...] = ()
            if station == FLEET_EVENT_STATION:
                tones = (Tone(scale * _FLEET_SWING.amplitude, _FLEET_SWING.frequency,
                              _FLEET_SWING.damping, float(rng.uniform(-math.pi, math.pi))),)
            spec = lf.SynthSpec(
                tones=tuple(t.spec() for t in tones),
                dt=DT,
                count=count,
                noise_snr_db=_FLEET_SWING_SNR_DB if tones else None,
                noise_sigma=None if tones else scale,
                rng_seed=int(rng.integers(2**31)),
            )
            window = lf.generate(spec, station_id=station, channel=channel, t0_ms=t0_ms)
            if (station, channel) == nan_stream:
                samples = np.array(window.samples)
                start = int(rng.integers(WINDOW_SAMPLES // 4, count - WINDOW_SAMPLES // 4))
                samples[start : start + FLEET_NAN_RUN] = np.nan
                window = window.replace_samples(samples)
            ending = "\r\n" if station == FLEET_CRLF_STATION else "\n"
            lines.append([line + ending for line in _stream_lines(scratch, window)])
            streams.append(Stream(station, channel, tones, t0_ms, count))
    body = _interleave(lines)
    middle = len(body) // 2
    malformed = f"{body[middle].split(',')[0]},{FLEET_STATIONS[2]},{FLEET_CHANNELS[0].value}\n"
    body.insert(middle, malformed)
    path = directory / f"fleet-{index}.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("timestamp_ms,station_id,channel,value\n")
        handle.writelines(body)
    return Archive(path, tuple(streams), records=len(streams) * count,
                   parse_issues=1 + FLEET_NAN_RUN)


# --- bulk_ingest ------------------------------------------------------------

BULK_STATIONS = ("ST01", "ST02")
BULK_HOURS = 2.0
_BULK_T0_MS = 1_700_000_000_000


def bulk_archive(directory: Path, seed: int, hours: float = BULK_HOURS) -> Archive:
    """A multi-hour, multi-station frequency archive: ambient noise plus a
    weak sustained swing, as a quiet grid records it."""
    rng = np.random.default_rng([seed, 3])
    count = int(round(hours * 3600 * FRAMES_PER_S)) + 1
    streams, lines = [], []
    scratch = directory / "bulk.part"
    for station in BULK_STATIONS:
        tones = (Tone(0.004, float(rng.uniform(0.2, 0.9)), 0.0, float(rng.uniform(-math.pi, math.pi))),)
        spec = lf.SynthSpec(tones=tuple(t.spec() for t in tones), dt=DT, count=count,
                            noise_snr_db=10.0, rng_seed=int(rng.integers(2**31)))
        window = lf.generate(spec, station_id=station, t0_ms=_BULK_T0_MS)
        lines.append([line + "\n" for line in _stream_lines(scratch, window)])
        streams.append(Stream(station, lf.Channel.Frequency_Hz, tones, _BULK_T0_MS, count))
    path = directory / "bulk.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("timestamp_ms,station_id,channel,value\n")
        handle.writelines(_interleave(lines))
    return Archive(path, tuple(streams), records=len(streams) * count, parse_issues=0)

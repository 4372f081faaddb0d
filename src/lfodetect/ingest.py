"""PMU archive reading and fixed-length window assembly.

Archive format: UTF-8 CSV with the exact header
``timestamp_ms,station_id,channel,value``, one record per line, ``.`` as
the decimal separator, LF or CRLF line endings. One UTF-8 byte-order mark
before the header is dropped; a U+FEFF anywhere else is data. A data line
that is not valid UTF-8 is skipped and noted like any malformed line.
Windowing is timestamp-driven: records are snapped onto the expected
sample grid, so permuting the input order never changes the emitted
windows.
"""

from __future__ import annotations

import logging
import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import Channel, SampleWindow

logger = logging.getLogger(__name__)

ARCHIVE_HEADER = "timestamp_ms,station_id,channel,value"

#: Undecodable bytes, as the ``surrogateescape`` error handler maps them.
#: Valid UTF-8 never decodes to a surrogate code point.
_UNDECODABLE = re.compile("[\udc80-\udcff]")

#: A record farther than this fraction of dt from its grid slot is treated
#: as irregular (the slot stays missing).
_SLOT_TOLERANCE = 0.1


class FileUnreadable(OSError):
    """Archive file cannot be opened."""


class SchemaMismatch(ValueError):
    """Archive header line does not match the expected schema."""


class DtMismatch(ValueError):
    """Median record spacing disagrees with the configured sample interval."""


@dataclass(frozen=True)
class ArchiveRecord:
    """One archive line; value None marks an explicitly missing sample."""

    timestamp_ms: int
    station_id: str
    channel: Channel
    value: float | None


@dataclass(frozen=True)
class WindowingPolicy:
    """How to cut per-channel streams into analysis windows.

    Defaults: 25 s windows advancing by 5 s over 25 frames/s data, with at
    most 1% of a window missing or irregular.
    """

    window_seconds: float = 25.0
    stride_seconds: float = 5.0
    expected_dt: float = 0.04
    max_gap_fraction: float = 0.01

    def __post_init__(self):
        if self.expected_dt <= 0:
            raise ValueError(f"expected_dt must be positive, got {self.expected_dt}")
        if not (0 < self.stride_seconds <= self.window_seconds):
            raise ValueError("stride must satisfy 0 < stride <= window")
        if not (0 <= self.max_gap_fraction < 1):
            raise ValueError("max_gap_fraction must lie in [0, 1)")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_seconds / self.expected_dt)) + 1

    @property
    def stride_samples(self) -> int:
        return max(1, int(round(self.stride_seconds / self.expected_dt)))


@dataclass
class ParseReport:
    """Per-line problems collected while reading an archive."""

    issues: list[str] = field(default_factory=list)
    missing_values: int = 0

    def note(self, line_no: int, message: str) -> None:
        self.issues.append(f"line {line_no}: {message}")


def read_archive(path, report: ParseReport | None = None) -> Iterator[ArchiveRecord]:
    """Yield records in file order.

    Malformed lines, including lines that are not valid UTF-8, are skipped
    and noted in `report` (with line numbers); non-finite values yield
    records marked missing. The stream never aborts on bad lines.

    Raises:
        FileUnreadable: file cannot be opened.
        SchemaMismatch: header line is wrong or not valid UTF-8.
    """
    path = Path(path)
    try:
        handle = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise FileUnreadable(f"cannot open archive {path}: {exc}") from exc
    # spreadsheet tools save CSV with a byte-order mark, which str.strip keeps
    header = handle.readline().removeprefix("\ufeff").strip("\r\n").strip()
    if header != ARCHIVE_HEADER:
        handle.close()
        if _UNDECODABLE.search(header):
            raise SchemaMismatch("archive header is not valid UTF-8")
        raise SchemaMismatch(f"expected header {ARCHIVE_HEADER!r}, got {header!r}")

    def records() -> Iterator[ArchiveRecord]:
        with handle:
            for line_no, line in enumerate(handle, start=2):
                if not line.isascii() and _UNDECODABLE.search(line):
                    if report is not None:
                        report.note(line_no, "not valid UTF-8")
                    continue
                line = line.strip("\r\n")
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    if report is not None:
                        report.note(line_no, f"expected 4 fields, got {len(parts)}")
                    continue
                ts_text, station, channel_text, value_text = (p.strip() for p in parts)
                try:
                    ts = int(ts_text)
                except ValueError:
                    if report is not None:
                        report.note(line_no, f"bad timestamp {ts_text!r}")
                    continue
                try:
                    channel = Channel(channel_text)
                except ValueError:
                    if report is not None:
                        report.note(line_no, f"unknown channel {channel_text!r}")
                    continue
                try:
                    value: float | None = float(value_text)
                except ValueError:
                    if report is not None:
                        report.note(line_no, f"bad value {value_text!r}")
                    continue
                if not math.isfinite(value):
                    if report is not None:
                        report.note(line_no, f"non-finite value {value_text!r} marked missing")
                        report.missing_values += 1
                    value = None
                yield ArchiveRecord(ts, station, channel, value)

    return records()


def make_windows(
    records: Iterable[ArchiveRecord],
    policy: WindowingPolicy | None = None,
    diagnostics: list[str] | None = None,
) -> list[SampleWindow]:
    """Assemble fixed-length windows per (station, channel) stream.

    Records are sorted by timestamp and snapped onto a uniform grid of
    expected_dt; windows of window_samples advance by stride_samples.
    Missing or irregular slots up to max_gap_fraction of a window are
    linearly interpolated; beyond that the window is skipped with a
    diagnostic. Emitted windows are ordered by (station, channel, t0).

    Raises:
        DtMismatch: a stream's median spacing deviates from expected_dt by
            more than 10%.
    """
    policy = policy or WindowingPolicy()
    streams: dict[tuple[str, str], list[ArchiveRecord]] = {}
    for rec in records:
        streams.setdefault((rec.station_id, rec.channel.value), []).append(rec)

    dt_ms = policy.expected_dt * 1000.0
    windows: list[SampleWindow] = []
    for (station, channel_value) in sorted(streams):
        recs = streams[(station, channel_value)]
        # deterministic under input permutation: full sort, first record wins a slot
        recs.sort(key=lambda r: (r.timestamp_ms, r.value is None, r.value or 0.0))
        ts = np.array([r.timestamp_ms for r in recs], dtype=float)
        if ts.size < 2:
            continue
        spacing = float(np.median(np.diff(ts)))
        if abs(spacing - dt_ms) > 0.1 * dt_ms:
            raise DtMismatch(
                f"stream {station}/{channel_value}: median spacing {spacing:.3f} ms "
                f"deviates from expected {dt_ms:.3f} ms by more than 10%"
            )
        t_start = recs[0].timestamp_ms
        n_slots = int(round((ts[-1] - t_start) / dt_ms)) + 1
        values = np.full(n_slots, np.nan)
        filled = np.zeros(n_slots, dtype=bool)
        for rec in recs:
            slot = int(round((rec.timestamp_ms - t_start) / dt_ms))
            if slot < 0 or slot >= n_slots or filled[slot]:
                continue
            if abs(rec.timestamp_ms - (t_start + slot * dt_ms)) > _SLOT_TOLERANCE * dt_ms:
                continue  # irregular: leave the slot missing
            if rec.value is None:
                filled[slot] = True  # explicitly missing; keep NaN
                continue
            values[slot] = rec.value
            filled[slot] = True

        width = policy.window_samples
        channel = Channel(channel_value)
        start = 0
        while start + width <= n_slots:
            segment = values[start : start + width]
            missing = np.isnan(segment)
            n_missing = int(missing.sum())
            t0 = int(round(t_start + start * dt_ms))
            if n_missing / width > policy.max_gap_fraction:
                message = (
                    f"stream {station}/{channel_value}: window t0={t0} skipped, "
                    f"{n_missing}/{width} samples missing"
                )
                logger.warning(message)
                if diagnostics is not None:
                    diagnostics.append(message)
            else:
                if n_missing:
                    idx = np.arange(width)
                    segment = np.interp(idx, idx[~missing], segment[~missing])
                windows.append(SampleWindow(station, channel, t0, policy.expected_dt, segment))
            start += policy.stride_samples
    return windows


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Replace `path` with the concatenated text `chunks` by way of a unique
    temp file in the same directory, synced to disk before the rename, so
    readers never see a partial file, a crash never leaves an empty one and
    concurrent writers never share a temp file."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_archive(path, windows: Iterable[SampleWindow]) -> None:
    """Write windows as archive CSV, atomically and durably (see
    `_atomic_write`).

    Values are formatted with 17 significant digits so a read-back
    reproduces them bit for bit.
    """

    def lines() -> Iterator[str]:
        yield ARCHIVE_HEADER + "\n"
        for w in windows:
            base = w.t0_ms
            dt_ms = w.dt * 1000.0
            for m, value in enumerate(w.samples):
                ts = base + int(round(m * dt_ms))
                yield f"{ts},{w.station_id},{w.channel.value},{value:.17g}\n"

    _atomic_write(Path(path), lines())

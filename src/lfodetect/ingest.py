"""PMU archive reading and fixed-length window assembly.

Archive format: UTF-8 CSV with the exact header
``timestamp_ms,station_id,channel,value``, one record per line, ``.`` as
the decimal separator, LF or CRLF line endings. One UTF-8 byte-order mark
before the header is dropped; a U+FEFF anywhere else is data. A data line
that is not valid UTF-8, or whose timestamp is not an integer that fits in
int64, is skipped and noted like any malformed line.
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
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import MIN_WINDOW_SAMPLES, Channel, SampleWindow, _Shared

logger = logging.getLogger(__name__)

ARCHIVE_HEADER = "timestamp_ms,station_id,channel,value"

#: Undecodable bytes, as the ``surrogateescape`` error handler maps them.
#: Valid UTF-8 never decodes to a surrogate code point.
_UNDECODABLE = re.compile("[\udc80-\udcff]")

#: A record farther than this fraction of dt from its grid slot is treated
#: as irregular (the slot stays missing).
_SLOT_TOLERANCE = 0.1

#: Most of a window that may be missing or irregular and interpolated;
#: a window with more is skipped.
MAX_GAP_FRACTION = 0.01

#: Timestamps are windowed as int64; a line whose timestamp does not fit
#: is a bad timestamp.
_TIMESTAMP_MIN, _TIMESTAMP_MAX = -(2**63), 2**63 - 1

_CHANNELS = {c.value: c for c in Channel}


class SchemaMismatch(ValueError):
    """Archive header line does not match the expected schema."""


class DtMismatch(ValueError):
    """Median record spacing disagrees with the configured sample interval."""


class ArchiveRecord(NamedTuple):
    """One archive line; value None marks an explicitly missing sample."""

    timestamp_ms: int
    station_id: str
    channel: Channel
    value: float | None


@dataclass(frozen=True)
class WindowingPolicy:
    """How to cut per-channel streams into analysis windows.

    Defaults: 25 s windows advancing by 5 s over 25 frames/s data. At most
    MAX_GAP_FRACTION of a window may be missing or irregular.
    """

    window_seconds: float = 25.0
    stride_seconds: float = 5.0
    expected_dt: float = 0.04

    def __post_init__(self):
        for name in ("window_seconds", "stride_seconds", "expected_dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.expected_dt <= 0:
            raise ValueError(f"expected_dt must be positive, got {self.expected_dt}")
        if not (0 < self.stride_seconds <= self.window_seconds):
            raise ValueError("stride must satisfy 0 < stride <= window")
        if not math.isfinite(self.window_seconds / self.expected_dt):
            raise ValueError("window_seconds / expected_dt must be finite")
        if self.window_samples < MIN_WINDOW_SAMPLES:
            raise ValueError(f"a window must hold at least {MIN_WINDOW_SAMPLES} samples, got {self.window_samples}")

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

    def note(self, line_no: int, message: str) -> None:
        self.issues.append(f"line {line_no}: {message}")


def read_archive(path, report: ParseReport | None = None) -> Iterator[ArchiveRecord]:
    """Yield records in file order, lazily.

    Malformed lines, including lines that are not valid UTF-8 and
    timestamps outside int64, are skipped and noted in `report` (with line
    numbers; a throwaway one when none is given); non-finite values yield
    records marked missing. The stream never aborts on bad lines.
    A line whose timestamp field is the same text as the previous
    timestamp field read takes that field's int and verdict, so the
    records of an archive written instant by instant share one int per
    instant; a bad timestamp is noted on every line that carries it.

    Raises:
        OSError: file cannot be opened.
        SchemaMismatch: header line is wrong or not valid UTF-8.
    """
    path = Path(path)
    report = ParseReport() if report is None else report
    try:
        handle = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise OSError(f"cannot open archive {path}: {exc}") from exc
    # spreadsheet tools save CSV with a byte-order mark, which str.strip keeps
    header = handle.readline().removeprefix("\ufeff").strip("\r\n").strip()
    if header != ARCHIVE_HEADER:
        handle.close()
        if _UNDECODABLE.search(header):
            raise SchemaMismatch("archive header is not valid UTF-8")
        raise SchemaMismatch(f"expected header {ARCHIVE_HEADER!r}, got {header!r}")

    def records() -> Iterator[ArchiveRecord]:
        channels, isfinite, new, note = _CHANNELS, math.isfinite, tuple.__new__, report.note
        stations: dict[str, str] = {}  # one str object per station, not per record
        last_ts_text = ts_text = ts = None
        with handle:
            for line_no, line in enumerate(handle, start=2):
                if not line.isascii() and _UNDECODABLE.search(line):
                    note(line_no, "not valid UTF-8")
                    continue
                try:
                    # the line ending stays on value_text until its strip()
                    raw_ts, station, channel_text, value_text = line.split(",")
                except ValueError:
                    if line.strip():  # blank lines are not noted
                        note(line_no, f"expected 4 fields, got {line.count(',') + 1}")
                    continue
                if raw_ts != last_ts_text:  # else the previous stamp's int and verdict stand
                    last_ts_text, ts_text = raw_ts, raw_ts.strip()
                    try:
                        ts = int(ts_text)
                        if not _TIMESTAMP_MIN <= ts <= _TIMESTAMP_MAX:
                            ts = None
                    except ValueError:
                        ts = None
                if ts is None:
                    note(line_no, f"bad timestamp {ts_text!r}")
                    continue
                channel_text = channel_text.strip()
                channel = channels.get(channel_text)
                if channel is None:
                    note(line_no, f"unknown channel {channel_text!r}")
                    continue
                value_text = value_text.strip()
                try:
                    value: float | None = float(value_text)
                except ValueError:
                    note(line_no, f"bad value {value_text!r}")
                    continue
                if not isfinite(value):
                    note(line_no, f"non-finite value {value_text!r} marked missing")
                    value = None
                station = station.strip()
                station = stations.setdefault(station, station)
                # tuple.__new__ skips the generated ArchiveRecord.__new__
                yield new(ArchiveRecord, (ts, station, channel, value))

    return records()


def make_windows(
    records: Iterable[ArchiveRecord],
    policy: WindowingPolicy | None = None,
    diagnostics: list[str] | None = None,
) -> list[SampleWindow]:
    """Assemble fixed-length windows per (station, channel) stream.

    Records are sorted by timestamp and snapped onto a uniform grid of
    expected_dt; windows of window_samples advance by stride_samples.
    Missing or irregular slots up to MAX_GAP_FRACTION (1%) of a window are
    linearly interpolated; beyond that the window is skipped with a
    diagnostic, as is a window whose interpolation overflows (between
    values near float's limit). Windows that hold no sample at all, as in
    an outage or between a stream and an outlier timestamp, are never
    built: each stretch of them is one diagnostic that gives its count
    and its first and last t0. Emitted windows are ordered by (station,
    channel, t0).
    As records arrive, each stream keeps only their timestamps and values
    in two typed buffers, 16 bytes a record (a missing value as NaN), so
    a record streamed in, as from `read_archive`, is freed once appended.
    Streams are then windowed one at a time, and a stream's buffers are
    freed when its records are sorted. Each stream is held as its filled
    slots and their values, so an outage costs no memory. The values are
    frozen, and every gapless window is a read-only view of them;
    interpolated windows own their samples. A view keeps all of the
    stream's values alive, so a stream whose gapless windows hold fewer
    samples in all than it has filled slots gives each window a copy
    instead: views never hold more memory than copies would.
    Timestamps must fit in int64, as `read_archive` ensures.

    Raises:
        TypeError: a record's timestamp_ms is not an int, or its value is
            neither None nor a real number (a str, say); the message names
            the stream, the field and the value.
        ValueError: a record's timestamp_ms is an int outside int64, or its
            value an int past float range; the message names the stream,
            the field and the value (an int too long to print by its
            digit count).
        DtMismatch: a stream's median spacing deviates from expected_dt by
            more than 10%.
    """
    policy = policy or WindowingPolicy()
    streams = _typed_streams(records)
    windows: list[SampleWindow] = []
    for key in sorted(streams, key=lambda k: (k[0], k[1].value)):
        # popped, and emptied by _filled_slots, so a stream's buffers go at
        # its sort, before the next stream's arrays
        windows += _stream_windows(*key, streams.pop(key), policy, diagnostics)
    return windows


def _typed_streams(records: Iterable[ArchiveRecord]) -> dict[tuple[str, Channel], list[array]]:
    """Each (station, channel) stream's [stamps, values] buffers, int64 and
    float64, in arrival order; a missing value is NaN. The records
    themselves are not kept."""
    nan = math.nan
    streams: dict[tuple[str, Channel], list[array]] = {}
    for ts, station, channel, value in records:
        buffers = streams.get((station, channel))
        if buffers is None:
            buffers = streams[station, channel] = [array("q"), array("d")]
        stamps, values = buffers
        try:
            stamps.append(ts)
        except TypeError:
            raise _bad_field(station, channel, "timestamp_ms", "an int", ts) from None
        except OverflowError:
            raise _bad_field(station, channel, "timestamp_ms", "an int within int64", ts, ValueError) from None
        try:
            values.append(nan if value is None else value)
        except TypeError:
            raise _bad_field(station, channel, "value", "None or a real number", value) from None
        except OverflowError:
            raise _bad_field(station, channel, "value", "within float range", value, ValueError) from None
    return streams


def _bad_field(station: str, channel: Channel, name: str, kind: str, value, error=TypeError) -> Exception:
    return error(f"stream {station}/{channel.value}: {name} must be {kind}, got {_shown(value)}")


def _shown(value) -> str:
    """`repr(value)`, or an int's digit count where the int is too long
    for Python to convert to text (over 4300 digits by default)."""
    try:
        return repr(value)
    except ValueError:
        size = abs(value)
        # the digit count is this estimate or one more
        digits = int(size.bit_length() * math.log10(2))
        return f"an int of {digits + (size >= 10**digits)} digits"


def _stream_windows(
    station: str,
    channel: Channel,
    buffers: list[array],
    policy: WindowingPolicy,
    diagnostics: list[str] | None,
) -> list[SampleWindow]:
    """The windows of one stream, as `make_windows` describes them, from its
    [stamps, values] buffers, which `_filled_slots` empties."""
    if len(buffers[0]) < 2:
        return []
    dt_ms = policy.expected_dt * 1000.0
    t_start, n_slots, slots, values = _filled_slots(station, channel, buffers, dt_ms)
    width, stride = policy.window_samples, policy.stride_samples
    if n_slots < width:
        # no full window; the slot arithmetic below would overflow int64
        # for a width past it
        return []
    values.flags.writeable = False

    g_last = (n_slots - width) // stride  # the last full window's grid index
    grid = _held_windows(slots, width, stride, g_last)
    starts = grid * stride
    # a window's filled slots are one run of `slots`, two binary searches apart
    firsts = np.searchsorted(slots, starts)
    counts = width - (np.searchsorted(slots, starts + width) - firsts)
    # views keep the whole buffer alive, so the stream is shared only where
    # its gapless windows' copies would hold as much
    share = np.count_nonzero(counts == 0) * width >= values.size
    windows = []

    def t0_of(g: int) -> int:
        return int(round(t_start + g * stride * dt_ms))

    def skip(message: str) -> None:
        message = f"stream {station}/{channel.value}: {message}"
        logger.warning(message)
        if diagnostics is not None:
            diagnostics.append(message)

    def skip_empty(g_from: int, g_to: int) -> None:
        if g_to >= g_from:
            skip(f"{g_to - g_from + 1} windows t0={t0_of(g_from)}..{t0_of(g_to)} skipped, no samples")

    next_g = 0
    for g, first, n_missing in zip(grid.tolist(), firsts.tolist(), counts.tolist()):
        skip_empty(next_g, g - 1)
        next_g = g + 1
        start, t0 = g * stride, t0_of(g)
        if n_missing / width > MAX_GAP_FRACTION:
            skip(f"window t0={t0} skipped, {n_missing}/{width} samples missing")
            continue
        last = first + width - n_missing
        segment = values[first:last]
        if n_missing:
            # gapless windows are slices of finite values, never overflowed
            segment = np.interp(np.arange(width), slots[first:last] - start, segment)
            overflow = np.flatnonzero(~np.isfinite(segment))
            if overflow.size:
                skip(f"window t0={t0} skipped, interpolated sample {overflow[0]} is not finite")
                continue
            segment.flags.writeable = False
        if n_missing or share:
            segment = _Shared(segment)
        windows.append(SampleWindow(station, channel, t0, policy.expected_dt, segment))
    skip_empty(next_g, g_last)
    return windows


def _held_windows(slots: np.ndarray, width: int, stride: int, last: int) -> np.ndarray:
    """Ascending grid indices g, 0 <= g <= last, of the windows (slots
    g * stride to g * stride + width - 1) that hold at least one of the
    filled `slots`, without enumerating the span between them: a run of
    filled slots a..b reaches g = ceil((a - width + 1) / stride) to
    b // stride, and runs whose reaches overlap or touch merge."""
    if not slots.size:
        return slots
    heads = np.flatnonzero(np.diff(slots) != 1) + 1
    lo = np.maximum(-((width - 1 - slots[np.r_[0, heads]]) // stride), 0)
    hi = np.minimum(slots[np.r_[heads - 1, slots.size - 1]] // stride, last)
    # both ascend, so a merged reach ends at its last run's end; a reach
    # past the last full window is empty
    new = np.r_[True, lo[1:] > hi[:-1] + 1]
    lo, hi = lo[new], hi[np.r_[new[1:], True]]
    sizes = np.maximum(hi - lo + 1, 0)
    return np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _filled_slots(
    station: str, channel: Channel, buffers: list[array], dt_ms: float
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(grid anchor timestamp, slots spanned, filled slots ascending, their
    values) of a stream of two or more records, from its [stamps, values]
    buffers; a slot is filled when its first regular record has a value.
    The buffers are taken out of the list and read without a copy, so
    they are freed once the records are sorted. Every temporary is
    released at its last use: the sort order and absent mask once the
    records are sorted, the phase bins once counted, the shifted stamps
    once scaled, the float stamps once measured against their slots. The
    slot arithmetic runs in place, so at most five arrays of the stream's
    length are alive at once.

    Raises:
        DtMismatch: the median spacing deviates from dt_ms by more than 10%.
    """
    vals = np.frombuffer(buffers.pop(), dtype=float)  # a missing value is NaN
    stamps = np.frombuffer(buffers.pop(), dtype=np.int64)
    absent = np.isnan(vals)
    # deterministic under input permutation: a stable sort by (timestamp,
    # missing last, value), then the first regular record wins a slot
    order = np.lexsort((np.where(absent, 0.0, vals), absent, stamps))
    del absent
    stamps = stamps[order]
    vals = vals[order]
    del order
    # anchor on the grid most records share: phases against the first record
    # fall in ten bins a slot tolerance wide; a bin holding more records than
    # the first and last together (the first record's grid) anchors instead.
    # Sorted stamps differ by less than 2**64 ms, so the uint64 view of
    # their difference is exact where int64 wraps, here and below.
    bins = np.remainder((stamps - stamps[0]).view(np.uint64), dt_ms) / (_SLOT_TOLERANCE * dt_ms)
    bins = np.minimum(bins, 9, out=bins).astype(np.intp)
    counts = np.bincount(bins, minlength=10)
    first = int(np.argmax(bins == np.argmax(counts))) if counts.max() > counts[0] + counts[9] else 0
    del bins
    ts = stamps.astype(float)
    spacing = _median(np.diff(ts))
    if abs(spacing - dt_ms) > 0.1 * dt_ms:
        raise DtMismatch(
            f"stream {station}/{channel.value}: median spacing {spacing:.3f} ms "
            f"deviates from expected {dt_ms:.3f} ms by more than 10%"
        )
    stamps, vals, ts = stamps[first:], vals[first:], ts[first:]
    t_start = int(stamps[0])
    n_slots = int(round((ts[-1] - t_start) / dt_ms)) + 1
    # the per-record rule in array form: slot = round((ts - t_start) / dt),
    # half to even, and a record off its slot by more than the tolerance
    # is irregular and leaves the slot missing.
    stamps -= t_start
    buf = stamps.view(np.uint64).astype(float)
    del stamps
    buf /= dt_ms
    slots = np.rint(buf, out=buf).astype(np.int64)
    # the off-slot distance |ts - (t_start + slot * dt)|, in the same buffer
    np.multiply(slots, dt_ms, out=buf)
    buf += float(t_start)
    np.abs(np.subtract(ts, buf, out=buf), out=buf)
    del ts
    regular = (slots < n_slots) & ~(buf > _SLOT_TOLERANCE * dt_ms)
    del buf
    slots, vals = slots[regular], vals[regular]
    # slots ascend with the sorted stamps, so a slot's first regular record
    # opens its run; the slot is filled when that record has a value
    keep = ~np.isnan(vals)
    keep[1:] &= slots[1:] != slots[:-1]
    return t_start, n_slots, slots[keep], vals[keep]


def _median(a: np.ndarray) -> float:
    """The median of a non-empty array of finite floats, which it reorders:
    the middle value, or the mean of the middle two, bit for bit what
    `np.median` gives, without the numpy.ma import that it costs."""
    mid = a.size // 2
    if a.size % 2:
        a.partition(mid)
        return float(a[mid])
    a.partition((mid - 1, mid))
    return (float(a[mid - 1]) + float(a[mid])) / 2.0


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

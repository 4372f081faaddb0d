import dataclasses
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfodetect import (
    ArchiveRecord,
    Channel,
    DtMismatch,
    ParseReport,
    SchemaMismatch,
    SynthSpec,
    ToneSpec,
    WindowingPolicy,
    generate,
    make_windows,
    read_archive,
    write_archive,
)
from lfodetect import ingest

HEADER = "timestamp_ms,station_id,channel,value"


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadArchive:
    def test_three_valid_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "0,s1,Frequency_Hz,50.01", "40,s1,Frequency_Hz,50.02", "80,s1,Frequency_Hz,50.0"])
        report = ParseReport()
        records = list(read_archive(p, report))
        assert len(records) == 3
        assert report.issues == []
        assert records[0] == ArchiveRecord(0, "s1", Channel.Frequency_Hz, 50.01)

    def test_nan_value_marked_missing(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "0,s1,Frequency_Hz,NaN", "40,s1,Frequency_Hz,50.0"])
        report = ParseReport()
        records = list(read_archive(p, report))
        assert records[0].value is None
        assert records[1].value == 50.0
        assert sum("marked missing" in issue for issue in report.issues) == 1
        assert "line 2" in report.issues[0]

    def test_malformed_lines_skipped_not_fatal(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "garbage", "40,s1,Frequency_Hz,50.0", "80,s1,BadChannel,1.0", "x,s1,Frequency_Hz,1.0"])
        report = ParseReport()
        records = list(read_archive(p, report))
        assert len(records) == 1
        assert len(report.issues) == 3

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, ["time,station,chan,val", "0,s1,Frequency_Hz,1.0"])
        with pytest.raises(SchemaMismatch):
            read_archive(p)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(OSError, match=f"^cannot open archive {re.escape(str(path))}: ") as exc:
            read_archive(path)
        assert isinstance(exc.value.__cause__, FileNotFoundError)

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"timestamp_ms,station_id,channel,value\r\n0,s1,Frequency_Hz,1.5\r\n")
        records = list(read_archive(p))
        assert records[0].value == 1.5

    @pytest.mark.parametrize(
        "bad_line",
        [b"40,s1,Frequency_Hz,50.02\xff\xfe", b"40,s\xff1,Frequency_Hz,50.02", b"\xe2\x82"],
        ids=["value", "station", "truncated-sequence"],
    )
    def test_invalid_utf8_line_skipped_and_noted(self, tmp_path, bad_line):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\n".join([HEADER.encode(), b"0,s1,Frequency_Hz,50.01", bad_line, b"80,s1,Frequency_Hz,50.0", b""]))
        report = ParseReport()
        records = list(read_archive(p, report))
        assert [(r.timestamp_ms, r.station_id, r.value) for r in records] == [(0, "s1", 50.01), (80, "s1", 50.0)]
        assert report.issues == ["line 3: not valid UTF-8"]

    def test_non_ascii_utf8_is_not_flagged(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "0,Zürich-\ufffd,Frequency_Hz,50.01"])
        report = ParseReport()
        records = list(read_archive(p, report))
        assert records[0].station_id == "Zürich-\ufffd"
        assert report.issues == []

    def test_undecodable_header_is_schema_mismatch(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(HEADER.encode() + b"\xff\xfe\n0,s1,Frequency_Hz,1.0\n")
        with pytest.raises(SchemaMismatch, match="not valid UTF-8"):
            read_archive(p)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_leading_byte_order_mark_dropped(self, tmp_path, newline):
        p = tmp_path / "a.csv"
        lines = [HEADER.encode(), b"0,s1,Frequency_Hz,1.5", b"40,s1,Frequency_Hz,2.5", b""]
        p.write_bytes(b"\xef\xbb\xbf" + newline.join(lines))
        report = ParseReport()
        records = list(read_archive(p, report))
        assert records == [
            ArchiveRecord(0, "s1", Channel.Frequency_Hz, 1.5),
            ArchiveRecord(40, "s1", Channel.Frequency_Hz, 2.5),
        ]
        assert report.issues == []

    def test_byte_order_mark_before_wrong_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\xef\xbb\xbftime,station,chan,val\n0,s1,Frequency_Hz,1.0\n")
        with pytest.raises(SchemaMismatch):
            read_archive(p)

    def test_only_one_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\xef\xbb\xbf" * 2 + HEADER.encode() + b"\n0,s1,Frequency_Hz,1.0\n")
        with pytest.raises(SchemaMismatch):
            read_archive(p)

    def test_byte_order_mark_inside_data_is_data(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "0,\ufeffs1,Frequency_Hz,1.0"])
        (record,) = read_archive(p)
        assert record.station_id == "\ufeffs1"

    @pytest.mark.parametrize(
        "text",
        ["99999999999999999999999", "9223372036854775808", "-9223372036854775809", " 18446744073709551616 "],
    )
    def test_timestamp_outside_int64_is_bad_timestamp(self, tmp_path, text):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "0,s1,Frequency_Hz,1.0", f"{text},s1,Frequency_Hz,0.0", "40,s1,Frequency_Hz,2.0"])
        report = ParseReport()
        records = list(read_archive(p, report))
        assert [r.timestamp_ms for r in records] == [0, 40]
        assert report.issues == [f"line 3: bad timestamp {text.strip()!r}"]

    def test_int64_limits_are_timestamps(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "-9223372036854775808,s1,Frequency_Hz,1.0", "9223372036854775807,s1,Frequency_Hz,2.0"])
        report = ParseReport()
        assert [r.timestamp_ms for r in read_archive(p, report)] == [-(2**63), 2**63 - 1]
        assert report.issues == []

    def test_records_are_archive_records(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "0,s1,Frequency_Hz,1.0", "40,s1,Frequency_Hz,nan"])
        records = list(read_archive(p))
        assert [type(r) for r in records] == [ArchiveRecord, ArchiveRecord]
        assert records[1] == ArchiveRecord(40, "s1", Channel.Frequency_Hz, None)
        assert records[0].station_id is records[1].station_id  # one str per station

    def test_repeated_timestamp_text_shares_one_int(self, tmp_path):
        p = tmp_path / "a.csv"
        _write(p, [HEADER, "1700000000000,s1,Frequency_Hz,1.0", "1700000000000,s2,Frequency_Hz,2.0",
                   "1700000000040,s1,Frequency_Hz,3.0"])
        first, second, third = read_archive(p)
        assert first.timestamp_ms is second.timestamp_ms
        assert third.timestamp_ms == 1_700_000_000_040


class TestArchiveRecord:
    def test_fields_equality_hash_and_immutability(self):
        rec = ArchiveRecord(40, "s1", Channel.Frequency_Hz, 1.5)
        assert ArchiveRecord._fields == ("timestamp_ms", "station_id", "channel", "value")
        assert rec == ArchiveRecord(timestamp_ms=40, station_id="s1", channel=Channel.Frequency_Hz, value=1.5)
        assert rec != ArchiveRecord(40, "s1", Channel.Frequency_Hz, None)
        assert len({rec, ArchiveRecord(40, "s1", Channel.Frequency_Hz, 1.5)}) == 1
        with pytest.raises(AttributeError):
            rec.value = 2.0


def _clean_records(n, dt_ms=40, station="s1", start=0):
    return [
        ArchiveRecord(start + i * dt_ms, station, Channel.Frequency_Hz, float(np.sin(i * 0.1)))
        for i in range(n)
    ]


def _interleaved_records(n=30_001):
    """Two gapless streams of n records, instant by instant, as a generator."""
    return (ArchiveRecord(1_700_000_000_000 + 40 * i, station, Channel.Frequency_Hz, float(np.sin(i * 0.1)))
            for i in range(n) for station in ("s1", "s2"))


class TestMakeWindows:
    def test_sixty_seconds_gives_eight_windows(self):
        # 60 s inclusive at 25 frames/s = 1501 records
        records = _clean_records(1501)
        windows = make_windows(records, WindowingPolicy())
        assert len(windows) == 8
        assert [w.t0_ms for w in windows] == [0, 5000, 10000, 15000, 20000, 25000, 30000, 35000]
        assert all(w.count == 626 for w in windows)
        assert all(w.dt == 0.04 for w in windows)

    def test_single_missing_sample_interpolated(self):
        records = _clean_records(626)
        dropped = records[300]
        del records[300]
        windows = make_windows(records, WindowingPolicy(window_seconds=25.0, stride_seconds=25.0))
        assert len(windows) == 1
        expected = 0.5 * (records[299].value + records[300].value)  # neighbors of the gap
        assert windows[0].samples[300] == pytest.approx(expected)
        assert windows[0].samples[299] == records[299].value

    def test_gap_fraction_exceeded_skips_window(self):
        records = _clean_records(626)
        del records[100:113]  # ~2% missing
        diagnostics = []
        windows = make_windows(records, WindowingPolicy(window_seconds=25.0, stride_seconds=25.0), diagnostics)
        assert windows == []
        assert diagnostics and "skipped" in diagnostics[0]

    def test_overflowing_interpolation_skips_window(self):
        records = _clean_records(626)
        records[100] = records[100]._replace(value=1e308)
        records[102] = records[102]._replace(value=-1e308)
        del records[101]
        diagnostics = []
        windows = make_windows(records, WindowingPolicy(window_seconds=25.0, stride_seconds=25.0), diagnostics)
        assert windows == []
        assert diagnostics == ["stream s1/Frequency_Hz: window t0=0 skipped, interpolated sample 101 is not finite"]

    def test_window_past_int64_gives_nothing(self):
        # 1e18 s is 2.5e19 + 1 samples, more than int64 holds
        diagnostics = []
        assert make_windows(_clean_records(1501), WindowingPolicy(window_seconds=1e18), diagnostics) == []
        assert diagnostics == []

    def test_dt_mismatch(self):
        records = [ArchiveRecord(i * 80, "s1", Channel.Frequency_Hz, 1.0) for i in range(100)]
        with pytest.raises(DtMismatch) as exc:
            make_windows(records, WindowingPolicy())
        assert "s1/Frequency_Hz" in str(exc.value)

    def test_explicitly_missing_counts_toward_gap(self):
        records = _clean_records(626)
        records[200] = ArchiveRecord(200 * 40, "s1", Channel.Frequency_Hz, None)
        windows = make_windows(records, WindowingPolicy(window_seconds=25.0, stride_seconds=25.0))
        assert len(windows) == 1  # one missing of 626 is under the 1% limit

    def test_streams_are_independent_and_ordered(self):
        records = _clean_records(626, station="b") + _clean_records(626, station="a")
        windows = make_windows(records, WindowingPolicy(window_seconds=25.0, stride_seconds=25.0))
        assert [w.station_id for w in windows] == ["a", "b"]

    def test_overlapping_windows_share_one_frozen_buffer(self):
        first, second = make_windows(_clean_records(1501), WindowingPolicy())[:2]
        assert np.shares_memory(first.samples, second.samples)
        for w in (first, second):
            assert not w.samples.flags.writeable
            with pytest.raises(ValueError):
                w.samples.flags.writeable = True

    def test_interpolated_window_has_its_own_samples(self):
        records = _clean_records(1501)
        del records[10]  # missing from the first window only
        windows = make_windows(records, WindowingPolicy())
        assert windows[0].samples[10] == pytest.approx(0.5 * (records[9].value + records[10].value))
        assert not np.shares_memory(windows[0].samples, windows[1].samples)
        assert np.shares_memory(windows[1].samples, windows[2].samples)
        assert not windows[0].samples.flags.writeable

    def test_outage_stream_windows_hold_only_filled_slots(self):
        # the stream buffer holds the 3 002 records' slots, not the outage
        records = _clean_records(1501) + _clean_records(1501, start=660_000)
        windows = make_windows(records, WindowingPolicy())
        assert len(windows) == 16
        held = {id(a): a for a in (w.samples if w.samples.base is None else w.samples.base for w in windows)}
        assert sum(a.size for a in held.values()) <= 3002

    def test_gapless_window_copied_when_stream_buffer_is_larger(self):
        # scattered single losses after a clean first window: the one gapless
        # window holds 626 samples, the stream buffer 1 494
        records = [r for i, r in enumerate(_clean_records(1501)) if i < 626 or i % 125 != 60]
        windows = make_windows(records, WindowingPolicy())
        assert len(windows) == 8
        gapless, gappy = windows[0], windows[1:]
        assert np.array_equal(gapless.samples, [r.value for r in records[:626]])
        assert gapless.samples.flags.owndata and not gapless.samples.flags.writeable
        assert not any(np.shares_memory(gapless.samples, w.samples) for w in gappy)

    def test_outage_costs_no_memory(self, caplog):
        # one day of outage between two minutes of data: 2.16M grid slots,
        # which slot arrays spanning the stream would hold several times over
        caplog.set_level(logging.ERROR, logger="lfodetect.ingest")
        records = _clean_records(1501) + _clean_records(1501, start=86_460_000)
        tracemalloc.start()
        try:
            windows = make_windows(records, WindowingPolicy())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(windows) == 16
        assert peak < 10_000_000

    def test_outage_is_one_diagnostic(self):
        # 10 min, a 2-day outage, 10 min more: 34 555 windows without a
        # sample between the two stretches of data
        records = _clean_records(15000) + _clean_records(15000, start=600_000 + 2 * 86_400_000)
        diagnostics = []
        windows = make_windows(records, WindowingPolicy(), diagnostics)
        assert len(windows) == 231
        assert "stream s1/Frequency_Hz: 34555 windows t0=600000..173370000 skipped, no samples" in diagnostics
        assert len(diagnostics) <= 11

    @pytest.mark.parametrize("stamp, offset", [(999_999_999_999_999, 0), (-999_999_999_999_999, 1)],
                             ids=["far-future", "far-past"])
    def test_outlier_stamp_costs_only_its_own_windows(self, stamp, offset):
        # the far-past stamp lies 1 ms off the clean stream's grid, within
        # the slot tolerance, so it still anchors the grid; the 2e11
        # windows between the outlier and the data are never built
        clean = _clean_records(1501)
        records = clean[:200] + [ArchiveRecord(stamp, "s1", Channel.Frequency_Hz, 0.0)] + clean[200:]
        diagnostics = []
        windows = make_windows(records, WindowingPolicy(), diagnostics)
        expected = make_windows(clean, WindowingPolicy())
        assert [(w.t0_ms - offset, w.samples.tobytes()) for w in windows] == [
            (w.t0_ms, w.samples.tobytes()) for w in expected
        ]
        assert len(diagnostics) <= 2 * math.ceil(626 / 125) + 1
        assert sum("skipped, no samples" in line for line in diagnostics) == 1

    @pytest.mark.parametrize("stamp, at", [(-3_599_990, 0), (30_010, 751)], ids=["ahead", "middle"])
    def test_stray_stamp_keeps_the_grid(self, stamp, at):
        # 10 ms off the data's grid, 1 h ahead of the data or at the sorted
        # middle index: anchored there, the grid would make every later
        # real record irregular
        clean = _clean_records(1501)
        records = clean[:199] + [ArchiveRecord(stamp, "s1", Channel.Frequency_Hz, 0.0)] + clean[199:]
        assert sorted(r.timestamp_ms for r in records)[at] == stamp
        diagnostics = []
        windows = make_windows(records, WindowingPolicy(), diagnostics)
        expected = make_windows(clean, WindowingPolicy())
        assert [w.t0_ms for w in windows] == [0, 5000, 10000, 15000, 20000, 25000, 30000, 35000]
        assert [(w.t0_ms, w.samples.tobytes()) for w in windows] == [
            (w.t0_ms, w.samples.tobytes()) for w in expected
        ]
        assert diagnostics == []

    def test_clock_step_anchors_on_the_grid_most_records_share(self):
        # 300 records, then a 10 ms clock step and 1201 more: the later
        # phase holds most records, so its first record anchors the grid
        # and the 300 before it are irregular
        early = _clean_records(300)
        late = _clean_records(1201, start=12_010)
        windows = make_windows(early + late, WindowingPolicy())
        assert [w.t0_ms for w in windows] == [12_010 + 5000 * k for k in range(5)]
        assert windows[0].samples.tobytes() == make_windows(late, WindowingPolicy())[0].samples.tobytes()

    def test_two_records_off_each_others_grid(self):
        # 45 ms apart, 5 ms off each other's grid: the phase bins tie, so the
        # first record anchors. At 2**54 the float stamps are 44 ms apart,
        # within 10% of 40 ms, so no DtMismatch is raised, and the second
        # record's float stamp lies within tolerance of slot 1
        stamps = (2**54, 2**54 + 45)
        policy = WindowingPolicy(window_seconds=0.12, stride_seconds=0.04)
        diagnostics = []
        records = [ArchiveRecord(ts, "s1", Channel.Frequency_Hz, 1.0) for ts in stamps]
        assert make_windows(records, policy, diagnostics) == []
        assert diagnostics == []
        buffers = [array("q", stamps), array("d", [1.0, 1.0])]
        t_start, n_slots, slots, values = ingest._filled_slots("s1", Channel.Frequency_Hz, buffers, 40.0)
        assert (t_start, n_slots, slots.tolist(), values.tolist()) == (2**54, 2, [0, 1], [1.0, 1.0])

    def test_stream_without_a_filled_slot(self):
        records = [ArchiveRecord(40 * i, "s", Channel.Frequency_Hz, None) for i in range(1000)]
        diagnostics = []
        assert make_windows(records, WindowingPolicy(), diagnostics) == []
        assert diagnostics == ["stream s/Frequency_Hz: 3 windows t0=0..10000 skipped, no samples"]

    def test_windowing_holds_few_arrays_per_stream(self):
        # two interleaved gapless streams, held by the caller: 16 bytes a
        # record while grouping, then the sort and slot temporaries of one
        # stream at a time, not a dozen arrays of its length
        records = list(_interleaved_records())
        tracemalloc.start()
        try:
            windows = make_windows(records, WindowingPolicy())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(windows) == 472
        assert peak < 35 * len(records)

    def test_streamed_records_are_not_kept(self):
        # the same records from a generator: each is freed once its stamp
        # and value are appended to its stream's typed buffers
        tracemalloc.start()
        try:
            windows = make_windows(_interleaved_records(), WindowingPolicy())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(windows) == 472
        assert peak < 40 * 2 * 30_001

    @pytest.mark.parametrize("field, record, shown", [
        ("timestamp_ms", ArchiveRecord(120.5, "s1", Channel.Frequency_Hz, 1.0), "120.5"),
        ("value", ArchiveRecord(120, "s1", Channel.Frequency_Hz, "1.0"), "'1.0'"),
    ])
    def test_bad_record_field_named(self, field, record, shown):
        records = _clean_records(700) + [record]
        with pytest.raises(TypeError, match=rf"^stream s1/Frequency_Hz: {field} must be .*, got {shown}$"):
            make_windows(records, WindowingPolicy())

    @pytest.mark.parametrize("ts", [2**63, -(2**63) - 1])
    def test_timestamp_outside_int64_named(self, ts):
        records = _clean_records(700) + [ArchiveRecord(ts, "s1", Channel.Frequency_Hz, 1.0)]
        with pytest.raises(ValueError, match=rf"^stream s1/Frequency_Hz: timestamp_ms must be an int within int64, got {ts}$"):
            make_windows(records, WindowingPolicy())

    def test_value_past_float_range_named(self):
        records = _clean_records(700) + [ArchiveRecord(0, "s1", Channel.Frequency_Hz, 10**400)]
        with pytest.raises(ValueError, match=r"^stream s1/Frequency_Hz: value must be within float range, got 1000"):
            make_windows(records, WindowingPolicy())

    @pytest.mark.parametrize("field, record", [
        ("timestamp_ms", ArchiveRecord(10**5000, "s1", Channel.Frequency_Hz, 1.0)),
        ("value", ArchiveRecord(0, "s1", Channel.Frequency_Hz, 10**5000)),
    ])
    def test_int_too_long_to_print_named(self, field, record):
        # Python refuses to convert an int of over 4300 digits to text
        with pytest.raises(ValueError, match=rf"^stream s1/Frequency_Hz: {field} must be .*, got an int of 5001 digits$"):
            make_windows([record, record], WindowingPolicy())

    def test_span_past_int64_matches_reference(self):
        # the last stamp lies more than 2**63 ms after the first
        dt = 1.1e15
        records = [ArchiveRecord(-5 * 10**18 + k * 11 * 10**17, "s1", Channel.Frequency_Hz, float(k)) for k in range(10)]
        policy = WindowingPolicy(window_seconds=3 * dt, stride_seconds=dt, expected_dt=dt)
        outcome = _windowing_outcome(make_windows, records, policy)
        assert outcome == _windowing_outcome(_reference_make_windows, records, policy)
        assert len(outcome[0]) == 7 and outcome[1] == []

    @settings(max_examples=15)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rnd):
        records = _clean_records(700)
        shuffled = list(records)
        rnd.shuffle(shuffled)
        a = make_windows(records, WindowingPolicy())
        b = make_windows(shuffled, WindowingPolicy())
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            assert wa.t0_ms == wb.t0_ms
            assert np.array_equal(np.asarray(wa.samples), np.asarray(wb.samples))


class TestRoundTrip:
    def test_synth_to_csv_to_window_bitwise(self, tmp_path):
        w = generate(
            SynthSpec(tones=(ToneSpec(0.5, 0.7, damping=-0.3),), dt=0.04, count=625, noise_snr_db=35, rng_seed=9),
            station_id="stn7",
            t0_ms=123456,
        )
        p = tmp_path / "rt.csv"
        write_archive(p, [w])
        policy = WindowingPolicy(window_seconds=(w.count - 1) * w.dt, stride_seconds=5.0, expected_dt=w.dt)
        windows = make_windows(read_archive(p), policy)
        assert len(windows) == 1
        w2 = windows[0]
        assert np.array_equal(np.asarray(w.samples), np.asarray(w2.samples))
        assert (w2.station_id, w2.channel, w2.t0_ms, w2.dt) == ("stn7", w.channel, 123456, 0.04)

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=100))
        p = tmp_path / "out.csv"
        write_archive(p, [w])
        assert p.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestWindowingPolicy:
    def test_window_sample_count(self):
        policy = WindowingPolicy(window_seconds=25.0, expected_dt=0.04)
        assert policy.window_samples == 626
        assert policy.stride_samples == 125

    def test_invalid_policies(self):
        with pytest.raises(ValueError):
            WindowingPolicy(expected_dt=0.0)
        with pytest.raises(ValueError):
            WindowingPolicy(stride_seconds=30.0, window_seconds=25.0)
        # the gap rule is the fixed ingest.MAX_GAP_FRACTION, not a setting
        with pytest.raises(TypeError):
            WindowingPolicy(max_gap_fraction=0.3)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(WindowingPolicy)] == [
            "window_seconds", "stride_seconds", "expected_dt"]

    def test_window_of_fewer_than_four_samples_rejected(self):
        # 2.5 intervals round half to even, to 2 intervals: 3 samples
        with pytest.raises(ValueError, match="at least 4 samples, got 3"):
            WindowingPolicy(window_seconds=0.1, stride_seconds=0.1)
        assert WindowingPolicy(window_seconds=0.12, stride_seconds=0.12).window_samples == 4
        with pytest.raises(ValueError, match="window_seconds / expected_dt must be finite"):
            WindowingPolicy(window_seconds=1e300, expected_dt=1e-300)

    @pytest.mark.parametrize("name", ["window_seconds", "stride_seconds", "expected_dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lengths_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            WindowingPolicy(**{name: value})


# --- the record-at-a-time ingest that the array code replaced ---------------


def _reference_read(path, report):
    """`read_archive`'s parse loop as it was before the per-record costs were
    cut (a dataclass record per line, an Enum call per channel, a strip
    generator), for a file with a valid header. The int64 range check is
    the one intended difference."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        handle.readline()
        for line_no, line in enumerate(handle, start=2):
            if not line.isascii() and ingest._UNDECODABLE.search(line):
                report.note(line_no, "not valid UTF-8")
                continue
            line = line.strip("\r\n")
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 4:
                report.note(line_no, f"expected 4 fields, got {len(parts)}")
                continue
            ts_text, station, channel_text, value_text = (p.strip() for p in parts)
            try:
                ts = int(ts_text)
            except ValueError:
                report.note(line_no, f"bad timestamp {ts_text!r}")
                continue
            if not -(2**63) <= ts < 2**63:  # the intended difference
                report.note(line_no, f"bad timestamp {ts_text!r}")
                continue
            try:
                channel = Channel(channel_text)
            except ValueError:
                report.note(line_no, f"unknown channel {channel_text!r}")
                continue
            try:
                value = float(value_text)
            except ValueError:
                report.note(line_no, f"bad value {value_text!r}")
                continue
            if not math.isfinite(value):
                report.note(line_no, f"non-finite value {value_text!r} marked missing")
                value = None
            yield ArchiveRecord(ts, station, channel, value)


def _reference_make_windows(records, policy, diagnostics):
    """`make_windows` as it was before the array rewrite: a key-function sort
    and a slotting loop per record, first regular record wins a slot, and
    every window of the stream's span enumerated; and, as since, a window
    whose interpolation overflows is skipped, each stretch of windows
    without samples is one diagnostic, and the grid is anchored at the
    first record, unless more records share another phase bin (a tenth of
    dt wide, against the first record) than share the first record's own
    two bins; then at the first record in that bin, the records before it
    dropped."""
    streams = {}
    for rec in records:
        streams.setdefault((rec.station_id, rec.channel.value), []).append(rec)

    dt_ms = policy.expected_dt * 1000.0
    windows = []
    for (station, channel_value) in sorted(streams):
        recs = streams[(station, channel_value)]
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
        bins = [
            min(int((rec.timestamp_ms - recs[0].timestamp_ms) % dt_ms / (ingest._SLOT_TOLERANCE * dt_ms)), 9)
            for rec in recs
        ]
        counts = [bins.count(b) for b in range(10)]
        best = counts.index(max(counts))
        if counts[best] > counts[0] + counts[9]:
            recs = recs[bins.index(best):]
        t_start = recs[0].timestamp_ms
        n_slots = int(round((ts[-1] - t_start) / dt_ms)) + 1
        values = np.full(n_slots, np.nan)
        filled = np.zeros(n_slots, dtype=bool)
        for rec in recs:
            slot = int(round((rec.timestamp_ms - t_start) / dt_ms))
            if slot < 0 or slot >= n_slots or filled[slot]:
                continue
            if abs(rec.timestamp_ms - (t_start + slot * dt_ms)) > ingest._SLOT_TOLERANCE * dt_ms:
                continue
            if rec.value is None:
                filled[slot] = True
                continue
            values[slot] = rec.value
            filled[slot] = True

        width = policy.window_samples
        channel = Channel(channel_value)
        empty = []  # t0 of each window in the current stretch without samples
        start = 0
        while start + width <= n_slots:
            segment = values[start : start + width]
            missing = np.isnan(segment)
            n_missing = int(missing.sum())
            t0 = int(round(t_start + start * dt_ms))
            if n_missing == width:
                empty.append(t0)
                start += policy.stride_samples
                continue
            _flush_empty(diagnostics, station, channel_value, empty)
            if n_missing / width > ingest.MAX_GAP_FRACTION:
                diagnostics.append(
                    f"stream {station}/{channel_value}: window t0={t0} skipped, "
                    f"{n_missing}/{width} samples missing"
                )
            else:
                if n_missing:
                    idx = np.arange(width)
                    segment = np.interp(idx, idx[~missing], segment[~missing])
                overflow = np.flatnonzero(~np.isfinite(segment))
                if overflow.size:
                    diagnostics.append(
                        f"stream {station}/{channel_value}: window t0={t0} skipped, "
                        f"interpolated sample {overflow[0]} is not finite"
                    )
                else:
                    windows.append(ingest.SampleWindow(station, channel, t0, policy.expected_dt, segment))
            start += policy.stride_samples
        _flush_empty(diagnostics, station, channel_value, empty)
    return windows


def _flush_empty(diagnostics, station, channel_value, empty):
    """Collapse the t0s of a stretch of consecutive windows without samples,
    each of which the reference once reported as its own `w/w samples
    missing` line, into the one line `make_windows` gives for them."""
    if empty:
        diagnostics.append(
            f"stream {station}/{channel_value}: {len(empty)} windows t0={empty[0]}..{empty[-1]} skipped, no samples"
        )
        empty.clear()


def _windowing_outcome(make, records, policy):
    """Everything `make` gives back, in a form that compares bit for bit."""
    diagnostics = []
    try:
        windows = make(records, policy, diagnostics)
    except DtMismatch as exc:
        return "DtMismatch", str(exc), diagnostics
    return [
        (w.station_id, w.channel, type(w.t0_ms), w.t0_ms, w.dt, w.samples.dtype, w.samples.tobytes())
        for w in windows
    ], diagnostics


#: Grid bases, from the epoch to the int64 limits (where float64 timestamps
#: are 1024 ms apart and every stream is a DtMismatch).
_BASES = (0, -1_000_000, 1_700_000_000_000, 2**53 - 4_000, 2**62, 2**63 - 2**20, -(2**63) + 2**20)


@st.composite
def _windowing_cases(draw):
    """Records for several streams on one sample grid, with duplicate
    timestamps, missing values, ±0.0 ties, offsets at and just past the slot
    tolerance and at half a sample, dropped slots and runs of them, an
    outage of up to four windows, streams of 0 to 2 records, in shuffled
    order; and a policy on that grid. Windows
    of under 100 samples, where the 1% gap rule allows no gap, and of 100 or
    more, where it allows one or two, so gapless, interpolated and skipped
    windows all occur."""
    dt = draw(st.sampled_from((0.04, 0.02, 0.1 / 3)))
    dt_ms = dt * 1000.0
    tol = ingest._SLOT_TOLERANCE * dt_ms
    offsets = sorted({0, 1, -1, math.floor(tol), -math.floor(tol), math.floor(tol) + 1,
                      -math.floor(tol) - 1, round(dt_ms / 2), -round(dt_ms / 2)})
    offset = st.sampled_from([0] * 4 + offsets)
    value = st.one_of(st.sampled_from([None] + [0.0, -0.0, 1.0, -2.5] * 2),
                      st.floats(allow_nan=False, allow_infinity=False))
    base = draw(st.sampled_from(_BASES))
    # intervals per window: 98 and 99 flank the 100 samples where one gap
    # becomes allowed, 199 and 200 the 201 where a third is not
    window = draw(st.one_of(st.integers(3, 12), st.sampled_from([98, 99, 199, 200]), st.integers(99, 240)))
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                                   st.sampled_from([Channel.Frequency_Hz, Channel.VoltageMag_pu])),
                         min_size=1, max_size=4, unique=True))
    record = st.tuples(offset, value)
    records = []
    for station, channel in keys:
        span = draw(st.integers(0, 2 * window + 60))
        if draw(st.integers(0, 3)) == 0:  # a short stream: 0 to 2 records anywhere
            placed = draw(st.lists(st.tuples(st.integers(0, span), record), max_size=2))
        else:  # the whole grid, a few slots and a run dropped, a few repeated
            dropped = draw(st.sets(st.integers(0, span), max_size=3))
            run = draw(st.integers(0, span))
            dropped.update(range(run, run + draw(st.integers(0, 3))))
            # a record sits on its slot with a plain value unless drawn
            drawn = draw(st.dictionaries(st.integers(0, span), record, max_size=6))
            placed = [(k, drawn.get(k, (0, float(k % 7)))) for k in range(span + 1) if k not in dropped]
            placed += draw(st.lists(st.tuples(st.integers(0, span), record), max_size=8))
            # an outage: the records after a cut move on by up to four windows
            cut = draw(st.integers(0, span))
            outage = draw(st.sampled_from([0, 0, window // 2, window + 1, 2 * window + 5, 4 * window]))
            placed = [(k + outage * (k > cut), r) for k, r in placed]
        records += [ArchiveRecord(base + round(k * dt_ms) + shift, station, channel, v)
                    for k, (shift, v) in placed]
    policy = WindowingPolicy(window_seconds=window * dt,
                             stride_seconds=draw(st.integers(1, window)) * dt, expected_dt=dt)
    return draw(st.permutations(records)), policy


_CSV_FIELDS = (
    st.one_of(st.integers(-(2**65), 2**65).map(str),
              st.sampled_from(["", "x", "40.0", " 40 ", "\t80", "1_000", "٣",
                               "9223372036854775807", "9223372036854775808",
                               "-9223372036854775808", "-9223372036854775809"])),
    st.sampled_from(["s1", " s1", "s1 ", "﻿s1", "Zürich", "", "s 2"]),
    st.sampled_from([c.value for c in Channel] + [" Frequency_Hz ", "frequency_hz", "", "Bad"]),
    st.one_of(st.floats().map(repr),
              st.sampled_from(["nan", "NaN", "inf", "-inf", "-0.0", " 1.5", "1e400", "", "x", " "])),
)
_ARCHIVE_LINES = st.one_of(
    st.tuples(*_CSV_FIELDS).map(lambda fields: ",".join(fields).encode()),
    st.binary(max_size=24),
    st.sampled_from([b"", b"  ", b"\xef\xbb\xbf", b"\xef\xbb\xbf0,s1,Frequency_Hz,1.0", b"\xff\xfe",
                     b"0,s1,Frequency_Hz", b"0,s1,Frequency_Hz,1.0,2.0"]),
)
#: Archive bodies after a valid header: lines ending in LF, CRLF, CR or
#: nothing (the last line, or two lines run together), mixed.
_ARCHIVE_BODIES = st.lists(
    st.tuples(_ARCHIVE_LINES, st.sampled_from([b"\n", b"\r\n", b"\r", b""])), max_size=30
).map(lambda lines: b"".join(text + ending for text, ending in lines))

#: Timestamp texts that parse to the same int, to another, or not at all.
_STAMP_TEXTS = ("12", " 12", "012", "+12", "12 ", "1700000000000", "x", "", "9223372036854775808",
                "-9223372036854775809")
#: Archive bodies in runs of lines that repeat one stamp text, each line
#: good or bad in its other fields (the last one has 3 fields in all).
_REPEATED_STAMP_BODIES = st.lists(
    st.tuples(st.sampled_from(_STAMP_TEXTS),
              st.lists(st.sampled_from(["s1,Frequency_Hz,1.0", "s2,VoltageMag_pu,nan", "s1,Bad,1.0",
                                        "s2,Frequency_Hz,x", "s1,Frequency_Hz"]), min_size=1, max_size=3)),
    max_size=12,
).map(lambda runs: "".join(f"{stamp},{rest}\n" for stamp, rests in runs for rest in rests).encode())


class TestMatchesReference:
    """The array-based ingest against the record-at-a-time code it replaced:
    the same records, windows, diagnostics and errors, bit for bit."""

    @settings(max_examples=300)
    @given(_ARCHIVE_BODIES)
    def test_read_archive_matches_reference_line_for_line(self, body):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "fuzz.csv"
            path.write_bytes(HEADER.encode() + b"\n" + body)
            report, expected_report = ParseReport(), ParseReport()
            records = list(read_archive(path, report))
            expected = list(_reference_read(path, expected_report))
        # repr tells -0.0 from 0.0 and None from NaN
        assert repr(records) == repr(expected)
        assert report.issues == expected_report.issues

    @settings(max_examples=200)
    @given(_REPEATED_STAMP_BODIES)
    @example(b"12,s1,Frequency_Hz,1.0\n 12,s2,Frequency_Hz,2.0\n012,s1,Frequency_Hz,3.0\n"
             b"+12,s2,Frequency_Hz,4.0\n+12,s1,Frequency_Hz,5.0\n12,s2,Frequency_Hz,6.0\n")
    @example(b"0,s1,Frequency_Hz,1.0\nx,s1,Frequency_Hz,2.0\nx,s2,Frequency_Hz,3.0\n40,s1,Frequency_Hz,4.0\n")
    @example(b"9223372036854775808,s1,Frequency_Hz,1.0\n9223372036854775808,s2,Frequency_Hz,2.0\n"
             b"9223372036854775807,s1,Frequency_Hz,3.0\n9223372036854775807,s2,Frequency_Hz,4.0\n")
    def test_repeated_stamp_text_matches_reference(self, body):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "stamps.csv"
            path.write_bytes(HEADER.encode() + b"\n" + body)
            report, expected_report = ParseReport(), ParseReport()
            records = list(read_archive(path, report))
            expected = list(_reference_read(path, expected_report))
        assert repr(records) == repr(expected)
        assert report.issues == expected_report.issues

    @settings(max_examples=300)
    @given(_windowing_cases())
    # 1e308 and -1.7e308 flank the one missing slot of 100-sample windows,
    # which 1% allows: its interpolation overflows
    @example(([ArchiveRecord(40 * k, "a", Channel.Frequency_Hz, {49: 1e308, 51: -1.7e308}.get(k, float(k)))
               for k in range(102) if k != 50],
              WindowingPolicy(window_seconds=3.96, stride_seconds=0.04, expected_dt=0.04)))
    # a first record 20 ms off the grid of the three after it, which anchor
    @example(([ArchiveRecord(ts, "a", Channel.Frequency_Hz, 1.0) for ts in (-20, 160, 200, 240)],
              WindowingPolicy(window_seconds=0.12, stride_seconds=0.04, expected_dt=0.04)))
    # the middle record off the grid of the rest, which keep the first's
    @example(([ArchiveRecord(ts, "a", Channel.Frequency_Hz, 1.0) for ts in (0, 40, 90, 120, 160)],
              WindowingPolicy(window_seconds=0.12, stride_seconds=0.04, expected_dt=0.04)))
    def test_make_windows_matches_reference(self, case):
        records, policy = case
        assert _windowing_outcome(make_windows, records, policy) == _windowing_outcome(
            _reference_make_windows, records, policy
        )

    def test_bulk_archive_matches_reference(self, tmp_path):
        """A two-stream archive with a NaN run, a gap, duplicate and
        irregular timestamps, read both ways, in file order and shuffled."""
        rng = np.random.default_rng(8)
        lines = []
        for m in range(2000):
            for station in ("ST01", "ST02"):
                ts = 1_700_000_000_000 + 40 * m + (3 if m % 97 == 5 else 0) + (9 if m % 211 == 7 else 0)
                value = "nan" if 500 <= m < 504 and station == "ST02" else repr(float(rng.normal()))
                if not 1200 <= m < 1210:
                    lines.append(f"{ts},{station},Frequency_Hz,{value}")
            if m % 50 == 0:
                lines.append(f"{1_700_000_000_000 + 40 * m},ST01,Frequency_Hz,{rng.normal()!r}")
        for name, order in (("file", lines), ("shuffled", list(rng.permutation(lines)))):
            path = tmp_path / f"{name}.csv"
            _write(path, [HEADER] + order)
            report, expected_report = ParseReport(), ParseReport()
            records = list(read_archive(path, report))
            expected = list(_reference_read(path, expected_report))
            assert records == expected and report.issues == expected_report.issues
            outcome = _windowing_outcome(make_windows, records, WindowingPolicy())
            assert outcome == _windowing_outcome(_reference_make_windows, expected, WindowingPolicy())
            assert len(outcome[0]) > 0 and len(outcome[1]) > 0  # windows emitted and skipped
            # streamed straight from the file, as the CLI passes them
            assert _windowing_outcome(make_windows, read_archive(path), WindowingPolicy()) == outcome


#: Gaps as sorted timestamps give them: the grid spacing, repeats (0), off-grid
#: and fractional spacings, and anything finite and non-negative.
_GAPS = st.one_of(st.sampled_from([0.0, 40.0, 40.0, 39.0, 41.0, 80.0, 1e3 / 30, 0.5, 1e-300, 2.0**64]),
                  st.floats(min_value=0.0, allow_infinity=False))


class TestMedian:
    @settings(max_examples=500)
    @given(st.lists(_GAPS, min_size=1, max_size=60))
    @example([40.0, 40.0])
    @example([40.0, 40.5])
    @example([0.0, 40.0, 40.0, 80.0, 1e3 / 30])
    @example([1.7976931348623157e308, 1.7976931348623157e308])
    def test_matches_numpy_median_bit_for_bit(self, gaps):
        with np.errstate(over="ignore"):  # the sum of the middle two may overflow, in both
            expected = float(np.median(np.array(gaps)))
        assert ingest._median(np.array(gaps)).hex() == expected.hex()

    def test_ingest_and_detect_leave_numpy_ma_out(self, tmp_path):
        archive, out = tmp_path / "noise.csv", tmp_path / "out"
        write_archive(archive, [generate(SynthSpec(tones=(ToneSpec(0.01, 0.52, damping=0.05),), dt=0.04,
                                                   count=626, noise_snr_db=40, rng_seed=3))])
        code = (
            "import sys\n"
            "from lfodetect import cli, make_windows, read_archive\n"
            "assert len(make_windows(read_archive(sys.argv[1]))) == 1\n"
            "assert cli.main(['detect', sys.argv[1], '--out-dir', sys.argv[2]]) in (0, 3)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code, str(archive), str(out)], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (out / "run_manifest.json").is_file()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfodetect import (
    ArchiveRecord,
    Channel,
    DtMismatch,
    FileUnreadable,
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
        assert report.missing_values == 1
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
        with pytest.raises(FileUnreadable):
            read_archive(tmp_path / "nope.csv")

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


def _clean_records(n, dt_ms=40, station="s1", start=0):
    return [
        ArchiveRecord(start + i * dt_ms, station, Channel.Frequency_Hz, float(np.sin(i * 0.1)))
        for i in range(n)
    ]


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
        with pytest.raises(ValueError):
            WindowingPolicy(max_gap_fraction=1.0)

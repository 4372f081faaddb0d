import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lfodetect as lf
from lfodetect import cli
from lfodetect.cli import main
from lfodetect.core import AnalysisConfig, Channel, PronyMode, SampleWindow
from lfodetect.ingest import WindowingPolicy, _atomic_write, write_archive

HEADER = "timestamp_ms,station_id,channel,value"

#: The manifest's `windowing` record at the default flags, in its key order.
_DEFAULT_WINDOWING = {"window_seconds": 25.0, "stride_seconds": 5.0, "expected_dt": 0.04, "max_gap_fraction": 0.01}


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def growing_archive(tmp_path):
    """One 626-sample window with a growing 0.52 Hz mode in 40 dB noise."""
    path = tmp_path / "grow.csv"
    code = run(
        "synth", "--tone", "0.1,0.52,0.05,0.3", "--dt", "0.04", "--seconds", "25.04",
        "--snr-db", "40", "--seed", "3", "-o", path,
    )
    assert code == 0
    return path


class TestSynth:
    def test_sample_count(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run("synth", "--tone", "0.5,0.7,-0.3,0", "--dt", "0.04", "--seconds", "25", "-o", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 626  # header + 625
        assert lines[0] == HEADER

    def test_no_tones_is_usage_error(self, tmp_path):
        assert run("synth", "-o", tmp_path / "a.csv") == 2

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("synth", "--tone", "1,0.7", "--snr-db", "30", "--seed", "7", "-o", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_only_archive(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run("synth", "--noise-sigma", "1.0", "--seconds", "25.04", "-o", out) == 0
        assert len(out.read_text().splitlines()) == 627

    def test_bad_tone_syntax(self, tmp_path):
        assert run("synth", "--tone", "nonsense", "-o", tmp_path / "a.csv") == 2

    @pytest.mark.parametrize(
        "tone, message",
        [("a,b", "bad tone 'a,b'"), ("-1,0.5", "amplitude must be >= 0, got -1.0")],
        ids=["not-a-number", "negative-amplitude"],
    )
    def test_bad_tone_value_is_usage_error(self, tmp_path, capsys, tone, message):
        out = tmp_path / "a.csv"
        assert run("synth", f"--tone={tone}", "-o", out) == 2
        err = capsys.readouterr().err
        assert "argument --tone: " + message in err and "Traceback" not in err
        assert not out.exists()

    def test_snr_of_silent_tones_is_input_error(self, tmp_path, capsys):
        # the spec's own error, not the out-of-memory message its ValueError base would get
        out = tmp_path / "a.csv"
        assert run("synth", "--tone", "0,0.5", "--snr-db", "20", "-o", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise_snr_db needs a nonzero tone sum") and err.count("\n") == 1
        assert not out.exists()

    def test_infinite_snr_is_noiseless(self, tmp_path):
        clean, inf = tmp_path / "clean.csv", tmp_path / "inf.csv"
        assert run("synth", "--tone", "0.1,0.52", "-o", clean) == 0
        assert run("synth", "--tone", "0.1,0.52", "--snr-db", "inf", "-o", inf) == 0
        assert inf.read_bytes() == clean.read_bytes()

    def test_snr_past_float_range_is_noiseless(self, tmp_path):
        high, inf = tmp_path / "high.csv", tmp_path / "inf.csv"
        assert run("synth", "--tone", "1,0.5", "--snr-db", "4000", "-o", high) == 0
        assert run("synth", "--tone", "1,0.5", "--snr-db", "inf", "-o", inf) == 0
        assert high.read_bytes() == inf.read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--dt", "0"), ("--dt", "nan"), ("--dt", "-0.04"), ("--seconds", "nan"), ("--seconds", "inf"),
         ("--seconds", "1e308"), ("--dt", "1e-320"),
         # finite sample counts past what numpy can allocate
         ("--seconds", "1e15"), ("--seconds", "1e17"), ("--seconds", "1e300")],
    )
    def test_bad_dt_or_seconds_is_input_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert run("synth", "--tone", "0.1,0.52", flag, value, "-o", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert not out.exists()


class TestAnalyze:
    def test_single_mode_table(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "0.5,0.7,-0.3,0", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        assert run("analyze", archive, "--out-dir", out) == 0
        tables = list(out.glob("*_modes.csv"))
        assert len(tables) == 1
        lines = tables[0].read_text().splitlines()
        assert lines[0] == "amplitude,damping,frequency_hz,phase_rad,energy_fraction,fit_quality"
        amplitude, damping, frequency, phase, _, quality = (float(x) for x in lines[1].split(","))
        assert amplitude == pytest.approx(0.5, rel=1e-6)
        assert damping == pytest.approx(-0.3, abs=1e-6)
        assert frequency == pytest.approx(0.7, abs=1e-6)
        assert phase == pytest.approx(0.0, abs=1e-6)
        assert quality >= 0.999
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert tables[0].name in manifest["artifacts"]
        assert manifest["inputs"][0]["sha256"]

    def test_full_precision_round_trips(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "0.5,0.7,-0.3,0", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        run("analyze", archive, "--out-dir", out)
        row = list(out.glob("*_modes.csv"))[0].read_text().splitlines()[1]
        for cell in row.split(","):
            value = float(cell)
            assert format(value, ".17g") == cell

    def test_empty_archive(self, tmp_path):
        archive = tmp_path / "empty.csv"
        archive.write_text(HEADER + "\n")
        out = tmp_path / "out"
        assert run("analyze", archive, "--out-dir", out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["note"] == "no windows"
        assert manifest["windows"] == []

    def test_dt_mismatch_is_input_error(self, tmp_path, capsys):
        archive = tmp_path / "bad.csv"
        rows = [HEADER] + [f"{i * 80},s1,Frequency_Hz,1.0" for i in range(700)]
        archive.write_text("\n".join(rows) + "\n")
        assert run("analyze", archive, "--out-dir", tmp_path / "out") == 2
        assert "s1/Frequency_Hz" in capsys.readouterr().err

    def test_flat_window_is_no_excitation(self, tmp_path):
        # a dead channel reporting zeros beside a live one: the flat window
        # is noted, not fatal to the run
        tone = SampleWindow("live", Channel.Frequency_Hz, 0, 0.04, np.cos(2 * np.pi * 0.7 * np.arange(626) * 0.04))
        archive = tmp_path / "a.csv"
        write_archive(archive, [SampleWindow("dead", Channel.Frequency_Hz, 0, 0.04, np.zeros(626)), tone])
        out = tmp_path / "out"
        assert run("analyze", archive, "--out-dir", out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [(e["station_id"], e["outcome"], e["artifacts"]) for e in manifest["windows"]] == [
            ("dead", "no-excitation", []), ("live", "analyzed", ["live_Frequency_Hz_0_modes.csv"])]
        assert sorted(p.name for p in out.iterdir()) == ["live_Frequency_Hz_0_modes.csv", "run_manifest.json"]

    def test_dump_imfs(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "1,0.7", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        assert run("analyze", archive, "--out-dir", out, "--dump-imfs") == 0
        dump = list(out.glob("*_imfs.csv"))
        assert len(dump) == 1
        header = dump[0].read_text().splitlines()[0].split(",")
        assert header[0] == "time_s"
        assert header[-1] == "residue"


class TestDetect:
    def test_growing_archive_critical_exit(self, growing_archive, tmp_path):
        out = tmp_path / "out"
        code = run("detect", growing_archive, "--out-dir", out)
        assert code == 3
        lines = (out / "alarms.jsonl").read_text().splitlines()
        assert len(lines) == 1
        alarm = json.loads(lines[0])
        assert alarm["severity"] == "Critical"
        assert alarm["classes"] == ["InterArea"]
        assert alarm["growing"] is True

    def test_decaying_archive_exits_zero(self, tmp_path):
        archive = tmp_path / "d.csv"
        run("synth", "--tone", "0.1,0.84,-0.2", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        assert run("detect", archive, "--out-dir", out) == 0
        alarm = json.loads((out / "alarms.jsonl").read_text().splitlines()[0])
        assert alarm["severity"] == "Info"

    def test_noise_only_archive_no_alarms(self, tmp_path):
        archive = tmp_path / "n.csv"
        run("synth", "--noise-sigma", "1.0", "--seconds", "25.04", "--seed", "5", "-o", archive)
        out = tmp_path / "out"
        assert run("detect", archive, "--out-dir", out) == 0
        assert (out / "alarms.jsonl").read_text() == ""

    def test_missing_archive(self, tmp_path):
        assert run("detect", tmp_path / "missing.csv", "--out-dir", tmp_path / "out") == 2

    def test_invalid_utf8_line_is_a_parse_issue(self, growing_archive, tmp_path):
        lines = growing_archive.read_bytes().split(b"\n")
        lines[100] += b"\xff\xfe"
        growing_archive.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        assert run("detect", growing_archive, "--out-dir", out) in (0, 3)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parse_issues"] == ["line 101: not valid UTF-8"]
        assert len(manifest["windows"]) == 1

    def test_timestamp_outside_int64_is_a_parse_issue(self, tmp_path):
        archive = tmp_path / "n.csv"
        run("synth", "--noise-sigma", "1.0", "--seconds", "25.04", "--seed", "5", "-o", archive)
        lines = archive.read_text().splitlines(keepends=True)
        lines.insert(2, "99999999999999999999999,synthetic,Frequency_Hz,0.0\n")
        archive.write_text("".join(lines))
        out = tmp_path / "out"
        assert run("detect", archive, "--out-dir", out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parse_issues"] == ["line 3: bad timestamp '99999999999999999999999'"]
        assert len(manifest["windows"]) == 1

    def test_byte_order_mark_archive_gives_same_alarms(self, growing_archive, tmp_path):
        bom_archive = tmp_path / "bom.csv"
        bom_archive.write_bytes(b"\xef\xbb\xbf" + growing_archive.read_bytes())
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        assert run("detect", growing_archive, "--out-dir", plain) == 3
        assert run("detect", bom_archive, "--out-dir", bom) == 3
        assert (bom / "alarms.jsonl").read_bytes() == (plain / "alarms.jsonl").read_bytes()

    @pytest.mark.parametrize("stamp", [-3_599_990, 29_990], ids=["ahead", "middle"])
    def test_stray_stamp_gives_same_alarms(self, tmp_path, stamp):
        # 10 ms off the data's grid, after line 200: 1 h early, or at the
        # middle of the 1 501 records once sorted
        clean = tmp_path / "g.csv"
        assert run("synth", "--tone", "0.1,0.52,0.05", "--snr-db", "40", "--seconds", "60", "-o", clean) == 0
        lines = clean.read_text().splitlines(keepends=True)
        lines.insert(200, f"{stamp},synthetic,Frequency_Hz,0.0\n")
        stray = tmp_path / "s.csv"
        stray.write_text("".join(lines))
        assert run("detect", clean, "--out-dir", tmp_path / "clean") == 3
        assert run("detect", stray, "--out-dir", tmp_path / "stray") == 3
        alarms = (tmp_path / "stray" / "alarms.jsonl").read_bytes()
        assert len(alarms.splitlines()) == 7
        assert alarms == (tmp_path / "clean" / "alarms.jsonl").read_bytes()

    def test_band_flag_sets_analysis_band(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "1,4.0,-0.21", "--seconds", "25.04", "-o", archive)
        assert run("detect", archive, "--out-dir", tmp_path / "default") == 0
        assert (tmp_path / "default" / "alarms.jsonl").read_text() == ""
        # 4 Hz lies outside the default 0.1-2 Hz band
        assert run("detect", archive, "--out-dir", tmp_path / "wide", "--band", "0.1,10.0") == 0
        assert len((tmp_path / "wide" / "alarms.jsonl").read_text().splitlines()) == 1


class TestSpectrum:
    def test_in_bin_tone_row(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "0.2,0.52", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        assert run("spectrum", archive, "--out-dir", out) == 0
        csv = list(out.glob("*_spectrum.csv"))[0]
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        by_freq = {float(r[0]): float(r[1]) for r in rows}
        # 626-sample window: 0.52 Hz is near-bin; find the dominant row
        peak_freq = max(by_freq, key=by_freq.get)
        assert peak_freq == pytest.approx(0.52, abs=0.04)
        assert by_freq[peak_freq] == pytest.approx(0.1, rel=0.05)

    def test_band_filter(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "0.2,0.52", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        assert run("spectrum", archive, "--out-dir", out, "--band", "0.1,2.0") == 0
        rows = list(out.glob("*_spectrum.csv"))[0].read_text().splitlines()[1:]
        freqs = [float(r.split(",")[0]) for r in rows]
        assert all(0.1 <= f <= 2.0 for f in freqs)

    def test_missing_archive(self, tmp_path):
        assert run("spectrum", tmp_path / "nope.csv", "--out-dir", tmp_path / "out") == 2


class TestManifest:
    def test_every_artifact_referenced(self, growing_archive, tmp_path):
        out = tmp_path / "out"
        run("detect", growing_archive, "--out-dir", out)
        manifest = json.loads((out / "run_manifest.json").read_text())
        produced = {p.name for p in out.iterdir()} - {"run_manifest.json"}
        assert produced == set(manifest["artifacts"])

    @pytest.mark.parametrize(
        "command, flags, windowing, config",
        [
            ("detect", [], _DEFAULT_WINDOWING, {"band_hz": [0.1, 2.0]}),
            (
                "detect",
                ["--window-seconds", "15", "--stride-seconds", "4", "--band", "0.2,3"],
                {**_DEFAULT_WINDOWING, "window_seconds": 15.0, "stride_seconds": 4.0},
                {"band_hz": [0.2, 3.0]},
            ),
            ("analyze", [], _DEFAULT_WINDOWING, {"prony_order": None, "band_hz": [0.1, 2.0]}),
            ("analyze", ["--order", "20", "--emd", "--band", "0.2,3"], _DEFAULT_WINDOWING,
             {"prony_order": 20, "band_hz": [0.2, 3.0]}),
        ],
        ids=["defaults", "flags", "analyze-defaults", "analyze-flags"],
    )
    def test_records_resolved_settings(self, growing_archive, tmp_path, command, flags, windowing, config):
        out = tmp_path / "out"
        run(command, growing_archive, "--out-dir", out, *flags)
        manifest = json.loads((out / "run_manifest.json").read_text())
        # the fixed 1% gap rule is recorded too, last, as it always was
        assert list(manifest["windowing"].items()) == list(windowing.items())
        # only settings that can be set: the match tolerance and the
        # amplitude floors are constants of the method, and detect runs
        # at the automatic order
        assert manifest["config"] == config

    @pytest.mark.parametrize(
        "flags, config",
        [
            ([], {"band_hz": None, "window_fn": "rectangular"}),
            (["--band", "0.5,1.0", "--window-fn", "hann"], {"band_hz": [0.5, 1.0], "window_fn": "hann"}),
        ],
        ids=["defaults", "flags"],
    )
    def test_spectrum_records_band_and_window_fn(self, growing_archive, tmp_path, flags, config):
        out = tmp_path / "out"
        assert run("spectrum", growing_archive, "--out-dir", out, *flags) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == config
        assert list(manifest["windowing"].items()) == list(_DEFAULT_WINDOWING.items())


def _reference_csv(header, rows):
    return "".join([header + "\n"] + [",".join(format(v, ".17g") for v in row) + "\n" for row in rows])


class TestCsvBytes:
    """Every numeric CSV cell is format(value, ".17g"), which round-trips float64."""

    def test_mode_table(self, tmp_path):
        modes = [
            PronyMode(0.1, 0.05, 0.52, 0.3, 0.75),
            PronyMode(5e-324, -0.0, 0.0, -3.0, 0.25),
            PronyMode(1.7976931348623157e308, -1e-310, 1 / 3, np.pi, 0.0),
        ]
        path = tmp_path / "modes.csv"
        cli._write_mode_table(path, modes, 0.9999999999999999)
        rows = [(m.amplitude, m.damping, m.frequency, m.phase, m.energy_fraction, 0.9999999999999999)
                for m in modes]
        header = "amplitude,damping,frequency_hz,phase_rad,energy_fraction,fit_quality"
        assert path.read_text() == _reference_csv(header, rows)

    @pytest.mark.parametrize("kind", ["tone", "ramp"])
    def test_imf_dump(self, tmp_path, kind):
        t = np.arange(626) * 0.04
        samples = np.cos(2 * np.pi * 0.52 * t) + 0.3 * np.cos(2 * np.pi * 1.9 * t) if kind == "tone" else 0.01 * t
        w = SampleWindow("s", Channel.Frequency_Hz, 0, 0.04, samples)
        imf_set = lf.decompose(w)
        assert (len(imf_set.imfs) > 0) == (kind == "tone")
        path = tmp_path / "imfs.csv"
        cli._write_imf_dump(path, w, imf_set)
        names = [f"imf{i + 1}" for i in range(len(imf_set.imfs))]
        columns = [w.times] + [imf.samples for imf in imf_set.imfs] + [imf_set.residue]
        rows = [[float(col[i]) for col in columns] for i in range(w.count)]
        assert path.read_text() == _reference_csv(",".join(["time_s"] + names + ["residue"]), rows)

    def test_spectrum(self, tmp_path):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "0.2,0.52", "--snr-db", "30", "--seconds", "25.04", "-o", archive)
        out = tmp_path / "out"
        assert run("spectrum", archive, "--out-dir", out, "--window-fn", "hann") == 0
        (w,) = lf.make_windows(lf.read_archive(archive), WindowingPolicy())
        freqs, mags, phases = lf.dft(w, lf.WindowFunction.Hann).one_sided()
        rows = [(float(f), float(m), float(p)) for f, m, p in zip(freqs, mags, phases)]
        (csv,) = out.glob("*_spectrum.csv")
        assert csv.read_text() == _reference_csv("frequency_hz,magnitude,phase_rad", rows)


class TestArtifactNames:
    @pytest.mark.parametrize("station, stem", [("../escaped", "..%2Fescaped"), ("sub/dir", "sub%2Fdir")])
    @pytest.mark.parametrize("command, flags, suffixes", [
        ("spectrum", [], ["_spectrum.csv"]),
        ("analyze", ["--dump-imfs"], ["_modes.csv", "_imfs.csv"]),
    ], ids=["spectrum", "analyze"])
    def test_station_id_stays_inside_out_dir(self, growing_archive, tmp_path, station, stem, command, flags, suffixes):
        archive = tmp_path / "station.csv"
        archive.write_text(growing_archive.read_text().replace(",synthetic,", f",{station},"))
        out = tmp_path / "work" / "out"
        assert run(command, archive, "--out-dir", out, *flags) == 0
        assert [p.name for p in (tmp_path / "work").iterdir()] == ["out"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        names = [f"{stem}_Frequency_Hz_0{suffix}" for suffix in suffixes]
        assert manifest["artifacts"] == sorted(names)
        assert {p.name for p in out.iterdir()} == {"run_manifest.json", *names}
        # the manifest keeps the station id as the archive gave it
        assert [w["station_id"] for w in manifest["windows"]] == [station]

    @pytest.mark.parametrize("station, stem", [
        ("ST01", "ST01"),
        ("a b.c-é", "a b.c-é"),
        ("a%2Fb", "a%252Fb"),
        ("a\\b", "a%5Cb"),
        ("a\tb\x7f", "a%09b%7F"),
        ("a\x85b", "a%C2%85b"),
    ])
    def test_station_id_encoding(self, station, stem):
        w = SampleWindow(station, Channel.Frequency_Hz, 5, 0.04, np.zeros(4))
        assert cli._window_prefix(w) == f"{stem}_Frequency_Hz_5"


class TestMultiWindowAndJobs:
    @pytest.fixture
    def long_archive(self, tmp_path):
        """60 s (inclusive) of clean data: 8 default windows."""
        import lfodetect as lf

        window = lf.generate(
            lf.SynthSpec(tones=(lf.ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=1501, noise_snr_db=40, rng_seed=2)
        )
        path = tmp_path / "long.csv"
        lf.write_archive(path, [window])
        return path

    def test_eight_windows_analyzed(self, long_archive, tmp_path):
        out = tmp_path / "out"
        assert run("analyze", long_archive, "--out-dir", out) == 0
        tables = sorted(out.glob("*_modes.csv"))
        assert len(tables) == 8
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [w["t0_ms"] for w in manifest["windows"]] == [0, 5000, 10000, 15000, 20000, 25000, 30000, 35000]

    def test_jobs_flag_is_usage_error(self, long_archive, tmp_path):
        # windows run serially; there is no worker-count flag
        assert run("detect", long_archive, "--out-dir", tmp_path / "out", "--jobs", "4") == 2
        assert not (tmp_path / "out").exists()

    def test_jobs_env_var(self, long_archive, tmp_path, monkeypatch):
        # the former LFODETECT_JOBS variable is ignored, even when malformed
        monkeypatch.delenv("LFODETECT_JOBS", raising=False)
        baseline = tmp_path / "baseline"
        assert run("detect", long_archive, "--out-dir", baseline) == 3
        monkeypatch.setenv("LFODETECT_JOBS", "abc")
        out = tmp_path / "out"
        assert run("detect", long_archive, "--out-dir", out) == 3
        assert (out / "alarms.jsonl").read_bytes() == (baseline / "alarms.jsonl").read_bytes()

    def test_commands_share_window_order_and_artifacts(self, long_archive, tmp_path):
        t0s = [0, 5000, 10000, 15000, 20000, 25000, 30000, 35000]
        for command in ("analyze", "detect", "spectrum"):
            out = tmp_path / command
            assert run(command, long_archive, "--out-dir", out) in (0, 3)
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert [w["t0_ms"] for w in manifest["windows"]] == t0s, command
            produced = {p.name for p in out.iterdir()} - {"run_manifest.json"}
            assert produced == set(manifest["artifacts"]), command


class TestAnalyzeEmdFlag:
    def test_emd_empty_band_outcome(self, tmp_path):
        import lfodetect as lf
        import numpy as np

        # pure trend archive: EMD band-pass finds nothing
        t = np.arange(626) * 0.04
        window = lf.SampleWindow("s1", lf.Channel.Frequency_Hz, 0, 0.04, 0.2 * t + 1.0)
        archive = tmp_path / "trend.csv"
        lf.write_archive(archive, [window])
        out = tmp_path / "out"
        assert run("analyze", archive, "--out-dir", out, "--emd") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["windows"][0]["outcome"] == "empty-band"
        assert list(out.glob("*_modes.csv")) == []

    def test_emd_with_imf_dump_sifts_each_window_once(self, tmp_path, monkeypatch):
        import lfodetect as lf
        from lfodetect import emd

        windows = [
            lf.generate(lf.SynthSpec(tones=(lf.ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=626,
                                     noise_snr_db=30, rng_seed=seed), station_id=f"s{seed}")
            for seed in range(3)
        ]
        archive = tmp_path / "three.csv"
        lf.write_archive(archive, windows)
        calls = []
        real = emd.decompose

        def spy(w):
            calls.append(w.station_id)
            return real(w)

        monkeypatch.setattr(emd, "decompose", spy)
        out = tmp_path / "out"
        assert run("analyze", archive, "--out-dir", out, "--emd", "--dump-imfs") == 0
        assert calls == ["s0", "s1", "s2"]
        assert len(list(out.glob("*_modes.csv"))) == len(list(out.glob("*_imfs.csv"))) == 3
        # the dump holds the very decomposition the band-pass summed
        for w in windows:
            dump = np.loadtxt(out / f"{w.station_id}_Frequency_Hz_0_imfs.csv", delimiter=",", skiprows=1)
            imf_set = real(w)
            assert dump.shape == (626, len(imf_set.imfs) + 2)
            for k, imf in enumerate(imf_set.imfs):
                assert np.array_equal(dump[:, k + 1], imf.samples)


class TestHalfWindowOrder:
    """`detect`, the command and the library call alike, fits each window and
    its halves at the automatic order, which a half window supports; only
    `analyze` takes an order, bounded by the full window (626 samples: at
    most order 208)."""

    def test_library_detect_takes_no_order(self):
        with pytest.raises(TypeError):
            AnalysisConfig(prony_order=8)

    def test_analyze_keeps_full_window_limit(self, growing_archive, tmp_path):
        assert run("analyze", growing_archive, "--out-dir", tmp_path / "o", "--order", "105") == 0
        assert run("analyze", growing_archive, "--out-dir", tmp_path / "o", "--order", "208") == 0


class TestBadConfig:
    def test_analyze_has_no_match_tolerance_flag(self, growing_archive, tmp_path, capsys):
        # analyze never matches modes to peaks: the tolerance reached only the manifest
        assert run("analyze", growing_archive, "--out-dir", tmp_path / "o", "--match-tolerance", "0.1") == 2
        assert "unrecognized arguments: --match-tolerance 0.1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("detect", ["--match-tolerance", "nan"]),
            ("detect", ["--match-tolerance", "inf"]),
            ("detect", ["--match-tolerance", "0.1"]),
            ("detect", ["--min-amplitude-fraction", "0.1"]),
            ("analyze", ["--min-amplitude-fraction", "0.1"]),
            ("detect", ["--order", "20"]),
            ("analyze", ["--config", "x.json"]),
            ("detect", ["--config", "x.json"]),
            ("spectrum", ["--config", "x.json"]),
            ("analyze", ["--max-gap-fraction", "0.1"]),
            ("detect", ["--max-gap-fraction", "0.1"]),
            ("spectrum", ["--max-gap-fraction", "0.1"]),
        ],
        ids=["match-tolerance-nan", "match-tolerance-inf", "match-tolerance", "detect-min-amplitude-fraction",
             "analyze-min-amplitude-fraction", "detect-order", "analyze-config-file", "detect-config-file",
             "spectrum-config-file", "analyze-max-gap-fraction", "detect-max-gap-fraction",
             "spectrum-max-gap-fraction"],
    )
    def test_fixed_rule_has_no_flag(self, growing_archive, tmp_path, capsys, command, flags):
        # the match tolerance and the amplitude floors are constants of the
        # method, detect runs at the automatic order, every command windows
        # at the policy's 1% gap fraction, and flags are the only settings:
        # there is no settings file
        assert run(command, growing_archive, "--out-dir", tmp_path / "o", *flags) == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("detect", ["--band", "oops"], "argument --band: band must be 'low,high', got 'oops'"),
            ("spectrum", ["--band", "1,2,3"], "argument --band: band must be 'low,high', got '1,2,3'"),
            ("analyze", ["--order", "3.7"], "argument --order: invalid int value: '3.7'"),
            ("analyze", ["--order", "auto"], "argument --order: invalid int value: 'auto'"),
            ("detect", ["--expected-dt", "x"], "argument --expected-dt: invalid float value: 'x'"),
        ],
        ids=["band-malformed", "spectrum-three-band-edges", "analyze-order-fraction", "analyze-order-auto",
             "expected-dt-not-a-number"],
    )
    def test_flag_of_wrong_type_is_usage_error(self, growing_archive, tmp_path, capsys, command, flags, message):
        # argparse prints its usage block, then one error line
        assert run(command, growing_archive, "--out-dir", tmp_path / "o", *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: lfodetect {command} ")
        assert err[-1] == f"lfodetect {command}: error: {message}"
        assert not (tmp_path / "o").exists()

    def test_band_ending_at_nyquist_runs(self, growing_archive, tmp_path):
        assert run("detect", growing_archive, "--out-dir", tmp_path / "o", "--band", "0.1,12.5") == 3
        assert (tmp_path / "o" / "alarms.jsonl").read_text()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("detect", ["--band", "2,1"], "band must satisfy"),
            ("spectrum", ["--band", "2,1"], "band must satisfy"),
            ("spectrum", ["--band", "1,1"], "band must satisfy"),
            ("detect", ["--stride-seconds", "30"], "stride must satisfy"),
            ("detect", ["--expected-dt", "nan"], "expected_dt must be finite, got nan"),
            ("detect", ["--expected-dt", "inf"], "expected_dt must be finite, got inf"),
            ("detect", ["--window-seconds", "inf"], "window_seconds must be finite, got inf"),
            ("spectrum", ["--stride-seconds", "nan"], "stride_seconds must be finite, got nan"),
            # a window of 626 samples supports orders up to 208
            ("analyze", ["--order", "300"], "626 samples cannot support order 300 (need >= 900)"),
            ("analyze", ["--emd", "--order", "209"], "626 samples cannot support order 209 (need >= 627)"),
            ("analyze", ["--order", "0"], "invalid setting: order must be >= 1, got 0"),
            ("analyze", ["--order", "-3"], "invalid setting: order must be >= 1, got -3"),
            ("detect", ["--band", "0.1,20"], "band upper edge 20.0 Hz exceeds Nyquist 12.5 Hz"),
            ("detect", ["--band", "0.1,inf"], "band upper edge inf Hz exceeds Nyquist 12.5 Hz"),
            ("detect", ["--window-seconds", "0.1", "--stride-seconds", "0.1"],
             "a window must hold at least 4 samples, got 3"),
            ("spectrum", ["--window-seconds", "0.1", "--stride-seconds", "0.1"],
             "a window must hold at least 4 samples, got 3"),
            ("analyze", ["--band", "0.1,2"], "band applies only with --emd"),
            ("analyze", ["--emd", "--band", "0.1,1e308"], "band upper edge 1e+308 Hz exceeds Nyquist 12.5 Hz"),
        ],
        ids=["inverted-band", "spectrum-inverted-band", "spectrum-zero-width-band", "stride-over-window",
             "expected-dt-nan", "expected-dt-inf", "window-seconds-inf", "spectrum-stride-seconds-nan",
             "analyze-order-above-window-limit", "emd-order-above-window-limit",
             "analyze-order-zero", "analyze-order-negative",
             "band-above-nyquist", "band-to-infinity",
             "window-of-three-samples", "spectrum-window-of-three-samples",
             "analyze-band-without-emd", "analyze-emd-band-above-nyquist"],
    )
    def test_invalid_setting_is_input_error(self, tmp_path, capsys, command, flags, message):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "1,0.7", "--seconds", "25.04", "-o", archive)
        capsys.readouterr()
        assert run(command, archive, "--out-dir", tmp_path / "o", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "o").exists()


class TestExitCodeContract:
    """Every input error past argument parsing exits 2 with one `error: ` line
    on stderr and no traceback. `{archive}` is a one-window archive,
    `{file}` a regular file and `{tmp}` the test's directory."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "{archive}", "--out-dir", "{file}"], "File exists"),
            (["detect", "{archive}", "--out-dir", "{file}"], "File exists"),
            (["spectrum", "{archive}", "--out-dir", "{file}"], "File exists"),
            (["detect", "{archive}", "--out-dir", "{file}/sub"], "Not a directory"),
            (["synth", "--tone", "0.1,0.52", "-o", "{file}/x.csv"], "File exists"),
            (["synth", "--tone", "0.1,0.52", "--snr-db", "40", "--seed", "-1", "-o", "{tmp}/neg.csv"],
             "rng_seed must be >= 0, got -1"),
            # a tone growing past float range, and noise scaled from a tone
            # power past it: no archive of inf and nan samples
            (["synth", "--tone", "1,0.5,50", "--seconds", "25.04", "-o", "{tmp}/grow.csv"],
             "synthesised sample 355 is not finite"),
            (["synth", "--tone", "1e308,0.5", "--snr-db", "40", "--seconds", "25.04", "-o", "{tmp}/loud.csv"],
             "synthesised sample 0 is not finite"),
            # 10 ** (-4000 / 10) underflows to 0: noise without bound
            (["synth", "--tone", "1,0.5", "--snr-db=-4000", "-o", "{tmp}/quiet.csv"],
             "synthesised sample 0 is not finite"),
            # NaN fails `sigma > 0`, so it would mean no noise
            (["synth", "--noise-sigma", "nan", "--seconds", "1", "-o", "{tmp}/s.csv"],
             "noise_sigma must be >= 0, got nan"),
            (["synth", "--tone", "0.1,0.52", "--snr-db", "nan", "-o", "{tmp}/s.csv"],
             "noise_snr_db must be a number, got nan"),
        ],
        ids=["analyze-out-dir-is-file", "detect-out-dir-is-file",
             "spectrum-out-dir-is-file", "out-dir-under-file", "synth-output-under-file", "synth-negative-seed",
             "synth-tone-overflows", "synth-noise-overflows", "synth-snr-ratio-underflows", "synth-nan-noise-sigma",
             "synth-nan-snr-db"],
    )
    def test_input_error_exits_2_with_one_line(self, tmp_path, capsys, argv, message):
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "1,0.7", "--seconds", "25.04", "-o", archive)
        (tmp_path / "file").write_text("")
        capsys.readouterr()
        names = {"archive": archive, "file": tmp_path / "file", "tmp": tmp_path}
        argv = [arg.format(**names) for arg in argv]
        if argv[0] != "synth" and "--out-dir" not in argv:
            argv += ["--out-dir", str(tmp_path / "o")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert message in err
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["a.csv"]

    def test_window_failure_ends_the_run(self, tmp_path, capsys, monkeypatch):
        # an unexpected error inside one window's analysis exits 2, naming
        # the window, before any manifest is written
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "1,0.7", "--seconds", "60", "-o", archive)
        fit = lf.prony.prony_analyze

        def failing(w, order=None):
            if w.t0_ms == 5000:
                raise RuntimeError("boom")
            return fit(w, order)

        monkeypatch.setattr(lf.prony, "prony_analyze", failing)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run("analyze", archive, "--out-dir", out) == 2
        assert capsys.readouterr().err == "error: synthetic_Frequency_Hz_5000: boom\n"
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "detect", "spectrum"])
    def test_overflowing_interpolation_skips_window(self, tmp_path, capsys, command):
        # 1e308 and -1e308 around a one-sample gap interpolate to -inf: the
        # window is skipped like an over-gapped one, not fatal to the run
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "1,0.7", "--seconds", "25.04", "-o", archive)
        lines = archive.read_text().splitlines(keepends=True)
        # samples 100 and 102 sit on lines 101 and 103; sample 101 is missing
        lines[101] = lines[101].rsplit(",", 1)[0] + ",1e308\n"
        lines[103] = lines[103].rsplit(",", 1)[0] + ",-1e308\n"
        del lines[102]
        archive.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(command, archive, "--out-dir", out) == 0
        assert capsys.readouterr().out == "no windows\n"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["note"] == "no windows"
        assert manifest["skipped_windows"] == [
            "stream synthetic/Frequency_Hz: window t0=0 skipped, interpolated sample 101 is not finite"]

    @pytest.mark.parametrize("command", ["analyze", "detect", "spectrum"])
    def test_window_past_int64_is_no_windows(self, tmp_path, capsys, command):
        # 1e18 s at 25 samples/s is more samples than int64 holds
        archive = tmp_path / "a.csv"
        run("synth", "--tone", "0.1,0.52,0.05", "--snr-db", "40", "--seconds", "60", "-o", archive)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(command, archive, "--window-seconds", "1e18", "--out-dir", out) == 0
        assert capsys.readouterr().out == "no windows\n"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["note"] == "no windows"
        assert manifest["windows"] == manifest["skipped_windows"] == []


class TestAtomicWrite:
    """Every case runs through `_atomic_write` here and through
    `write_archive` in the subclass below."""

    @staticmethod
    def write(path, tag: int) -> str:
        """Write text distinguished by `tag` to `path` and return it."""
        text = f"writer {tag}\n" * 1000
        _atomic_write(path, [text])
        return text

    def test_mode_follows_umask_and_no_temp_left(self, tmp_path):
        text = self.write(tmp_path / "out.txt", 1)
        (tmp_path / "plain.txt").write_text(text)
        assert (tmp_path / "out.txt").read_text() == text
        assert (tmp_path / "out.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]

    def test_failed_replace_removes_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            self.write(target, 1)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_synced_before_replace(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append("fsync")
            fsync(fd)

        def record_replace(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        self.write(tmp_path / "out.txt", 1)
        assert calls == ["fsync", "replace"]

    def test_concurrent_writers_to_one_path(self, tmp_path):
        # runs sharing an --out-dir write the same names at the same time;
        # each write must land whole and none may fail
        target = tmp_path / "alarms.jsonl"

        def write_many(tag):
            for _ in range(50):
                text = self.write(target, tag)
            return text

        with ThreadPoolExecutor(max_workers=4) as pool:
            texts = [f.result(timeout=60) for f in [pool.submit(write_many, tag) for tag in range(4)]]
        assert target.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["alarms.jsonl"]


class TestAtomicWriteArchive(TestAtomicWrite):
    @staticmethod
    def write(path, tag: int) -> str:
        window = SampleWindow("s1", Channel.Frequency_Hz, 0, 0.04, np.full(1000, float(tag)))
        write_archive(path, [window])
        return HEADER + "\n" + "".join(f"{40 * m},s1,Frequency_Hz,{tag}\n" for m in range(1000))

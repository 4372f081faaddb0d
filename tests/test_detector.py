import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lfodetect import (
    AlarmEvent,
    AnalysisConfig,
    Channel,
    ModeClass,
    PronyMode,
    Severity,
    SpectrumPeak,
    SynthSpec,
    ToneSpec,
    classify,
    detect,
    generate,
    match_modes,
)


def _mode(freq, amplitude=1.0, damping=-0.1, energy=0.5):
    return PronyMode(amplitude=amplitude, damping=damping, frequency=freq, phase=0.0, energy_fraction=energy)


def _peak(freq, magnitude=1.0):
    return SpectrumPeak(frequency=freq, magnitude=magnitude, phase=0.0)


class TestClassify:
    @pytest.mark.parametrize(
        "freq,expected",
        [
            (0.52, {ModeClass.InterArea}),
            (4.0, {ModeClass.Control}),
            (1.7, {ModeClass.Local, ModeClass.Control}),
            (12.0, {ModeClass.Torsional}),
            (0.05, set()),
            (9.0, set()),
            (1.0, {ModeClass.Local}),
            (1.5, {ModeClass.Local}),
            (2.0, {ModeClass.Local, ModeClass.Control}),
            (8.0, {ModeClass.Control}),
            (10.0, set()),
        ],
    )
    def test_band_table(self, freq, expected):
        assert classify(freq) == frozenset(expected)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.1)

    @given(st.floats(0.0, 50.0))
    def test_total_and_consistent(self, freq):
        classes = classify(freq)
        # InterArea and Torsional can never co-occur with anything
        if ModeClass.Torsional in classes:
            assert classes == {ModeClass.Torsional}
        if ModeClass.InterArea in classes:
            assert classes == {ModeClass.InterArea}


class TestMatchModes:
    def test_close_pair_matches(self):
        pairs = match_modes([_mode(0.67, amplitude=0.16, damping=-0.58)], [_peak(0.66)], 0.05)
        assert len(pairs) == 1

    def test_distant_pair_unmatched(self):
        assert match_modes([_mode(0.67)], [_peak(0.80)], 0.05) == []

    def test_higher_energy_mode_claims_shared_peak(self):
        strong = _mode(0.50, energy=0.9)
        weak = _mode(0.52, energy=0.1)
        pairs = match_modes([weak, strong], [_peak(0.51)], 0.05)
        assert len(pairs) == 1
        assert pairs[0][0] is strong

    def test_tie_broken_toward_lower_frequency(self):
        pairs = match_modes([_mode(0.60)], [_peak(0.62), _peak(0.58)], 0.05)
        assert pairs[0][1].frequency == 0.58

    def test_each_peak_used_once(self):
        modes = [_mode(0.50, energy=0.6), _mode(0.52, energy=0.4)]
        peaks = [_peak(0.51), _peak(0.53)]
        pairs = match_modes(modes, peaks, 0.05)
        assert len(pairs) == 2
        assert len({id(p) for _, p in pairs}) == 2

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            match_modes([], [], 0.0)

    @pytest.mark.parametrize("tolerance", [0.0, -0.1, float("inf"), float("nan")])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # a NaN or infinite tolerance would pair any mode with any peak
        with pytest.raises(ValueError, match="positive and finite"):
            match_modes([_mode(0.5)], [_peak(7.0)], tolerance)


class TestDetect:
    def test_growing_interarea_mode_is_critical(self):
        w = generate(
            SynthSpec(tones=(ToneSpec(0.1, 0.52, phase=0.3, damping=0.05),), dt=0.04, count=626, noise_snr_db=40, rng_seed=3)
        )
        report = detect(w)
        assert len(report.alarms) == 1
        alarm = report.alarms[0]
        assert alarm.classes == {ModeClass.InterArea}
        assert alarm.growing is True
        assert alarm.severity is Severity.Critical
        assert alarm.matched_frequency_hz == pytest.approx(0.52, abs=0.01)
        assert abs(alarm.prony_mode.frequency - alarm.fft_peak.frequency) <= 0.05

    def test_decaying_mode_is_info(self):
        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.84, damping=-0.2),), dt=0.04, count=626))
        report = detect(w)
        assert len(report.alarms) == 1
        alarm = report.alarms[0]
        assert alarm.classes == {ModeClass.InterArea}
        assert alarm.growing is False
        assert alarm.severity is Severity.Info

    def test_slowly_decaying_mode_is_warning(self):
        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.7, damping=-0.01),), dt=0.04, count=626))
        report = detect(w)
        assert len(report.alarms) == 1
        assert report.alarms[0].severity is Severity.Warning

    def test_noise_only_windows_rarely_alarm(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(9000 + seed)
            w = make_noise_window(rng)
            hits += bool(detect(w).alarms)
        assert hits <= 1

    def test_trend_yields_empty_report(self, make_window):
        t = np.arange(626) * 0.04
        report = detect(make_window(0.2 * t + 1.0))
        assert report.alarms == ()
        assert report.prony_fit is None
        assert report.fft_peaks == ()

    def test_no_spectral_peak_keeps_the_fit(self, monkeypatch):
        from lfodetect import spectrum

        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=626, noise_snr_db=40, rng_seed=3))
        fit = detect(w).prony_fit

        def no_peaks(spec, band_hz):
            return []

        monkeypatch.setattr(spectrum, "find_peaks", no_peaks)
        report = detect(w)
        assert report.prony_fit.modes == fit.modes and report.prony_fit.fit_quality == fit.fit_quality
        assert report.fft_peaks == () and report.alarms == ()

    def test_band_passed_window_without_excitation_gives_empty_report(self, monkeypatch):
        from lfodetect import DetectionReport, prony

        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=626, noise_snr_db=40, rng_seed=3))
        fitted = []

        def no_excitation(bp, order=None):
            fitted.append(bp)
            raise prony.InsufficientExcitation("degenerate prediction system")

        monkeypatch.setattr(prony, "prony_analyze", no_excitation)
        report = detect(w)
        # the full fit of the band-passed window raised, so no half fit ran
        assert len(fitted) == 1 and fitted[0].count == w.count
        assert not np.array_equal(fitted[0].samples, w.samples)
        assert dataclasses.astuple(report) == dataclasses.astuple(DetectionReport()) == (None, (), ())

    def test_control_band_preset(self):
        w = generate(SynthSpec(tones=(ToneSpec(0.31, 4.0, damping=-0.21),), dt=0.04, count=626))
        assert detect(w).alarms == ()
        wide = detect(w, AnalysisConfig(emd_band_hz=(0.1, 10.0)))
        assert len(wide.alarms) == 1
        assert wide.alarms[0].classes == {ModeClass.Control}

    def test_deterministic(self):
        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=626, noise_snr_db=35, rng_seed=6))
        r1, r2 = detect(w), detect(w)
        assert [a.to_json_dict() for a in r1.alarms] == [a.to_json_dict() for a in r2.alarms]

    def test_scaling_leaves_alarm_shape_unchanged(self):
        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=626, noise_snr_db=40, rng_seed=3))
        scaled = w.replace_samples(np.asarray(w.samples) * 7.0)
        r1, r2 = detect(w), detect(scaled)
        assert len(r1.alarms) == len(r2.alarms) == 1
        a1, a2 = r1.alarms[0], r2.alarms[0]
        assert a2.classes == a1.classes
        assert a2.growing == a1.growing
        assert a2.severity == a1.severity
        assert a2.matched_frequency_hz == pytest.approx(a1.matched_frequency_hz, abs=1e-6)
        assert a2.prony_mode.amplitude == pytest.approx(7.0 * a1.prony_mode.amplitude, rel=1e-6)

    def test_alarm_record_holds_every_field(self):
        w = generate(SynthSpec(tones=(ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=626, noise_snr_db=40, rng_seed=3))
        (alarm,) = detect(w).alarms
        record = alarm.to_json_dict()
        assert set(record) == {f.name for f in dataclasses.fields(AlarmEvent)}
        assert set(record["prony_mode"]) == {f.name for f in dataclasses.fields(PronyMode)}
        assert set(record["fft_peak"]) == {f.name for f in dataclasses.fields(SpectrumPeak)}
        assert (record["channel"], record["classes"], record["severity"]) == ("Frequency_Hz", ["InterArea"], "Critical")
        # plain JSON values, and the alarm's own fields left as they were
        assert json.loads(json.dumps(record)) == record
        assert alarm.channel is Channel.Frequency_Hz and alarm.classes == {ModeClass.InterArea}

    def test_report_invariants(self):
        w = generate(
            SynthSpec(
                tones=(ToneSpec(0.1, 0.52, damping=0.05), ToneSpec(0.05, 1.3, damping=-0.1)),
                dt=0.04,
                count=626,
                noise_snr_db=35,
                rng_seed=1,
            )
        )
        report = detect(w)
        assert report.alarms
        assert len(report.alarms) <= min(len(report.prony_fit.modes), len(report.fft_peaks))
        # every alarm pairs a mode of the fit with a peak of the report,
        # and no mode or peak serves two alarms
        modes = [a.prony_mode for a in report.alarms]
        peaks = [a.fft_peak for a in report.alarms]
        assert all(any(m is x for x in report.prony_fit.modes) for m in modes)
        assert all(any(p is x for x in report.fft_peaks) for p in peaks)
        assert len({id(m) for m in modes}) == len(modes)
        assert len({id(p) for p in peaks}) == len(peaks)


@pytest.mark.parametrize("count, modes, half_fits", [(22, [_mode(0.5)], 0), (626, [], 0), (24, [_mode(0.5)], 1)],
                         ids=["halves-under-12-samples", "no-modes", "halves-of-12-samples"])
def test_stability_gate_runs_only_on_halves_it_can_fit(monkeypatch, make_window, count, modes, half_fits):
    """`_stable_modes` returns its modes as they are, without a half fit,
    when there is no mode to check or a half holds fewer than 12 samples;
    a half fit that finds no excitation keeps them too."""
    from lfodetect import detector, prony

    fitted = []

    def no_excitation(half, order=None):
        fitted.append(half)
        raise prony.InsufficientExcitation("degenerate prediction system")

    monkeypatch.setattr(prony, "prony_analyze", no_excitation)
    w = make_window(np.sin(np.arange(count) * 0.3))
    assert detector._stable_modes(w, modes) is modes
    assert len(fitted) == half_fits


def make_noise_window(rng):
    from lfodetect import Channel, SampleWindow

    return SampleWindow("noise", Channel.Frequency_Hz, 0, 0.04, rng.standard_normal(626))


class TestSlidingWindowConsistency:
    def test_growing_mode_alarms_in_every_window_position(self, tmp_path):
        """A growing swing must not slip through at any window offset.

        Regression guard: envelope knots contaminated by sub-scale
        contra-extrema used to bleed the oscillation into the sift's
        envelope mean for some offsets, collapsing fit quality and
        silencing the alarm.
        """
        import lfodetect as lf

        source = lf.generate(
            lf.SynthSpec(
                tones=(lf.ToneSpec(0.1, 0.52, damping=0.05),),
                dt=0.04,
                count=1501,
                noise_snr_db=40,
                rng_seed=2,
            )
        )
        archive = tmp_path / "long.csv"
        lf.write_archive(archive, [source])
        windows = lf.make_windows(lf.read_archive(archive), lf.WindowingPolicy())
        assert len(windows) == 8
        for window in windows:
            report = detect(window)
            assert len(report.alarms) == 1, f"t0={window.t0_ms}"
            alarm = report.alarms[0]
            assert alarm.severity is Severity.Critical
            assert alarm.growing
            assert alarm.prony_mode.damping == pytest.approx(0.05, rel=0.15)


def test_growing_control_mode_is_warning():
    """Growth escalates to Critical only for inter-area/local classes;
    a growing control-band mode warns instead."""
    from lfodetect import AnalysisConfig, SynthSpec, ToneSpec, generate

    w = generate(SynthSpec(tones=(ToneSpec(0.1, 4.0, damping=0.05),), dt=0.04, count=626))
    report = detect(w, AnalysisConfig(emd_band_hz=(0.1, 10.0)))
    assert len(report.alarms) == 1
    alarm = report.alarms[0]
    assert alarm.classes == {ModeClass.Control}
    assert alarm.growing is True
    assert alarm.severity is Severity.Warning


@pytest.mark.parametrize("frequency, classes", [(9.0, frozenset()), (4.0, {ModeClass.Control})], ids=["gap", "control"])
def test_match_in_classification_gap_raises_no_alarm(frequency, classes):
    """A mode and a peak that agree inside a classification gap, (8, 10]
    Hz, pair up but raise no alarm; the same growing tone in the Control
    band does."""
    from lfodetect import CONTROL_HUNT_BAND, detector

    w = generate(SynthSpec(tones=(ToneSpec(0.1, frequency, damping=0.05),), dt=0.04, count=626,
                           noise_snr_db=40, rng_seed=1))
    report = detect(w, AnalysisConfig(emd_band_hz=CONTROL_HUNT_BAND))
    (mode,) = report.prony_fit.modes
    (peak,) = report.fft_peaks
    assert abs(mode.frequency - frequency) < 0.01 and abs(peak.frequency - frequency) < 0.01
    # the two agree within the window's match tolerance
    tol = max(1.0 / w.duration, detector.MATCH_TOLERANCE_FLOOR_HZ)
    assert detector.match_modes(report.prony_fit.modes, report.fft_peaks, tol) == [(mode, peak)]
    assert classify(0.5 * (mode.frequency + peak.frequency)) == frozenset(classes)
    assert [a.classes for a in report.alarms] == ([classes] if classes else [])

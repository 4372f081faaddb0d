import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lfodetect as lf
from lfodetect import (
    AnalysisConfig,
    Channel,
    ModeClass,
    MODE_BANDS,
    PronyMode,
    SampleWindow,
    ValidationError,
    wrap_angle,
)


#: A window every bad variant below is built from by `dataclasses.replace`.
_VALID = SampleWindow("s", Channel.Frequency_Hz, 0, 0.04, np.ones(20))


def _nan_at_7():
    samples = np.ones(20)
    samples[7] = np.nan
    return samples


def _refused(message, samples, dt=0.04):
    """Assert that the constructor and `dataclasses.replace` each refuse a
    window of `samples` and `dt` with `message`."""
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(ValidationError, match=pattern):
        SampleWindow("s", Channel.Frequency_Hz, 0, dt, samples)
    with pytest.raises(ValidationError, match=pattern):
        dataclasses.replace(_VALID, dt=dt, samples=samples)


class TestValidateWindow:
    """A window checks its invariant when it is built, so every way of
    building one refuses a bad one."""

    def test_accepts_standard_window(self, make_window):
        samples = np.sin(np.arange(625) * 0.1)
        w = make_window(samples, dt=0.04)
        assert (w.count, w.dt) == (625, 0.04) and np.array_equal(w.samples, samples)
        assert dataclasses.replace(w, samples=samples[:4]).count == 4
        assert w.replace_samples(samples[:4]).count == 4

    def test_too_short(self):
        _refused("window has 3 samples, need at least 4", [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match=r"^window has 3 samples, need at least 4$"):
            _VALID.replace_samples([1.0, 2.0, 3.0])

    def test_non_finite_reports_first_index(self):
        samples = np.ones(20)
        samples[7] = np.nan
        samples[12] = np.inf
        _refused("sample 7 is not finite", samples)

    def test_inf_rejected(self):
        samples = np.ones(20)
        samples[3] = -np.inf
        _refused("sample 3 is not finite", samples)
        samples[3] = np.inf
        _refused("sample 3 is not finite", samples)

    @pytest.mark.parametrize("dt", [0.0, -0.04, math.nan, math.inf])
    def test_bad_dt(self, dt):
        _refused(f"sample interval must be a positive finite number, got {dt}", np.ones(10), dt=dt)

    def test_two_dimensional_samples_rejected(self):
        # the shape is checked first, before dt
        _refused("samples must be one-dimensional, got shape (626, 2)", np.ones((626, 2)), dt=0.0)
        with pytest.raises(ValidationError, match=re.escape("got shape (626, 2)")):
            _VALID.replace_samples(np.ones((626, 2)))

    def test_zero_dimensional_samples_rejected(self):
        _refused("samples must be one-dimensional, got shape ()", np.float64(1.0))
        with pytest.raises(ValidationError, match=re.escape("got shape ()")):
            _VALID.replace_samples(1.0)

    def test_replace_samples_keeps_missing_values(self):
        # NaN marks a missing sample for write_archive, which writes it as
        # a record that ingest reads as missing; analysis refuses it
        w = _VALID.replace_samples(_nan_at_7())
        assert np.isnan(w.samples[7]) and not w.samples.flags.writeable
        with pytest.raises(ValidationError, match=r"^sample 7 is not finite$"):
            w.require_finite()
        w.replace_samples(np.ones(20)).require_finite()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=200))
    def test_any_finite_window_accepted(self, samples):
        w = SampleWindow("s", Channel.Frequency_Hz, 0, 0.04, np.array(samples))
        assert np.array_equal(w.samples, samples)
        assert np.array_equal(dataclasses.replace(_VALID, samples=samples).samples, samples)

    @settings(max_examples=400)
    @given(
        hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=8),
                   elements=st.floats(allow_nan=True, allow_infinity=True)),
        st.sampled_from([0.0, -0.04, math.nan, math.inf, -math.inf]) | st.floats(1e-300, 1e300),
    )
    def test_built_window_holds_the_invariant(self, samples, dt):
        for build in (lambda: SampleWindow("s", Channel.Frequency_Hz, 0, dt, samples),
                      lambda: dataclasses.replace(_VALID, dt=dt, samples=samples)):
            try:
                w = build()
            except ValidationError:
                continue
            assert w.samples.ndim == 1 and not w.samples.flags.writeable
            assert w.count >= 4 and np.all(np.isfinite(w.samples))
            assert w.dt > 0 and math.isfinite(w.dt)
        # replace_samples may keep non-finite samples, and then only them
        try:
            w = dataclasses.replace(_VALID, dt=dt).replace_samples(samples)
        except ValidationError:
            return
        assert w.samples.ndim == 1 and not w.samples.flags.writeable and w.count >= 4
        finite = np.isfinite(w.samples)
        if finite.all():
            w.require_finite()
        else:
            with pytest.raises(ValidationError, match=f"^sample {np.flatnonzero(~finite)[0]} is not finite$"):
                w.require_finite()


#: Every public stage that takes a window, called the way its callers call it.
_STAGES = {
    "detect": lf.detect,
    "decompose": lf.decompose,
    "bandpass": lf.bandpass,
    "prony_analyze": lf.prony_analyze,
    "fit_lpm": lambda w: lf.fit_lpm(w, 1),
    "solve_amplitudes": lambda w: lf.solve_amplitudes(w, [0.5]),
    "dft": lf.dft,
}


@pytest.mark.parametrize("stage", sorted(_STAGES))
@pytest.mark.parametrize("dt, samples, message", [
    (0.0, np.ones(10), "sample interval must be a positive finite number, got 0.0"),
    (0.04, np.ones(3), "window has 3 samples, need at least 4"),
    (0.04, _nan_at_7(), "sample 7 is not finite"),
], ids=["dt-0", "3-samples", "nan-at-7"])
def test_every_stage_checks_its_window(stage, dt, samples, message):
    """No stage runs on a bad window. A bad grid is refused where the
    window is built; a missing sample, which only `replace_samples` keeps,
    is refused by the stage from what the build found."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _STAGES[stage](SampleWindow("s", Channel.Frequency_Hz, 0, dt, np.ones(20)).replace_samples(samples))


class TestSampleWindow:
    def test_samples_read_only(self, make_window):
        w = make_window(np.ones(10))
        with pytest.raises(ValueError):
            w.samples[0] = 5.0

    def test_frozen(self, make_window):
        w = make_window(np.ones(10))
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.dt = 0.1

    def test_duration_and_times(self, make_window):
        w = make_window(np.ones(626), dt=0.04)
        assert w.duration == pytest.approx(25.0)
        assert w.times[1] == pytest.approx(0.04)
        assert w.count == 626

    @pytest.mark.parametrize("frozen", [False, True], ids=["writable", "frozen"])
    def test_caller_array_is_copied(self, frozen):
        samples = np.linspace(0.0, 1.0, 10)
        samples.flags.writeable = not frozen
        w = SampleWindow("s", Channel.Frequency_Hz, 0, 0.04, samples)
        assert not np.shares_memory(w.samples, samples)
        samples.flags.writeable = True
        samples[0] = 5.0
        assert w.samples[0] == 0.0

    def test_replace_samples_keeps_identity(self, make_window):
        w = make_window(np.ones(10), station="stn", t0_ms=55)
        w2 = w.replace_samples(np.zeros(10))
        assert (w2.station_id, w2.channel, w2.t0_ms, w2.dt) == ("stn", w.channel, 55, w.dt)
        assert np.all(w2.samples == 0.0)


class TestWrapAngle:
    @given(st.floats(-1e4, 1e4))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == math.pi


class TestPronyMode:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            PronyMode(amplitude=-1.0, damping=0.0, frequency=1.0, phase=0.0)

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(ValueError):
            PronyMode(amplitude=1.0, damping=0.0, frequency=1.0, phase=4.0)

    def test_rejects_bad_energy_fraction(self):
        with pytest.raises(ValueError):
            PronyMode(amplitude=1.0, damping=0.0, frequency=1.0, phase=0.0, energy_fraction=1.5)


class TestModeBands:
    def test_declared_band_table(self):
        assert MODE_BANDS[ModeClass.InterArea] == (0.1, 1.0, True, False)
        assert MODE_BANDS[ModeClass.Local] == (1.0, 2.0, True, True)
        assert MODE_BANDS[ModeClass.Control] == (1.5, 8.0, False, True)
        lo, hi, lo_inc, hi_inc = MODE_BANDS[ModeClass.Torsional]
        assert lo == 10.0 and hi == math.inf and not lo_inc


class TestAnalysisConfig:
    def test_defaults(self):
        from lfodetect import detector, emd, prony, spectrum

        cfg = AnalysisConfig()
        assert cfg.emd_band_hz == (0.1, 2.0)
        # the fixed parts of the recipe are constants beside their stage
        assert prony.MIN_MODE_AMPLITUDE_FRACTION == 0.02
        assert emd.MIN_IMF_AMPLITUDE_FRACTION == 0.02
        assert emd.MAX_SIFT_ITERATIONS == 50
        assert emd.SIFT_SD_THRESHOLD == 0.2
        assert detector.MIN_FIT_QUALITY == 0.5
        assert spectrum.MAX_PEAKS == 10
        assert spectrum.PEAK_MIN_FRACTION == 0.1
        # the peak limits belong to the peak picker alone
        assert not hasattr(detector, "MAX_FFT_PEAKS")
        assert not hasattr(detector, "FFT_PEAK_MIN_FRACTION")

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == ["emd_band_hz"]
        # a fixed gate, read from the class but not settable
        assert AnalysisConfig().slow_decay_threshold == 0.05
        with pytest.raises(TypeError):
            AnalysisConfig(slow_decay_threshold=0.1)
        # the match tolerance and the amplitude floors are detector, prony
        # and emd constants
        for name, value in (("match_tolerance_hz", 0.1), ("min_mode_amplitude_fraction", 0.03)):
            with pytest.raises(TypeError):
                AnalysisConfig(**{name: value})

    def test_bad_band(self):
        with pytest.raises(ValueError):
            AnalysisConfig(emd_band_hz=(2.0, 0.1))
        with pytest.raises(ValueError):
            AnalysisConfig(emd_band_hz=(0.0, 2.0))

    def test_match_tolerance_auto(self, monkeypatch):
        # the detector matches within the window's Rayleigh limit, never
        # finer than detector.MATCH_TOLERANCE_FLOOR_HZ
        from lfodetect import SynthSpec, ToneSpec, detector, generate

        tolerances = []
        real = detector.match_modes

        def spy(modes, peaks, tol_hz):
            tolerances.append(tol_hz)
            return real(modes, peaks, tol_hz)

        monkeypatch.setattr(detector, "match_modes", spy)
        # 24.96 s window: Rayleigh limit 0.04 Hz, floor 0.05 wins;
        # 10 s window: Rayleigh limit wins
        for count in (625, 251):
            assert detector.detect(generate(SynthSpec(tones=(ToneSpec(0.1, 0.52),), dt=0.04, count=count))).alarms
        assert tolerances == [pytest.approx(0.05), pytest.approx(0.1)]

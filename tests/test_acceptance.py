"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

import lfodetect as lf
from lfodetect.cli import main as cli_main


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"{name}: FAIL ({exc})")
                raise
            print(f"{name}: PASS")

        return wrapper

    return decorate


AC1_TONES = (
    lf.ToneSpec(0.10, 0.52, phase=0.3, damping=0.05),
    lf.ToneSpec(0.05, 0.84, phase=-1.0, damping=-0.20),
    lf.ToneSpec(0.02, 1.40, phase=2.0, damping=-0.30),
)


@criterion("AC1 noiseless recovery")
def test_ac1_noiseless_prony_recovery():
    window = lf.generate(lf.SynthSpec(tones=AC1_TONES, dt=0.04, count=625))
    start = time.perf_counter()
    fit = lf.prony_analyze(window)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    assert fit.fit_quality >= 0.999
    assert len(fit.modes) == 3
    for tone in AC1_TONES:
        mode = min(fit.modes, key=lambda m: abs(m.frequency - tone.frequency))
        assert abs(mode.frequency - tone.frequency) <= 1e-4
        assert abs(mode.damping - tone.damping) <= 1e-3
        assert abs(mode.amplitude - tone.amplitude) / tone.amplitude <= 1e-3
        assert abs(lf.wrap_angle(mode.phase - tone.phase)) <= 1e-3


@criterion("AC2 noisy recovery after band-pass")
def test_ac2_noisy_recovery():
    targets = [(0.52, 0.05), (0.84, -0.20)]
    freq_err = {f: [] for f, _ in targets}
    damp_err = {f: [] for f, _ in targets}
    start = time.perf_counter()
    for seed in range(20):
        window = lf.generate(
            lf.SynthSpec(tones=AC1_TONES, dt=0.04, count=625, noise_snr_db=40.0, rng_seed=seed)
        )
        fit = lf.prony_analyze(lf.bandpass(window))
        for f_true, s_true in targets:
            mode = min(fit.modes, key=lambda m: abs(m.frequency - f_true))
            freq_err[f_true].append(abs(mode.frequency - f_true))
            damp_err[f_true].append(abs(mode.damping - s_true) / abs(s_true))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    for f_true, _ in targets:
        assert float(np.median(freq_err[f_true])) <= 0.02
        assert float(np.median(damp_err[f_true])) <= 0.15


@criterion("AC3 EMD reconstruction and IMF balance")
def test_ac3_emd_reconstruction(imf_balance):
    rng = np.random.default_rng(77)
    for case in range(50):
        n_tones = int(rng.integers(1, 5))
        freqs = []
        while len(freqs) < n_tones:
            f = float(rng.uniform(0.15, 3.0))
            if all(abs(f - g) > 0.15 for g in freqs):
                freqs.append(f)
        tones = tuple(
            lf.ToneSpec(
                float(rng.uniform(0.2, 1.0)),
                f,
                phase=float(rng.uniform(-math.pi, math.pi)),
                damping=float(rng.uniform(-0.15, 0.05)),
            )
            for f in freqs
        )
        snr = None if case % 2 == 0 else float(rng.uniform(10.0, 25.0))
        window = lf.generate(
            lf.SynthSpec(
                tones=tones,
                dt=0.04,
                count=int(rng.integers(300, 800)),
                noise_snr_db=snr,
                rng_seed=int(rng.integers(0, 10000)),
            )
        )
        imf_set = lf.decompose(window)
        recon = np.asarray(imf_set.residue).copy()
        for imf in imf_set.imfs:
            recon += np.asarray(imf.samples)
        tol = 1e-9 * float(np.max(np.abs(window.samples)))
        assert np.max(np.abs(recon - np.asarray(window.samples))) <= tol, f"case {case}"
        for imf in imf_set.imfs:
            assert abs(imf_balance(imf.samples)) <= 1, f"case {case}"


@criterion("AC4 DFT exactness")
def test_ac4_dft_exactness():
    # in-bin magnitude A/2
    m = np.arange(32)
    window = lf.SampleWindow("s", lf.Channel.Frequency_Hz, 0, 0.04, 0.7 * np.sin(2 * np.pi * 3 * m / 32))
    spec = lf.dft(window)
    assert abs(spec.magnitudes[3] - 0.35) <= 1e-12
    # Parseval and conjugate symmetry on 20 random real windows
    rng = np.random.default_rng(4)
    for _ in range(20):
        count = int(rng.integers(16, 400))
        samples = rng.uniform(-5.0, 5.0, count)
        spec = lf.dft(lf.SampleWindow("s", lf.Channel.Frequency_Hz, 0, 0.04, samples))
        bins = np.asarray(spec.bins)
        lhs = float(np.sum(samples**2))
        rhs = count * float(np.sum(np.abs(bins) ** 2))
        assert abs(rhs - lhs) <= 1e-10 * lhs
        sym = bins[1:][::-1] - np.conj(bins[1:])
        assert np.max(np.abs(sym)) <= 1e-12 * max(1.0, float(np.max(np.abs(bins))))


@criterion("AC5 classifier band table")
def test_ac5_classifier_table():
    # independent re-statement of the declared bands
    def expected(freq):
        classes = set()
        if 0.1 <= freq < 1.0:
            classes.add(lf.ModeClass.InterArea)
        if 1.0 <= freq <= 2.0:
            classes.add(lf.ModeClass.Local)
        if 1.5 < freq <= 8.0:
            classes.add(lf.ModeClass.Control)
        if freq > 10.0:
            classes.add(lf.ModeClass.Torsional)
        return frozenset(classes)

    for k in range(0, 2001):
        freq = k / 100.0
        assert lf.classify(freq) == expected(freq), f"f={freq}"


@criterion("AC6 end-to-end alarm and false-alarm rate")
def test_ac6_end_to_end_alarm(tmp_path):
    start = time.perf_counter()
    archive = tmp_path / "grow.csv"
    code = cli_main(
        ["synth", "--tone", "0.1,0.52,0.05,0.3", "--dt", "0.04", "--seconds", "25.04",
         "--snr-db", "40", "--seed", "3", "-o", str(archive)]
    )
    assert code == 0
    out = tmp_path / "out"
    code = cli_main(["detect", str(archive), "--out-dir", str(out)])
    assert code == 3, f"expected critical exit 3, got {code}"
    lines = (out / "alarms.jsonl").read_text().splitlines()
    assert len(lines) == 1, f"expected exactly one alarm, got {len(lines)}"
    alarm = json.loads(lines[0])
    assert alarm["severity"] == "Critical"
    assert alarm["classes"] == ["InterArea"]
    assert alarm["growing"] is True

    false_alarms = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        window = lf.SampleWindow("noise", lf.Channel.Frequency_Hz, 0, 0.04, rng.standard_normal(626))
        false_alarms += len(lf.detect(window).alarms)
    assert false_alarms <= 5, f"{false_alarms} false alarms"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


@criterion("AC7 equivariances")
def test_ac7_equivariances():
    rng = np.random.default_rng(5)

    def random_window():
        n_tones = int(rng.integers(1, 4))
        freqs = []
        while len(freqs) < n_tones:
            f = float(rng.uniform(0.2, 3.0))
            if all(abs(f - g) > 0.2 for g in freqs):
                freqs.append(f)
        tones = tuple(
            lf.ToneSpec(
                float(rng.uniform(0.2, 2.0)),
                f,
                phase=float(rng.uniform(-3.0, 3.0)),
                damping=float(rng.uniform(-0.3, 0.1)),
            )
            for f in freqs
        )
        return lf.generate(lf.SynthSpec(tones=tones, dt=0.04, count=450))

    for _ in range(20):
        window = random_window()
        # amplitude scaling
        scale = float(rng.uniform(0.1, 10.0))
        fit = lf.prony_analyze(window)
        fit_scaled = lf.prony_analyze(window.replace_samples(np.asarray(window.samples) * scale))
        assert len(fit.modes) == len(fit_scaled.modes)
        for mode in fit.modes:
            other = min(fit_scaled.modes, key=lambda m: abs(m.frequency - mode.frequency))
            assert abs(other.amplitude - scale * mode.amplitude) <= 1e-9 * scale * mode.amplitude + 1e-12
            assert abs(other.damping - mode.damping) <= 1e-9
            assert abs(other.frequency - mode.frequency) <= 1e-9
            assert abs(lf.wrap_angle(other.phase - mode.phase)) <= 1e-9
        # time shift
        shift = int(rng.integers(1, 60))
        fit_shifted = lf.prony_analyze(window.replace_samples(np.asarray(window.samples)[shift:]))
        for mode in fit.modes:
            other = min(fit_shifted.modes, key=lambda m: abs(m.frequency - mode.frequency))
            assert abs(other.damping - mode.damping) <= 1e-6
            assert abs(other.frequency - mode.frequency) <= 1e-6
            rotation = 2 * math.pi * mode.frequency * shift * window.dt
            assert abs(lf.wrap_angle(other.phase - mode.phase - rotation)) <= 1e-6


@criterion("AC8 archive round trip")
def test_ac8_round_trip(tmp_path):
    window = lf.generate(
        lf.SynthSpec(
            tones=(lf.ToneSpec(0.4, 0.61, phase=1.1, damping=-0.15),),
            dt=0.04,
            count=625,
            noise_snr_db=30.0,
            rng_seed=12,
        ),
        station_id="rt",
        t0_ms=98765,
    )
    path = tmp_path / "rt.csv"
    lf.write_archive(path, [window])
    policy = lf.WindowingPolicy(window_seconds=(window.count - 1) * window.dt, stride_seconds=5.0, expected_dt=window.dt)
    restored = lf.make_windows(lf.read_archive(path), policy)
    assert len(restored) == 1
    assert np.array_equal(np.asarray(window.samples), np.asarray(restored[0].samples))
    assert restored[0].t0_ms == 98765

    records = list(lf.read_archive(path))
    rng = np.random.default_rng(0)
    for _ in range(3):
        shuffled = list(records)
        rng.shuffle(shuffled)
        again = lf.make_windows(shuffled, policy)
        assert len(again) == 1
        assert np.array_equal(np.asarray(again[0].samples), np.asarray(restored[0].samples))


@criterion("AC9 control-mode band preset")
def test_ac9_control_band_preset():
    window = lf.generate(
        lf.SynthSpec(tones=(lf.ToneSpec(0.31, 4.0, damping=-0.21),), dt=0.04, count=626)
    )
    wide = lf.detect(window, lf.AnalysisConfig(emd_band_hz=lf.CONTROL_HUNT_BAND))
    assert len(wide.alarms) == 1
    assert wide.alarms[0].classes == {lf.ModeClass.Control}
    assert wide.alarms[0].matched_frequency_hz == pytest.approx(4.0, abs=0.05)

    default = lf.detect(window)
    assert default.alarms == ()

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import get_lapack_funcs

from lfodetect import (
    AnalysisConfig,
    EmptyBand,
    SynthSpec,
    ToneSpec,
    bandpass,
    decompose,
    generate,
)
from lfodetect import emd
from lfodetect.emd import _envelope, _natural_spline, _persistent_extrema, mean_frequency


def _corr(a, b):
    return float(np.corrcoef(np.asarray(a), np.asarray(b))[0, 1])


class TestMeanFrequency:
    def test_one_hertz_tone_over_ten_seconds(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=251))
        assert mean_frequency(w.samples, 0.04) == pytest.approx(1.0, abs=0.1)

    def test_constant_signal_is_zero(self):
        assert mean_frequency(np.full(50, 3.3), 0.04) == 0.0

    def test_zero_signal_is_zero(self):
        # no sample has a sign, so there is no pair of signs to compare
        assert mean_frequency(np.zeros(50), 0.04) == 0.0

    def test_alternating_signal_hits_nyquist(self):
        x = (-1.0) ** np.arange(200)
        assert mean_frequency(x, 0.04) == pytest.approx(12.5)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            mean_frequency([1.0, -1.0, 1.0], 0.04)

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf], ids=["zero-dt", "nan-dt", "inf-dt"])
    def test_rejects_dt_not_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match=r"^dt must be positive and finite, got "):
            mean_frequency(np.cos(np.arange(50)), dt)

    def test_sub_scale_wiggles_do_not_inflate(self):
        # a 0.5 Hz tone with 1% fast ripple still reads ~0.5 Hz
        t = np.arange(625) * 0.04
        x = np.cos(2 * np.pi * 0.5 * t) + 0.01 * np.cos(2 * np.pi * 6.0 * t)
        assert mean_frequency(x, 0.04) == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("frequency", [-0.5, math.nan], ids=["negative", "nan"])
def test_imf_refuses_negative_or_nan_frequency(frequency):
    with pytest.raises(ValueError, match=r"^mean_frequency_hz must be >= 0$"):
        emd.Imf(np.ones(10), frequency)


class TestDecompose:
    def test_monotone_ramp_yields_no_imfs(self, make_window):
        w = make_window(np.linspace(0.0, 5.0, 200))
        s = decompose(w)
        assert len(s.imfs) == 0
        assert np.array_equal(np.asarray(s.residue), np.asarray(w.samples))

    def test_pure_tone_single_imf(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=625))
        s = decompose(w)
        assert 1 <= len(s.imfs) <= 2
        assert _corr(s.imfs[0].samples, w.samples) >= 0.99
        assert np.max(np.abs(s.residue)) <= 0.05 * 1.0

    def test_two_tone_scale_separation(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 1.5), ToneSpec(1.0, 0.2)), dt=0.04, count=625))
        s = decompose(w)
        assert abs(s.imfs[0].mean_frequency_hz - 1.5) <= 0.2 * 1.5
        assert any(abs(i.mean_frequency_hz - 0.2) <= 0.2 * 0.2 for i in s.imfs[1:])

    def test_perfect_reconstruction(self):
        w = generate(
            SynthSpec(
                tones=(ToneSpec(1.0, 0.8, phase=0.5), ToneSpec(0.5, 2.2, damping=-0.1)),
                dt=0.04,
                count=600,
                noise_snr_db=20,
                rng_seed=3,
            )
        )
        s = decompose(w)
        recon = np.asarray(s.residue).copy()
        for imf in s.imfs:
            recon += np.asarray(imf.samples)
        assert np.max(np.abs(recon - np.asarray(w.samples))) <= 1e-9 * np.max(np.abs(w.samples))

    def test_accepted_imfs_balance_extrema_and_crossings(self, imf_balance):
        w = generate(
            SynthSpec(tones=(ToneSpec(1.0, 1.1), ToneSpec(0.7, 0.3)), dt=0.04, count=625, noise_snr_db=15, rng_seed=1)
        )
        s = decompose(w)
        assert s.imfs
        for imf in s.imfs:
            assert abs(imf_balance(imf.samples)) <= 1

    def test_deterministic(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 0.9),), dt=0.04, count=500, noise_snr_db=25, rng_seed=8))
        s1, s2 = decompose(w), decompose(w)
        assert len(s1.imfs) == len(s2.imfs)
        for a, b in zip(s1.imfs, s2.imfs):
            assert np.array_equal(np.asarray(a.samples), np.asarray(b.samples))
        assert np.array_equal(np.asarray(s1.residue), np.asarray(s2.residue))

    def test_imf_metadata(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=300))
        s = decompose(w)
        for imf in s.imfs:
            assert imf.mean_frequency_hz == pytest.approx(mean_frequency(imf.samples, w.dt))


class TestBandpass:
    def test_tone_plus_trend_recovers_tone(self, make_window):
        t = np.arange(625) * 0.04
        tone = np.cos(2 * np.pi * 0.7 * t)
        w = make_window(tone + 0.3 * t)
        out = bandpass(w)
        assert _corr(out.samples, tone) >= 0.98
        assert (out.station_id, out.t0_ms, out.dt) == (w.station_id, w.t0_ms, w.dt)

    def test_pure_trend_raises_empty_band(self, make_window):
        t = np.arange(400) * 0.04
        with pytest.raises(EmptyBand):
            bandpass(make_window((t - 8.0) ** 2))

    def test_out_of_band_tone(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 4.0),), dt=0.04, count=625))
        with pytest.raises(EmptyBand):
            bandpass(w)
        t = np.arange(625) * 0.04
        wide = bandpass(w, AnalysisConfig(emd_band_hz=(0.1, 10.0)))
        assert _corr(wide.samples, np.cos(2 * np.pi * 4.0 * t)) >= 0.98


class TestSelectBand:
    def test_bandpass_is_decompose_then_select(self):
        w = _ac1_20db_window()
        imf_set = decompose(w)
        keep, out = emd.select_band(w, imf_set)
        lo, hi = AnalysisConfig().emd_band_hz
        assert keep and all(lo <= imf_set.imfs[i].mean_frequency_hz <= hi for i in keep)
        assert np.array_equal(out.samples, sum(imf_set.imfs[i].samples for i in keep))
        assert np.array_equal(out.samples, bandpass(w).samples)

    def test_empty_band_raises(self, make_window):
        t = np.arange(400) * 0.04
        w = make_window((t - 8.0) ** 2)
        with pytest.raises(EmptyBand):
            emd.select_band(w, decompose(w))


def _reference_envelope(ext_idx, values, n):
    """The `CubicSpline` envelope `_envelope` replaced, knot rule included."""
    te = ext_idx.astype(float)
    ve = values[ext_idx]
    k = min(2, te.size)
    t = np.concatenate([-te[:k][::-1], te, (2.0 * (n - 1) - te[-k:])[::-1]])
    v = np.concatenate([ve[:k][::-1], ve, ve[-k:][::-1]])
    return CubicSpline(t, v, bc_type="natural")(np.arange(n, dtype=float)), v


@st.composite
def _knot_sets(draw):
    """Envelope inputs: a window length, interior extremum indices (some
    clustered on adjacent samples, some at 1 and n - 2) and sample values."""
    n = draw(st.integers(4, 700))
    interior = st.integers(1, n - 2)
    idx = set(draw(st.lists(interior, min_size=1, max_size=min(80, n - 2))))
    if draw(st.booleans()):
        start = draw(interior)
        idx.update(range(start, min(start + draw(st.integers(2, 6)), n - 1)))
    if draw(st.booleans()):
        idx.update((1, n - 2))
    scale = 10.0 ** draw(st.integers(-6, 6))
    values = scale * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    return np.array(sorted(idx)), values, n


_gtsv = get_lapack_funcs("gtsv", dtype=float)


def _reference_natural_spline(t, v, n):
    """The LAPACK `gtsv` solve `_natural_spline` replaced: the full system
    with M = 0 as identity rows at both ends, then the same segment cubics."""
    h = t[1:] - t[:-1]
    slope = (v[1:] - v[:-1]) / h
    diag = np.ones(t.size)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    off = np.zeros(t.size - 1)
    off[1:-1] = h[1:-1]
    rhs = np.zeros((t.size, 1))
    rhs[1:-1, 0] = 6.0 * (slope[1:] - slope[:-1])
    _, _, _, m, info = _gtsv(off, diag, off, rhs, overwrite_d=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular spline system (gtsv info {info})")
    m = m[:, 0]
    b = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = 0.5 * m[:-1]
    d = (m[1:] - m[:-1]) / (6.0 * h)
    x = np.arange(n, dtype=float)
    j = np.searchsorted(t, x, side="right") - 1
    a = x - t[j]
    return v[j] + a * (b[j] + a * (c[j] + a * d[j]))


@st.composite
def _spline_knots(draw):
    """Strictly increasing knots, on integers (as envelopes place them) or
    anywhere, covering [0, n - 1] with the last knot past n - 1, and their
    values: Gaussian at scales 1e-6 to 1e6, or rounded to small integers so
    that plateaus and signed zeros occur."""
    n = draw(st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(3, 250))
    if draw(st.booleans()):
        t = np.sort(rng.choice(np.arange(-n, 2 * n), size=min(count, 3 * n), replace=False)).astype(float)
    else:
        t = np.unique(rng.uniform(-n, 2.0 * n, size=count))
    t[0] = min(t[0], 0.0)
    t[-1] = max(t[-1], n - 0.5)
    values = rng.standard_normal(t.size)
    if draw(st.booleans()):
        values = np.round(2.0 * values)
    else:
        values *= 10.0 ** draw(st.integers(-6, 6))
    return t, values, n


class TestNaturalSpline:
    """The Thomas sweep performs the same operations as `gtsv` on these
    diagonally dominant systems (no row ever needs a swap), so the two agree
    bit for bit."""

    @settings(max_examples=300)
    @given(_spline_knots())
    def test_matches_gtsv_bit_for_bit(self, case):
        t, values, n = case
        assert _natural_spline(t, values, n).tobytes() == _reference_natural_spline(t, values, n).tobytes()


class TestEnvelopeSpline:
    """`_envelope` solves the natural spline itself; `CubicSpline` is the
    reference. Both round differently, so they agree to 1e-12 of the knot
    value range, not bit for bit."""

    @settings(max_examples=300)
    @given(_knot_sets())
    @example((np.array([5]), np.linspace(-1.0, 2.0, 12), 12))  # one extremum: 3 knots
    @example((np.array([3, 7]), np.cos(np.arange(12.0)), 12))  # two extrema
    @example((np.array([1, 2, 3, 4]), np.sin(np.arange(9.0)), 9))  # clustered, at 1 and n - 2
    @example((np.array([1, 2, 3, 624]), np.sin(0.1 * np.arange(626.0)), 626))
    def test_matches_cubic_spline(self, case):
        idx, values, n = case
        ref, knot_values = _reference_envelope(idx, values, n)
        got = _envelope(idx, values, n)
        scale = float(np.ptp(knot_values)) or float(np.max(np.abs(knot_values)))
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_interpolates_the_extrema(self):
        x = np.sin(0.3 * np.arange(200.0)) + 0.1 * np.arange(200.0)
        idx = emd._extrema(x)[0]
        assert np.allclose(_envelope(idx, x, 200)[idx], x[idx], rtol=0.0, atol=1e-12 * np.ptp(x))

    def test_singular_system_raises(self):
        # knots that double back give a zero pivot
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _natural_spline(np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0]), 1)


def _src_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_import_leaves_scipy_out():
    code = "import sys, lfodetect, lfodetect.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_detect_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise
    archive, out = tmp_path / "grow.csv", tmp_path / "out"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from lfodetect import cli\n"
        "args = ['synth', '--tone', '0.1,0.52,0.05,0.3', '--snr-db', '40', '--seconds', '25.04', '-o', sys.argv[1]]\n"
        "assert cli.main(args) == 0\n"
        "sys.exit(cli.main(['detect', sys.argv[1], '--out-dir', sys.argv[2]]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(archive), str(out)], env=_src_env(), capture_output=True, text=True
    )
    assert result.returncode == 3, result.stderr
    assert len((out / "alarms.jsonl").read_text().splitlines()) == 1


def _local_extrema(x):
    """Interior local maxima and minima indices, as two arrays."""
    idx, is_max = emd._extrema(x)
    return idx[is_max], idx[~is_max]


def _reference_persistent_extrema(x, swing):
    """The quadratic cancellation loop `_persistent_extrema` replaced: scan
    every adjacent swing and cancel the first smallest, until none is below
    `swing`."""
    mx, mn = _local_extrema(x)
    idx = np.sort(np.concatenate([mx, mn]))
    is_max = np.isin(idx, mx)
    indices = list(idx)
    kinds = list(is_max)
    values = [float(x[i]) for i in indices]
    while len(values) > 1:
        diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        k = int(np.argmin(diffs))
        if diffs[k] >= swing:
            break
        del values[k : k + 2], indices[k : k + 2], kinds[k : k + 2]
    return np.asarray(indices, dtype=int), np.asarray(kinds, dtype=bool)


def _swings(x):
    """No cancellation, the sift's own 0.2 rms floor, and above the signal
    range (everything cancels)."""
    if x.size == 0:
        return (0.0, 1.0)
    return (0.0, 0.2 * float(np.sqrt(np.mean(x**2))), float(np.ptp(x)) + 1.0)


def _assert_matches_reference(x, swings=()):
    for swing in _swings(x) + tuple(swings):
        idx, is_max = _persistent_extrema(x, swing)
        ref_idx, ref_is_max = _reference_persistent_extrema(x, swing)
        assert idx.dtype == ref_idx.dtype and is_max.dtype == ref_is_max.dtype
        assert np.array_equal(idx, ref_idx), swing
        assert np.array_equal(is_max, ref_is_max), swing


class TestPersistentExtrema:
    @settings(max_examples=300)
    @given(st.lists(st.integers(-4, 4), max_size=300))
    def test_matches_reference_on_integers(self, values):
        # small integers: plateaus and tied swings everywhere, and integer
        # floors that some pairs sit exactly on (such a pair survives)
        _assert_matches_reference(np.asarray(values, dtype=float), (1.0, 2.0, 3.0, 5.0))

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 400), st.integers(0, 3))
    def test_matches_reference_on_rounded_gaussian(self, seed, size, decimals):
        x = np.round(np.random.default_rng(seed).standard_normal(size), decimals)
        _assert_matches_reference(x)

    def test_leftmost_of_tied_pairs_cancels_first(self):
        # extrema at 1..5 with swings 1, 1, 6, 10: the tied pairs share
        # sample 2, so cancelling (1, 2) keeps sample 3 and cancelling
        # (2, 3) would keep sample 1
        x = np.array([0.0, 1.0, 0.0, 1.0, -5.0, 5.0, 4.0])
        idx, is_max = _persistent_extrema(x, 2.0)
        assert idx.tolist() == [3, 4, 5] and is_max.tolist() == [True, False, True]
        _assert_matches_reference(x)

    def test_pair_exactly_at_the_floor_survives(self):
        # swings 2, 1, 1: cancelling (2, 3) joins samples 1 and 4 into a
        # pair whose swing equals the floor, so both stay
        x = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 1.0])
        idx, is_max = _persistent_extrema(x, 2.0)
        assert idx.tolist() == [1, 4] and is_max.tolist() == [True, False]
        _assert_matches_reference(x, (2.0,))

    def test_bandpass_bit_identical_to_reference(self, monkeypatch):
        w = _ac1_20db_window()
        fast = np.asarray(bandpass(w).samples)
        monkeypatch.setattr(emd, "_persistent_extrema", _reference_persistent_extrema)
        assert np.array_equal(fast, np.asarray(bandpass(w).samples))

    def test_sift_computes_each_skeleton_once(self, monkeypatch):
        inputs = []

        def spy(x, swing):
            inputs.append(x.tobytes())
            return _persistent_extrema(x, swing)

        monkeypatch.setattr(emd, "_persistent_extrema", spy)
        decompose(_ac1_20db_window())
        assert len(inputs) == len(set(inputs))

    def test_decompose_scans_extrema_only_for_skeletons(self, monkeypatch):
        # the persistent extrema are a subset of the raw ones, so a separate
        # raw scan before each sift could never stop earlier than the sift
        calls = {"raw": 0, "persistent": 0}
        raw, persistent = emd._extrema, emd._persistent_extrema

        def raw_spy(x):
            calls["raw"] += 1
            return raw(x)

        def persistent_spy(x, swing):
            calls["persistent"] += 1
            return persistent(x, swing)

        monkeypatch.setattr(emd, "_extrema", raw_spy)
        monkeypatch.setattr(emd, "_persistent_extrema", persistent_spy)
        decompose(_ac1_20db_window())
        assert calls["raw"] == calls["persistent"] > 0


def _ac1_20db_window():
    """The acceptance suite's AC1 three-tone mix in 20 dB noise."""
    return generate(
        SynthSpec(
            tones=(
                ToneSpec(0.10, 0.52, phase=0.3, damping=0.05),
                ToneSpec(0.05, 0.84, phase=-1.0, damping=-0.20),
                ToneSpec(0.02, 1.40, phase=2.0, damping=-0.30),
            ),
            dt=0.04,
            count=626,
            noise_snr_db=20.0,
            rng_seed=21,
        )
    )

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfodetect import WindowFunction, dft, find_peaks

finite_windows = st.lists(st.floats(-100.0, 100.0), min_size=8, max_size=128)


class TestDft:
    def test_in_bin_sine(self, make_window):
        m = np.arange(32)
        w = make_window(np.sin(2 * np.pi * m / 32))
        spec = dft(w)
        mags = spec.magnitudes
        assert mags[1] == pytest.approx(0.5, abs=1e-12)
        assert mags[31] == pytest.approx(0.5, abs=1e-12)
        others = np.delete(mags, [1, 31])
        assert np.all(others <= 1e-12)

    def test_constant_is_pure_dc(self, make_window):
        spec = dft(make_window(np.full(40, 3.7)))
        assert spec.bins[0] == pytest.approx(3.7, abs=1e-12)
        assert np.all(np.abs(spec.bins[1:]) <= 1e-12)

    def test_impulse_is_flat(self, make_window):
        samples = np.zeros(8)
        samples[0] = 1.0
        spec = dft(make_window(samples))
        assert np.allclose(spec.bins, 1.0 / 8.0, atol=1e-15)

    def test_bin_width_and_nyquist(self, make_window):
        spec = dft(make_window(np.ones(625), dt=0.04))
        assert spec.df == pytest.approx(1.0 / 25.0)
        assert spec.nyquist_hz == pytest.approx(12.5)

    def test_hann_in_bin_tone_keeps_half_amplitude(self, make_window):
        m = np.arange(64)
        w = make_window(0.8 * np.cos(2 * np.pi * 5 * m / 64))
        spec = dft(w, WindowFunction.Hann)
        assert spec.magnitudes[5] == pytest.approx(0.4, abs=1e-12)

    @given(finite_windows)
    def test_parseval(self, samples):
        spec = dft_for(samples)
        y = np.asarray(samples)
        lhs = float(np.sum(y**2))
        rhs = len(samples) * float(np.sum(np.abs(spec.bins) ** 2))
        assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)

    @given(finite_windows)
    def test_conjugate_symmetry(self, samples):
        spec = dft_for(samples)
        bins = np.asarray(spec.bins)
        m = len(samples)
        for k in range(1, m):
            assert abs(bins[m - k] - np.conj(bins[k])) <= 1e-12 * max(1.0, abs(bins[k]))

    @given(finite_windows)
    def test_inverse_evaluation_round_trip(self, samples):
        # test-only inverse oracle: y_m = sum_k Y(k) e^{+j 2 pi m k / M}
        spec = dft_for(samples)
        m = len(samples)
        grid = np.arange(m)
        recon = np.real(np.asarray(spec.bins) @ np.exp(2j * np.pi * np.outer(grid, grid) / m).T)
        scale = max(1.0, float(np.max(np.abs(samples))))
        assert np.max(np.abs(recon - np.asarray(samples))) <= 1e-10 * scale


def dft_for(samples):
    from lfodetect import Channel, SampleWindow

    return dft(SampleWindow("s", Channel.Frequency_Hz, 0, 0.04, np.asarray(samples, dtype=float)))


class TestFindPeaks:
    def test_in_bin_tone_exact_peak(self, make_window):
        # 25 s at 25 frames/s puts 0.52 Hz exactly on bin 13
        t = np.arange(625) * 0.04
        w = make_window(0.2 * np.sin(2 * np.pi * 0.52 * t))
        peaks = find_peaks(dft(w), (0.1, 2.0))
        assert len(peaks) == 1
        assert peaks[0].frequency == pytest.approx(0.52, abs=1e-9)
        assert peaks[0].magnitude == pytest.approx(0.1, abs=1e-9)

    def test_off_bin_tone_refined(self, make_window):
        t = np.arange(625) * 0.04
        w = make_window(np.cos(2 * np.pi * 0.7 * t))
        peak = find_peaks(dft(w, WindowFunction.Hann), (0.1, 2.0))[0]
        assert abs(peak.frequency - 0.7) <= 0.01

    @pytest.mark.parametrize("seed", range(8))
    def test_single_tone_error_below_quarter_bin(self, make_window, seed):
        rng = np.random.default_rng(seed)
        f = float(rng.uniform(0.3, 2.0))
        t = np.arange(625) * 0.04
        w = make_window(np.cos(2 * np.pi * f * t + float(rng.uniform(-3, 3))))
        peak = find_peaks(dft(w, WindowFunction.Hann), (0.1, 2.4))[0]
        assert abs(peak.frequency - f) <= 0.04 / 4.0

    def test_zero_signal_empty_band(self, make_window):
        # no peak clears the threshold: a normal outcome, not an error
        assert find_peaks(dft(make_window(np.zeros(100))), (0.1, 2.0)) == []

    def test_band_outside_nyquist_rejected(self, make_window):
        spec = dft(make_window(np.ones(100), dt=0.04))
        with pytest.raises(ValueError):
            find_peaks(spec, (0.1, 20.0))

    def test_band_with_no_bins(self, make_window):
        spec = dft(make_window(np.sin(np.arange(50)), dt=0.04))
        assert find_peaks(spec, (0.21, 0.22)) == []

    def test_threshold_and_ordering(self, make_window):
        t = np.arange(625) * 0.04
        w = make_window(np.sin(2 * np.pi * 0.52 * t) + 0.5 * np.sin(2 * np.pi * 1.2 * t))
        peaks = find_peaks(dft(w), (0.1, 2.0))
        assert [round(p.frequency, 2) for p in peaks[:2]] == [0.52, 1.2]
        assert peaks[0].magnitude >= peaks[1].magnitude

    @pytest.mark.parametrize("fraction, kept", [(0.05, False), (0.2, True)])
    def test_peak_below_min_fraction_ignored(self, make_window, fraction, kept):
        # in-bin tones (bins 13 and 30) leave no sidelobes to count as peaks
        t = np.arange(625) * 0.04
        w = make_window(np.cos(2 * np.pi * 0.52 * t) + fraction * np.cos(2 * np.pi * 1.2 * t))
        peaks = find_peaks(dft(w), (0.1, 2.0))
        expected = [0.52, 1.2] if kept else [0.52]
        assert [p.frequency for p in peaks] == pytest.approx(expected, abs=1e-9)

    def test_at_most_max_peaks_strongest_first(self, make_window):
        # twelve in-bin tones, bins 5, 8, ..., 38, weakest at 45% of the
        # strongest: only the limit on the count removes any
        t = np.arange(625) * 0.04
        bins = range(5, 39, 3)
        amplitudes = [0.45 + 0.05 * i for i in range(12)]
        w = make_window(sum(a * np.cos(2 * np.pi * k * 0.04 * t) for a, k in zip(amplitudes, bins)))
        peaks = find_peaks(dft(w), (0.1, 2.0))
        strongest = sorted(zip(amplitudes, bins), reverse=True)[:10]
        assert [p.frequency for p in peaks] == pytest.approx([k * 0.04 for _, k in strongest], abs=1e-9)
        assert [p.magnitude for p in peaks] == pytest.approx([a / 2 for a, _ in strongest], abs=1e-9)

    def test_phase_from_bin(self, make_window):
        t = np.arange(625) * 0.04
        w = make_window(np.cos(2 * np.pi * 0.52 * t + 0.9))
        peak = find_peaks(dft(w), (0.1, 2.0))[0]
        assert peak.phase == pytest.approx(0.9, abs=1e-6)


class TestSpectrumAccessors:
    def test_one_sided(self, make_window):
        spec = dft(make_window(np.sin(np.arange(100)), dt=0.04))
        freqs, mags, phases = spec.one_sided()
        assert len(freqs) == 51
        assert freqs[-1] == pytest.approx(spec.nyquist_hz)
        assert np.all(mags >= 0)

    @settings(max_examples=15)
    @given(finite_windows)
    def test_phases_match_angle(self, samples):
        spec = dft_for(samples)
        assert np.allclose(spec.phases, np.angle(np.asarray(spec.bins)))

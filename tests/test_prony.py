import cmath
import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import lfodetect.prony as prony_mod
from lfodetect import detector
from lfodetect import (
    Channel,
    InsufficientExcitation,
    PronyFit,
    PronyMode,
    SampleWindow,
    SynthSpec,
    ToneSpec,
    characteristic_roots,
    fit_lpm,
    generate,
    prony_analyze,
    solve_amplitudes,
    wrap_angle,
)
from lfodetect.core import mode_matrix
from lfodetect.prony import _group_roots


def _window(samples):
    return SampleWindow("test", Channel.Frequency_Hz, 0, 0.04, np.asarray(samples, dtype=float))


def _reference_fit_lpm(w, order):
    """The LPM fit as an SVD least-squares solve of the column-stacked
    prediction equations: the plain form fit_lpm must agree with."""
    y = np.asarray(w.samples)
    count = y.size
    design = np.column_stack([y[order - i : count - i] for i in range(1, order + 1)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, y[order:], rcond=None)
    return coeffs, rank


def _reference_solve_amplitudes(w, roots):
    """Amplitudes and phases from the complex Vandermonde system on every
    root, conjugates included, by SVD least squares, with log(z) / dt per
    root group; also returns the condition number (largest over smallest
    singular value)."""
    reps = _group_roots(roots)
    pairs = reps.imag > 0
    columns = np.concatenate((reps, np.conj(reps[pairs])))
    vander = np.vander(columns, w.count, increasing=True).T
    weights, _, _, singular = np.linalg.lstsq(vander, np.asarray(w.samples, dtype=complex), rcond=None)
    condition = float(singular[0] / singular[-1]) if singular[-1] > 0 else math.inf
    b = weights[: reps.size]
    b[pairs] = 0.5 * (b[pairs] + np.conj(weights[reps.size :]))
    out = [
        (2.0 * abs(x), wrap_angle(float(np.angle(x)))) if pair else (abs(x), 0.0 if x.real >= 0 else math.pi)
        for x, pair in zip(b.tolist(), pairs.tolist())
    ]
    return out, (np.log(reps) / w.dt).tolist(), condition


@st.composite
def _noisy_tones(draw):
    """Samples of one to three damped tones in white noise at 10-40 dB."""
    k = draw(st.integers(1, 3))
    tones = tuple(
        ToneSpec(
            draw(st.floats(0.05, 1.0)),
            draw(st.floats(0.1, 5.0)),
            phase=draw(st.floats(-3.0, 3.0)),
            damping=draw(st.floats(-0.3, 0.1)),
        )
        for _ in range(k)
    )
    spec = SynthSpec(
        tones=tones,
        dt=0.04,
        count=draw(st.integers(200, 626)),
        noise_snr_db=draw(st.floats(10.0, 40.0)),
        rng_seed=draw(st.integers(0, 2**31 - 1)),
    )
    return np.asarray(generate(spec).samples)


@st.composite
def _conjugate_closed_roots(draw, repeats=True):
    """A conjugate-closed root list of positive and negative real roots and
    complex pairs, none of them zero; with `repeats`, one root group may
    appear twice."""
    moduli = st.floats(0.9, 1.02)
    groups = [[m if positive else -m] for m, positive in draw(st.lists(st.tuples(moduli, st.booleans()), max_size=3))]
    for _ in range(draw(st.integers(0 if groups else 1, 4))):
        z = cmath.rect(draw(moduli), draw(st.floats(0.05, 3.0)))
        groups.append([z, z.conjugate()])
    if repeats and draw(st.booleans()):
        groups.append(draw(st.sampled_from(groups)))
    return [complex(r) for group in groups for r in group]


class TestFitLpm:
    def test_single_geometric_sequence(self, make_window):
        w = make_window(0.9 ** np.arange(12))
        coeffs = fit_lpm(w, 1)
        assert coeffs[0] == pytest.approx(0.9, abs=1e-12)

    def test_sampled_cosine_recurrence(self, make_window):
        t = np.arange(30) * 0.1
        w = make_window(np.cos(2 * np.pi * 1.0 * t), dt=0.1)
        coeffs = fit_lpm(w, 2)
        assert coeffs[0] == pytest.approx(2 * math.cos(0.2 * math.pi), abs=1e-9)
        assert coeffs[1] == pytest.approx(-1.0, abs=1e-9)

    def test_all_zero_window(self, make_window):
        with pytest.raises(InsufficientExcitation):
            fit_lpm(make_window(np.zeros(30)), 2)

    def test_order_too_high(self, make_window):
        with pytest.raises(ValueError, match=r"^10 samples cannot support order 4 \(need >= 12\)$"):
            fit_lpm(make_window(np.ones(10)), 4)


class TestModelOrder:
    """prony owns the model-order rule: at least three samples per order,
    and an automatic order of min(count // 3, 60)."""

    def test_order_resolution_honors_three_to_one_rule(self, make_window):
        rng = np.random.default_rng(0)
        for count, auto in ((625, 60), (90, 30), (12, 4)):
            assert prony_mod.max_order(count) == count // 3
            assert prony_analyze(make_window(rng.standard_normal(count))).order == auto
        assert prony_analyze(make_window(rng.standard_normal(625)), 8).order == 8

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_refused(self, make_window, order):
        with pytest.raises(ValueError, match=rf"^order must be >= 1, got {order}$"):
            prony_analyze(make_window(np.cos(0.3 * np.arange(625))), order)


class TestFitLpmReference:
    @settings(max_examples=60)
    @given(_noisy_tones(), st.integers(2, 60))
    def test_agrees_on_noisy_windows(self, samples, order):
        w = _window(samples)
        order = min(order, samples.size // 3)
        expected, _ = _reference_fit_lpm(w, order)
        coeffs = fit_lpm(w, order)
        assert np.linalg.norm(coeffs - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "samples, order, rank",
        [
            (np.cos(2 * np.pi * 0.7 * np.arange(120) * 0.04), 10, 2),
            (np.full(60, 3.0), 5, 1),
            (np.cos(0.9 * np.arange(90)) + 0.5 * 0.95 ** np.arange(90), 12, 3),
        ],
        ids=["cosine", "constant", "cosine-plus-decay"],
    )
    def test_rank_deficient_designs_agree(self, samples, order, rank):
        w = _window(samples)
        expected, expected_rank = _reference_fit_lpm(w, order)
        assert expected_rank == rank
        assert np.max(np.abs(fit_lpm(w, order) - expected)) <= 1e-12

    @settings(max_examples=40)
    @given(st.floats(0.05, 5.0), st.floats(-3.0, 3.0), st.integers(3, 20))
    def test_rank_deficient_cosine_agrees(self, frequency, phase, order):
        w = _window(np.cos(2 * np.pi * frequency * np.arange(200) * 0.04 + phase))
        expected, expected_rank = _reference_fit_lpm(w, order)
        assert expected_rank < order
        assert np.max(np.abs(fit_lpm(w, order) - expected)) <= 1e-12


class TestCharacteristicRoots:
    def test_linear(self):
        roots = characteristic_roots([0.9])
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(0.9)

    def test_conjugate_pair_on_unit_circle(self):
        a1 = 2 * math.cos(0.2 * math.pi)
        roots = characteristic_roots([a1, -1.0])
        expected = {cmath.exp(1j * 0.2 * math.pi), cmath.exp(-1j * 0.2 * math.pi)}
        for r in roots:
            assert min(abs(r - e) for e in expected) < 1e-9
            assert abs(abs(r) - 1.0) < 1e-9
        # exact conjugate closure
        assert roots[0] == roots[1].conjugate()

    def test_spec_rounded_coefficients(self):
        roots = characteristic_roots([1.618034, -1.0])
        assert min(abs(r - cmath.exp(1j * 0.2 * math.pi)) for r in roots) < 1e-5

    def test_repeated_root(self):
        roots = characteristic_roots([2.0, -1.0])
        assert roots.shape == (2,)
        assert np.allclose(roots, 1.0, atol=1e-3)

    def test_zero_roots_from_trailing_zero_coefficients(self):
        # z^3 - 0.5 z^2 = z^2 (z - 0.5)
        roots = characteristic_roots([0.5, 0.0, 0.0])
        assert sorted(abs(r) for r in roots) == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)

    @pytest.mark.parametrize(
        "a, message",
        [
            ([], "coefficient list must be a non-empty 1-d sequence"),
            ([[0.5, 0.1]], "coefficient list must be a non-empty 1-d sequence"),
            ([0.5, math.nan], "coefficients must be finite"),
            ([math.inf], "coefficients must be finite"),
        ],
        ids=["empty", "two-dimensional", "nan", "inf"],
    )
    def test_rejects_bad_coefficients(self, a, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            characteristic_roots(a)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_companion_eigenvalues(self, seed):
        # independent oracle: numpy's companion-matrix root finder
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = rng.uniform(-1.5, 1.5, n)
        mine = np.sort_complex(characteristic_roots(a))
        ref = np.sort_complex(np.roots(np.concatenate(([1.0], -a))))
        assert np.allclose(mine, ref, atol=1e-6)


class TestRootsToModes:
    """Damping and frequency of the modes solve_amplitudes turns roots
    into: log(z)/dt per root group."""

    def test_damped_oscillation_root_pair(self, make_window):
        lam = cmath.exp((-0.3 + 1j * 2 * math.pi * 0.7) * 0.04)
        assert abs(lam) == pytest.approx(math.exp(-0.012), abs=1e-12)
        modes = solve_amplitudes(make_window(np.ones(20)), [lam, lam.conjugate()])
        assert len(modes) == 1
        _, sigma, freq, _ = modes[0]
        assert sigma == pytest.approx(-0.3, abs=1e-10)
        assert freq == pytest.approx(0.7, abs=1e-10)

    def test_unit_root_is_dc(self, make_window):
        modes = solve_amplitudes(make_window(np.ones(20)), [1.0 + 0j])
        assert [(sigma, freq) for _, sigma, freq, _ in modes] == [(pytest.approx(0.0), pytest.approx(0.0))]

    def test_negative_real_root_is_nyquist(self, make_window):
        ((_, sigma, freq, _),) = solve_amplitudes(make_window(np.ones(20)), [cmath.exp(1j * math.pi)])
        assert freq == pytest.approx(12.5, abs=1e-9)
        assert sigma == pytest.approx(0.0, abs=1e-9)

    # a bad dt is refused when the window is built, so solve_amplitudes
    # is never handed one
    @pytest.mark.parametrize(
        "roots, dt, message",
        [
            ([0.9 + 0j], 0.0, "sample interval must be a positive finite number, got 0.0"),
            ([0.9 + 0j], -0.04, "sample interval must be a positive finite number, got -0.04"),
            ([0.9 + 0j], math.nan, "sample interval must be a positive finite number, got nan"),
            ([0.9 + 0j], math.inf, "sample interval must be a positive finite number, got inf"),
            ([cmath.exp(0.3j)], 0.04, "complex characteristic roots must come in conjugate pairs"),
            ([0.0 + 0j, 0.9 + 0j], 0.04, "zero roots have no mode; drop them first"),
        ],
        ids=["zero-dt", "negative-dt", "nan-dt", "inf-dt", "unpaired-complex-root", "zero-root"],
    )
    def test_rejects_invalid_input(self, make_window, roots, dt, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_amplitudes(make_window(np.ones(20), dt=dt), roots)


class TestSolveAmplitudes:
    def test_exact_root_pair_recovery(self, make_window):
        t = np.arange(400) * 0.04
        w = make_window(0.5 * np.exp(-0.3 * t) * np.cos(2 * np.pi * 0.7 * t + 0.3))
        lam = cmath.exp((-0.3 + 1j * 2 * math.pi * 0.7) * 0.04)
        ((amplitude, _, _, phase),) = solve_amplitudes(w, [lam, lam.conjugate()])
        assert amplitude == pytest.approx(0.5, abs=1e-9)
        assert phase == pytest.approx(0.3, abs=1e-9)

    def test_constant_window_with_unit_root(self, make_window):
        w = make_window(np.full(50, 2.5))
        ((amplitude, _, _, phase),) = solve_amplitudes(w, [1.0 + 0j])
        assert amplitude == pytest.approx(2.5, abs=1e-12)
        assert phase == 0.0

    def test_zero_window_gives_zero_amplitudes(self, make_window):
        w = make_window(np.zeros(50))
        lam = cmath.exp((0.1 + 1j * 0.5) * 0.04)
        results = solve_amplitudes(w, [lam, lam.conjugate(), 0.8 + 0j])
        assert len(results) == 2
        assert all(a == pytest.approx(0.0, abs=1e-12) for a, *_ in results)

    def test_rejects_zero_roots(self, make_window):
        with pytest.raises(ValueError):
            solve_amplitudes(make_window(np.ones(20)), [0.0 + 0j])
        # a complex root without its conjugate is rejected the same way
        with pytest.raises(ValueError):
            solve_amplitudes(make_window(np.ones(20)), [cmath.exp(0.3j)])


class TestSolveAmplitudesReference:
    @settings(max_examples=80)
    @given(_conjugate_closed_roots(), st.integers(0, 2**31 - 1))
    def test_agrees_with_complex_vandermonde(self, roots, seed):
        w = _window(np.random.default_rng(seed).standard_normal(150))
        expected, logs, _ = _reference_solve_amplitudes(w, roots)
        got = solve_amplitudes(w, roots)
        assert len(got) == len(expected) == len(logs)
        scale = max(a for a, _ in expected)
        for (a, sigma, freq, phase), (a_ref, phase_ref), ln in zip(got, expected, logs):
            assert abs(cmath.rect(a, phase) - cmath.rect(a_ref, phase_ref)) <= 1e-9 * scale
            assert sigma == pytest.approx(ln.real, abs=1e-12)
            assert freq == pytest.approx(abs(ln.imag) / (2 * math.pi), abs=1e-12)

    # the fixtures hold no per-example state: the patch sets the same value
    # every time and the captured records are cleared before each solve
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_conjugate_closed_roots(repeats=False), st.integers(0, 2**31 - 1))
    def test_logged_condition_matches_reference(self, monkeypatch, caplog, roots, seed):
        w = _window(np.random.default_rng(seed).standard_normal(150))
        *_, condition = _reference_solve_amplitudes(w, roots)
        # the smallest singular value is only known to about eps * condition
        # relative; keep that far below the third printed digit
        assume(condition < 1e10)
        monkeypatch.setattr(prony_mod, "ILL_CONDITION_LIMIT", 0.0)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lfodetect.prony"):
            solve_amplitudes(w, roots)
        (record,) = caplog.records
        assert f"cond ~ {condition:.2e})" in record.getMessage()


class TestPronyAnalyze:
    def test_two_mode_exact_order(self):
        tones = (ToneSpec(1.0, 0.6, phase=0.4, damping=-0.1), ToneSpec(0.5, 1.7, phase=-2.0, damping=0.02))
        w = generate(SynthSpec(tones=tones, dt=0.04, count=400))
        fit = prony_analyze(w, 4)
        assert len(fit.modes) == 2
        assert fit.fit_quality >= 0.999999
        by_freq = sorted(fit.modes, key=lambda m: m.frequency)
        for mode, tone in zip(by_freq, sorted(tones, key=lambda t: t.frequency)):
            assert mode.frequency == pytest.approx(tone.frequency, abs=1e-8)
            assert mode.damping == pytest.approx(tone.damping, abs=1e-8)
            assert mode.amplitude == pytest.approx(tone.amplitude, rel=1e-8)
            assert wrap_angle(mode.phase - tone.phase) == pytest.approx(0.0, abs=1e-8)

    def test_dc_only_window(self, make_window):
        w = make_window(np.full(120, 4.2))
        fit = prony_analyze(w)
        assert len(fit.modes) == 1
        mode = fit.modes[0]
        assert mode.amplitude == pytest.approx(4.2, abs=1e-9)
        assert mode.frequency == 0.0
        assert mode.damping == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [42, 43, 44, 45])
    def test_white_noise_has_low_fit_quality(self, make_window, seed):
        # the self-check discriminator: a high-order fit of noise cannot
        # reconstruct the window from its few retained modes, so quality
        # stays far below both the 0.9 landmark and the alarm gate
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(624)
        fit = prony_analyze(make_window(samples))
        assert fit.fit_quality < 0.9
        assert fit.fit_quality < detector.MIN_FIT_QUALITY

    def test_white_noise_mode_frequencies_wander_between_halves(self, make_window):
        # split-window oracle: noise mode frequencies rarely reproduce in
        # independent fits of the two halves, while a genuine oscillation
        # reproduces every time at the same tolerance
        tight = 0.005

        def reproduced_fraction(samples):
            w = make_window(samples)
            fit = prony_analyze(w)
            half = w.count // 2
            first = prony_analyze(make_window(samples[:half]))
            second = prony_analyze(make_window(samples[half:]))
            oscillatory = [m for m in fit.modes if m.frequency > 0.01]
            assert oscillatory
            hits = [
                m
                for m in oscillatory
                if any(abs(x.frequency - m.frequency) <= tight for x in first.modes)
                and any(abs(x.frequency - m.frequency) <= tight for x in second.modes)
            ]
            return len(hits) / len(oscillatory)

        rng = np.random.default_rng(42)
        assert reproduced_fraction(rng.standard_normal(624)) <= 0.25

        tone = generate(
            SynthSpec(tones=(ToneSpec(0.1, 0.52, damping=0.05),), dt=0.04, count=624, noise_snr_db=40, rng_seed=3)
        )
        w = np.asarray(tone.samples)
        fit = prony_analyze(make_window(w))
        dominant = fit.modes[0]
        half = len(w) // 2
        first = prony_analyze(make_window(w[:half]))
        second = prony_analyze(make_window(w[half:]))
        assert min(abs(x.frequency - dominant.frequency) for x in first.modes) <= tight
        assert min(abs(x.frequency - dominant.frequency) for x in second.modes) <= tight

    def test_conjugate_closed_roots(self):
        w = generate(SynthSpec(tones=(ToneSpec(1.0, 0.9, damping=-0.1),), dt=0.04, count=300, noise_snr_db=30, rng_seed=2))
        fit = prony_analyze(w)
        roots = characteristic_roots(fit_lpm(w, fit.order))
        assert roots.shape == (fit.order,)
        for r in roots:
            assert np.min(np.abs(roots - np.conj(r))) < 1e-9

    def test_modes_sorted_by_energy(self):
        tones = (ToneSpec(0.2, 1.4), ToneSpec(1.0, 0.5))
        w = generate(SynthSpec(tones=tones, dt=0.04, count=400))
        fit = prony_analyze(w)
        fractions = [m.energy_fraction for m in fit.modes]
        assert fractions == sorted(fractions, reverse=True)
        assert fit.modes[0].frequency == pytest.approx(0.5, abs=1e-6)
        assert sum(fractions) == pytest.approx(1.0)

    def test_amplitude_pruning(self):
        # second tone below 2% of the dominant amplitude disappears
        tones = (ToneSpec(1.0, 0.5), ToneSpec(0.005, 1.5))
        w = generate(SynthSpec(tones=tones, dt=0.04, count=400))
        fit = prony_analyze(w)
        assert all(m.amplitude >= 0.02 * fit.modes[0].amplitude for m in fit.modes)

    @settings(max_examples=10)
    @given(st.floats(0.1, 10.0))
    def test_amplitude_scaling_equivariance(self, scale):
        tones = (ToneSpec(1.0, 0.6, phase=0.4, damping=-0.1), ToneSpec(0.5, 1.7, phase=-2.0, damping=0.05))
        w = generate(SynthSpec(tones=tones, dt=0.04, count=400))
        scaled = dataclasses.replace(w, samples=np.asarray(w.samples) * scale)
        fit, fit_scaled = prony_analyze(w), prony_analyze(scaled)
        assert len(fit.modes) == len(fit_scaled.modes)
        for m in fit.modes:
            m2 = min(fit_scaled.modes, key=lambda x: abs(x.frequency - m.frequency))
            assert m2.amplitude == pytest.approx(scale * m.amplitude, rel=1e-9)
            assert m2.damping == pytest.approx(m.damping, abs=1e-9)
            assert m2.frequency == pytest.approx(m.frequency, abs=1e-9)
            assert wrap_angle(m2.phase - m.phase) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=10)
    @given(st.integers(1, 150))
    def test_time_shift_equivariance(self, shift):
        # dropping the first `shift` samples moves t = 0 forward by shift*dt:
        # each phase advances by 2*pi*f*shift*dt and each amplitude picks up
        # the growth factor exp(damping*shift*dt)
        tones = (ToneSpec(1.0, 0.6, phase=0.4, damping=-0.1), ToneSpec(0.5, 1.7, phase=-2.0, damping=0.02))
        w = generate(SynthSpec(tones=tones, dt=0.04, count=400))
        shifted = dataclasses.replace(w, samples=np.asarray(w.samples)[shift:])
        fit, fit_shifted = prony_analyze(w, 4), prony_analyze(shifted, 4)
        assert len(fit.modes) == len(fit_shifted.modes) == 2
        tau = shift * w.dt
        for m in fit.modes:
            m2 = min(fit_shifted.modes, key=lambda x: abs(x.frequency - m.frequency))
            assert m2.frequency == pytest.approx(m.frequency, abs=1e-8)
            assert m2.damping == pytest.approx(m.damping, abs=1e-8)
            assert m2.amplitude == pytest.approx(m.amplitude * math.exp(m.damping * tau), rel=1e-8)
            advanced = wrap_angle(m.phase + 2 * math.pi * m.frequency * tau)
            assert wrap_angle(m2.phase - advanced) == pytest.approx(0.0, abs=1e-8)

    def test_fit_quality_clamped(self, make_window):
        rng = np.random.default_rng(0)
        w = make_window(rng.standard_normal(60))
        fit = prony_analyze(w, 2)
        assert 0.0 <= fit.fit_quality <= 1.0


def _mode_sum(fit, count, dt):
    """The fitted mode sum on a fresh grid of `count` samples."""
    params = [(m.amplitude, m.damping, m.frequency, m.phase) for m in fit.modes]
    return mode_matrix(params, count, dt).sum(axis=1)


class TestReconstruct:
    def test_exact_order_round_trip(self):
        tones = (ToneSpec(1.0, 0.8, phase=1.0, damping=-0.2),)
        w = generate(SynthSpec(tones=tones, dt=0.04, count=300))
        fit = prony_analyze(w, 2)
        recon = _mode_sum(fit, w.count, w.dt)
        rel = np.linalg.norm(recon - np.asarray(w.samples)) / np.linalg.norm(w.samples)
        assert rel <= 1e-8

    def test_empty_mode_list_gives_zeros(self):
        fit = PronyFit(order=2, modes=(), fit_quality=0.0)
        assert np.all(_mode_sum(fit, 50, 0.04) == 0.0)

    def test_single_dc_mode(self):
        mode = PronyMode(amplitude=2.0, damping=0.0, frequency=0.0, phase=0.0, energy_fraction=1.0)
        fit = PronyFit(order=1, modes=(mode,), fit_quality=1.0)
        assert np.allclose(_mode_sum(fit, 40, 0.04), 2.0)


class TestRoundTripProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_six_mode_recovery_at_exact_order(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        freqs = []
        while len(freqs) < k:
            f = float(rng.uniform(0.2, 5.0))
            if all(abs(f - g) > 0.15 for g in freqs):
                freqs.append(f)
        tones = tuple(
            ToneSpec(
                float(rng.uniform(0.1, 1.0)),
                f,
                phase=float(rng.uniform(-3.0, 3.0)),
                damping=float(rng.uniform(-0.4, 0.1)),
            )
            for f in freqs
        )
        w = generate(SynthSpec(tones=tones, dt=0.04, count=420))
        fit = prony_analyze(w, 2 * k)
        assert len(fit.modes) == k
        for tone in tones:
            mode = min(fit.modes, key=lambda m: abs(m.frequency - tone.frequency))
            assert mode.frequency == pytest.approx(tone.frequency, rel=1e-4, abs=1e-6)
            assert mode.damping == pytest.approx(tone.damping, rel=1e-4, abs=1e-6)
            assert mode.amplitude == pytest.approx(tone.amplitude, rel=1e-4)
            assert abs(wrap_angle(mode.phase - tone.phase)) <= 1e-3


class TestDiagnostics:
    def test_root_solver_divergence_guard(self, monkeypatch):
        import lfodetect.prony as prony_mod

        # perturbed eigenvalues stand in for a root solver that went astray
        exact_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: exact_roots(p) + 1e-3)
        with pytest.raises(prony_mod.RootSolverDiverged):
            rng = np.random.default_rng(0)
            characteristic_roots(rng.uniform(-2.0, 2.0, 20))

    def test_ill_conditioned_vandermonde_logged(self, make_window, caplog):
        import logging

        # two nearly coincident decaying roots make the system numerically singular
        lam1 = 0.99
        lam2 = 0.99 + 1e-14
        w = make_window(0.99 ** np.arange(300))
        with caplog.at_level(logging.WARNING, logger="lfodetect.prony"):
            modes = solve_amplitudes(w, [lam1 + 0j, lam2 + 0j])
        assert any("ill-conditioned" in rec.message for rec in caplog.records)
        # the result is still returned: two real modes at frequency 0
        for _, sigma, freq, _ in modes:
            assert sigma == pytest.approx(math.log(0.99) / 0.04, rel=1e-9)
            assert freq == 0.0

    def test_zero_root_warning_logged(self, monkeypatch, caplog):
        # a trailing zero coefficient gives an exact zero root, which
        # prony_analyze must drop (with a warning) before the root steps
        tone = ToneSpec(1.0, 0.7, phase=0.3, damping=-0.1)
        w = generate(SynthSpec(tones=(tone,), dt=0.04, count=200))
        def patched(w, order):
            return np.append(fit_lpm(w, order - 1), 0.0)

        monkeypatch.setattr(prony_mod, "fit_lpm", patched)
        with caplog.at_level(logging.WARNING, logger="lfodetect.prony"):
            fit = prony_analyze(w, 3)
        assert any("zero" in rec.message.lower() for rec in caplog.records)
        assert np.count_nonzero(characteristic_roots(patched(w, 3)) == 0) == 1
        (mode,) = fit.modes
        assert mode.frequency == pytest.approx(0.7, abs=1e-9)
        assert mode.damping == pytest.approx(-0.1, abs=1e-9)

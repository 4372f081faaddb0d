import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfodetect import Channel, InvalidSpec, SynthSpec, ToneSpec, generate


def _clean_signal(tones, t):
    """The tone sum as generate evaluated it before it used
    core.mode_matrix: one tone at a time, added left to right."""
    out = np.zeros_like(t)
    for tone in tones:
        out += tone.amplitude * np.exp(tone.damping * t) * np.cos(2.0 * np.pi * tone.frequency * t + tone.phase)
    return out


def _reference_samples(spec):
    samples = _clean_signal(spec.tones, np.arange(spec.count) * spec.dt)
    sigma = spec.noise_sigma
    if spec.noise_snr_db is not None:
        power = float(np.mean(samples**2))
        if power <= 0.0:
            return None
        sigma = float(np.sqrt(power / 10.0 ** (spec.noise_snr_db / 10.0)))
    if sigma is not None and sigma > 0.0:
        samples = samples + sigma * np.random.default_rng(spec.rng_seed).standard_normal(spec.count)
    return samples


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_tones = st.lists(
    st.builds(ToneSpec, _finite(0.0, 10.0), _finite(0.0, 20.0), _finite(-4.0, 4.0), _finite(-2.0, 2.0)),
    max_size=12,
)
_noise = st.one_of(
    st.just({}),
    st.builds(lambda db: {"noise_snr_db": db}, _finite(-10.0, 60.0)),
    st.builds(lambda sigma: {"noise_sigma": sigma}, _finite(0.0, 1.0)),
)


@settings(max_examples=300)
@given(_tones, _finite(1e-3, 0.1), st.integers(4, 700), _noise, st.integers(0, 2**31 - 1))
def test_matches_per_tone_sum_bit_for_bit(tones, dt, count, noise, seed):
    spec = SynthSpec(tones=tuple(tones), dt=dt, count=count, rng_seed=seed, **noise)
    expected = _reference_samples(spec)
    if expected is None:
        with pytest.raises(InvalidSpec):
            generate(spec)
    else:
        assert generate(spec).samples.tobytes() == expected.tobytes()


def test_dc_tone_is_constant():
    # zero frequency, zero phase: cos(0) = 1 everywhere
    w = generate(SynthSpec(tones=(ToneSpec(1.0, 0.0, phase=0.0),), dt=0.04, count=50))
    assert np.allclose(w.samples, 1.0, atol=0)


def test_sine_tone_via_phase_shift():
    # sin(x + phi) == cos(x + phi - pi/2); a unit sine at phi = pi/2 is the
    # constant 1 at zero frequency
    w = generate(SynthSpec(tones=(ToneSpec(1.0, 0.0, phase=math.pi / 2 - math.pi / 2),), dt=0.04, count=20))
    assert np.allclose(w.samples, math.sin(math.pi / 2))


def test_damped_tone_matches_closed_form():
    spec = SynthSpec(tones=(ToneSpec(0.5, 0.7, phase=0.0, damping=-0.3),), dt=0.04, count=625)
    w = generate(spec)
    assert w.samples[0] == pytest.approx(0.5, abs=1e-15)
    # sample 25 sits at t = 1.0 s exactly
    expected = 0.5 * math.exp(-0.3) * math.cos(2 * math.pi * 0.7)
    assert w.samples[25] == pytest.approx(expected, abs=1e-15)
    # spot-check an arbitrary index by direct evaluation
    t = 311 * 0.04
    assert w.samples[311] == pytest.approx(0.5 * math.exp(-0.3 * t) * math.cos(2 * math.pi * 0.7 * t), abs=1e-12)


def test_multi_tone_superposition():
    tones = (ToneSpec(1.0, 0.5, phase=0.2), ToneSpec(0.3, 1.3, phase=-1.0, damping=-0.1))
    w = generate(SynthSpec(tones=tones, dt=0.04, count=200))
    t = np.arange(200) * 0.04
    ref = sum(
        tn.amplitude * np.exp(tn.damping * t) * np.cos(2 * np.pi * tn.frequency * t + tn.phase)
        for tn in tones
    )
    assert np.allclose(w.samples, ref, atol=1e-12)


def test_equal_seeds_bitwise_identical():
    spec = SynthSpec(tones=(ToneSpec(1.0, 0.7),), dt=0.04, count=500, noise_snr_db=30, rng_seed=7)
    w1, w2 = generate(spec), generate(spec)
    assert np.array_equal(np.asarray(w1.samples), np.asarray(w2.samples))


def test_different_seeds_differ():
    base = dict(tones=(ToneSpec(1.0, 0.7),), dt=0.04, count=500, noise_snr_db=30)
    w1 = generate(SynthSpec(rng_seed=1, **base))
    w2 = generate(SynthSpec(rng_seed=2, **base))
    assert not np.array_equal(np.asarray(w1.samples), np.asarray(w2.samples))


def test_snr_past_float_range_is_noiseless():
    # 10**(4000 / 10) overflows a float; the ratio counts as infinite
    base = dict(tones=(ToneSpec(1.0, 0.5),), dt=0.04, count=626, rng_seed=3)
    high = generate(SynthSpec(noise_snr_db=4000.0, **base)).samples
    assert high.tobytes() == generate(SynthSpec(noise_snr_db=math.inf, **base)).samples.tobytes()


@pytest.mark.parametrize("snr_db", [20.0, 40.0])
def test_empirical_snr_within_half_db(snr_db):
    tones = (ToneSpec(1.0, 0.7), ToneSpec(0.4, 1.4, damping=-0.1))
    clean = generate(SynthSpec(tones=tones, dt=0.04, count=2000))
    noisy = generate(SynthSpec(tones=tones, dt=0.04, count=2000, noise_snr_db=snr_db, rng_seed=11))
    noise = np.asarray(noisy.samples) - np.asarray(clean.samples)
    empirical = 10 * np.log10(np.mean(np.asarray(clean.samples) ** 2) / np.mean(noise**2))
    assert abs(empirical - snr_db) <= 0.5


def test_noise_sigma_alone_gives_noise_window():
    w = generate(SynthSpec(tones=(), dt=0.04, count=500, noise_sigma=2.0, rng_seed=5))
    assert np.std(w.samples) == pytest.approx(2.0, rel=0.15)


def test_metadata_propagates():
    w = generate(
        SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.02, count=100),
        station_id="stn9",
        channel=Channel.ActivePower_MW,
        t0_ms=777,
    )
    assert (w.station_id, w.channel, w.t0_ms, w.dt, w.count) == ("stn9", Channel.ActivePower_MW, 777, 0.02, 100)


class TestInvalidSpecs:
    def test_count_too_small(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=3)

    def test_bad_dt(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.0, count=100)

    @pytest.mark.parametrize("dt", [math.nan, math.inf], ids=["nan-dt", "inf-dt"])
    def test_non_finite_dt(self, dt):
        with pytest.raises(InvalidSpec, match=r"^dt must be positive and finite, got "):
            SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=dt, count=100)

    @pytest.mark.parametrize(
        "tone, snr_db, first",
        [(ToneSpec(1.0, 0.5, damping=50.0), None, 355), (ToneSpec(1e308, 0.5), 40.0, 0),
         (ToneSpec(1.0, 0.5), -4000.0, 0)],
        ids=["tone-overflows", "noise-overflows", "snr-ratio-underflows"],
    )
    def test_non_finite_sample_refused(self, tone, snr_db, first):
        # e**(50 t) passes float range at t = 14.2 s; a 1e308 tone's power
        # overflows, and so does the noise scaled from it; at -4000 dB the
        # power ratio underflows to 0 and the noise is unbounded
        spec = SynthSpec(tones=(tone,), dt=0.04, count=626, noise_snr_db=snr_db)
        with pytest.raises(InvalidSpec, match=rf"^synthesised sample {first} is not finite"):
            generate(spec)

    def test_snr_without_tone_power(self):
        with pytest.raises(InvalidSpec):
            generate(SynthSpec(tones=(), dt=0.04, count=100, noise_snr_db=30))

    @pytest.mark.parametrize(
        "noise, message",
        [({"noise_sigma": math.nan}, r"^noise_sigma must be >= 0, got nan$"),
         ({"noise_snr_db": math.nan}, r"^noise_snr_db must be a number, got nan$")],
        ids=["nan-sigma", "nan-snr"],
    )
    def test_nan_noise_refused(self, noise, message):
        with pytest.raises(InvalidSpec, match=message):
            SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=100, **noise)

    def test_snr_and_sigma_conflict(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=100, noise_snr_db=30, noise_sigma=1.0)

    def test_negative_seed(self):
        # numpy's default_rng refuses it, but only once noise is drawn
        with pytest.raises(InvalidSpec, match=r"^rng_seed must be >= 0, got -1$"):
            SynthSpec(tones=(ToneSpec(1.0, 1.0),), dt=0.04, count=100, rng_seed=-1)

    def test_negative_amplitude_tone(self):
        with pytest.raises(InvalidSpec):
            ToneSpec(-1.0, 1.0)

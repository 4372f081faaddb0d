import hypothesis
import numpy as np
import pytest

from lfodetect import Channel, SampleWindow, emd

hypothesis.settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def make_window():
    def _make(samples, dt=0.04, station="test", channel=Channel.Frequency_Hz, t0_ms=0):
        return SampleWindow(station, channel, t0_ms, dt, np.asarray(samples, dtype=float))

    return _make


@pytest.fixture
def imf_balance():
    """Extrema count minus zero-crossing count of a candidate IMF, both on
    the persistent-extrema skeleton that sifting's balance test reads; an
    ideal IMF keeps |balance| <= 1.

    Each sign alternation between consecutive surviving extrema implies
    exactly one essential zero crossing, so an oscillation about zero
    scores K extrema against K - 1 crossings, while riding waves (adjacent
    extrema on the same side of zero) push the balance up.
    """

    def _balance(samples):
        x = np.asarray(samples, dtype=float)
        return emd._balance(x, emd._skeleton(x)[0])

    return _balance

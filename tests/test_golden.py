"""`analyze --emd` mode tables and `detect` alarms against the golden file
that tests/regen_golden.py writes.

Tolerances: 1e-9 Hz on frequencies, 1e-9 on dampings and fit_quality,
1e-6 relative on amplitudes and peak magnitudes, 1e-6 on energy fractions,
1e-6 rad on phases. Outcomes, exit codes, mode counts, alarm counts,
classes, severity and growth flags must match exactly.
"""

import json
import math

import pytest

from regen_golden import CATEGORIES, GOLDEN, SEEDS, run_corpus

FREQ_TOL = 1e-9
DAMPING_TOL = 1e-9
QUALITY_TOL = 1e-9
AMPLITUDE_RTOL = 1e-6
ENERGY_TOL = 1e-6
PHASE_TOL = 1e-6


def _phase_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def _check_mode(got, want, where):
    assert got["amplitude"] == pytest.approx(want["amplitude"], rel=AMPLITUDE_RTOL, abs=0.0), where
    assert abs(got["damping"] - want["damping"]) <= DAMPING_TOL, where
    assert abs(got["frequency"] - want["frequency"]) <= FREQ_TOL, where
    assert _phase_gap(got["phase"], want["phase"]) <= PHASE_TOL, where
    assert abs(got["energy_fraction"] - want["energy_fraction"]) <= ENERGY_TOL, where


def _row_mode(row):
    amplitude, damping, frequency, phase, energy, _ = row
    return {"amplitude": amplitude, "damping": damping, "frequency": frequency,
            "phase": phase, "energy_fraction": energy}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden_corpus"))


def test_corpus_covers_every_category(golden):
    stations = [w["station_id"] for w in golden["windows"]]
    assert len(set(stations)) == len(stations) == len(CATEGORIES) * len(SEEDS)
    assert {s.rsplit("-", 1)[0] for s in stations} == {c[0] for c in CATEGORIES}


def test_windows_and_outcomes_match(golden, current):
    keys = ("station_id", "band", "analyze_exit", "detect_exit", "analyze_outcome", "detect_outcome")
    assert [[w[k] for k in keys] for w in current["windows"]] == [[w[k] for k in keys] for w in golden["windows"]]


def test_mode_tables_match(golden, current):
    for got, want in zip(current["windows"], golden["windows"], strict=True):
        where = want["station_id"]
        assert len(got["modes"]) == len(want["modes"]), where
        for i, (g, w) in enumerate(zip(got["modes"], want["modes"])):
            _check_mode(_row_mode(g), _row_mode(w), f"{where} mode {i}")
            assert abs(g[5] - w[5]) <= QUALITY_TOL, f"{where} mode {i}"


def test_alarms_match(golden, current):
    for got_w, want_w in zip(current["windows"], golden["windows"], strict=True):
        assert len(got_w["alarms"]) == len(want_w["alarms"]), want_w["station_id"]
        for i, (got, want) in enumerate(zip(got_w["alarms"], want_w["alarms"])):
            where = f"{want_w['station_id']} alarm {i}"
            for key in ("station_id", "channel", "t0_ms", "duration_s", "classes", "growing", "severity"):
                assert got[key] == want[key], (where, key)
            assert abs(got["matched_frequency_hz"] - want["matched_frequency_hz"]) <= FREQ_TOL, where
            _check_mode(got["prony_mode"], want["prony_mode"], where)
            g, w = got["fft_peak"], want["fft_peak"]
            assert abs(g["frequency"] - w["frequency"]) <= FREQ_TOL, where
            assert g["magnitude"] == pytest.approx(w["magnitude"], rel=AMPLITUDE_RTOL, abs=0.0), where
            assert _phase_gap(g["phase"], w["phase"]) <= PHASE_TOL, where

"""Output checks and accuracy scoring, written against the documented
contract rather than the program's own helpers, so that a defect in the
program cannot also hide in its check.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

#: The README's classification table: (class, low, high, low inclusive,
#: high inclusive).
MODE_BANDS = (
    ("InterArea", 0.1, 1.0, True, False),
    ("Local", 1.0, 2.0, True, True),
    ("Control", 1.5, 8.0, False, True),
    ("Torsional", 10.0, math.inf, False, False),
)
#: Classes whose growth is Critical; growth elsewhere is a Warning.
ESCALATION_CLASSES = frozenset({"InterArea", "Local"})
#: The CLI's exit code when at least one alarm is Critical.
EXIT_CRITICAL = 3
#: Frequency difference within which a golden alarm still counts as the
#: same alarm: 1/40 of the 0.04 Hz resolution of a 25 s window.
GOLDEN_FREQ_TOL_HZ = 1e-3
#: The analysis band `lfodetect detect` uses without `--band`.
CLI_DEFAULT_BAND = (0.1, 2.0)


def classes_of(frequency_hz: float) -> frozenset[str]:
    out = set()
    for name, lo, hi, lo_inc, hi_inc in MODE_BANDS:
        above = frequency_hz >= lo if lo_inc else frequency_hz > lo
        below = frequency_hz <= hi if hi_inc else frequency_hz < hi
        if above and below:
            out.add(name)
    return frozenset(out)


def expected_severity(damping: float, classes, slow_decay_threshold: float) -> str:
    if damping > 0:
        return "Critical" if ESCALATION_CLASSES & set(classes) else "Warning"
    if abs(damping) < slow_decay_threshold:
        return "Warning"
    return "Info"


def alarm_violations(alarm: dict, slow_decay_threshold: float) -> list[str]:
    """Broken invariants of one alarm in its `alarms.jsonl` form."""
    problems = []
    try:
        mode, peak = alarm["prony_mode"], alarm["fft_peak"]
        for name, phase in (("prony phase", mode["phase"]), ("fft phase", peak["phase"])):
            if not (-math.pi < phase <= math.pi):
                problems.append(f"{name} {phase} outside (-pi, pi]")
        if not alarm["classes"]:
            problems.append("empty class set")
        if alarm["growing"] != (mode["damping"] > 0):
            problems.append(f"growing={alarm['growing']} but damping={mode['damping']}")
        want = expected_severity(mode["damping"], alarm["classes"], slow_decay_threshold)
        if alarm["severity"] != want:
            problems.append(f"severity {alarm['severity']}, rule gives {want}")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed alarm: {exc!r}")
    return problems


def window_key(alarm: dict) -> tuple[str, str, int]:
    return (alarm["station_id"], alarm["channel"], alarm["t0_ms"])


def read_cli_outputs(out_dir: Path) -> tuple[list[dict], dict]:
    """Parsed `alarms.jsonl` and `run_manifest.json`; raises ValueError or
    OSError when either is missing or does not parse."""
    text = (out_dir / "alarms.jsonl").read_text(encoding="utf-8")
    alarms = [json.loads(line) for line in text.splitlines() if line.strip()]
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not all(isinstance(a, dict) for a in alarms):
        raise ValueError("outputs are not JSON objects")
    return alarms, manifest


def check_cli_run(out_dir: Path, exit_code: int, expected_keys, slow_decay_threshold: float):
    """Check one `lfodetect detect` run.

    Returns (alarms, failed_keys, problems): failed_keys are the windows
    that count as failed operations. A bad exit code or unreadable output
    fails every window of the run.
    """
    expected = set(expected_keys)
    if exit_code != EXIT_CRITICAL:
        return [], expected, [f"exit code {exit_code}, expected {EXIT_CRITICAL}"]
    try:
        alarms, manifest = read_cli_outputs(out_dir)
        listed = {(e["station_id"], e["channel"], e["t0_ms"]) for e in manifest["windows"]}
        keys = [window_key(a) for a in alarms]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [], expected, [f"unreadable output: {exc!r}"]
    failed, problems = set(), []
    for key in sorted(expected - listed):
        failed.add(key)
        problems.append(f"manifest does not list window {key}")
    if not any(a.get("severity") == "Critical" for a in alarms):
        failed |= expected
        problems.append("exit code 3 without a Critical alarm")
    for alarm, key in zip(alarms, keys):
        if key not in expected:
            failed.add(key)
            problems.append(f"alarm for unknown window {key}")
            continue
        bad = alarm_violations(alarm, slow_decay_threshold)
        if bad:
            failed.add(key)
            problems.extend(f"{key}: {p}" for p in bad)
    return alarms, failed, problems


def in_band_tones(tones, band) -> list:
    lo, hi = band
    return [t for t in tones if lo <= t.frequency <= hi and classes_of(t.frequency)]


def score_alarms(truth: dict, alarms_by_window: dict, bands: dict | None = None):
    """(missed, false): one miss per in-band generated tone that no alarm
    of its window matches in class set and growth flag; one false alarm
    per window without an in-band tone that raised any alarm."""
    missed = false = 0
    for key, tones in truth.items():
        band = bands[key] if bands else CLI_DEFAULT_BAND
        expected = in_band_tones(tones, band)
        alarms = alarms_by_window.get(key, ())
        if not expected:
            false += bool(alarms)
            continue
        for tone in expected:
            want = (classes_of(tone.frequency), tone.damping > 0)
            if not any((frozenset(a["classes"]), a["growing"]) == want for a in alarms):
                missed += 1
    return missed, false


def mode_errors(tones, band, modes) -> list[tuple[float, float]]:
    """AC2-style (|f - f_true|, |sigma - sigma_true| / |sigma_true|) of the
    fitted mode nearest each in-band tone; modes are (frequency, damping)."""
    out = []
    if not modes:
        return out
    for tone in in_band_tones(tones, band):
        f, s = min(modes, key=lambda m: abs(m[0] - tone.frequency))
        out.append((abs(f - tone.frequency), abs(s - tone.damping) / abs(tone.damping)))
    return out


def group_by_window(alarms) -> dict:
    out = defaultdict(list)
    for alarm in alarms:
        out[window_key(alarm)].append(alarm)
    return out


def golden_diff_windows(golden: list[dict], alarms: list[dict], tol_hz: float = GOLDEN_FREQ_TOL_HZ) -> int:
    """Windows whose alarm sets differ in classes, severity, growth flag, or
    matched frequency by more than tol_hz."""
    want, got = group_by_window(golden), group_by_window(alarms)

    def summary(items):
        return sorted(
            (a["matched_frequency_hz"], tuple(sorted(a["classes"])), a["severity"], a["growing"])
            for a in items
        )

    differing = 0
    for key in set(want) | set(got):
        a, b = summary(want.get(key, ())), summary(got.get(key, ()))
        same = len(a) == len(b) and all(
            abs(x[0] - y[0]) <= tol_hz and x[1:] == y[1:] for x, y in zip(a, b)
        )
        differing += not same
    return differing

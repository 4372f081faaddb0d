"""Golden CLI outputs on a fixed synthetic corpus.

    PYTHONPATH=src python tests/regen_golden.py

rewrites tests/golden/cli_corpus.json from the current code. The corpus is
built from `signalgen` with fixed seeds: the AC1 three-tone mix at 20 and
50 dB, a growing 0.52 Hz swing, a decaying 0.84 Hz swing, a 3.2 Hz
control-band tone (analysed with `--band 0.1,10`) and noise-only windows,
each as its own station in a 626-sample archive window. `lfodetect analyze
--emd` and `lfodetect detect` run in-process on those archives; the golden
file holds each window's manifest outcomes, its mode table rows and its
alarms. `tests/test_golden.py` compares a fresh run against it.

Regenerate only for a change that is meant to move these numbers, and state
the drift it caused.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from lfodetect import CONTROL_HUNT_BAND, SynthSpec, ToneSpec, generate, write_archive
from lfodetect.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

DT = 0.04
COUNT = 626
SEEDS = (1, 2, 3)
DEFAULT_BAND = (0.1, 2.0)

AC1 = (
    ToneSpec(0.10, 0.52, phase=0.3, damping=0.05),
    ToneSpec(0.05, 0.84, phase=-1.0, damping=-0.20),
    ToneSpec(0.02, 1.40, phase=2.0, damping=-0.30),
)

#: (name, tones, snr_db or None for 0.01-sigma white noise, band)
CATEGORIES = (
    ("ac1_20db", AC1, 20.0, DEFAULT_BAND),
    ("ac1_50db", AC1, 50.0, DEFAULT_BAND),
    ("growing", (ToneSpec(0.10, 0.52, phase=0.7, damping=0.05),), 40.0, DEFAULT_BAND),
    ("decaying", (ToneSpec(0.07, 0.84, phase=-0.4, damping=-0.22),), 38.0, DEFAULT_BAND),
    ("control", (ToneSpec(0.05, 3.2, phase=1.1, damping=-0.08),), 40.0, CONTROL_HUNT_BAND),
    ("noise_only", (), None, DEFAULT_BAND),
)


def corpus_windows(band):
    """The corpus windows analysed with `band`, one station each."""
    out = []
    for name, tones, snr_db, cat_band in CATEGORIES:
        if cat_band != band:
            continue
        for seed in SEEDS:
            spec = SynthSpec(
                tones=tones,
                dt=DT,
                count=COUNT,
                noise_snr_db=snr_db,
                noise_sigma=None if snr_db is not None else 0.01,
                rng_seed=seed,
            )
            out.append(generate(spec, station_id=f"{name}-s{seed}"))
    return out


def _read_modes(path: Path) -> list[list[float]]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(cell) for cell in row.split(",")] for row in rows]


def run_corpus(work: Path) -> dict:
    """Run `analyze --emd` and `detect` on the corpus under `work` and
    collect what the golden file stores."""
    windows = []
    for band in sorted({c[3] for c in CATEGORIES}):
        tag = f"band_{band[0]:g}_{band[1]:g}"
        archive = work / f"{tag}.csv"
        write_archive(archive, corpus_windows(band))
        band_flag = ["--band", f"{band[0]!r},{band[1]!r}"]
        analyze_dir, detect_dir = work / f"{tag}_analyze", work / f"{tag}_detect"
        analyze_exit = main(["analyze", str(archive), "--emd", "--out-dir", str(analyze_dir)] + band_flag)
        detect_exit = main(["detect", str(archive), "--out-dir", str(detect_dir)] + band_flag)
        analyzed = json.loads((analyze_dir / "run_manifest.json").read_text(encoding="utf-8"))
        detected = json.loads((detect_dir / "run_manifest.json").read_text(encoding="utf-8"))
        alarms = [json.loads(line) for line in (detect_dir / "alarms.jsonl").read_text(encoding="utf-8").splitlines()]
        for a, d in zip(analyzed["windows"], detected["windows"], strict=True):
            station = a["station_id"]
            windows.append({
                "station_id": station,
                "band": list(band),
                "analyze_exit": analyze_exit,
                "detect_exit": detect_exit,
                "analyze_outcome": a["outcome"],
                "modes": [row for name in a["artifacts"] if name.endswith("_modes.csv")
                          for row in _read_modes(analyze_dir / name)],
                "detect_outcome": d["outcome"],
                "alarms": [alarm for alarm in alarms if alarm["station_id"] == station],
            })
    return {
        "columns": ["amplitude", "damping", "frequency_hz", "phase_rad", "energy_fraction", "fit_quality"],
        "windows": windows,
    }


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        golden = run_corpus(Path(tmp))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden['windows'])} windows to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())

#!/usr/bin/env python3
"""Own peak memory of archive ingest, with the records streamed and held.

Writes a seeded two-station frequency archive (`generate`, `write_archive`)
to a temporary directory, then windows it in two fresh interpreters: one
passes `read_archive(...)` straight to `make_windows`, as every CLI command
does; the other reads the records into a list first, as a caller that
keeps them does. Prints each interpreter's own peak resident memory as
JSON: VmHWM from /proc/self/status, which counts that process alone, or
`ru_maxrss` where /proc is absent.

    python scripts/ingest_peak.py [--minutes 120] [--seed 0]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import lfodetect as lf

STATIONS = ("ST01", "ST02")
T0_MS = 1_700_000_000_000

CHILD = """
import json, sys
from lfodetect import make_windows, read_archive
records = read_archive(sys.argv[1])
if sys.argv[2] == "held":
    records = list(records)
windows = make_windows(records)
try:
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    source = "VmHWM"
except OSError:
    import resource
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB elsewhere
        kib /= 1024
    source = "ru_maxrss"
print(json.dumps({"peak_mb": round(kib / 1024, 1), "source": source, "windows": len(windows)}))
"""


def write(path: Path, minutes: float, seed: int) -> int:
    """A weak 0.5 Hz swing in 10 dB noise at 25 frames/s per station, one
    stream after the other; returns the record count."""
    count = int(round(minutes * 60 * 25)) + 1
    windows = [
        lf.generate(lf.SynthSpec(tones=(lf.ToneSpec(0.004, 0.5),), dt=0.04, count=count,
                                 noise_snr_db=10.0, rng_seed=seed * len(STATIONS) + k),
                    station_id=station, t0_ms=T0_MS)
        for k, station in enumerate(STATIONS)
    ]
    lf.write_archive(path, windows)
    return count * len(STATIONS)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--minutes", type=float, default=120.0, help="archive length per station")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # the children import the lfodetect this script imported
    package_root = str(Path(lf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "archive.csv"
        result = {"minutes": args.minutes, "seed": args.seed, "records": write(path, args.minutes, args.seed)}
        for mode in ("streamed", "held"):
            child = subprocess.run([sys.executable, "-c", CHILD, str(path), mode], env=env,
                                   capture_output=True, text=True)
            if child.returncode:
                sys.exit(f"{mode} ingest failed:\n{child.stderr}")
            result[mode] = json.loads(child.stdout)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

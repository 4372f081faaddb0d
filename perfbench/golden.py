#!/usr/bin/env python3
"""Rewrite golden/fleet_alarms.jsonl with the alarms the current code gives
on the fleet_archive input of seed GOLDEN_SEED.

    python3 perfbench/golden.py

The traced fleet_archive run reports how many windows differ from this file
as detector.golden_diff_windows. Regenerate it only when a change to the
alarms is intended, and say why in the change's notes.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    error = run.load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    env.pop("LFODETECT_JOBS", None)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        archive = run.golden_archive(Path(tmp))
        out = Path(tmp) / "out"
        code = subprocess.run([sys.executable, "-m", "lfodetect.cli", "detect", str(archive.path),
                               "--out-dir", str(out)], env=env, stdout=subprocess.DEVNULL).returncode
        alarms = (out / "alarms.jsonl").read_text(encoding="utf-8")
    run.GOLDEN.write_text(alarms, encoding="utf-8")
    print(f"exit code {code}; wrote {len(alarms.splitlines())} alarms to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload body run in a fresh interpreter, so that its start-up and peak
RSS are its own.

    child.py event  INPUTS.npz SECONDS TRACE OUT.json
    child.py ingest ARCHIVE TRACE SLICE OUT.json
    child.py cli    ARCHIVE OUT_DIR TRACE OUT.json
    child.py machine OUT.json

`event` calls `lfodetect.detect` on every window of INPUTS, cycling until
SECONDS have passed and every window was analysed once; with TRACE=1 it
analyses every window once untraced and once traced instead. `ingest` reads ARCHIVE and
cuts it into default windows, timing the parse of each consecutive SLICE
records. `cli` calls `lfodetect.cli.main` in-process,
as `lfodetect detect` does; with TRACE=0 only the CLI's calls to `detect`
are timed (one span per window, microseconds against a 100 ms call), with
TRACE=1 every hook of the tracer is installed. `machine` records the CPU and the library
versions and BLAS threads the workload processes see. Results go to
OUT.json.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from tracer import HOOKS, Tracer  # noqa: E402

DT = 0.04


def _detect_once(lf, window, cfg):
    start = time.perf_counter_ns()
    try:
        report = lf.detect(window, cfg)
        error = None
    except Exception as exc:  # a failed window is counted, not fatal
        report, error = None, type(exc).__name__
    elapsed = time.perf_counter_ns() - start
    return elapsed, report, error


def _outcome(index, elapsed, report, error, with_modes):
    row = {"i": index, "ns": elapsed, "error": error,
           "alarms": [a.to_json_dict() for a in report.alarms] if report else []}
    if with_modes:
        fit = report.prony_fit if report else None
        row["modes"] = [(m.frequency, m.damping) for m in fit.modes] if fit else []
    return row


def run_event(inputs: str, seconds: float, trace: bool) -> dict:
    import numpy as np

    import lfodetect as lf

    data = np.load(inputs)
    windows = [
        lf.SampleWindow(f"ev{i:04d}", lf.Channel.Frequency_Hz, i * 25_000, DT, samples)
        for i, samples in enumerate(data["samples"])
    ]
    configs = {}
    cfgs = [configs.setdefault(tuple(b), lf.AnalysisConfig(emd_band_hz=tuple(b))) for b in data["band"]]
    n = len(windows)
    _detect_once(lf, windows[0], cfgs[0])  # lazy imports and first-call set-up, untimed

    if trace:
        # Each window runs once untraced and once traced, in alternating
        # order, so that drift in machine speed cancels from the overhead.
        tracer = Tracer()
        tracer.install()
        rows, spent = [], {False: 0, True: 0}
        for i in range(n):
            for traced in ((False, True) if i % 2 else (True, False)):
                tracer.enabled = traced
                elapsed, report, error = _detect_once(lf, windows[i], cfgs[i])
                spent[traced] += elapsed
                if traced:
                    rows.append(_outcome(i, elapsed, report, error, with_modes=True))
        tracer.uninstall()
        return {"rows": rows, "untraced_ns": spent[False], "traced_ns": spent[True], **tracer.dump()}

    rows, i = [], 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while i < n or time.perf_counter_ns() < deadline:
        rows.append(_outcome(i % n, *_detect_once(lf, windows[i % n], cfgs[i % n]), with_modes=i < n))
        i += 1
    return {"rows": rows, "wall_ns": time.perf_counter_ns() - start}


def run_ingest(archive: str, trace: bool, slice_records: int) -> dict:
    tracer = Tracer()
    if trace:
        tracer.install()
    from lfodetect import ingest

    report, diagnostics = ingest.ParseReport(), []
    records, slices = [], []
    stream = ingest.read_archive(archive, report)
    start = now = time.perf_counter_ns()
    while True:
        before = len(records)
        records.extend(itertools.islice(stream, slice_records))
        then, now = now, time.perf_counter_ns()
        if len(records) - before < slice_records:  # the stream ended; a short slice is not timed
            break
        slices.append(now - then)
    parsed = now
    windows = ingest.make_windows(records, ingest.WindowingPolicy(), diagnostics)
    done = time.perf_counter_ns()
    return {"records": len(records), "windows": len(windows), "parse_issues": len(report.issues),
            "skipped": len(diagnostics), "read_ns": parsed - start, "window_ns": done - parsed,
            "slice_ns": slices, **tracer.dump()}


def run_cli(archive: str, out_dir: str, trace: bool) -> dict:
    tracer = Tracer()
    tracer.install(HOOKS if trace else [h for h in HOOKS if h[0] == "detector.detect"])
    import lfodetect.cli

    code = lfodetect.cli.main(["detect", archive, "--out-dir", out_dir])
    return {"exit_code": code, **tracer.dump()}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_machine() -> dict:
    """The machine and library versions a workload process runs on."""
    import os
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
        threads = _blas_threads()
    except OSError:
        threads = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": threads}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "event":
        result = run_event(rest[0], float(rest[1]), rest[2] == "1")
    elif mode == "ingest":
        result = run_ingest(rest[0], rest[1] == "1", int(rest[2]))
    elif mode == "cli":
        result = run_cli(rest[0], rest[1], rest[2] == "1")
    elif mode == "machine":
        result = run_machine()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(rest[-1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

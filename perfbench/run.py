#!/usr/bin/env python3
"""lfodetect benchmark: one command, three workloads, one traced mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from `src/` of
that checkout and nowhere else. The inputs are built from the seed with the
program's own `signalgen` and `write_archive`; the program only receives
the windows or archive files. Every run checks the outputs against the
synthetic truth and the documented invariants, prints each metric by name
with its unit, and ends with one JSON line. A failed check counts as a
failed operation and makes the exit code 1.

Workloads (all closed loop: one caller, one process, `LFODETECT_JOBS`
cleared, BLAS limited to one thread):

* event_windows  `lfodetect.detect(window)` over pre-generated 626-sample
  windows: the AC1 three-tone mix at 20/30/40/50 dB, a growing 0.52 Hz
  swing, a decaying 0.84 Hz swing, a control-band tone analysed with
  `CONTROL_HUNT_BAND`, and noise-only windows.
* fleet_archive  `lfodetect detect` (`lfodetect.cli.main` called by a thin
  driver) in a fresh process per archive: four
  stations x two channels, one station swinging, the others quiet, with
  CRLF lines, a short NaN run and one malformed line.
* bulk_ingest    `read_archive` + `make_windows` in a fresh process on a
  two-hour, two-station archive; no analysis.

With `--trace 0` the JSON holds the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it holds the per-layer metrics, measured by a separate
pass that wraps the program's public functions (see tracer.py) over a
fixed amount of work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden" / "fleet_alarms.jsonl"
#: The fleet archive whose alarms are stored in GOLDEN.
GOLDEN_SEED = 0

#: Fresh-interpreter imports timed per run for setup_s (after one untimed
#: import that fills the bytecode cache).
SETUP_SAMPLES = 5
#: Passes over the archive in each half of a traced bulk_ingest run.
BULK_TRACE_PASSES = 2
#: A child process still running after this long is killed and its work
#: counted as failed.
CHILD_TIMEOUT_S = 150.0

#: BLAS thread pools limited to one thread in every child: the workloads
#: are one caller in one process, and on small least-squares problems a
#: second BLAS thread only competes with the caller for the same cores.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Printed by every untraced run beside the timed metrics. They are counts
#: and accuracy figures that can legitimately read 0, so BENCHMARK.json
#: lists them with the traced run's metrics.
QUALITY = (
    ("error_fraction", "1"),
    ("missed_alarms", "count"),
    ("false_alarms", "count"),
    ("freq_err_hz_p50", "Hz"),
    ("damping_rel_err_p50", "1"),
)


@dataclass
class Child:
    wall_s: float
    exit_code: int
    rss_mb: float


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    dir: Path
    env: dict
    slow_decay_threshold: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def spawn(self, argv, log: Path) -> Child:
        """Run argv to completion; wall time from spawn to exit, peak RSS
        from the child's own rusage."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0)

    def child(self, *args) -> tuple[Child, dict]:
        """Run child.py with args; its JSON result, or {} when it failed."""
        out, log = self.dir / "child.json", self.dir / "child.log"
        out.unlink(missing_ok=True)
        proc = self.spawn([sys.executable, str(BENCH / "child.py"), *map(str, args), str(out)], log)
        if proc.exit_code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-1500:].strip()
            self.problems.append(f"child.py {args[0]} exited {proc.exit_code}: {tail}")
            return proc, {}
        return proc, json.loads(out.read_text(encoding="utf-8"))

    def fail(self, count: int, problems) -> None:
        self.failed += count
        self.problems.extend(problems)


def setup_seconds(run: Run, modules: str) -> float:
    """Median wall time of a fresh interpreter that imports `modules`."""
    argv = [sys.executable, "-c", f"import {modules}"]
    log = run.dir / "setup.log"
    run.spawn(argv, log)
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = run.spawn(argv, log)
        if proc.exit_code != 0:
            run.problems.append(f"import {modules} exited {proc.exit_code}")
        times.append(proc.wall_s)
    return statistics.median(times)


def merge_spans(dumps) -> tuple[list, list]:
    """Spans of several traced processes with ids made unique."""
    spans, absent, offset = [], set(), 0
    for dump in dumps:
        rows = [tracer.Span.from_list(r) for r in dump.get("spans", [])]
        for s in rows:
            s.id += offset
            s.parent = s.parent + offset if s.parent else 0
        spans.extend(rows)
        offset = max((s.id for s in spans), default=offset)
        absent.update(dump.get("absent", []))
    return spans, sorted(absent)


# --- event_windows ---------------------------------------------------------------

def event_windows(run: Run) -> tuple[dict, dict]:
    cases = corpus.event_corpus(run.seed)
    inputs = run.dir / "event.npz"
    corpus.save_event_inputs(inputs, cases)
    setup = None if run.trace else setup_seconds(run, "lfodetect")
    proc, result = run.child("event", inputs, run.seconds, int(run.trace))
    rows = result.get("rows", [])
    if not rows:
        run.attempted += len(cases)
        run.fail(len(cases), [])
        return {}, {}

    for row in rows:
        run.attempted += 1
        bad = [f"window {row['i']}: {row['error']}"] if row["error"] else []
        for alarm in row["alarms"]:
            bad += [f"window {row['i']}: {p}" for p in checks.alarm_violations(alarm, run.slow_decay_threshold)]
        if bad:
            run.fail(1, bad)

    first = [r for r in rows if "modes" in r]
    truth = {r["i"]: cases[r["i"]].tones for r in first}
    bands = {r["i"]: cases[r["i"]].band for r in first}
    missed, false = checks.score_alarms(truth, {r["i"]: r["alarms"] for r in first}, bands)
    errors = [e for r in first for e in checks.mode_errors(cases[r["i"]].tones, bands[r["i"]], r["modes"])]
    quality = {
        "error_fraction": run.failed / run.attempted,
        "missed_alarms": missed,
        "false_alarms": false,
        "freq_err_hz_p50": tracer.percentile([e[0] for e in errors], 50),
        "damping_rel_err_p50": tracer.percentile([e[1] for e in errors], 50),
    }

    if run.trace:
        spans, absent = merge_spans([result])
        layer = tracer.layer_metrics(spans)
        layer["trace.overhead_fraction"] = result["traced_ns"] / result["untraced_ns"] - 1.0
        return {**layer, **quality}, {"absent": absent}

    ms = [r["ns"] / 1e6 for r in rows]
    wall_s = result["wall_ns"] / 1e9
    run.notes.append(f"{len(rows)} detect calls over {len(cases)} windows in {wall_s:.2f} s")
    return {
        "windows_per_s": len(rows) / wall_s,
        "records_per_s": len(rows) * corpus.WINDOW_SAMPLES / wall_s,
        "window_ms_p50": tracer.percentile(ms, 50),
        "window_ms_p95": tracer.percentile(ms, 95),
        "setup_s": setup,
        "peak_rss_mb": proc.rss_mb,
    }, quality


# --- fleet_archive -----------------------------------------------------------------

def detect_archive(run: Run, archive, traced: bool = False):
    """One `lfodetect detect` run on archive in a fresh process; returns
    (child, alarms, trace dump, output bytes). Untraced, the dump holds
    only the spans of the CLI's `detect` calls."""
    out_dir = run.dir / "detect-out"
    shutil.rmtree(out_dir, ignore_errors=True)
    proc, dump = run.child("cli", archive.path, out_dir, int(traced))
    code = dump.get("exit_code", proc.exit_code)
    keys = archive.window_keys
    alarms, failed, problems = checks.check_cli_run(out_dir, code, keys, run.slow_decay_threshold)
    run.attempted += len(keys)
    run.fail(len(failed), problems)
    size = sum(p.stat().st_size for p in out_dir.glob("*") if p.is_file()) if out_dir.is_dir() else 0
    return proc, alarms, dump, size


def golden_archive(directory: Path):
    """The full-size fleet archive whose alarms GOLDEN stores."""
    directory = directory / "golden"
    directory.mkdir(exist_ok=True)
    return corpus.fleet_archive(directory, GOLDEN_SEED, 0, seconds=corpus.FLEET_SECONDS)


def fleet_archive(run: Run) -> tuple[dict, dict]:
    archives = [corpus.fleet_archive(run.dir, run.seed, k) for k in range(corpus.FLEET_ARCHIVES)]
    missed = false = 0

    def score(archive, alarms):
        nonlocal missed, false
        m, f = checks.score_alarms(archive.tones_by_window(), checks.group_by_window(alarms))
        missed, false = missed + m, false + f

    if run.trace:
        untraced_s = traced_s = 0.0
        dumps, output_bytes = [], 0
        for archive in archives:
            untraced_s += detect_archive(run, archive)[0].wall_s
            proc, alarms, dump, size = detect_archive(run, archive, traced=True)
            traced_s += proc.wall_s
            dumps.append(dump)
            output_bytes += size
            score(archive, alarms)
        _, golden_alarms, _, _ = detect_archive(run, golden_archive(run.dir))
        golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines() if line]
        spans, absent = merge_spans(dumps)
        layer = tracer.layer_metrics(spans)
        layer["detector.golden_diff_windows"] = checks.golden_diff_windows(golden, golden_alarms)
        layer["cli.output_bytes"] = output_bytes
        layer["trace.overhead_fraction"] = traced_s / untraced_s - 1.0
        quality = {"error_fraction": run.failed / run.attempted, "missed_alarms": missed,
                   "false_alarms": false}
        return {**layer, **quality}, {"absent": absent}

    setup = setup_seconds(run, "lfodetect, lfodetect.cli")
    # Whole rounds over the archives, so that every window is timed equally
    # often; a window's time is its median over the rounds.
    walls, rss, windows, records = [], [], 0, 0
    by_window: dict[tuple[int, int], list[float]] = {}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < run.seconds:
        for k, archive in enumerate(archives):
            proc, alarms, dump, _ = detect_archive(run, archive)
            if rounds == 0:
                score(archive, alarms)
            n = len(archive.window_keys)
            spans = [tracer.Span.from_list(row) for row in dump.get("spans", [])]
            # Without detect spans (the hook is gone) a window costs the
            # process wall / windows.
            times = [s.ns / 1e6 for s in spans] or [proc.wall_s * 1000.0 / n] * n
            for j, ms in enumerate(times):
                by_window.setdefault((k, j), []).append(ms)
            walls.append(proc.wall_s)
            rss.append(proc.rss_mb)
            windows += n
            records += archive.records
        rounds += 1
    window_ms = [statistics.median(v) for v in by_window.values()]
    run.notes.append(f"{rounds} rounds over {len(archives)} archives: {windows} windows, "
                     f"{records} records in {sum(walls):.2f} s")
    quality = {"error_fraction": run.failed / run.attempted, "missed_alarms": missed,
               "false_alarms": false}
    return {
        "windows_per_s": windows / sum(walls),
        "records_per_s": records / sum(walls),
        "window_ms_p50": tracer.percentile(window_ms, 50),
        "window_ms_p95": tracer.percentile(window_ms, 95),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(rss),
    }, quality


# --- bulk_ingest ----------------------------------------------------------------------

def ingest_archive(run: Run, archive, traced: bool = False) -> tuple[Child, dict]:
    """One read_archive + make_windows pass in a fresh process; the child
    times the parse of each window's share of the records."""
    share = round(archive.records / len(archive.window_keys))
    proc, result = run.child("ingest", archive.path, int(traced), share)
    run.attempted += 1
    want = {"records": archive.records, "windows": len(archive.window_keys),
            "parse_issues": archive.parse_issues, "skipped": 0}
    got = {k: result.get(k) for k in want}
    if proc.exit_code != 0 or got != want:
        run.fail(1, [f"ingest pass: exit {proc.exit_code}, counts {got}, expected {want}"])
    return proc, result


def bulk_ingest(run: Run) -> tuple[dict, dict]:
    archive = corpus.bulk_archive(run.dir, run.seed)
    if run.trace:
        untraced, traced = [], []
        for _ in range(BULK_TRACE_PASSES):
            untraced.append(ingest_archive(run, archive)[0].wall_s)
            traced.append(ingest_archive(run, archive, traced=True))
        spans, absent = merge_spans([result for _, result in traced])
        layer = tracer.layer_metrics(spans)
        layer["trace.overhead_fraction"] = sum(p.wall_s for p, _ in traced) / sum(untraced) - 1.0
        return {**layer, "error_fraction": run.failed / run.attempted}, {"absent": absent}

    setup = setup_seconds(run, "lfodetect")
    passes, by_slice = [], {}
    n = len(archive.window_keys)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run.seconds:
        proc, result = ingest_archive(run, archive)
        passes.append(proc)
        # A window's ingest time: the parse of its share of the records plus
        # its share of make_windows. Each slice is the same work in every
        # pass, so its median over the passes keeps a slow moment of a
        # shared host out of the tail.
        windowing_ms = result.get("window_ns", 0) / 1e6 / n
        for j, ns in enumerate(result.get("slice_ns", [])):
            by_slice.setdefault(j, []).append(ns / 1e6 + windowing_ms)
    window_ms = [statistics.median(v) for v in by_slice.values()]
    wall = sum(p.wall_s for p in passes)
    run.notes.append(f"{len(passes)} ingest processes of {archive.records} records in {wall:.2f} s")
    return {
        "windows_per_s": n * len(passes) / wall,
        "records_per_s": archive.records * len(passes) / wall,
        "window_ms_p50": tracer.percentile(window_ms, 50),
        "window_ms_p95": tracer.percentile(window_ms, 95),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }, {"error_fraction": run.failed / run.attempted}


WORKLOADS = {
    "event_windows": event_windows,
    "fleet_archive": fleet_archive,
    "bulk_ingest": bulk_ingest,
}


# --- entry point -----------------------------------------------------------------------

def load_program() -> str | None:
    """Import the package from this checkout's src/, and the benchmark
    modules that build on it; an error message when that is impossible."""
    global lf, corpus, checks, tracer
    if not (SRC / "lfodetect" / "__init__.py").is_file():
        return f"no package source at {SRC / 'lfodetect'}; run from a checkout of the repository"
    sys.path.insert(0, str(SRC))
    import lfodetect as lf

    if not Path(lf.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"imported lfodetect from {lf.__file__}, not from {SRC}"
    import checks
    import corpus
    import tracer

    return None


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, **SINGLE_THREADED)
    cleared = env.pop("LFODETECT_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    run = Run(args.seed, args.seconds, bool(args.trace),
              Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)), env,
              lf.AnalysisConfig().slow_decay_threshold)
    try:
        machine = {**run.child("machine")[1], "LFODETECT_JOBS_cleared": cleared}
        values, extra = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    print(f"lfodetect benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for note in run.notes:
        print("  " + note)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {_fmt(value)} {m['unit']}")
    if not args.trace:
        for name, unit in QUALITY:
            print(f"  {name:<40} {_fmt(extra.get(name))} {unit}")
    if extra.get("absent"):
        print("  absent hooks (their metrics read 0): " + ", ".join(extra["absent"]))
    print(f"  failed {run.failed} of {run.attempted} operations")
    for problem in run.problems[:20]:
        print("check failed: " + problem, file=sys.stderr)

    correct = run.failed == 0 and not run.problems and len(metrics) == len(wanted)
    result = {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
              "metrics": metrics}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "machine": machine, "extra": extra}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

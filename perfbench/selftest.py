#!/usr/bin/env python3
"""Smoke test of the benchmark's own code, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload, timed and traced, on a handful of windows; checks
that the output checks reject corrupted CLI output; checks the span
arithmetic against a hand-built tree. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ERROR = run.load_program()
if ERROR:
    sys.exit(f"error: {ERROR}")
checks, corpus, tracer = run.checks, run.corpus, run.tracer


def tiny_corpus():
    """Shrink every workload's inputs to a few windows."""
    corpus.event_corpus = functools.partial(corpus.event_corpus, rounds=1)
    corpus.fleet_archive = functools.partial(corpus.fleet_archive, seconds=30)
    corpus.bulk_archive = functools.partial(corpus.bulk_archive, hours=0.02)
    corpus.FLEET_ARCHIVES = 1
    run.SETUP_SAMPLES = 1


def invoke(*argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def test_every_workload_timed_and_traced(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = invoke("--workload", workload, "--seed", "5",
                                          "--seconds", "0", "--trace", str(trace))
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    if trace:
                        self.assertGreater(values["trace.overhead_fraction"], -1.0)
                    else:
                        self.assertTrue(all(v > 0 for v in values.values()), values)
                    if workload == "fleet_archive" and trace:
                        self.assertEqual(values["detector.golden_diff_windows"], 0)
                        self.assertGreater(values["cli.main.self_s"], 0)
                    if workload == "event_windows" and trace:
                        self.assertEqual(values["prony.prony_analyze.calls_per_window"], 3.0)
                    if workload == "bulk_ingest" and trace:
                        self.assertEqual(values["ingest.windows_skipped"], 0)
                        self.assertGreater(values["ingest.records"], 0)

    def test_refuses_a_directory_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bulk_ingest",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=run.WORK))
        cls.archive = corpus.fleet_archive(cls.tmp, 7, 0)
        cls.out = cls.tmp / "out"
        env = dict(run.os.environ, PYTHONPATH=str(run.SRC))
        cls.code = subprocess.run([sys.executable, "-m", "lfodetect.cli", "detect", str(cls.archive.path),
                                   "--out-dir", str(cls.out)], env=env, capture_output=True,
                                  timeout=120).returncode

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def check(self, out_dir, code=None):
        return checks.check_cli_run(out_dir, self.code if code is None else code,
                                    self.archive.window_keys, 0.05)

    def corrupted(self, edit) -> Path:
        target = self.tmp / "corrupt"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.out, target)
        path = target / "alarms.jsonl"
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        return target

    def test_clean_output_passes(self):
        alarms, failed, problems = self.check(self.out)
        self.assertEqual((failed, problems), (set(), []))
        self.assertTrue(alarms)

    def test_corrupted_alarms_are_rejected(self):
        def first_alarm(change):
            def edit(text):
                lines = text.splitlines()
                alarm = json.loads(lines[0])
                change(alarm)
                return "\n".join([json.dumps(alarm)] + lines[1:]) + "\n"
            return edit

        edits = {
            "growth flag": first_alarm(lambda a: a.update(growing=not a["growing"])),
            "phase": first_alarm(lambda a: a["prony_mode"].update(phase=-math.pi)),
            "classes": first_alarm(lambda a: a.update(classes=[])),
            "severity": first_alarm(lambda a: a.update(severity="Info")),
            "truncated": lambda text: text[: len(text) // 2],
        }
        for name, edit in edits.items():
            with self.subTest(name):
                _, failed, problems = self.check(self.corrupted(edit))
                self.assertTrue(failed and problems, name)

    def test_wrong_exit_code_fails_every_window(self):
        _, failed, _ = self.check(self.out, code=0)
        self.assertEqual(failed, set(self.archive.window_keys))

    def test_missing_manifest_window_is_rejected(self):
        target = self.corrupted(lambda text: text)
        manifest = json.loads((target / "run_manifest.json").read_text(encoding="utf-8"))
        manifest["windows"].pop()
        (target / "run_manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        _, failed, _ = self.check(target)
        self.assertEqual(len(failed), 1)

    def test_golden_diff(self):
        alarms, _, _ = self.check(self.out)
        self.assertEqual(checks.golden_diff_windows(alarms, alarms), 0)
        shifted = json.loads(json.dumps(alarms))
        shifted[0]["matched_frequency_hz"] += checks.GOLDEN_FREQ_TOL_HZ / 2
        self.assertEqual(checks.golden_diff_windows(alarms, shifted), 0)
        shifted[0]["matched_frequency_hz"] += checks.GOLDEN_FREQ_TOL_HZ
        self.assertEqual(checks.golden_diff_windows(alarms, shifted), 1)
        self.assertEqual(checks.golden_diff_windows(alarms, alarms[1:]), 1)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_a_hand_built_tree(self):
        S = tracer.Span
        spans = [
            S(1, 0, "cli.main", 0, 100),
            S(2, 1, "ingest.read_archive", 10, 30),
            S(3, 2, "x", 12, 18),
            S(4, 1, "detector.detect", 20, 50),  # overlaps span 2
            S(5, 1, "detector.detect", 60, 70),
        ]
        own = tracer.self_times(spans)
        self.assertEqual(own, {1: 100 - 40 - 10, 2: 20 - 6, 3: 6, 4: 30, 5: 10})

    def test_wrappers_nest_and_absent_hooks_do_not_fail(self):
        ticks = iter(range(0, 1000, 10))
        t = tracer.Tracer(clock=lambda: next(ticks))
        t.install((("detector.detect", ("lfodetect.detector:detect",)),
                   ("emd.bandpass", ("lfodetect.emd:bandpass",)),
                   ("prony.renamed", ("lfodetect.prony:no_such_function", "no_such_module:f"))))
        try:
            window = corpus.lf.SampleWindow("s", corpus.lf.Channel.Frequency_Hz, 0, 0.04, [0.0] * 64)
            corpus.lf.detector.detect(window)
        finally:
            t.uninstall()
        self.assertEqual(t.absent, ["prony.renamed"])
        detect, bandpass = t.spans
        self.assertEqual((detect.name, detect.parent, bandpass.parent), ("detector.detect", 0, detect.id))
        self.assertEqual(bandpass.attrs["error"], "EmptyBand")
        self.assertEqual(tracer.layer_metrics(t.spans)["emd.bandpass.empty_fraction"], 1.0)


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    tiny_corpus()
    unittest.main()

"""Span tracer that times the program's public functions from outside.

A wrapper is installed at each name a caller looks up: `cli` imports
`read_archive` by name, `detector` calls `prony.prony_analyze` through the
module, `prony_analyze` calls `characteristic_roots` through its module
globals. Spans carry their parent's id, stay in memory, and are written
once when the traced process ends. A hook whose module or function no
longer exists is reported as absent instead of failing the run.

Single-threaded by design: the benchmark runs the CLI without `--jobs`.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

#: (span name, binding sites as "module:attribute"). Each binding is a name
#: some caller looks up at call time.
HOOKS = (
    ("ingest.read_archive", ("lfodetect.ingest:read_archive", "lfodetect.cli:read_archive")),
    ("ingest.make_windows", ("lfodetect.ingest:make_windows", "lfodetect.cli:make_windows")),
    ("emd.bandpass", ("lfodetect.emd:bandpass",)),
    ("prony.prony_analyze", ("lfodetect.prony:prony_analyze",)),
    ("prony.fit_lpm", ("lfodetect.prony:fit_lpm",)),
    ("prony.characteristic_roots", ("lfodetect.prony:characteristic_roots",)),
    ("prony.roots_to_modes", ("lfodetect.prony:roots_to_modes",)),
    ("prony.solve_amplitudes", ("lfodetect.prony:solve_amplitudes",)),
    ("spectrum.dft", ("lfodetect.spectrum:dft",)),
    ("spectrum.find_peaks", ("lfodetect.spectrum:find_peaks",)),
    ("detector.detect", ("lfodetect.detector:detect", "lfodetect:detect")),
    ("detector.match_modes", ("lfodetect.detector:match_modes",)),
    ("cli.main", ("lfodetect.cli:main",)),
)

PRONY_FAILURES = ("RootSolverDiverged", "InsufficientExcitation", "OrderTooHigh")


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _on_call(name, args, kwargs, attrs):
    """Attributes taken from the arguments before the call."""
    if name in ("detector.detect", "prony.prony_analyze"):
        window = _arg(args, kwargs, 0, "w")
        attrs["n"] = int(getattr(window, "count", 0))
    elif name == "ingest.read_archive":
        report = _arg(args, kwargs, 1, "report")
        attrs["issues0"] = len(report.issues) if report is not None else 0
    elif name == "ingest.make_windows":
        diagnostics = _arg(args, kwargs, 2, "diagnostics")
        attrs["skipped0"] = len(diagnostics) if diagnostics is not None else 0


def _on_return(name, args, kwargs, result, attrs):
    """Attributes taken from the result after the call."""
    if name == "detector.detect":
        fit = getattr(result, "prony_fit", None)
        attrs["alarms"] = len(getattr(result, "alarms", ()))
        attrs["candidates"] = len(fit.modes) if fit is not None else 0
    elif name == "ingest.make_windows":
        diagnostics = _arg(args, kwargs, 2, "diagnostics")
        attrs["windows"] = len(result)
        attrs["skipped"] = (len(diagnostics) if diagnostics is not None else 0) - attrs.pop("skipped0")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        #: While False the wrappers call straight through and record nothing.
        self.enabled = True
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, hooks=HOOKS) -> None:
        # Resolve every binding before replacing any: importing a module
        # (say `cli`) copies names from modules already patched, and a
        # copied wrapper would be wrapped a second time.
        resolved = []
        for name, sites in hooks:
            found = []
            for site in sites:
                module_name, attr = site.split(":")
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    continue
                if callable(original):
                    found.append((module, attr, original))
            if not found:
                self.absent.append(name)
            resolved.extend((name, *site) for site in found)
        for name, module, attr, original in resolved:
            setattr(module, attr, self._wrap(name, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans) + 1, self._stack[-1] if self._stack else 0, name, self.clock())
        self.spans.append(span)
        return span

    def _wrap(self, name, fn):
        tracer = self
        generator = name == "ingest.read_archive"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            _on_call(name, args, kwargs, span.attrs)
            tracer._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                span.end = tracer.clock()
                raise
            finally:
                tracer._stack.pop()
            span.end = tracer.clock()
            if generator:
                return tracer._drain(span, result, _arg(args, kwargs, 1, "report"))
            _on_return(name, args, kwargs, result, span.attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _drain(self, span, iterator, report):
        """`read_archive` parses lazily: its span runs from the call until
        the records are exhausted."""
        count = 0
        try:
            for item in iterator:
                count += 1
                yield item
        finally:
            span.end = self.clock()
            span.attrs["records"] = count
            issues = len(report.issues) if report is not None else 0
            span.attrs["issues"] = issues - span.attrs.pop("issues0")

    def dump(self) -> dict:
        return {"spans": [s.to_list() for s in self.spans], "absent": list(self.absent)}


# --- span arithmetic ----------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it covered by its direct
    children (overlapping children count once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.ns - covered
    return out


def percentile(values, q: int) -> float:
    """q-th percentile (statistics' exclusive method); 0 for no values."""
    if not values:
        return 0.0
    if q == 50 or len(values) == 1:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100)[q - 1])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one traced run. A layer the workload never
    entered reads 0."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    index = {s.id: s for s in spans}

    def named(name):
        return by_name.get(name, [])

    def ms(items):
        return [s.ns / 1e6 for s in items]

    reads = named("ingest.read_archive")
    records = sum(s.attrs.get("records", 0) for s in reads)
    makes = named("ingest.make_windows")
    bandpasses = named("emd.bandpass")
    detects = named("detector.detect")
    analyses = named("prony.prony_analyze")
    full, half = [], []
    for s in analyses:
        parent = index.get(s.parent)
        if parent is not None and parent.name == "detector.detect":
            (full if s.attrs.get("n") == parent.attrs.get("n") else half).append(s)
    candidates = sum(s.attrs.get("candidates", 0) for s in detects)
    mains = named("cli.main")

    out = {
        "ingest.read_archive.us_per_record": sum(s.ns for s in reads) / 1e3 / records if records else 0.0,
        "ingest.make_windows.s": percentile([s.ns / 1e9 for s in makes], 50),
        "ingest.records": records,
        "ingest.parse_issues": sum(s.attrs.get("issues", 0) for s in reads),
        "ingest.windows_emitted": sum(s.attrs.get("windows", 0) for s in makes),
        "ingest.windows_skipped": sum(s.attrs.get("skipped", 0) for s in makes),
        "emd.bandpass.ms_p50": percentile(ms(bandpasses), 50),
        "emd.bandpass.ms_p95": percentile(ms(bandpasses), 95),
        "emd.bandpass.empty_fraction": (
            sum(s.attrs.get("error") == "EmptyBand" for s in bandpasses) / len(bandpasses)
            if bandpasses else 0.0
        ),
        "prony.prony_analyze.full_ms_p50": percentile(ms(full), 50),
        "prony.prony_analyze.half_ms_p50": percentile(ms(half), 50),
        "prony.prony_analyze.calls_per_window": len(analyses) / len(detects) if detects else 0.0,
        "prony.prony_analyze.self_ms_p50": percentile([own[s.id] / 1e6 for s in analyses], 50),
        "spectrum.dft.ms_p50": percentile(ms(named("spectrum.dft")), 50),
        "spectrum.find_peaks.ms_p50": percentile(ms(named("spectrum.find_peaks")), 50),
        "detector.detect.self_ms_p50": percentile([own[s.id] / 1e6 for s in detects], 50),
        "detector.match_modes.ms_p50": percentile(ms(named("detector.match_modes")), 50),
        "detector.alarms_per_candidate": (
            sum(s.attrs.get("alarms", 0) for s in detects) / candidates if candidates else 0.0
        ),
        "cli.main.self_s": percentile([own[s.id] / 1e9 for s in mains], 50),
    }
    for step in ("fit_lpm", "characteristic_roots", "roots_to_modes", "solve_amplitudes"):
        out[f"prony.{step}.ms_p50"] = percentile(ms(named(f"prony.{step}")), 50)
    for failure in PRONY_FAILURES:
        out[f"prony.failures.{failure}"] = sum(s.attrs.get("error") == failure for s in analyses)
    return out

"""Low-frequency power-system oscillation detection from PMU windows.

Pipeline: EMD band-pass -> damped-sinusoid (Prony) estimation + DFT peak
picking on the same filtered window -> frequency matching across the two
methods -> classified operator alarms.
"""

__version__ = "0.1.0"

from .core import (
    CONTROL_HUNT_BAND,
    MODE_BANDS,
    AlarmEvent,
    AnalysisConfig,
    Channel,
    EmptyBand,
    ModeClass,
    PronyFit,
    PronyMode,
    SampleWindow,
    Severity,
    SpectrumPeak,
    ValidationError,
    wrap_angle,
)
from .detector import DetectionReport, classify, detect, match_modes
from .emd import Imf, ImfSet, bandpass, decompose
from .ingest import (
    ArchiveRecord,
    DtMismatch,
    ParseReport,
    SchemaMismatch,
    WindowingPolicy,
    make_windows,
    read_archive,
    write_archive,
)
from .prony import (
    InsufficientExcitation,
    RootSolverDiverged,
    characteristic_roots,
    fit_lpm,
    prony_analyze,
    solve_amplitudes,
)
from .signalgen import InvalidSpec, SynthSpec, ToneSpec, generate
from .spectrum import Spectrum, WindowFunction, dft, find_peaks

__all__ = [
    "__version__",
    "CONTROL_HUNT_BAND",
    "MODE_BANDS",
    "AlarmEvent",
    "AnalysisConfig",
    "ArchiveRecord",
    "Channel",
    "DetectionReport",
    "DtMismatch",
    "EmptyBand",
    "Imf",
    "ImfSet",
    "InsufficientExcitation",
    "InvalidSpec",
    "ModeClass",
    "ParseReport",
    "PronyFit",
    "PronyMode",
    "RootSolverDiverged",
    "SampleWindow",
    "SchemaMismatch",
    "Severity",
    "Spectrum",
    "SpectrumPeak",
    "SynthSpec",
    "ToneSpec",
    "ValidationError",
    "WindowFunction",
    "WindowingPolicy",
    "bandpass",
    "characteristic_roots",
    "classify",
    "decompose",
    "detect",
    "dft",
    "find_peaks",
    "fit_lpm",
    "generate",
    "make_windows",
    "match_modes",
    "prony_analyze",
    "read_archive",
    "solve_amplitudes",
    "wrap_angle",
    "write_archive",
]

"""The package's public surface: every name `import lfodetect` offers."""

import dataclasses

import lfodetect
from lfodetect import emd, prony

#: The whole public API, in `__all__` order, so that adding, removing or
#: renaming a public name shows up as a reviewed change to this list.
PUBLIC_NAMES = [
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


def test_public_names():
    assert lfodetect.__all__ == PUBLIC_NAMES
    assert all(hasattr(lfodetect, name) for name in PUBLIC_NAMES)


def test_detection_report_holds_what_detect_found():
    # the caller holds the window, so the report repeats none of it
    assert [f.name for f in dataclasses.fields(lfodetect.DetectionReport)] == ["prony_fit", "fft_peaks", "alarms"]


def test_test_only_helpers_are_not_in_the_package():
    # mode sums and the IMF balance are checks the tests compute for
    # themselves; the pipeline never calls them
    assert not hasattr(prony, "reconstruct")
    assert not hasattr(emd, "imf_balance")

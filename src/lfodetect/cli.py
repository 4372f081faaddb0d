"""Command-line front end.

Subcommands:
    synth     write a synthetic archive of damped tones (plus optional noise)
    analyze   per-window mode tables (CSV), optional IMF dumps
    detect    run the alarm pipeline, emit JSON-lines alarms
    spectrum  per-window spectra as CSV for plotting

Exit codes: 0 success / no critical alarm, 2 usage or input error,
3 at least one critical alarm (detect only).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__, detector, emd, prony, signalgen, spectrum
from .core import AnalysisConfig, EmptyBand, Severity
from .ingest import (
    MAX_GAP_FRACTION,
    DtMismatch,
    ParseReport,
    SchemaMismatch,
    WindowingPolicy,
    _atomic_write,
    make_windows,
    read_archive,
    write_archive,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CRITICAL = 3

#: The WindowingPolicy fields, each set by the flag of the same name; the
#: 1% gap rule is the fixed ingest.MAX_GAP_FRACTION.
_POLICY_KEYS = ("window_seconds", "stride_seconds", "expected_dt")


class InvalidSetting(ValueError):
    """A flag value out of range."""


class AnalysisFailure(RuntimeError):
    """An analysis error with the window identity attached."""


#: What can reach `main`: an error inside a window's analysis arrives as
#: an AnalysisFailure, and OSError covers an unreadable input as well as an
#: output path that cannot be made or written.
_INPUT_ERRORS = (InvalidSetting, OSError, SchemaMismatch, DtMismatch, signalgen.InvalidSpec, AnalysisFailure)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"band must be 'low,high', got {text!r}") from exc
    return lo, hi


def _parse_tone(text: str) -> signalgen.ToneSpec:
    parts = text.split(",")
    if not 2 <= len(parts) <= 4:
        raise argparse.ArgumentTypeError(
            f"tone must be 'amplitude,frequency[,damping[,phase]]', got {text!r}"
        )
    try:
        numbers = [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tone {text!r}") from exc
    amplitude, frequency = numbers[0], numbers[1]
    damping = numbers[2] if len(numbers) > 2 else 0.0
    phase = numbers[3] if len(numbers) > 3 else 0.0
    try:
        return signalgen.ToneSpec(amplitude, frequency, phase=phase, damping=damping)
    except signalgen.InvalidSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _archive_command(sub, name: str, summary: str, func) -> argparse.ArgumentParser:
    """A subcommand that windows an archive: the archive, the windowing
    flags and --out-dir."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("archive", type=Path)
    helps = ("analysis window length", "window advance", "sample interval in seconds")
    for key, text in zip(_POLICY_KEYS, helps):
        parser.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                            help=f"{text} (default {getattr(WindowingPolicy, key):g})")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory (default: cwd)")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lfodetect", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"lfodetect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic archive CSV")
    p_synth.add_argument("--tone", action="append", type=_parse_tone, default=None,
                         metavar="A,F[,SIGMA[,THETA]]", help="add a damped cosine (repeatable)")
    p_synth.add_argument("--dt", type=float, default=WindowingPolicy.expected_dt, help="sample interval (default %(default)s)")
    p_synth.add_argument("--seconds", type=float, default=WindowingPolicy.window_seconds, help="seconds of data (default %(default)s)")
    p_synth.add_argument("--snr-db", type=float, default=None, help="white noise level relative to tone power")
    p_synth.add_argument("--noise-sigma", type=float, default=None, help="absolute white noise sigma (for noise-only archives)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", "-o", type=Path, required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_analyze = _archive_command(sub, "analyze", "per-window mode tables", cmd_analyze)
    p_analyze.add_argument("--order", type=int, default=None, help="prediction model order (default: automatic)")
    p_detect = _archive_command(sub, "detect", "emit classified oscillation alarms", cmd_detect)
    for p in (p_analyze, p_detect):
        p.add_argument("--band", type=_parse_band, default=None, metavar="LO,HI",
                       help="analysis band in Hz (default %s,%s)" % AnalysisConfig.emd_band_hz)
    p_analyze.add_argument("--emd", action="store_true",
                           help="band-pass the window before fitting (detect always does)")
    p_analyze.add_argument("--dump-imfs", action="store_true", help="write each window's IMFs as CSV columns")

    p_spectrum = _archive_command(sub, "spectrum", "per-window spectrum CSVs", cmd_spectrum)
    p_spectrum.add_argument("--band", type=_parse_band, default=None, metavar="LO,HI",
                            help="restrict emitted rows to this band")
    p_spectrum.add_argument("--window-fn", choices=[w.value for w in spectrum.WindowFunction],
                            default=spectrum.WindowFunction.Rectangular.value)
    return parser


def _resolve_detect(args, policy: WindowingPolicy) -> AnalysisConfig:
    cfg = AnalysisConfig(emd_band_hz=args.band or AnalysisConfig.emd_band_hz)
    spectrum.check_band_below_nyquist(cfg.emd_band_hz, 0.5 / policy.expected_dt)
    return cfg


def _resolve_spectrum_band(args, policy: WindowingPolicy) -> tuple[float, float] | None:
    if args.band is not None and not args.band[0] < args.band[1]:
        raise ValueError(f"band must satisfy low < high, got {args.band}")
    return args.band


def _resolve_settings(args, resolve):
    """(policy, resolve(args, policy)): the windowing policy from the flags
    and their defaults, then `resolve`'s configuration of the command,
    checked against the policy.

    Raises:
        InvalidSetting: a value is out of range.
    """
    try:
        policy = WindowingPolicy(**{key: getattr(args, key) for key in _POLICY_KEYS if getattr(args, key) is not None})
        return policy, resolve(args, policy)
    except ValueError as exc:
        raise InvalidSetting(f"invalid setting: {exc}") from exc


#: What artifact file names percent-encode in a station id, as the
#: uppercase hex of its UTF-8 bytes: the escape character itself, both
#: path separators and the control characters. Other ids stay as they are.
_STATION_ESCAPES = {
    c: "".join(f"%{b:02X}" for b in chr(c).encode())
    for c in (*range(0x20), *range(0x7F, 0xA0), ord("%"), ord("/"), ord("\\"))
}


def _window_prefix(w) -> str:
    """The window's artifact name stem. A station id never steers the
    file out of --out-dir, and distinct ids give distinct names."""
    return f"{w.station_id.translate(_STATION_ESCAPES)}_{w.channel.value}_{w.t0_ms}"


def _manifest(command: str, policy, config: dict, archive: Path, entries, diagnostics, report, extra) -> dict:
    manifest = {
        "tool": {"name": "lfodetect", "version": __version__},
        "command": command,
        "inputs": [{"path": str(archive), "sha256": _sha256(archive)}],
        # the fixed gap rule follows the settable fields
        "windowing": {**dataclasses.asdict(policy), "max_gap_fraction": MAX_GAP_FRACTION},
        "config": config,
        "windows": entries,
        "skipped_windows": diagnostics,
        "parse_issues": report.issues,
        "artifacts": sorted({a for e in entries for a in e["artifacts"]} | set(extra)),
    }
    if not entries:
        manifest["note"] = "no windows"
    return manifest


def _run(args, command: str, policy, config: dict, analyse, finish=None) -> None:
    """Analyse the archive's windows one at a time, in the (station, channel,
    t0) order `make_windows` emits, then write the run manifest, which
    records `config` as the command's resolved settings.

    `analyse(window, prefix)` writes the window's artifacts and returns its
    (outcome, artifact names); an exception from it ends the run as an
    AnalysisFailure naming the window. `finish()`, called after the last
    window, writes run-level artifacts and returns their names.
    """
    report = ParseReport()
    diagnostics: list[str] = []
    windows = make_windows(read_archive(args.archive, report), policy, diagnostics)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for w in windows:
        prefix = _window_prefix(w)
        try:
            outcome, artifacts = analyse(w, prefix)
        except Exception as exc:
            raise AnalysisFailure(f"{prefix}: {exc}") from exc
        entries.append({"station_id": w.station_id, "channel": w.channel.value,
                        "t0_ms": w.t0_ms, "samples": w.count,
                        "outcome": outcome, "artifacts": artifacts})
    extra = finish() if finish is not None else []
    manifest = _manifest(command, policy, config, args.archive, entries, diagnostics, report, extra)
    _atomic_write(args.out_dir / "run_manifest.json", [json.dumps(manifest, indent=2), "\n"])
    if not windows:
        print("no windows")


def cmd_synth(args) -> int:
    tones = tuple(args.tone or ())
    if not tones and args.noise_sigma is None:
        raise InvalidSetting("give at least one --tone (or --noise-sigma for a noise-only archive)")
    for flag, value in (("--dt", args.dt), ("--seconds", args.seconds)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidSetting(f"invalid setting: {flag} must be positive and finite, got {value}")
    ratio = args.seconds / args.dt
    if not math.isfinite(ratio):
        raise InvalidSetting(
            f"invalid setting: --seconds / --dt must be finite, got {args.seconds} / {args.dt}"
        )
    count = int(round(ratio))
    spec = signalgen.SynthSpec(
        tones=tones,
        dt=args.dt,
        count=count,
        noise_snr_db=args.snr_db,
        noise_sigma=args.noise_sigma,
        rng_seed=args.seed,
    )
    try:
        window = signalgen.generate(spec)
    except signalgen.InvalidSpec:
        # a ValueError too, which the clause below would misreport as memory
        raise
    except (MemoryError, ValueError) as exc:
        # numpy refuses the sample array: out of memory, or past its size limit
        raise InvalidSetting(
            f"invalid setting: --seconds / --dt gives {ratio:.3g} samples, too many to hold in memory"
        ) from exc
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_archive(args.output, [window])
    print(f"wrote {count} samples to {args.output}")
    return EXIT_OK


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length numeric `columns` under `header`, every value at
    17 significant digits (round-trips float64)."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    _atomic_write(path, [header + "\n"] + [row % values for values in zip(*columns)])


def _write_mode_table(path: Path, modes, fit_quality: float) -> None:
    fields = ("amplitude", "damping", "frequency", "phase", "energy_fraction")
    columns = [[getattr(m, f) for m in modes] for f in fields] + [[fit_quality] * len(modes)]
    _write_csv(path, "amplitude,damping,frequency_hz,phase_rad,energy_fraction,fit_quality", columns)


def _write_imf_dump(path: Path, window, imf_set) -> None:
    names = [f"imf{i + 1}" for i in range(len(imf_set.imfs))]
    columns = [window.times] + [imf.samples for imf in imf_set.imfs] + [imf_set.residue]
    _write_csv(path, ",".join(["time_s"] + names + ["residue"]), columns)


def cmd_analyze(args) -> int:
    def resolve(args, policy: WindowingPolicy) -> AnalysisConfig:
        # only the EMD band-pass reads the band
        if args.band is not None and not args.emd:
            raise ValueError("band applies only with --emd")
        cfg = AnalysisConfig(emd_band_hz=args.band or AnalysisConfig.emd_band_hz)
        if args.order is not None:
            prony.check_order(policy.window_samples, args.order)
        if args.emd:
            spectrum.check_band_below_nyquist(cfg.emd_band_hz, 0.5 / policy.expected_dt)
        return cfg

    policy, cfg = _resolve_settings(args, resolve)

    def analyse(w, prefix):
        imf_set = emd.decompose(w) if args.emd or args.dump_imfs else None
        target = w
        if args.emd:
            try:
                target = emd.select_band(w, imf_set, cfg)[1]
            except EmptyBand:
                return "empty-band", []
        try:
            fit = prony.prony_analyze(target, args.order)
        except prony.InsufficientExcitation:
            # a flat window, as a dead channel reporting zeros gives
            return "no-excitation", []
        modes = sorted(fit.modes, key=lambda m: (-m.amplitude, m.frequency))
        artifacts = [f"{prefix}_modes.csv"]
        _write_mode_table(args.out_dir / artifacts[0], modes, fit.fit_quality)
        if args.dump_imfs:
            artifacts.append(f"{prefix}_imfs.csv")
            _write_imf_dump(args.out_dir / artifacts[1], w, imf_set)
        print(f"{prefix}: fit_quality={fit.fit_quality:.3g}")
        for m in modes:
            print(f"  amplitude={m.amplitude:.3g} damping={m.damping:.3g} frequency={m.frequency:.3g} Hz")
        return "analyzed", artifacts

    _run(args, "analyze", policy, {"prony_order": args.order, "band_hz": list(cfg.emd_band_hz)}, analyse)
    return EXIT_OK


def cmd_detect(args) -> int:
    policy, cfg = _resolve_settings(args, _resolve_detect)
    alarms = []

    def analyse(w, prefix):
        found = detector.detect(w, cfg).alarms
        alarms.extend(found)
        return f"{len(found)} alarm(s)", []

    def finish():
        lines = [json.dumps(alarm.to_json_dict(), sort_keys=True) + "\n" for alarm in alarms]
        _atomic_write(args.out_dir / "alarms.jsonl", lines)
        sys.stdout.writelines(lines)
        return ["alarms.jsonl"]

    _run(args, "detect", policy, {"band_hz": list(cfg.emd_band_hz)}, analyse, finish)
    return EXIT_CRITICAL if any(a.severity is Severity.Critical for a in alarms) else EXIT_OK


def cmd_spectrum(args) -> int:
    policy, band = _resolve_settings(args, _resolve_spectrum_band)
    window_fn = spectrum.WindowFunction(args.window_fn)

    def analyse(w, prefix):
        freqs, mags, phases = spectrum.dft(w, window_fn).one_sided()
        if band is not None:
            lo, hi = band
            keep = (freqs >= lo) & (freqs <= hi)
            freqs, mags, phases = freqs[keep], mags[keep], phases[keep]
        name = f"{prefix}_spectrum.csv"
        _write_csv(args.out_dir / name, "frequency_hz,magnitude,phase_rad", [freqs, mags, phases])
        return "analyzed", [name]

    config = {"band_hz": list(band) if band is not None else None, "window_fn": window_fn.value}
    _run(args, "spectrum", policy, config, analyse)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

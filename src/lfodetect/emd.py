"""Empirical mode decomposition used as a band-pass filter.

The window is sifted into intrinsic mode functions (IMFs), each IMF gets a
zero-crossing frequency estimate, and the band-pass output is the sum of
the IMFs whose mean frequency falls inside the configured band. The slow
residue (trend) is always excluded.

Sifting details:
  * envelopes are natural cubic splines through the persistent maxima
    (resp. minima), with the two nearest knots mirrored about each window
    end to tame boundary effects. Each spline is one Thomas sweep (the
    tridiagonal elimination without pivoting, which the strictly
    diagonally dominant knot system does not need) for the knot second
    derivatives, then the closed-form cubic of each sample's segment; a
    zero pivot raises instead of returning garbage. Adjacent extremum
    pairs whose mutual swing is below 0.2 rms cancel first: the smallest
    swing goes first, the leftmost pair wins a tie, and each cancellation
    may join the two outer neighbours into a new pair. A heap over a
    linked list of the survivors makes this O(n log n) in the number of
    extrema;
  * a candidate is accepted as an IMF when the envelope-mean energy ratio
    SD = sum(m^2) / sum(d_prev^2) drops below SIFT_SD_THRESHOLD and
    the extrema / zero-crossing counts balance to within one, or after
    MAX_SIFT_ITERATIONS passes. The balance is measured on the same
    persistent-extrema skeleton: each sift pass subtracts a spline
    interpolant, which injects sub-scale wiggles, and counting those would
    force extra passes that inject even more until the wiggles dominate
    the crossing count;
  * decomposition stops when the residue has fewer than 3 persistent
    extrema (a spline needs material to interpolate), when the extracted
    component is floating-point dust, or after 12 IMFs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import MIN_WINDOW_SAMPLES, AnalysisConfig, EmptyBand, SampleWindow, _readonly

#: Hard cap on extracted IMFs; log2 of typical window lengths bounds the
#: number of meaningful dyadic scales.
MAX_IMFS = 12

#: Below this many interior extrema the signal is treated as a trend.
MIN_SIFT_EXTREMA = 3

#: Sifting passes per IMF before the candidate is accepted as it stands.
MAX_SIFT_ITERATIONS = 50

#: A candidate whose envelope-mean energy ratio SD falls below this (and
#: whose extrema and zero crossings balance) is accepted as an IMF.
SIFT_SD_THRESHOLD = 0.2

#: An extracted component this small relative to the input is floating-point
#: dust left over from envelope subtraction, not a real oscillation.
_DUST_FRACTION = 1e-12

#: In-band IMFs whose peak is below this fraction of the window's peak are
#: not band content: sifting leaks percent-level fragments across scales.
MIN_IMF_AMPLITUDE_FRACTION = 0.02

@dataclass(frozen=True, eq=False)
class Imf:
    """One intrinsic mode function plus its zero-crossing mean frequency."""

    samples: np.ndarray
    mean_frequency_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _readonly(self.samples))
        if not self.mean_frequency_hz >= 0:
            raise ValueError("mean_frequency_hz must be >= 0")


@dataclass(frozen=True, eq=False)
class ImfSet:
    """Ordered IMFs (highest frequency first) and the final residue.

    The elementwise sum of all IMFs plus the residue reproduces the input
    window to within accumulated rounding error.
    """

    imfs: tuple[Imf, ...]
    residue: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "imfs", tuple(self.imfs))
        object.__setattr__(self, "residue", _readonly(self.residue))


def _extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local extrema in index order and whether each is a maximum;
    plateaus count once, at their midpoint."""
    dx = np.diff(x)
    nz = np.flatnonzero(dx)
    if nz.size < 2:
        return np.empty(0, dtype=int), np.empty(0, dtype=bool)
    s = np.sign(dx[nz])
    flips = np.flatnonzero(s[:-1] != s[1:])
    return (nz[flips] + 1 + nz[flips + 1]) // 2, s[flips] > 0


def _count_zero_crossings(x: np.ndarray, hysteresis: float = 0.0) -> int:
    """Sign changes, with exact zeros collapsed (touching zero without
    crossing does not count). A nonzero hysteresis adds a dead zone
    [-hysteresis, +hysteresis]: only swings that clear it count."""
    if hysteresis > 0.0:
        s = np.where(x >= hysteresis, 1, np.where(x <= -hysteresis, -1, 0))
    else:
        s = np.sign(x)
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[:-1] != s[1:]))


#: Crossing-counter dead zone as a fraction of the signal rms. Sifting
#: leaves sub-scale wiggles near the zeros of an oscillation; counting
#: their sign flips would inflate the frequency estimate far above the
#: oscillation actually carried.
_CROSSING_HYSTERESIS = 0.2


def _scale_floor(x: np.ndarray) -> float:
    return _CROSSING_HYSTERESIS * float(np.sqrt(np.mean(x**2)))


def mean_frequency(samples, dt: float) -> float:
    """Zero-crossing frequency estimate: crossings / (2 * duration).

    Crossings are counted with a dead zone of 0.2 rms about zero, so only
    swings at the signal's own scale register. Returns 0.0 for a
    sign-constant signal. Needs at least MIN_WINDOW_SAMPLES samples and a
    positive finite dt.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_WINDOW_SAMPLES:
        raise ValueError(f"need at least {MIN_WINDOW_SAMPLES} samples, got {x.size}")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    duration = (x.size - 1) * dt
    return _count_zero_crossings(x, _scale_floor(x)) / (2.0 * duration)


def _natural_spline(t: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through the knots (t, v), evaluated on
    arange(n). t must be strictly increasing, hold at least 3 knots and
    cover [0, n - 1].

    The knot second derivatives M solve one tridiagonal system: M = 0 at
    both ends and the usual continuity rows inside. For increasing t the
    interior rows are strictly diagonally dominant, so a Thomas sweep
    (elimination without pivoting, in Python floats) solves them stably.
    Each sample then takes the closed-form cubic of its segment.

    Raises:
        numpy.linalg.LinAlgError: a zero pivot (t not increasing).
    """
    h = t[1:] - t[:-1]
    slope = (v[1:] - v[:-1]) / h
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    off = h[1:-1].tolist()
    rhs = (6.0 * (slope[1:] - slope[:-1])).tolist()
    try:
        pivot, r = diag[0], rhs[0]
        for i, u in enumerate(off, 1):
            fact = u / pivot
            pivot = diag[i] = diag[i] - fact * u
            r = rhs[i] = rhs[i] - fact * r
        x = rhs[-1] = r / pivot
        for i in range(len(off) - 1, -1, -1):
            x = rhs[i] = (rhs[i] - off[i] * x) / diag[i]
    except ZeroDivisionError:
        raise np.linalg.LinAlgError("singular spline system (zero pivot)") from None
    m = np.zeros(t.size)
    m[1:-1] = rhs
    # segment j: S(x) = v_j + a * (b_j + a * (c_j + a * d_j)) with a = x - t_j
    b = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = 0.5 * m[:-1]
    d = (m[1:] - m[:-1]) / (6.0 * h)
    x = np.arange(n, dtype=float)
    j = np.searchsorted(t, x, side="right") - 1
    a = x - t[j]
    return v[j] + a * (b[j] + a * (c[j] + a * d[j]))


def _envelope(ext_idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through the extrema, with up to two extrema
    mirrored about each end of the index axis."""
    te = ext_idx.astype(float)
    ve = values[ext_idx]
    k = min(2, te.size)
    left_t = -te[:k][::-1]
    left_v = ve[:k][::-1]
    right_t = (2.0 * (n - 1) - te[-k:])[::-1]
    right_v = ve[-k:][::-1]
    t = np.concatenate([left_t, te, right_t])
    v = np.concatenate([left_v, ve, right_v])
    return _natural_spline(t, v, n)


def _persistent_extrema(x: np.ndarray, swing: float) -> tuple[np.ndarray, np.ndarray]:
    """Extrema surviving pair cancellation: adjacent extremum pairs whose
    mutual swing is below `swing` (wiggles smaller than the signal's own
    scale) annihilate. Returns (indices, is_maximum) in index order.

    The smallest swing among the current neighbours cancels first and the
    leftmost pair wins a tie. Survivors form a doubly linked list and the
    candidate pairs a min-heap keyed (swing, left position), so each
    cancellation costs O(log n): it joins the two outer neighbours into one
    new pair and leaves the entries that named a removed extremum stale.
    x must be finite.
    """
    idx, is_max = _extrema(x)
    values = x[idx]
    v = values.tolist()
    n = len(v)
    gaps = np.abs(np.diff(values))
    g = gaps.tolist()
    heap = [(g[i], i, i + 1) for i in np.flatnonzero(gaps < swing).tolist()]
    heapq.heapify(heap)
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    alive = [True] * n
    while heap:
        _, i, j = heapq.heappop(heap)
        if not alive[i] or nxt[i] != j:
            continue
        alive[i] = alive[j] = False
        a, b = prev[i], nxt[j]
        if a >= 0:
            nxt[a] = b
        if b < n:
            prev[b] = a
        if a >= 0 and b < n:
            gap = abs(v[b] - v[a])
            if gap < swing:
                heapq.heappush(heap, (gap, a, b))
    keep = np.array(alive, dtype=bool)
    return idx[keep], is_max[keep]


def _skeleton(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Persistent extrema of x at its own 0.2 rms swing floor."""
    return _persistent_extrema(x, _scale_floor(x))


def _balance(x: np.ndarray, idx: np.ndarray) -> int:
    """Extrema count minus zero-crossing count of the skeleton idx of x."""
    return int(idx.size) - _count_zero_crossings(x[idx])


def _sift(x: np.ndarray) -> np.ndarray | None:
    """Extract one IMF from x, or None when x cannot be sifted at all.

    Envelope knots are the persistent extrema: a sub-scale contra-extremum
    (say, a noise dip just below a crest) would otherwise drag the opposite
    envelope across the full signal range and bleed the oscillation itself
    into the envelope mean. A candidate's skeleton, once computed for its
    balance test, serves as the next pass's knots.
    """
    n = x.size
    d = np.array(x, dtype=float)
    skeleton = None
    for k in range(MAX_SIFT_ITERATIONS):
        if skeleton is None:
            skeleton = _skeleton(d)
        idx, is_max = skeleton
        mx, mn = idx[is_max], idx[~is_max]
        if mx.size == 0 or mn.size == 0 or idx.size < MIN_SIFT_EXTREMA:
            return None if k == 0 else d
        e_up = _envelope(mx, d, n)
        e_low = _envelope(mn, d, n)
        m = 0.5 * (e_up + e_low)
        denom = float(np.dot(d, d))
        sd = float(np.dot(m, m)) / denom if denom > 0.0 else 0.0
        d = d - m
        skeleton = _skeleton(d) if sd < SIFT_SD_THRESHOLD else None
        if skeleton is not None and abs(_balance(d, skeleton[0])) <= 1:
            break
    return d


def decompose(w: SampleWindow) -> ImfSet:
    """Sift the window into IMFs plus a residue.

    Deterministic; degenerate inputs (no interior extrema) yield zero IMFs
    and residue equal to the input.
    """
    w.require_finite()
    residue = np.array(w.samples, dtype=float)
    dust = _DUST_FRACTION * float(np.max(np.abs(residue))) if residue.size else 0.0
    imfs: list[Imf] = []
    while len(imfs) < MAX_IMFS:
        d = _sift(residue)
        if d is None or float(np.max(np.abs(d))) <= dust:
            break
        imfs.append(Imf(d, mean_frequency(d, w.dt)))
        residue = residue - d
    return ImfSet(tuple(imfs), residue)


def select_band(
    w: SampleWindow, imf_set: ImfSet, cfg: AnalysisConfig | None = None
) -> tuple[tuple[int, ...], SampleWindow]:
    """The IMFs of `imf_set` (the decomposition of w) whose mean frequency
    lies inside cfg.emd_band_hz (inclusive bounds), as their indices and
    as the window holding their sum. The residue is always excluded.

    IMFs below MIN_IMF_AMPLITUDE_FRACTION of the input peak are ignored:
    treating sifting's leaked fragments as band content would turn an
    empty band into noise.

    Raises:
        EmptyBand: no material IMF falls in the band, i.e. nothing to analyze.
    """
    cfg = cfg or AnalysisConfig()
    lo, hi = cfg.emd_band_hz
    floor = MIN_IMF_AMPLITUDE_FRACTION * float(np.max(np.abs(w.samples)))
    keep = tuple(
        i
        for i, imf in enumerate(imf_set.imfs)
        if lo <= imf.mean_frequency_hz <= hi and float(np.max(np.abs(imf.samples))) >= floor
    )
    if not keep:
        raise EmptyBand(f"no material IMF with mean frequency in [{lo}, {hi}] Hz")
    total = imf_set.imfs[keep[0]].samples.copy()
    for i in keep[1:]:
        total += imf_set.imfs[i].samples
    return keep, replace(w, samples=total)


def bandpass(w: SampleWindow, cfg: AnalysisConfig | None = None) -> SampleWindow:
    """Sum of the in-band IMFs of w: `decompose`, then `select_band`.

    Raises:
        EmptyBand: no material IMF falls in the band, i.e. nothing to analyze.
    """
    return select_band(w, decompose(w), cfg)[1]

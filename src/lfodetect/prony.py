"""Damped-sinusoid decomposition of a sampled window.

Three chained steps:
  1. fit a linear prediction model of order N to the samples: least
     squares over the Hankel-structured prediction equations, by one
     Householder QR of the design with the target as an extra column,
     which reduces them to an N x N triangle. A triangle whose diagonal
     clears numpy's default rank threshold is solved directly; a
     rank-deficient one gets the minimum-norm solution by SVD at that
     threshold;
  2. root the characteristic polynomial as the eigenvalues of its
     companion matrix (LAPACK via np.roots; a deviation from the
     Aberth-Ehrlich iteration of the original method, chosen because it
     is backward stable and returns exact conjugate pairs);
  3. turn each root group (a real root, or a conjugate pair collapsed to
     one nonnegative-frequency entry) into one mode: damping and
     frequency from log(z)/dt, amplitude and phase from the per-root
     weights of the Vandermonde system, solved by least squares in a
     real basis (z^k per real root, sqrt(2)*Re z^k and sqrt(2)*Im z^k per
     conjugate pair: the complex Vandermonde matrix times a unitary
     matrix, so the singular values and the minimum-norm solution are the
     same).

prony_analyze drives the chain, prunes numerical artifacts, and grades
itself by reconstructing the window from the surviving modes.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    TWO_PI,
    PronyFit,
    PronyMode,
    SampleWindow,
    mode_matrix,
    wrap_angle,
)

logger = logging.getLogger(__name__)

#: Modes with |damping| * window_duration above this are discarded: the
#: amplitude would change by more than e^20 across the window, which is
#: meaningless for oscillation analysis and poisons the Vandermonde solve.
MAX_DAMPING_DURATION = 20.0

#: Condition-number estimate above which amplitude results are flagged.
ILL_CONDITION_LIMIT = 1e12

#: Modes below this fraction of the strongest mode's amplitude are dropped.
MIN_MODE_AMPLITUDE_FRACTION = 0.02

#: Most a root and its conjugate partner may differ, relative to 1 + |z|.
_PAIR_TOLERANCE = 1e-6

_RESIDUAL_FACTOR = 1e-8

_SQRT2 = math.sqrt(2.0)

#: Ceiling of the automatic model order. It is generous on purpose: in
#: noise, surplus poles absorb the noise that otherwise biases the damping
#: estimates of the real modes.
MAX_AUTO_ORDER = 60


class InsufficientExcitation(ValueError):
    """The prediction system is degenerate (e.g. an all-zero window)."""


class RootSolverDiverged(RuntimeError):
    """A computed root leaves a residual above tolerance."""


def max_order(count: int) -> int:
    """Highest model order `count` samples support (three samples per order)."""
    return count // 3


def check_order(count: int, order: int) -> None:
    """Raise ValueError unless `count` samples support `order`: an order
    below 1, or one above max_order(count) (count < 3 * order)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > max_order(count):
        raise ValueError(f"{count} samples cannot support order {order} (need >= {3 * order})")


def fit_lpm(w: SampleWindow, order: int) -> np.ndarray:
    """Least-squares coefficients a_1..a_N of the linear prediction model
    y[m] = a_1*y[m-1] + ... + a_N*y[m-N] over m = N..count-1.

    Raises:
        ValueError: order < 1 or count < 3 * order.
        InsufficientExcitation: design matrix has rank zero.
    """
    w.require_finite()
    y = w.samples
    count = y.size
    check_order(count, order)
    # row m holds y[m], ..., y[m+N-1] (the design, oldest sample first, so
    # it solves for a_N..a_1) and then y[m+N] (the target). R of this
    # augmented matrix holds R of the design and, in its last column,
    # Q^T target: the least-squares problem shrinks to the N x N triangle.
    r = np.linalg.qr(sliding_window_view(y, order + 1), mode="r")
    triangle, rhs = r[:order, :order], r[:order, order]
    # numpy lstsq's default rank threshold, relative to the largest pivot
    rcond = np.finfo(float).eps * max(count - order, order)
    pivots = np.abs(np.diagonal(triangle))
    if np.all(pivots > rcond * pivots.max()):
        return np.linalg.solve(triangle, rhs)[::-1]
    # the triangle has the design's singular values, so its minimum-norm
    # solution is the design's
    coeffs, _, rank, _ = np.linalg.lstsq(triangle, rhs, rcond=rcond)
    if rank == 0:
        raise InsufficientExcitation("prediction system has rank zero (signal carries no energy)")
    return coeffs[::-1]


def _group_roots(roots) -> np.ndarray:
    """One representative per root group of a conjugate-closed root list.

    Numerically real roots (|Im z| <= 1e-8 * (1 + |z|)) come first as exact
    reals in ascending order, then one entry per conjugate pair with
    positive imaginary part, ordered on (real, imag). A pair's
    representative is therefore the only entry with Im > 0. Deterministic:
    any arrangement of the same multiset yields the same sequence.

    Raises:
        ValueError: a zero root (it has no logarithm, hence no mode), or a
            complex root without a conjugate partner within
            _PAIR_TOLERANCE * (1 + |z|).
    """
    rts = np.asarray(roots, dtype=complex).ravel()
    if np.any(rts == 0):
        raise ValueError("zero roots have no mode; drop them first")
    scale = 1.0 + np.abs(rts)
    real = np.abs(rts.imag) <= 1e-8 * scale
    upper = np.sort_complex(rts[~real & (rts.imag > 0)])
    lower = np.sort_complex(np.conj(rts[~real & (rts.imag < 0)]))
    if upper.size != lower.size or np.any(np.abs(upper - lower) > _PAIR_TOLERANCE * (1.0 + np.abs(upper))):
        raise ValueError("complex characteristic roots must come in conjugate pairs")
    return np.concatenate((np.sort(rts[real].real).astype(complex), 0.5 * (upper + lower)))


def characteristic_roots(a) -> np.ndarray:
    """All N roots of  z^N - a_1 z^(N-1) - ... - a_N, as the eigenvalues of
    the companion matrix (LAPACK, via np.roots).

    Output is conjugate-closed for real coefficients (pairs are exact
    conjugates, trailing zero coefficients give exact zero roots) and each
    root satisfies |p(root)| <= 1e-8 * max|coefficient|.

    Raises:
        RootSolverDiverged: a root's residual is above that tolerance.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("coefficient list must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    full = np.concatenate(([1.0], -a))
    roots = np.roots(full).astype(complex)
    residual = np.abs(np.polyval(full, roots))
    tolerance = _RESIDUAL_FACTOR * float(np.max(np.abs(full)))
    if np.any(residual > tolerance):
        raise RootSolverDiverged(
            f"max residual {residual.max():.3e} exceeds tolerance {tolerance:.3e}"
        )
    return roots


def solve_amplitudes(w: SampleWindow, roots) -> list[tuple[float, float, float, float]]:
    """(amplitude, damping, frequency, phase) per root group: the mode each
    group of the given roots makes on window `w`.

    Damping is Re(log z)/dt and frequency |Im(log z)| / (2*pi*dt); real
    negative roots land on the Nyquist frequency. Amplitude and phase come
    from the least-squares solution of the Vandermonde system, solved in a
    real basis: z^k for each real root, and sqrt(2)*Re z^k, sqrt(2)*Im z^k
    for each conjugate pair. That matrix is the complex Vandermonde matrix
    times a unitary matrix, so it has the same singular values and, for
    real samples, the same minimum-norm solution; a pair's weight on z^k is
    B = (p - iq)/sqrt(2) for basis weights p, q.

    The root list must be conjugate-closed and free of zero roots
    (ValueError otherwise). Conjugate pairs collapse to one mode with
    frequency >= 0, amplitude 2|B| and phase arg(B); real roots yield |B|
    with phase 0 or pi. A condition estimate above 1e12 is logged as a
    warning; the result is still returned.
    """
    w.require_finite()
    reps = _group_roots(roots)
    if not reps.size:
        return []
    n_real = int(np.count_nonzero(reps.imag == 0))
    powers = np.vander(reps, w.count, increasing=True).T
    pair_powers = _SQRT2 * powers[:, n_real:]
    basis = np.concatenate((powers[:, :n_real].real, pair_powers.real, pair_powers.imag), axis=1)
    weights, _, _, singular = np.linalg.lstsq(basis, w.samples, rcond=None)
    condition = float(singular[0] / singular[-1]) if singular[-1] > 0 else math.inf
    if condition > ILL_CONDITION_LIMIT:
        logger.warning(
            "Vandermonde system ill-conditioned (cond ~ %.2e); amplitudes may be unreliable",
            condition,
        )
    real, p, q = np.split(weights, [n_real, reps.size])
    amp_phase = [(abs(x), 0.0 if x >= 0 else math.pi) for x in real.tolist()] + [
        (_SQRT2 * math.hypot(a, b), wrap_angle(math.atan2(-b, a))) for a, b in zip(p.tolist(), q.tolist())
    ]
    ln = np.log(reps)
    damping = (ln.real / w.dt).tolist()
    frequency = (np.abs(ln.imag) / (TWO_PI * w.dt)).tolist()
    return [(a, s, f, ph) for (a, ph), s, f in zip(amp_phase, damping, frequency)]


def prony_analyze(w: SampleWindow, order: int | None = None) -> PronyFit:
    """Full decomposition of a (typically band-passed) window at model
    `order`; None, the default, means the automatic order
    min(max_order(count), MAX_AUTO_ORDER).

    Chains fit_lpm -> characteristic_roots -> solve_amplitudes, discards
    damping artifacts and modes below MIN_MODE_AMPLITUDE_FRACTION of the
    strongest, sorts by energy share, and grades the result by
    reconstruction error.

    Raises:
        ValueError: order < 1 or above max_order(count).
    """
    y = w.samples
    if order is None:
        order = min(max_order(y.size), MAX_AUTO_ORDER)
    all_roots = characteristic_roots(fit_lpm(w, order))

    # Both roots of a pair share |z|, so filtering on it keeps the list
    # conjugate-closed. Zero roots get sigma = -inf and fall out here too.
    with np.errstate(divide="ignore"):
        damping = np.log(np.abs(all_roots)) / w.dt
    keep = np.abs(damping) * w.duration <= MAX_DAMPING_DURATION
    if np.any(all_roots == 0):
        logger.warning("dropping zero characteristic root")
    if not np.all(keep):
        logger.debug("discarding %d zero or damping-artifact root(s)", int(np.sum(~keep)))
    raw = solve_amplitudes(w, all_roots[keep])
    if raw:
        floor = MIN_MODE_AMPLITUDE_FRACTION * max(amp for amp, *_ in raw)
        raw = [m for m in raw if m[0] >= floor]

    signals = mode_matrix(raw, y.size, w.dt)
    energies = np.sum(signals**2, axis=0).tolist()
    total_energy = sum(energies)
    modes = [
        PronyMode(
            amplitude=a,
            damping=s,
            frequency=f,
            phase=wrap_angle(p),
            energy_fraction=(e / total_energy if total_energy > 0 else 0.0),
        )
        for (a, s, f, p), e in zip(raw, energies)
    ]
    modes.sort(key=lambda m: (-m.energy_fraction, m.frequency))

    norm_y = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(y - signals.sum(axis=1)))
    quality = 1.0 - residual / norm_y if norm_y > 0 else 0.0

    return PronyFit(order=order, modes=tuple(modes), fit_quality=min(1.0, max(0.0, quality)))

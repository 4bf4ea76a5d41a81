"""Slice-level figures of merit and Monte Carlo detection.

Lobe geometry works on sampled |chi| cuts: the main lobe is delimited by the
first local minima on each side of the peak that fall below a null threshold
(5 % of the peak by default), with sub-sample parabolic refinement on the
squared magnitude.  Detection simulates a square-law matched-filter statistic
|a + n|^2 with the scalar receive-array gain folded into the signal
amplitude and an empirically calibrated threshold.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguityQuery, AmbiguitySlice, chi
from .model import (AntennaLayout, DetectionParams, FhCode, RadarConfig,
                    ValidationError, _check_seed)
from .theory import TheoryBound

NULL_THRESHOLD = 0.05  # local minima below this fraction of the peak are nulls
GAP_TOL = 1e-6         # |chi| below its lower bound by more than this is a violation


@dataclass(frozen=True)
class LobeReport:
    """Main-lobe geometry of one slice."""

    width: float        # null-to-null extent (slice axis units)
    psl_db: float       # peak sidelobe level relative to the peak (dB)
    peak: float         # peak magnitude
    peak_coord: float
    left_null: float
    right_null: float


def _refine_null(coords: np.ndarray, vals: np.ndarray, i: int) -> float:
    """Parabolic vertex of |chi|^2 through samples i-1, i, i+1 (uneven grids ok)."""
    xs = coords[i - 1:i + 2]
    ys = vals[i - 1:i + 2] ** 2
    a, b, _ = np.polyfit(xs - xs[1], ys, 2)
    if a <= 0:
        return float(coords[i])
    vertex = -b / (2.0 * a)
    if abs(vertex) > max(xs[2] - xs[1], xs[1] - xs[0]):
        return float(coords[i])
    return float(xs[1] + vertex)


def _first_null(coords: np.ndarray, vals: np.ndarray, start: int, step: int,
                thr: float) -> float:
    i = start + step
    while 0 < i < vals.size - 1:
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1] and vals[i] <= thr:
            return _refine_null(coords, vals, i)
        i += step
    raise ValidationError(
        "no null found on one side of the peak inside the slice range"
    )


def measure_lobes(s: AmbiguitySlice, null_threshold: float = NULL_THRESHOLD) -> LobeReport:
    """Null-to-null width and peak sidelobe level of a slice.

    The slice must contain the matched peak and be sampled finely enough for
    the first nulls to be bracketed (several points per lobe).
    """
    coords, vals = s.coords, s.values
    if vals.size < 5:
        raise ValidationError("slice too short to measure a lobe")
    p = int(np.argmax(vals))
    peak = float(vals[p])
    if peak <= 0:
        raise ValidationError("slice has no positive peak")
    thr = null_threshold * peak
    left = _first_null(coords, vals, p, -1, thr)
    right = _first_null(coords, vals, p, +1, thr)

    outside = (coords < left) | (coords > right)
    if not outside.any():
        raise ValidationError("main lobe fills the whole slice; no sidelobes")
    side = float(vals[outside].max())
    psl_db = 20.0 * np.log10(side / peak) if side > 0 else -np.inf
    return LobeReport(width=right - left, psl_db=psl_db, peak=peak,
                      peak_coord=float(coords[p]), left_null=left,
                      right_null=right)


@dataclass(frozen=True)
class BoundGap:
    min_gap: float
    violation_count: int    # samples with |chi| < bound - GAP_TOL


def bound_gap(s: AmbiguitySlice, bound: TheoryBound) -> BoundGap:
    """Pointwise slack between a slice and its lower bound (grids must match)."""
    if s.coords.shape != bound.coords.shape or not np.allclose(
            s.coords, bound.coords, rtol=1e-12, atol=1e-12):
        raise ValidationError("bound_gap: slice and bound grids do not match")
    gap = s.values - bound.lower
    return BoundGap(min_gap=float(gap.min()),
                    violation_count=int(np.count_nonzero(gap < -GAP_TOL)))


# ---------------------------------------------------------------------------
# Monte Carlo detection.
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16   # trials per chunk; each worker owns one 1 MiB (_CHUNK, 2) buffer


@dataclass(frozen=True, eq=False)
class DetectionCurve:
    snr_db: tuple
    p_d: tuple
    ci_low: tuple
    ci_high: tuple
    threshold: float
    pfa_target: float
    pfa_measured: float
    trials: int


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunks(seq: np.random.SeedSequence, trials: int, sigma2: float, amp: float):
    """Yield (pos, s): s, a view of one reused buffer, is |amp + n|^2 for
    CN(0, sigma2) noise over trials pos, pos + 1, ...

    Trial i always consumes stream positions 2i and 2i+1 (re, im), so the
    result is independent of the chunk size, and each chunk is made in place
    with the bits of the one-shot ``re = amp + z[:, 0]; re*re + im*im`` with
    ``z = rng.normal(0, s, (trials, 2))``: ``normal(0, s)`` returns
    ``0 + s*x`` for the same standard ziggurat draws ``x``, and each later
    step rounds the same operands in the same order.
    """
    rng = np.random.default_rng(seq)
    scale = np.sqrt(0.5 * sigma2)
    buf = np.empty((min(_CHUNK, trials), 2))
    for pos in range(0, trials, _CHUNK):
        z = buf[:min(_CHUNK, trials - pos)]
        rng.standard_normal(out=z)
        z *= scale
        z[:, 0] += amp
        np.square(z, out=z)
        yield pos, np.add(z[:, 0], z[:, 1], out=z[:, 0])


def _noise_power(seq: np.random.SeedSequence, trials: int, sigma2: float,
                 amp: float = 0.0) -> np.ndarray:
    """The whole trials-long statistic of ``_chunks``."""
    out = np.empty(trials)
    for pos, s in _chunks(seq, trials, sigma2, amp):
        out[pos:pos + s.size] = s
    return out


def _exceed_fraction(seq: np.random.SeedSequence, trials: int, sigma2: float,
                     amp: float, threshold: float) -> float:
    """``np.mean(_noise_power(...) > threshold)`` to the bit, without the array."""
    return sum(int(np.count_nonzero(s > threshold))
               for _, s in _chunks(seq, trials, sigma2, amp)) / trials


def detection_probability(layout: AntennaLayout, code: FhCode, cfg: RadarConfig,
                          det: DetectionParams, seed: int = 0) -> DetectionCurve:
    """Detection probability versus per-element SNR at fixed false-alarm rate.

    The curve depends only on (code, cfg, det, seed): at theta = theta' = 0
    every steering phasor is 1, so ``layout`` is only checked against the code.
    The matched-filter output is a = sqrt(M_r * snr) * |chi(0,0,0,0)| plus
    CN(0, M_t) noise (M_t unit-energy element channels; the receive array adds
    the scalar gain M_r).  The square-law statistic |a + n|^2 is compared with
    a threshold calibrated on ``det.trials`` noise-only draws.  Independent
    streams, counted on at most one thread per usable core, give the measured
    P_fa and each SNR point's P_d; no thread count or chunk size moves a draw.
    """
    matched = abs(chi(AmbiguityQuery(), layout, code, cfg))
    sigma2 = float(layout.M_t)

    root = np.random.SeedSequence(_check_seed("seed", seed))
    cal_seq, meas_seq, h1_seq = root.spawn(3)

    # Only calibration keeps a trials-long statistic; quantile partitions it in place.
    threshold = float(np.quantile(_noise_power(cal_seq, det.trials, sigma2),
                                  1.0 - det.P_fa, overwrite_input=True))

    seqs = [meas_seq] + h1_seq.spawn(len(det.snr_grid))
    amps = [0.0] + [np.sqrt(det.M_r * 10.0 ** (snr_db / 10.0)) * matched
                    for snr_db in det.snr_grid]
    with ThreadPoolExecutor(min(_usable_cores(), len(seqs))) as pool:
        pfa_measured, *p_d = pool.map(lambda sq, amp: _exceed_fraction(
            sq, det.trials, sigma2, amp, threshold), seqs, amps)
    half = [1.96 * np.sqrt(max(p * (1.0 - p), 1e-12) / det.trials) for p in p_d]
    return DetectionCurve(snr_db=tuple(det.snr_grid), p_d=tuple(p_d),
                          ci_low=tuple(max(0.0, p - h) for p, h in zip(p_d, half)),
                          ci_high=tuple(min(1.0, p + h) for p, h in zip(p_d, half)),
                          threshold=threshold, pfa_target=det.P_fa,
                          pfa_measured=pfa_measured, trials=det.trials)

"""Slice-level figures of merit and Monte Carlo detection.

Lobe geometry works on sampled |chi| cuts: the main lobe is delimited by the
first local minima on each side of the peak that fall below a null threshold
(5 % of the peak by default), with sub-sample parabolic refinement on the
squared magnitude.  Detection simulates a square-law matched-filter statistic
|a + n|^2 with the scalar receive-array gain folded into the signal
amplitude and an empirically calibrated threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguityQuery, AmbiguitySlice, chi
from .model import (AntennaLayout, DetectionParams, FhCode, RadarConfig,
                    ValidationError)
from .theory import TheoryBound

NULL_THRESHOLD = 0.05  # local minima below this fraction of the peak are nulls


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
    violation_count: int    # samples with |chi| < bound - 1e-6


def bound_gap(s: AmbiguitySlice, bound: TheoryBound, tol: float = 1e-6) -> BoundGap:
    """Pointwise slack between a slice and its lower bound (grids must match)."""
    if s.coords.shape != bound.coords.shape or not np.allclose(
            s.coords, bound.coords, rtol=1e-12, atol=1e-12):
        raise ValidationError("bound_gap: slice and bound grids do not match")
    gap = s.values - bound.lower
    return BoundGap(min_gap=float(gap.min()),
                    violation_count=int(np.count_nonzero(gap < -tol)))


# ---------------------------------------------------------------------------
# Monte Carlo detection.
# ---------------------------------------------------------------------------

_CHUNK = 1_000_000


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


def _noise_power(seq: np.random.SeedSequence, trials: int, sigma2: float,
                 amp: float = 0.0) -> np.ndarray:
    """|amp + n|^2 for CN(0, sigma2) noise.

    Draws are interleaved per trial (re, im), so trial i always consumes
    stream positions 2i and 2i+1 and the result is independent of the
    chunk size used to bound memory.
    """
    out = np.empty(trials)
    rng = np.random.default_rng(seq)
    scale = np.sqrt(0.5 * sigma2)
    pos = 0
    while pos < trials:
        n = min(_CHUNK, trials - pos)
        z = rng.normal(0.0, scale, size=(n, 2))
        re = amp + z[:, 0]
        im = z[:, 1]
        out[pos:pos + n] = re * re + im * im
        pos += n
    return out


def detection_probability(layout: AntennaLayout, code: FhCode, cfg: RadarConfig,
                          det: DetectionParams, seed: int = 0) -> DetectionCurve:
    """Detection probability versus per-element SNR at fixed false-alarm rate.

    Model: single target at the matched hypothesis; the matched-filter output
    is a = sqrt(M_r * snr) * |chi(0,0,0,0)| plus complex Gaussian noise of
    variance M_t (the filter sums M_t unit-energy element channels; the
    receive array contributes the scalar gain M_r).  The square-law statistic
    |a + n|^2 is compared against a threshold calibrated on ``det.trials``
    noise-only draws; an independent noise stream reports the measured
    false-alarm rate.  Deterministic in ``seed`` regardless of chunking.
    """
    matched = abs(chi(AmbiguityQuery(), layout, code, cfg))
    sigma2 = float(layout.M_t)

    root = np.random.SeedSequence(seed)
    cal_seq, meas_seq, h1_seq = root.spawn(3)

    t_cal = _noise_power(cal_seq, det.trials, sigma2)
    threshold = float(np.quantile(t_cal, 1.0 - det.P_fa))
    del t_cal

    t_meas = _noise_power(meas_seq, det.trials, sigma2)
    pfa_measured = float(np.mean(t_meas > threshold))
    del t_meas

    snr_seqs = h1_seq.spawn(len(det.snr_grid))
    p_d, ci_low, ci_high = [], [], []
    for snr_db, sseq in zip(det.snr_grid, snr_seqs):
        amp = np.sqrt(det.M_r * 10.0 ** (snr_db / 10.0)) * matched
        stats = _noise_power(sseq, det.trials, sigma2, amp=amp)
        p = float(np.mean(stats > threshold))
        half = 1.96 * np.sqrt(max(p * (1.0 - p), 1e-12) / det.trials)
        p_d.append(p)
        ci_low.append(max(0.0, p - half))
        ci_high.append(min(1.0, p + half))

    return DetectionCurve(snr_db=tuple(det.snr_grid), p_d=tuple(p_d),
                          ci_low=tuple(ci_low), ci_high=tuple(ci_high),
                          threshold=threshold, pfa_target=det.P_fa,
                          pfa_measured=pfa_measured, trials=det.trials)

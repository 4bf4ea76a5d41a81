"""Closed-form layout optimality and mismatched-domain lower bounds.

``mmlwd_layout`` builds the spacing vector that provably minimizes the
null-to-null main-lobe width of the zero-delay zero-Doppler angular response
under the constraints d_i >= lambda/2 and sum(d) <= L; ``b_min`` is the
corresponding closed-form width.  ``doppler_lower_bound`` and
``delay_lower_bound`` are layout-independent envelopes below the ambiguity
magnitude on the matched-angle Doppler and delay axes: the element-diagonal
part of the hop-pair sum is evaluated exactly and the cross terms are
bounded by the triangle inequality, so every feasible layout satisfies
|chi| >= bound pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import _shift_terms
from .model import (AntennaLayout, FhCode, RadarConfig, ValidationError,
                    _check_angle, _check_aperture, _freeze)


def mmlwd_layout(M_t: int, L: float) -> AntennaLayout:
    """Minimum-main-lobe-width spacing vector for an aperture budget L.

    Splits the array into two half-wavelength-spaced groups at the opposite
    ends of the aperture: every spacing is lambda/2 except the central one,
    which takes up the remaining budget L - (M_t - 2)*lambda/2.
    """
    _check_aperture(M_t, L)
    d = np.full(M_t - 1, 0.5)
    center = math.ceil(M_t / 2)               # 1-based index of the wide gap
    d[center - 1] = L - 0.5 * (M_t - 2)
    return AntennaLayout(d=d, L=L)


def b_min(M_t: int, L: float, theta: float) -> float:
    """Closed-form minimum null-to-null main-lobe width at target angle theta.

    Width between the first angular nulls around theta:
    arcsin(sin(theta) + u) - arcsin(sin(theta) - u) with
    u = 2 / (4*L - M_t + 2)  (L in wavelengths).
    """
    _check_angle("theta", theta)
    _check_aperture(M_t, L)
    u = 2.0 / (4.0 * L - M_t + 2.0)
    s = math.sin(theta)
    if abs(s + u) > 1.0 or abs(s - u) > 1.0:
        raise ValidationError(
            f"theta: lobe exceeds visible region (sin(theta) +/- {u:.6g} "
            f"leaves [-1, 1] at theta = {theta:.6g})"
        )
    return math.asin(s + u) - math.asin(s - u)


@dataclass(frozen=True, eq=False)
class TheoryBound:
    """Lower envelope of |chi| along one mismatched axis."""

    axis: str            # "doppler" (Hz) | "delay" (s)
    coords: np.ndarray
    lower: np.ndarray    # same normalization as chi: matched value M_t

    def __post_init__(self):
        _freeze(self, "coords", "lower")


def _code_subset(code: FhCode, M_t: int) -> FhCode:
    if not 1 <= M_t <= code.M_t:
        raise ValidationError(
            f"M_t: expected 1 <= M_t <= {code.M_t} code rows, got {M_t}"
        )
    return FhCode(c=code.c[:M_t])


def _hop_bound(tau, v, code: FhCode, cfg: RadarConfig) -> np.ndarray:
    """Floor of |chi| at a matched angle pair, valid for every layout.

    With T the subpulse-pair terms of ``_shift_terms`` (the overlapping
    pairs; all others are zero), the steering phases cancel on the element
    diagonal m = m' and have unit modulus off it, so by the triangle inequality

        |chi| >= max(0, |sum_{m,q,q'} T[m,m,q,q']|
                        - sum_{m != m'} sum_{q,q'} |T[m,m',q,q']|) / Q.
    """
    shape = np.broadcast_shapes(np.shape(tau), np.shape(v))
    diag, cross = np.zeros(shape, dtype=complex), np.zeros(shape)
    eye = np.eye(code.M_t, dtype=bool)
    for inside, terms in _shift_terms(tau, v, code, cfg):
        diag[inside] += terms[:, eye].sum(axis=(-2, -1))
        cross[inside] += np.abs(terms[:, ~eye]).sum(axis=(-2, -1))
    return np.maximum(0.0, np.abs(diag) - cross) / cfg.Q


def doppler_lower_bound(v_grid, code: FhCode, cfg: RadarConfig,
                        M_t: int) -> TheoryBound:
    """Layout-independent floor of |chi(0, v, theta, theta)|.

    At tau = 0 only the subpulse pairs q = q' overlap.  The element-diagonal
    part of the hop-pair sum is the whole-pulse Doppler response
    M_t * sinc(v * T_w) (exact for any code); the cross terms are bounded in
    magnitude by

        Xi(v) = (1/Q) * sum_{m != m'} sum_q |sinc(v*delta_t
                       - (c[m,q] - c[m',q]) * delta_f * delta_t)|

    giving bound(v) = max(0, M_t*|sinc(v*T_w)| - Xi(v)).  Only the first
    M_t code rows are used.
    """
    v = np.asarray(v_grid, dtype=float)
    lower = _hop_bound(0.0, v, _code_subset(code, M_t), cfg)
    return TheoryBound(axis="doppler", coords=v, lower=lower)


def delay_lower_bound(tau_grid, code: FhCode, cfg: RadarConfig,
                      M_t: int) -> TheoryBound:
    """Layout-independent floor of |chi(tau, 0, theta, theta)|.

    The element-diagonal sum Y(tau) of the hop-pair terms at v = 0 is
    evaluated exactly for any code (its subpulse-offset phase factor is
    unity when delta_f*delta_t is an integer); the cross terms are bounded
    by the sum Xi(tau) of their moduli over m != m' and the overlapping
    (q, q'), giving bound(tau) = max(0, |Y(tau)| - Xi(tau)), both divided
    by Q.  Only the first M_t code rows are used.
    """
    tau = np.asarray(tau_grid, dtype=float)
    lower = _hop_bound(tau, 0.0, _code_subset(code, M_t), cfg)
    return TheoryBound(axis="delay", coords=tau, lower=lower)

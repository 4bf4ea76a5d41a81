"""Matched-filter ambiguity response of a frequency-hopping transmit array.

The pulse of transmit element ``m`` is a train of Q contiguous subpulses of
duration delta_t; subpulse q carries hop frequency ``c[m, q] * delta_f``.  The
ambiguity value chi(tau, v, theta, theta_p) is the correlator output for a
delay mismatch tau, Doppler mismatch v and a transmit angle pair
(theta, theta_p), summed over all element pairs and normalized so that the
matched response chi(0, 0, theta, theta) equals M_t whenever
delta_f * delta_t is a positive integer.

Two independent evaluation routes exist on purpose:

* ``chi`` expands the correlation integral in closed form over hop pairs;
* ``chi_oracle`` synthesizes the waveforms at rate f_s and integrates the
  defining correlation numerically.

They must agree to oracle accuracy for any configuration; tests rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (AntennaLayout, FhCode, RadarConfig, ValidationError,
                    _check_angle, _check_code_fit, _freeze)

_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class AmbiguityQuery:
    """One evaluation point of the ambiguity surface."""

    tau: float = 0.0      # delay mismatch (s)
    v: float = 0.0        # Doppler mismatch (Hz)
    theta: float = 0.0    # target angle (rad)
    theta_p: float = 0.0  # probing angle (rad)

    def __post_init__(self):
        _check_angle("theta", self.theta)
        _check_angle("theta_p", self.theta_p)


def chi_r(tau, v, delta_t):
    """Single-subpulse correlation kernel (unit rectangle of width delta_t).

    Equals ((delta_t - |tau|) / delta_t) * exp(j*pi*v*(delta_t - tau))
    * sinc(v * (delta_t - |tau|)) for |tau| < delta_t and 0 outside.
    Broadcasts over array ``tau`` / ``v``.
    """
    amp, angle = _chi_r_polar(tau, v, delta_t)
    return amp * np.exp(1j * angle)


def _chi_r_polar(tau, v, delta_t):
    """Real amplitude (0 outside |tau| < delta_t) and phase angle of chi_r."""
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    abs_tau = np.abs(tau)
    overlap = np.where(abs_tau < delta_t, delta_t - abs_tau, 0.0)
    return (overlap / delta_t) * np.sinc(v * overlap), np.pi * v * (delta_t - tau)


def _check_pair(layout: AntennaLayout, code: FhCode, cfg: RadarConfig) -> None:
    if layout.M_t != code.M_t:
        raise ValidationError(
            f"M_t: layout has {layout.M_t} elements but code has {code.M_t} rows"
        )
    _check_code_fit(code, cfg)


def _shift_terms(tau, v, code: FhCode, cfg: RadarConfig):
    """Subpulse-pair terms of the hop-pair sum, grouped by shift s = q' - q.

    Term (m, m', q, q') is

        chi_r(tau - (q'-q)*delta_t, v - (c[m',q'] - c[m,q])*delta_f)
        * exp(j*2*pi*((c[m,q] - c[m',q'])*delta_f + v)*q*delta_t)
        * exp(-j*2*pi*delta_f*c[m',q']*tau)

    and is zero unless |tau - s*delta_t| < delta_t, the support of chi_r.
    For each shift with such samples this yields ``(inside, T)``: the mask
    of those samples over the broadcast of ``tau``/``v``, and their terms
    for the valid q, shape (inside.sum(), M_t, M_t, Q - |s|).
    """
    _check_code_fit(code, cfg)
    tau, v = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(tau, v))
    c = code.c.astype(float)
    dt, df = cfg.delta_t, cfg.delta_f
    for s in range(1 - code.Q, code.Q):
        inside = np.abs(tau - s * dt) < dt
        if not inside.any():
            continue
        q = np.arange(max(0, -s), min(code.Q, code.Q - s))
        cm = c[:, None, q]          # c[m, q]    on axes (m, m', q)
        cmp_ = c[None, :, q + s]    # c[m', q']
        tau_k = tau[inside][:, None, None, None]
        v_k = v[inside][:, None, None, None]
        amp, angle = _chi_r_polar(tau_k - s * dt, v_k - (cmp_ - cm) * df, dt)
        angle = angle + (2.0 * np.pi * ((cm - cmp_) * df + v_k) * q * dt
                         - 2.0 * np.pi * df * cmp_ * tau_k)
        yield inside, amp * np.exp(1j * angle)


def kernel_matrix(tau, v, code: FhCode, cfg: RadarConfig) -> np.ndarray:
    """Hop-pair correlation table G with shape (..., M_t, M_t).

    Entry (m, m') sums the subpulse-pair terms of ``_shift_terms`` (the
    subpulse kernel with the geometry-free delay/Doppler phase factors) over
    the overlapping pairs (q, q'), the only nonzero ones.  The full
    (normalized) ambiguity value is then a(theta)^T G conj(a(theta_p)) / Q
    with steering a_m = exp(j*2*pi*x_m*sin).  Leading axes of ``tau``/``v``
    broadcast.
    """
    shape = np.broadcast_shapes(np.shape(tau), np.shape(v))
    G = np.zeros(shape + (code.M_t, code.M_t), dtype=complex)
    for inside, terms in _shift_terms(tau, v, code, cfg):
        G[inside] += terms.sum(axis=-1)
    return G


def steering(theta, x: np.ndarray) -> np.ndarray:
    """Transmit steering phasors exp(j*2*pi*x_m*sin(theta)); x in wavelengths."""
    theta = np.asarray(theta, dtype=float)
    return np.exp(2j * np.pi * np.multiply.outer(np.sin(theta), x))


def chi(query: AmbiguityQuery, layout: AntennaLayout, code: FhCode,
        cfg: RadarConfig) -> complex:
    """Ambiguity value at one (tau, v, theta, theta_p) point.

    Zero outside the delay support |tau| >= Q*delta_t; the matched point
    returns M_t when delta_f*delta_t is a positive integer.
    """
    _check_pair(layout, code, cfg)
    G = kernel_matrix(query.tau, query.v, code, cfg)
    x = layout.x
    a = steering(query.theta, x)
    b = steering(query.theta_p, x)
    return complex(a @ G @ np.conj(b)) / cfg.Q


def chi_mag_sq(query: AmbiguityQuery, layout: AntennaLayout, code: FhCode,
               cfg: RadarConfig) -> float:
    """|chi|^2 via the real cosine/sine decomposition.

    Each hop-pair term is split into an amplitude

        eps = ((delta_t - |tau~|)/delta_t) * sinc(v~ * (delta_t - |tau~|))

    and a total phase zeta collecting the subpulse phase, the hop/Doppler
    subpulse-offset phase, the probing-delay phase and the array position
    phase.  The squared magnitude is (sum eps*cos zeta)^2 + (sum eps*sin zeta)^2
    over all (m, m', q, q'), divided by Q^2.  It builds no hop-pair kernel
    table, so it serves as a table-free reference for the values that ``chi``
    and the objectives compute from ``kernel_matrix``; both routes must agree
    to floating-point accuracy.

    It stays public although it is a third route to |chi|^2: the benchmark's
    sweep/ga check imports it as its table-free 1e-9 reference, and the
    integration oracle ``chi_oracle`` agrees with the closed form only to
    about 5e-3 at the default sampling rate, too coarse to take its place.
    """
    _check_pair(layout, code, cfg)
    c = code.c.astype(float)
    Q = code.Q
    dt, df = cfg.delta_t, cfg.delta_f
    qs = np.arange(Q, dtype=float)

    cm = c[:, None, :, None]
    cmp_ = c[None, :, None, :]
    shift = qs[None, :] - qs[:, None]

    tau_s = query.tau - shift * dt       # per-pair delay argument
    v_s = query.v - (cmp_ - cm) * df     # per-pair Doppler argument
    abs_tau = np.abs(tau_s)
    inside = abs_tau < dt
    overlap = np.where(inside, dt - abs_tau, 0.0)
    eps = np.where(inside, (overlap / dt) * np.sinc(v_s * overlap), 0.0)

    x = layout.x
    zeta = (np.pi * v_s * (dt - tau_s)
            + 2.0 * np.pi * ((cm - cmp_) * df + query.v) * qs[:, None] * dt
            - 2.0 * np.pi * df * cmp_ * query.tau
            + 2.0 * np.pi * (x[:, None, None, None] * np.sin(query.theta)
                             - x[None, :, None, None] * np.sin(query.theta_p)))
    chi_x = float((eps * np.cos(zeta)).sum()) / Q
    chi_y = float((eps * np.sin(zeta)).sum()) / Q
    return chi_x * chi_x + chi_y * chi_y


def chi_oracle(query: AmbiguityQuery, layout: AntennaLayout, code: FhCode,
               cfg: RadarConfig) -> complex:
    """Ambiguity value by direct numerical integration of the sampled waveforms.

    Synthesizes phi_m(t) and phi_m'(t + tau) at rate >= f_s and evaluates the
    correlation integral with the trapezoid rule.  Integration panels are
    split at the subpulse edges of both factors: the integrand is smooth
    inside each panel, so the trapezoid error stays at the O((f/f_s)^2) level
    instead of the O(1/f_s) edge error a blind uniform grid would give.
    """
    _check_pair(layout, code, cfg)
    tau, v = query.tau, query.v
    c = code.c
    Q = code.Q
    dt, df, fs = cfg.delta_t, cfg.delta_f, cfg.f_s
    T_w = cfg.T_w

    lo, hi = max(0.0, -tau), min(T_w, T_w - tau)
    if hi - lo <= 0.0:
        return 0j

    edges = dt * np.arange(Q + 1)
    pts = np.concatenate(([lo, hi], edges, edges - tau))
    pts = np.unique(pts[(pts >= lo - 1e-18) & (pts <= hi + 1e-18)])
    pts[0], pts[-1] = lo, hi

    M = code.M_t
    total = np.zeros((M, M), dtype=complex)
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a <= 1e-18:
            continue
        mid = 0.5 * (a + b)
        q1 = int(np.floor(mid / dt))
        q2 = int(np.floor((mid + tau) / dt))
        if not (0 <= q1 < Q and 0 <= q2 < Q):
            continue
        n = int(np.ceil((b - a) * fs)) + 1
        t = np.linspace(a, b, max(n, 2))
        w1 = np.exp(2j * np.pi * df * np.multiply.outer(c[:, q1].astype(float), t))
        w2 = np.exp(2j * np.pi * df * np.multiply.outer(c[:, q2].astype(float), t + tau))
        integrand = w1[:, None, :] * np.conj(w2)[None, :, :] * np.exp(2j * np.pi * v * t)
        total += np.trapezoid(integrand, t, axis=-1)

    x = layout.x
    a_t = steering(query.theta, x)
    a_p = steering(query.theta_p, x)
    val = (a_t[:, None] * np.conj(a_p)[None, :] * total).sum()
    return complex(val) / (dt * Q)


# ---------------------------------------------------------------------------
# One-dimensional cuts through the ambiguity surface.
# ---------------------------------------------------------------------------

_AXES = ("angular", "doppler", "delay")


@dataclass(frozen=True, eq=False)
class AmbiguitySlice:
    """A sampled 1-D cut; ``values`` holds |chi| with matched peak M_t."""

    axis: str             # "angular" (rad) | "doppler" (Hz) | "delay" (s)
    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "coords", "values")


def af_slice(axis: str, layout: AntennaLayout, code: FhCode, cfg: RadarConfig,
             *, theta: float = 0.0, lo: float | None = None,
             hi: float | None = None, n_points: int = 501) -> AmbiguitySlice:
    """Sample |chi| along one axis with the other coordinates matched.

    angular: chi(0, 0, theta, theta_p) over theta_p;
    doppler: chi(0, v, theta, theta) over v;
    delay:   chi(tau, 0, theta, theta) over tau.

    The matched coordinate (theta, 0 Hz, 0 s) is inserted into the grid when
    it lies inside the range, so the peak is always sampled exactly.
    """
    if axis not in _AXES:
        raise ValidationError(f"axis: expected one of {_AXES}, got {axis!r}")
    _check_angle("theta", theta)
    if n_points < 2:
        raise ValidationError(f"n_points: expected at least 2, got {n_points}")

    defaults = {
        "angular": (-_HALF_PI, _HALF_PI, theta),
        "doppler": (-cfg.f_max, cfg.f_max, 0.0),
        "delay": (-cfg.T_w, cfg.T_w, 0.0),
    }
    d_lo, d_hi, matched = defaults[axis]
    lo = d_lo if lo is None else float(lo)
    hi = d_hi if hi is None else float(hi)
    if not -np.inf < lo < hi < np.inf:
        raise ValidationError(f"range: expected finite lo < hi, got [{lo}, {hi}]")

    coords = np.linspace(lo, hi, n_points)
    if lo < matched < hi and not np.isclose(coords, matched, rtol=0.0, atol=1e-15).any():
        coords = np.sort(np.append(coords, matched))

    vals = matched_cut(axis, coords, layout, code, cfg, theta)
    return AmbiguitySlice(axis=axis, coords=coords, values=vals)


def matched_cut(axis: str, coords, layout, code: FhCode,
                cfg: RadarConfig, theta: float) -> np.ndarray:
    """|chi| at ``coords`` along one axis, the other coordinates matched.

    angular: |chi(0, 0, theta, theta_p)| over theta_p (rad);
    doppler: |chi(0, v, theta, theta)| over v (Hz);
    delay:   |chi(tau, 0, theta, theta)| over tau (s).
    The coordinates are used as given.  The angular cut goes through the
    full kernel, so it stays exact for any hop product, not only integer
    delta_f*delta_t.  ``layout`` may also be a sequence of N layouts: one
    kernel table then serves all of them, and row i of the (N, ...) result
    is the single-layout cut of layout i, bit for bit.
    """
    layouts = [layout] if isinstance(layout, AntennaLayout) else list(layout)
    for lay in layouts:
        _check_pair(lay, code, cfg)
    coords = np.asarray(coords, dtype=float)
    if axis == "angular":
        G = kernel_matrix(0.0, 0.0, code, cfg)
    elif axis == "doppler":
        G = kernel_matrix(0.0, coords, code, cfg)
    elif axis == "delay":
        G = kernel_matrix(coords, 0.0, code, cfg)
    else:
        raise ValidationError(f"axis: expected one of {_AXES}, got {axis!r}")
    cuts = []
    for lay in layouts:
        a = b = steering(theta, lay.x)
        if axis == "angular":
            b = steering(coords, lay.x)
        cuts.append(np.abs(np.einsum("...mn,m,...n->...", G, a, b.conj())) / cfg.Q)
    return cuts[0] if isinstance(layout, AntennaLayout) else np.array(cuts)

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

from .model import AntennaLayout, FhCode, RadarConfig, ValidationError
from .output import write_csv, write_json

_HALF_PI = 0.5 * np.pi
_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class AmbiguityQuery:
    """One evaluation point of the ambiguity surface."""

    tau: float = 0.0      # delay mismatch (s)
    v: float = 0.0        # Doppler mismatch (Hz)
    theta: float = 0.0    # target angle (rad)
    theta_p: float = 0.0  # probing angle (rad)

    def __post_init__(self):
        for name in ("theta", "theta_p"):
            val = getattr(self, name)
            if abs(val) > _HALF_PI + _ANGLE_TOL:
                raise ValidationError(f"{name}: expected |angle| <= pi/2, got {val}")


def chi_r(tau, v, delta_t):
    """Single-subpulse correlation kernel (unit rectangle of width delta_t).

    Equals ((delta_t - |tau|) / delta_t) * exp(j*pi*v*(delta_t - tau))
    * sinc(v * (delta_t - |tau|)) for |tau| < delta_t and 0 outside.
    Broadcasts over array ``tau`` / ``v``.
    """
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    abs_tau = np.abs(tau)
    inside = abs_tau < delta_t
    overlap = np.where(inside, delta_t - abs_tau, 0.0)
    amp = (overlap / delta_t) * np.sinc(v * overlap)
    phase = np.exp(1j * np.pi * v * (delta_t - tau))
    return np.where(inside, amp * phase, 0.0 + 0.0j)


def _check_pair(layout: AntennaLayout, code: FhCode) -> None:
    if layout.M_t != code.M_t:
        raise ValidationError(
            f"M_t: layout has {layout.M_t} elements but code has {code.M_t} rows"
        )


def kernel_matrix(tau, v, code: FhCode, cfg: RadarConfig) -> np.ndarray:
    """Hop-pair correlation table G with shape (..., M_t, M_t).

    Entry (m, m') sums the subpulse kernel over all subpulse pairs (q, q')
    together with the delay/Doppler phase factors that do not depend on the
    array geometry:

        G[m, m'] = sum_{q, q'} chi_r(tau - (q'-q)*delta_t,
                                     v - (c[m',q'] - c[m,q])*delta_f)
                   * exp(j*2*pi*((c[m,q] - c[m',q'])*delta_f + v)*q*delta_t)
                   * exp(-j*2*pi*delta_f*c[m',q']*tau)

    The full (normalized) ambiguity value is then
    a(theta)^T G conj(a(theta_p)) / Q with steering a_m = exp(j*2*pi*x_m*sin).
    Leading axes of ``tau``/``v`` broadcast.
    """
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(tau.shape, v.shape)
    tau_b = np.broadcast_to(tau, shape)[..., None, None, None, None]
    v_b = np.broadcast_to(v, shape)[..., None, None, None, None]

    c = code.c.astype(float)
    Q = code.Q
    dt, df = cfg.delta_t, cfg.delta_f
    qs = np.arange(Q, dtype=float)

    cm = c[:, None, :, None]    # c[m, q]   on axes (m, m', q, q')
    cmp_ = c[None, :, None, :]  # c[m', q']
    shift = qs[None, :] - qs[:, None]  # q' - q

    kern = chi_r(tau_b - shift * dt, v_b - (cmp_ - cm) * df, dt)
    phase = (2.0 * np.pi * ((cm - cmp_) * df + v_b) * qs[:, None] * dt
             - 2.0 * np.pi * df * cmp_ * tau_b)
    terms = kern * np.exp(1j * phase)
    return terms.sum(axis=(-2, -1))


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
    _check_pair(layout, code)
    G = kernel_matrix(query.tau, query.v, code, cfg)
    x = layout.x
    a = steering(query.theta, x)
    b = steering(query.theta_p, x)
    return complex(a @ G @ np.conj(b)) / cfg.Q


def chi_angular(theta, theta_p, layout: AntennaLayout,
                cfg: RadarConfig | None = None):
    """Zero-delay zero-Doppler angular response sum_m exp(j*2*pi*x_m*(sin(theta)-sin(theta_p))).

    Valid as the exact tau=v=0 cut of ``chi`` only when delta_f*delta_t is a
    positive integer; pass ``cfg`` to have that precondition checked.
    Broadcasts over array angles and returns a complex scalar for scalar input.
    """
    if cfg is not None:
        hp = cfg.hop_product
        if abs(hp - round(hp)) > 1e-9 or round(hp) < 1:
            raise ValidationError(
                f"delta_f*delta_t: expected a positive integer for the angular "
                f"form, got {hp}"
            )
    u = np.sin(np.asarray(theta, dtype=float)) - np.sin(np.asarray(theta_p, dtype=float))
    out = np.exp(2j * np.pi * np.multiply.outer(u, layout.x)).sum(axis=-1)
    if np.ndim(u) == 0:
        return complex(out)
    return out


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
    """
    _check_pair(layout, code)
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
    _check_pair(layout, code)
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
    meta: dict

    def __post_init__(self):
        for name in ("coords", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
    if abs(theta) > _HALF_PI + _ANGLE_TOL:
        raise ValidationError(f"theta: expected |angle| <= pi/2, got {theta}")
    if n_points < 2:
        raise ValidationError(f"n_points: expected at least 2, got {n_points}")
    _check_pair(layout, code)

    defaults = {
        "angular": (-_HALF_PI, _HALF_PI, theta),
        "doppler": (-cfg.f_max, cfg.f_max, 0.0),
        "delay": (-cfg.T_w, cfg.T_w, 0.0),
    }
    d_lo, d_hi, matched = defaults[axis]
    lo = d_lo if lo is None else float(lo)
    hi = d_hi if hi is None else float(hi)
    if not hi > lo:
        raise ValidationError(f"range: expected hi > lo, got [{lo}, {hi}]")

    coords = np.linspace(lo, hi, n_points)
    if lo < matched < hi and not np.isclose(coords, matched, atol=1e-15).any():
        coords = np.sort(np.append(coords, matched))

    if axis == "angular":
        # evaluate through the full kernel so the cut stays exact for any
        # hop product, not only integer delta_f*delta_t
        G = kernel_matrix(0.0, 0.0, code, cfg)
        a = steering(theta, layout.x)
        B = steering(coords, layout.x)
        vals = np.abs(np.einsum("m,mn,pn->p", a, G, np.conj(B))) / cfg.Q
    else:
        vals = matched_cut(axis, coords, layout, code, cfg, theta)

    meta = {"axis": axis, "theta": theta, "M_t": layout.M_t,
            "n_points": int(coords.size)}
    return AmbiguitySlice(axis=axis, coords=coords, values=vals, meta=meta)


def matched_cut(axis: str, coords, layout: AntennaLayout, code: FhCode,
                cfg: RadarConfig, theta: float) -> np.ndarray:
    """|chi| at ``coords`` on the Doppler (Hz) or delay (s) axis, angles matched.

    doppler: |chi(0, v, theta, theta)|; delay: |chi(tau, 0, theta, theta)|.
    The coordinates are used as given.
    """
    _check_pair(layout, code)
    coords = np.asarray(coords, dtype=float)
    if axis == "doppler":
        G = kernel_matrix(0.0, coords, code, cfg)
    else:
        G = kernel_matrix(coords, 0.0, code, cfg)
    a = steering(theta, layout.x)
    return np.abs(np.einsum("pmn,m,n->p", G, a, np.conj(a))) / cfg.Q


def _db(values: np.ndarray, peak: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(values / peak)


def write_slice_csv(s: AmbiguitySlice, path, doc: dict, seed=None) -> None:
    """CSV columns: coord, magnitude, magnitude_db (dB w.r.t. matched peak M_t)."""
    peak = float(s.meta.get("M_t", max(s.values.max(), 1.0)))
    write_csv(path, {
        "coord": s.coords,
        "magnitude": s.values,
        "magnitude_db": _db(s.values, peak),
    }, doc, seed, extra={"axis": s.axis, "theta": s.meta.get("theta", 0.0)})


def write_slice_json(s: AmbiguitySlice, path, doc: dict, seed=None) -> None:
    write_json(path, {
        "axis": s.axis,
        "theta": s.meta.get("theta", 0.0),
        "coord": [float(v) for v in s.coords],
        "magnitude": [float(v) for v in s.values],
    }, doc, seed)

"""Riemann-sum sidelobe objectives and their analytic spacing gradient.

Three mismatch energies are minimized over the spacing vector d:

    f1: |chi(0, 0, theta, theta_p)|^2 over the (theta, theta_p) square;
    f2: |chi(0, v, theta, theta)|^2 over theta and v in [-f_max, f_max];
    f3: |chi(tau, 0, theta, theta)|^2 over theta and tau in [-T_w, T_w];

each as a closed Riemann sum (both endpoints sampled, n+1 points per axis),
and f = alpha1*f1 + alpha2*f2 + alpha3*f3 at the weights alpha of each call,
which are no part of the grid; a unit weight such as (0, 1, 0) gives f2 alone.

The Doppler and delay axes enter the cell weights in subpulse units
(v*delta_t and tau/delta_t) so that all three objectives are commensurate
and a single weight triple / gradient threshold is meaningful across them;
in physical units f2 (per Hz) and f3 (per second) would differ by ~12
orders of magnitude.  The sample coordinates themselves stay in Hz / s.

The grid is fixed per run, so :class:`ObjectiveEvaluator` builds the three
hop-pair kernel tables of :func:`mafh.ambiguity.kernel_matrix` once, when it
is constructed, and keeps each only as an M^2 x M^2 Hermitian matrix (cell
weights folded in).  Every objective is then a sum of Hermitian forms
o^H H o over rows o = vec(a a^H).  The Doppler and delay tables G (samples
x M^2) give one row per angle, o_t = vec(a(theta_t) a(theta_t)^H):

    sum_p |chi[t, p]|^2 = o_t^H (G^H G) o_t / Q^2.

The zero-shift table G1 (M x M, Hermitian) gives a single row: summing
over both angles of the square first, with u = vec(sum_t a_t a_t^H),

    sum_{t,s} |chi[t, s]|^2 = u^H H1 u / Q^2,  H1[(m,p),(n,q)] = G1[n,m] conj(G1[q,p]).

A weighted call evaluates alpha2*f2 + alpha3*f3 as one form with
alpha2*H2 + alpha3*H3.  Only the array steering phase depends on d, so the
gradient is taken with respect to the element positions x_m, all M
partials from the same contraction, and carried to the spacings through
x_m = sum_{i<=m} d_i: df/dd_i = sum_{m>=i} df/dx_m.

A call takes one spacing vector or an (N, M_t - 1) stack, such as a GA
generation; each row runs the one-layout contraction, so it gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import kernel_matrix, steering
from .model import (AntennaLayout, FhCode, RadarConfig, ValidationError,
                    _check_angle, _freeze)
from .theory import b_min

_HALF_PI = 0.5 * np.pi


def _ceil(x: float) -> int:
    """Ceiling with a tolerance for values that are integers up to rounding."""
    return int(math.ceil(x - 1e-9))


def _check_alpha(alpha) -> tuple:
    """The weights as three floats, checked in plain Python: it runs per evaluation."""
    try:
        a = tuple(map(float, alpha))
    except (TypeError, ValueError):
        a = ()
    if len(a) != 3 or not (min(a) >= 0.0 and abs(sum(a) - 1.0) <= 1e-9):
        raise ValidationError("alpha: expected 3 nonnegative weights summing "
                              f"to 1, got {alpha!r}")   # NaN fails the sum test
    return a


@dataclass(frozen=True, eq=False)
class ObjectiveGrid:
    """Sampling grids and cell weights, fixed per run; no objective weights."""

    n1: int                    # angular subdivisions (n1 + 1 samples)
    n2: int                    # Doppler subdivisions
    n3: int                    # delay subdivisions
    theta_samples: np.ndarray  # rad, for the f1 square
    v_samples: np.ndarray      # Hz
    tau_samples: np.ndarray    # s
    d_theta: float             # rad per cell
    d_v: float                 # Doppler cell weight, subpulse units (Hz * delta_t)
    d_tau: float               # delay cell weight, subpulse units (s / delta_t)
    theta_f23: np.ndarray      # angular samples used by f2/f3
    w_theta23: float           # angular weight per f2/f3 sample

    def __post_init__(self):
        _freeze(self, "theta_samples", "v_samples", "tau_samples", "theta_f23")


def build_grid(cfg: RadarConfig, layout: AntennaLayout, _unused=None,
               theta_eval: float | None = None) -> ObjectiveGrid:
    """Smallest grids satisfying the sampling inequalities.

    n1 resolves the narrowest attainable angular main lobe (evaluated at
    broadside) and the aperture's angular period: n1 >= 2*pi/b_min and
    delta_theta <= arcsin(lambda/L).  n2 and n3 sample at twice Nyquist:
    n2 >= 4*f_max*T_w, n3 >= 4*Q*delta_t*K*delta_f.

    ``theta_eval`` switches f2/f3 to a single-angle cut (weight pi, the full
    angular range): much cheaper, same minimizers in practice.
    A third positional argument, where the weights once went, is ignored.
    """
    if theta_eval is not None:
        _check_angle("theta_eval", theta_eval)

    if layout.M_t >= 2:
        n1 = _ceil(2.0 * np.pi / b_min(layout.M_t, layout.L, 0.0))
    else:
        n1 = 8  # single-element response is angle-independent
    if layout.L > 1.0:
        n1 = max(n1, _ceil(np.pi / math.asin(1.0 / layout.L)))
    n1 = max(n1, 2)
    n2 = max(_ceil(4.0 * cfg.f_max * cfg.T_w), 2)
    n3 = max(_ceil(4.0 * cfg.Q * cfg.delta_t * cfg.K * cfg.delta_f), 2)

    theta = -_HALF_PI + np.arange(n1 + 1) * (np.pi / n1)
    v = -cfg.f_max + np.arange(n2 + 1) * (2.0 * cfg.f_max / n2)
    tau = -cfg.T_w + np.arange(n3 + 1) * (2.0 * cfg.T_w / n3)

    if theta_eval is None:
        theta_f23, w23 = theta, np.pi / n1
    else:
        theta_f23, w23 = np.array([float(theta_eval)]), np.pi

    return ObjectiveGrid(
        n1=n1, n2=n2, n3=n3,
        theta_samples=theta, v_samples=v, tau_samples=tau,
        d_theta=np.pi / n1,
        d_v=2.0 * cfg.f_max / n2 * cfg.delta_t,
        d_tau=2.0 * cfg.T_w / n3 / cfg.delta_t,
        theta_f23=theta_f23, w_theta23=w23,
    )


def _gram(G: np.ndarray, weight: float) -> np.ndarray:
    """weight * G^H G of a (samples, M, M) table flattened to (samples, M*M)."""
    G = G.reshape(G.shape[0], -1)
    H = weight * (G.conj().T @ G)
    H.setflags(write=False)
    return H


def _form(O: np.ndarray, H: np.ndarray):
    """(sum_i o_i^H H o_i over the rows of O per layout, HO = conj(O) H)."""
    HO = O.conj() @ H
    return (O * HO).real.sum(axis=(-2, -1)), HO


@dataclass(frozen=True, slots=True)
class _Memo:
    """A value kept under the exact bits it was computed from; replaced whole."""

    key: object
    value: object


class ObjectiveEvaluator:
    """Grid-bound objective/gradient engine on raw spacing vectors, one or a stack.

    H1, H2, H3 are built here, once, read-only, for every descent and weight
    triple of a command.  a2*H2 + a3*H3 is kept for the last weights, and the
    last one-layout value pass for a gradient at its point (the accepted
    Armijo trial).  ``d`` need not be feasible: chi is defined at any spacings > 0.
    """

    def __init__(self, grid: ObjectiveGrid, code: FhCode, cfg: RadarConfig):
        self.grid = grid
        self.M = code.M_t
        # each objective keeps only its cell-weighted Gram matrix, not its table
        G1 = kernel_matrix(0.0, 0.0, code, cfg)
        self._h1 = grid.d_theta ** 2 / cfg.Q ** 2 * np.kron(G1, G1.conj()).T
        self._h1.setflags(write=False)
        w = grid.w_theta23 / cfg.Q ** 2
        self._h2 = _gram(kernel_matrix(0.0, grid.v_samples, code, cfg), w * grid.d_v)
        self._h3 = _gram(kernel_matrix(grid.tau_samples, 0.0, code, cfg), w * grid.d_tau)
        # without theta_eval, f1 and f2/f3 steer at the same angles
        self._same_angles = np.array_equal(grid.theta_f23, grid.theta_samples)
        self._h23 = self._last = None   # _Memo of the last weights / the last point

    # -- the Hermitian form ------------------------------------------------------
    #
    # f is sum_i o_i^H H o_i over the rows o_i of each term.  With
    # a_m = exp(j*2*pi*x_m*sin(theta)), moving x_k turns entry (m, p) of a a^H
    # by j*2*pi*sin(theta)*(delta_mk - delta_pk).  So with h = H^T conj(o),
    # d(o^H H o)/d x_k = 2 Re sum(h * d o / d x_k) is -4*pi Im(row-k sum minus
    # column-k sum of s * h), where the row s is o with each term a a^H
    # weighted by the sine of its angle.

    def _value(self, d: np.ndarray, a: tuple, bits: bytes):
        """(f, parts) at spacings d; per term, parts holds (weight, S builder, HO)."""
        x = np.concatenate((np.zeros(d.shape[:-1] + (1,)), np.cumsum(d, axis=-1)), axis=-1)
        a1, a2, a3 = a
        grid, f, parts, A = self.grid, 0.0, [], None
        if a1 > 0.0:   # the single row u = vec(sum_t a_t a_t^H)
            A = np.swapaxes(steering(grid.theta_samples, x), 0, -2)   # (..., T, M)
            At, Ac = np.swapaxes(A, -1, -2), A.conj()
            row = x.shape[:-1] + (1, -1)
            f1, HO = _form((At @ Ac).reshape(row), self._h1)
            f = a1 * f1
            parts.append((a1, lambda: ((At * np.sin(grid.theta_samples)) @ Ac).reshape(row),
                          HO))
        if a2 > 0.0 or a3 > 0.0:   # one row o_t = vec(a_t a_t^H) per angle
            if A is None or not self._same_angles:
                A = np.swapaxes(steering(grid.theta_f23, x), 0, -2)
            O = (A[..., :, None] * A.conj()[..., None, :]).reshape(A.shape[:-1] + (-1,))
            h23 = self._h23
            if h23 is None or h23.key != bits:
                h23 = self._h23 = _Memo(bits, a2 * self._h2 + a3 * self._h3)
            f23, HO = _form(O, h23.value)
            f += f23
            parts.append((1.0, lambda: np.sin(grid.theta_f23)[:, None] * O, HO))
        return f, tuple(parts)

    def _finish(self, parts) -> np.ndarray:
        """df/dd from the parts of a value pass."""
        gx = np.zeros(parts[0][2].shape[:-2] + (self.M,))
        for w, rows, HO in parts:
            K = (rows() * HO).sum(axis=-2).reshape(HO.shape[:-2] + (self.M, self.M))
            gx += w * (-4.0 * np.pi * (K.sum(axis=-1) - K.sum(axis=-2)).imag)
        # x_m = d_1 + ... + d_m, so df/dd_i = sum_{m >= i} df/dx_m
        return np.cumsum(gx[..., ::-1], axis=-1)[..., ::-1][..., 1:]

    # -- objective values and gradient -------------------------------------------

    def _weighted(self, d, alpha, grad: bool):
        """(f, df/dd or None) from a value pass, or from the kept one at the same bits."""
        d = np.asarray(d, dtype=float)
        if d.ndim not in (1, 2) or d.shape[-1] != self.M - 1:
            raise ValidationError(f"d: expected {self.M - 1} spacings for this code, "
                                  f"got shape {d.shape}")
        a = _check_alpha(alpha)
        key = (np.array(a).tobytes(), d.shape, d.tobytes())   # bits: -0.0 is not 0.0
        last = self._last
        if last is not None and last.key == key:
            f, parts = last.value
        else:
            f, parts = self._value(d, a, key[0])
            if d.ndim == 1:   # stacks (GA generations) are not kept
                self._last = _Memo(key, (f, parts))
        return (f if d.ndim == 2 else float(f)), self._finish(parts) if grad else None

    def f_weighted(self, d, alpha):
        """Weighted objective of ``d``, or of each row of a stack; unit weights: one domain."""
        return self._weighted(d, alpha, False)[0]

    def grad_f_weighted(self, d, alpha) -> np.ndarray:
        """Analytic gradient of f_weighted w.r.t. the M_t - 1 spacings (per row of a stack)."""
        return self._weighted(d, alpha, True)[1]

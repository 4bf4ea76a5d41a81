"""Riemann-sum sidelobe objectives and their analytic spacing gradient.

Three mismatch energies are minimized over the spacing vector d:

    f1: |chi(0, 0, theta, theta_p)|^2 over the (theta, theta_p) square;
    f2: |chi(0, v, theta, theta)|^2 over theta and v in [-f_max, f_max];
    f3: |chi(tau, 0, theta, theta)|^2 over theta and tau in [-T_w, T_w];

each as a closed Riemann sum (both endpoints sampled, n+1 points per axis)
with the weighted combination f = alpha1*f1 + alpha2*f2 + alpha3*f3; alpha
is an argument of each weighted evaluation and no part of the grid.

The Doppler and delay axes enter the cell weights in subpulse units
(v*delta_t and tau/delta_t) so that all three objectives are commensurate
and a single weight triple / gradient threshold is meaningful across them;
in physical units f2 (per Hz) and f3 (per second) would differ by ~12
orders of magnitude.  The sample coordinates themselves stay in Hz / s.

The grid is fixed per run, so :class:`ObjectiveEvaluator` builds the three
hop-pair kernel tables of :func:`mafh.ambiguity.kernel_matrix` once, when it
is constructed.  f1 contracts the angular table with the steering vectors on
every call.  The Doppler and delay tables G (samples x M^2) enter f2 and f3
only through their Gram matrices: with o_t = vec(a(theta_t) a(theta_t)^H),

    sum_p |chi[t, p]|^2 = o_t^H (G^H G) o_t / Q^2,

so the evaluator keeps the two M^2 x M^2 matrices H2, H3 (cell weights
folded in) and drops the tables.  A weighted call evaluates alpha2*f2 +
alpha3*f3 as one contraction with alpha2*H2 + alpha3*H3.  Only the array
steering phase depends on d, so the gradient is taken with respect to the
element positions x_m, all M partials from one contraction, and carried to
the spacings through x_m = sum_{i<=m} d_i: df/dd_i = sum_{m>=i} df/dx_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import kernel_matrix, steering
from .model import (AntennaLayout, FhCode, RadarConfig, ValidationError,
                    _check_angle)
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
        for name in ("theta_samples", "v_samples", "tau_samples", "theta_f23"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _gram(G: np.ndarray, weight: float) -> np.ndarray:
    """weight * G^H G of a (samples, M, M) table flattened to (samples, M*M)."""
    G = G.reshape(G.shape[0], -1)
    H = weight * (G.conj().T @ G)
    H.setflags(write=False)
    return H


class ObjectiveEvaluator:
    """Grid-bound objective/gradient engine operating on raw spacing vectors.

    The angular kernel table and the Doppler/delay Gram matrices depend on
    (grid, code, cfg) only, not on the weights.  They are built here, once,
    read-only, and serve every descent and weight triple of a command,
    concurrent ones included; f2 and f3 share one contraction per weighted
    call.  ``d`` is not required to be feasible — the ambiguity surface is
    defined for any positive spacings — which the finite-difference probes
    rely on.
    """

    def __init__(self, grid: ObjectiveGrid, code: FhCode, cfg: RadarConfig):
        self.grid = grid
        self.cfg = cfg
        self.M = code.M_t
        self._g1 = kernel_matrix(0.0, 0.0, code, cfg)
        self._g1.setflags(write=False)
        # f2/f3 keep only their cell-weighted Gram matrices, not the tables
        w = grid.w_theta23 / cfg.Q ** 2
        self._h2 = _gram(kernel_matrix(0.0, grid.v_samples, code, cfg), w * grid.d_v)
        self._h3 = _gram(kernel_matrix(grid.tau_samples, 0.0, code, cfg), w * grid.d_tau)

    def _positions(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if d.shape != (self.M - 1,):
            raise ValidationError(
                f"d: expected {self.M - 1} spacings for this code, got shape {d.shape}"
            )
        return np.concatenate(([0.0], np.cumsum(d)))

    # -- contractions ----------------------------------------------------------
    #
    # Each returns (energy, d energy / d x) for positions x; the derivative is
    # None unless ``grad``.  With a_m = exp(j*2*pi*x_m*sin(theta)), d a_m / d x_m
    # = j*2*pi*sin(theta)*a_m, so d|chi|^2 / d x_m = 2 Re(conj(chi) d chi / d x_m)
    # collects, for every m at once, the row-m and column-m terms of the
    # contraction, each weighted by the sine of its own angle.

    def _square(self, x: np.ndarray, grad: bool):
        """f1: chi[t, s] = a(theta_t)^T G1 conj(a(theta_s)) / Q over the square."""
        Q = self.cfg.Q
        A = steering(self.grid.theta_samples, x)
        Ac = A.conj()
        AG = A @ self._g1
        chi = AG @ Ac.T / Q
        w = self.grid.d_theta ** 2
        f = float(w * _abs2(chi).sum())
        if not grad:
            return f, None
        cc = chi.conj()
        rows = A * (cc @ (self._g1 @ Ac.T).T)   # theta_t side, (T, M)
        cols = Ac * (cc.T @ AG)                 # theta_s side, (S, M)
        sin_t = np.sin(self.grid.theta_samples)[:, None]
        return f, -(4.0 * np.pi * w / Q) * (sin_t * (rows - cols)).imag.sum(axis=0)

    def _cut(self, x: np.ndarray, H: np.ndarray, grad: bool):
        """f2/f3 through a weighted Gram matrix: sum_p |chi[t, p]|^2 w = o_t^H H o_t.

        o_t = vec(a(theta_t) a(theta_t)^H); ``H`` is one of ``_h2``/``_h3`` or
        their alpha-weighted sum, so both cuts cost one contraction.
        """
        M = self.M
        A = steering(self.grid.theta_f23, x)
        outer = (A[:, :, None] * A.conj()[:, None, :]).reshape(-1, M * M)
        K = outer * (outer.conj() @ H)
        f = float(K.real.sum())
        if not grad:
            return f, None
        K = K.reshape(-1, M, M)
        sin_t = np.sin(self.grid.theta_f23)[:, None]
        diff = K.sum(axis=2) - K.sum(axis=1)    # row-m minus column-m terms
        return f, -4.0 * np.pi * (sin_t * diff).imag.sum(axis=0)

    # -- objective values and gradient -------------------------------------------

    def f1(self, d) -> float:
        """Angular mismatch energy of the spacings ``d``."""
        return self._square(self._positions(d), False)[0]

    def f2(self, d) -> float:
        """Doppler mismatch energy of the spacings ``d``."""
        return self._cut(self._positions(d), self._h2, False)[0]

    def f3(self, d) -> float:
        """Delay mismatch energy of the spacings ``d``."""
        return self._cut(self._positions(d), self._h3, False)[0]

    def f_weighted(self, d, alpha) -> float:
        """alpha-weighted combination: f2 and f3 in one contraction, zero-weight terms skipped."""
        x = self._positions(d)
        a1, a2, a3 = _check_alpha(alpha)
        f = a1 * self._square(x, False)[0] if a1 > 0.0 else 0.0
        if a2 > 0.0 or a3 > 0.0:
            f += self._cut(x, a2 * self._h2 + a3 * self._h3, False)[0]
        return f

    def grad_f_weighted(self, d, alpha) -> np.ndarray:
        """Analytic gradient of f_weighted w.r.t. the M_t - 1 spacings."""
        x = self._positions(d)
        a1, a2, a3 = _check_alpha(alpha)
        gx = np.zeros(self.M)
        if a1 > 0.0:
            gx += a1 * self._square(x, True)[1]
        if a2 > 0.0 or a3 > 0.0:
            gx += self._cut(x, a2 * self._h2 + a3 * self._h3, True)[1]
        # x_m = d_1 + ... + d_m, so df/dd_i = sum_{m >= i} df/dx_m
        return np.cumsum(gx[::-1])[::-1][1:]


def finite_diff_grad(ev: ObjectiveEvaluator, alpha, d, h: float = 1e-6) -> np.ndarray:
    """Central-difference oracle for ``ev.grad_f_weighted``, step ``h`` in wavelengths.

    Probes d +/- h*e_i directly on the spacing vector (the objective is
    defined for any positive spacings, so no feasibility clamp is needed).
    """
    if not h > 0:
        raise ValidationError(f"h: expected a positive step, got {h}")
    d = np.asarray(d, dtype=float)
    g = np.zeros(d.size)
    for i in range(d.size):
        dp, dm = d.copy(), d.copy()
        dp[i] += h
        dm[i] -= h
        g[i] = (ev.f_weighted(dp, alpha) - ev.f_weighted(dm, alpha)) / (2.0 * h)
    return g

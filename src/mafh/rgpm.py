"""Rosen-style gradient projection over the spacing polytope.

Feasible set: d_i >= lambda/2 (rows i < n) and sum(d) <= L (row n).  Each
iteration projects the gradient onto the null space of the working rows,
which for this polytope has a closed form: P g is zero on the spacings whose
floor is in the working set, and with the budget row in the set the mean mu
of g over the free spacings is subtracted from them.  The multipliers are
g_i - mu for a floor row and -mu for the budget row (mu = 0 without it).
When the projected gradient vanishes, they decide between KKT termination
and dropping the row with the most negative multiplier.  Step length comes
from a backtracking Armijo search whose first trial is capped at the largest
feasible step, so every iterate stays inside the polytope.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import AntennaLayout, ValidationError, _check_aperture
from .model import equidistant_layout, random_feasible_layout
from .objective import ObjectiveEvaluator, _check_alpha
from .theory import mmlwd_layout

# Rows within this absolute slack (wavelength units) count as active.
ACTIVE_TOL = 1e-9

# Backtracking line-search constants.
OMEGA0 = 1.0        # first trial step
RHO = 0.5           # backtracking ratio
SIGMA = 1e-4        # sufficient-decrease slope fraction
OMEGA_MIN = 1e-12   # stall threshold


@dataclass(frozen=True)
class FeasiblePolytope:
    """n spacings with d_i >= lambda/2 and the aperture budget sum(d) <= L."""

    n: int
    L: float

    def __post_init__(self):
        _check_aperture(self.n + 1, self.L)
        object.__setattr__(self, "L", float(self.L))

    @classmethod
    def spacing_bounds(cls, M_t: int, L: float) -> "FeasiblePolytope":
        """Half-wavelength floors plus the aperture budget of an M_t-element array."""
        return cls(n=M_t - 1, L=L)

    def slacks(self, d: np.ndarray) -> np.ndarray:
        """Floor slacks d_i - 1/2 (rows i < n), then the budget slack L - sum(d)."""
        d = np.asarray(d, dtype=float)
        if d.shape != (self.n,):
            raise ValidationError(f"d: expected {self.n} spacings, got shape {d.shape}")
        return np.append(d - 0.5, self.L - d.sum())

    def contains(self, d: np.ndarray) -> bool:
        return bool(np.all(self.slacks(d) >= -ACTIVE_TOL))


def _active_indices(d: np.ndarray, poly: FeasiblePolytope) -> np.ndarray:
    """Rows satisfied with equality (|slack| <= ACTIVE_TOL), in row order.

    Raises if the point is infeasible beyond the tolerance.
    """
    s = poly.slacks(d)
    if np.any(s < -ACTIVE_TOL):
        worst = int(np.argmin(s))
        raise ValidationError(
            f"d: infeasible point, constraint row {worst} violated by {-s[worst]:.3g}"
        )
    return np.flatnonzero(np.abs(s) <= ACTIVE_TOL)


def _project(g: np.ndarray, working) -> tuple[np.ndarray, np.ndarray]:
    """(P g, multipliers) for the working rows, multipliers in ``working`` order.

    Raises when every floor and the budget are in the working set: those
    n + 1 rows are linearly dependent and the projection is undefined.
    """
    n = g.size
    fixed = [i for i in working if i < n]
    budget = n in working
    if budget and len(fixed) == n:
        raise ValidationError("active constraint rows are linearly dependent")
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    mu = float(g[free].mean()) if budget else 0.0
    pg = np.where(free, g - mu, 0.0)
    u = np.array([g[i] - mu if i < n else -mu for i in working])
    return pg, u


def _max_feasible_step(d: np.ndarray, direction: np.ndarray,
                       poly: FeasiblePolytope, working) -> float:
    """Largest omega that keeps d - omega*direction inside the polytope.

    Rows of the working set are not blocking: ``direction`` lies in their
    null space, and the roundoff left in ``along`` (the rate each slack
    shrinks at) would otherwise cap the step at their zero slack.
    """
    slack = np.maximum(poly.slacks(d), 0.0)
    along = np.append(direction, -direction.sum())
    scale = max(1.0, float(np.abs(direction).max()))
    blocking = along > 1e-15 * scale
    blocking[list(working)] = False
    if not np.any(blocking):
        return np.inf
    return float(np.min(slack[blocking] / along[blocking]))


def _armijo(fval, f0: float, d: np.ndarray, direction: np.ndarray,
            poly: FeasiblePolytope, working):
    """Backtrack along d - omega*direction.  Returns (omega, f_new, stalled).

    ``working`` lists the constraint rows ``direction`` was projected onto.
    """
    norm2 = float(direction @ direction)
    if norm2 == 0.0:
        raise ValidationError("descent direction is zero")
    cap = _max_feasible_step(d, direction, poly, working)
    omega = min(OMEGA0, cap)
    while omega >= OMEGA_MIN:
        f_new = fval(d - omega * direction)
        if f_new <= f0 - SIGMA * omega * norm2:
            return omega, f_new, False
        omega *= RHO
    return None, f0, True


@dataclass(frozen=True)
class IterRecord:
    """One optimizer trace row."""

    k: int
    f: float
    grad_norm: float    # ||P grad f|| entering the step
    active_count: int
    omega: float


@dataclass(frozen=True, eq=False)
class RgpmResult:
    layout: AntennaLayout
    trace: tuple
    converged: bool
    stalled: bool
    certificate: dict
    f_final: float


def rgpm_optimize(d0: AntennaLayout, poly: FeasiblePolytope,
                  ev: ObjectiveEvaluator, alpha, K_max: int = 150,
                  T_threshold: float = 1e-2) -> RgpmResult:
    """Projected-gradient descent of ``ev.f_weighted(., alpha)`` from ``d0``.

    Terminates when the projected gradient norm falls below ``T_threshold``
    and all active-constraint multipliers are nonnegative (KKT certificate),
    or after ``K_max`` iterations, or on a line-search stall (best-so-far
    point is returned with ``stalled=True``).
    """
    if K_max < 1:
        raise ValidationError(f"K_max: expected at least 1, got {K_max}")
    if not T_threshold > 0:
        raise ValidationError(f"T_threshold: expected > 0, got {T_threshold}")
    alpha = _check_alpha(alpha)
    d = np.asarray(d0.d, dtype=float).copy()
    if not poly.contains(d):
        raise ValidationError("d0: starting point is infeasible")

    f_cur = ev.f_weighted(d, alpha)
    trace = [IterRecord(k=0, f=f_cur, grad_norm=np.nan, active_count=0, omega=np.nan)]
    converged = False
    stalled = False
    certificate = {"reason": "max-iterations", "threshold": T_threshold}

    # single-point polytope: nothing to optimize
    if 0.5 * poly.n >= poly.L - ACTIVE_TOL:
        certificate = {"reason": "degenerate", "threshold": T_threshold,
                       "grad_norm": 0.0, "min_multiplier": None,
                       "active_count": poly.n + 1}
        layout = AntennaLayout(d=np.maximum(d, 0.5), L=poly.L)
        return RgpmResult(layout=layout, trace=tuple(trace), converged=True,
                          stalled=False, certificate=certificate, f_final=f_cur)

    for k in range(1, K_max + 1):
        g = ev.grad_f_weighted(d, alpha)
        idx = list(_active_indices(d, poly))
        min_u = None
        while True:
            pg, u = _project(g, idx)
            norm = float(np.linalg.norm(pg))
            if norm >= T_threshold:
                break
            if not idx:
                converged = True
                certificate = {"reason": "interior-gradient", "grad_norm": norm,
                               "min_multiplier": None, "active_count": 0,
                               "threshold": T_threshold}
                break
            min_u = float(u.min())
            if min_u >= 0.0:
                converged = True
                certificate = {"reason": "kkt-multipliers", "grad_norm": norm,
                               "min_multiplier": min_u,
                               "active_count": len(idx),
                               "threshold": T_threshold}
                break
            idx.pop(int(np.argmin(u)))
        if converged:
            trace.append(IterRecord(k=k, f=f_cur, grad_norm=norm,
                                    active_count=len(idx), omega=0.0))
            break

        omega, f_new, stall = _armijo(lambda y: ev.f_weighted(y, alpha), f_cur,
                                      d, pg, poly, idx)
        if stall:
            stalled = True
            certificate = {"reason": "stalled", "grad_norm": norm,
                           "min_multiplier": min_u, "active_count": len(idx),
                           "threshold": T_threshold}
            trace.append(IterRecord(k=k, f=f_cur, grad_norm=norm,
                                    active_count=len(idx), omega=0.0))
            break
        d = d - omega * pg
        f_cur = f_new
        trace.append(IterRecord(k=k, f=f_cur, grad_norm=norm,
                                active_count=len(idx), omega=omega))

    layout = AntennaLayout(d=np.maximum(d, 0.5), L=poly.L)
    return RgpmResult(layout=layout, trace=tuple(trace), converged=converged,
                      stalled=stalled, certificate=certificate, f_final=f_cur)


def _worker_count() -> int:
    """Worker cap from MAFH_THREADS (0 or unset = automatic)."""
    raw = os.environ.get("MAFH_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"MAFH_THREADS: expected an integer, got {raw!r}")
    if n <= 0:
        return min(4, os.cpu_count() or 1)
    return n


def rgpm_multistart(poly: FeasiblePolytope, ev: ObjectiveEvaluator, alpha,
                    n_starts: int = 4, seed: int = 0, K_max: int = 150,
                    T_threshold: float = 1e-2) -> tuple[RgpmResult, list]:
    """Best of several descents: equidistant, width-optimal, then random starts.

    M_t comes from the evaluator's code and the aperture budget L from the
    polytope.  Returns (best result, all results).  Ties resolve to the
    earliest start; runs are independent and share ``ev``, whose tables are
    read-only, so threading (capped by MAFH_THREADS) does not affect the
    outcome.
    """
    if n_starts < 1:
        raise ValidationError(f"n_starts: expected at least 1, got {n_starts}")
    alpha = _check_alpha(alpha)
    M_t, L = ev.M, poly.L
    starts = [AntennaLayout(d=equidistant_layout(M_t).d, L=L), mmlwd_layout(M_t, L)]
    for i in range(max(0, n_starts - 2)):
        starts.append(random_feasible_layout(M_t, L, seed + 1 + i))
    starts = starts[:n_starts]

    def run(s):
        return rgpm_optimize(s, poly, ev, alpha, K_max=K_max,
                             T_threshold=T_threshold)

    workers = min(_worker_count(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, starts))
    else:
        results = [run(s) for s in starts]
    best = min(range(len(results)), key=lambda i: (results[i].f_final, i))
    return results[best], results

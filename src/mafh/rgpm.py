"""Rosen-style gradient projection over the spacing polytope.

Feasible set: d_i >= lambda/2 (one row per spacing) and sum(d) <= L, written
as A d >= b with A = [I; -1^T].  Each iteration projects the gradient onto
the null space of the active rows; when the projected gradient vanishes, the
constraint multipliers decide between KKT termination and dropping the row
with the most negative multiplier.  Step length comes from a backtracking
Armijo search whose first trial is capped at the largest feasible step, so
every iterate stays inside the polytope.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import AntennaLayout, ValidationError
from .model import equidistant_layout, random_feasible_layout
from .objective import ObjectiveEvaluator, _check_alpha
from .output import write_csv
from .theory import mmlwd_layout

# Rows within this absolute slack (wavelength units) count as active.
ACTIVE_TOL = 1e-9

# Backtracking line-search constants.
OMEGA0 = 1.0        # first trial step
RHO = 0.5           # backtracking ratio
SIGMA = 1e-4        # sufficient-decrease slope fraction
OMEGA_MIN = 1e-12   # stall threshold


@dataclass(frozen=True, eq=False)
class FeasiblePolytope:
    """Linear feasibility system A d >= b for the spacing vector."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValidationError("polytope: A must be (m, n) with matching b")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @classmethod
    def spacing_bounds(cls, M_t: int, L: float) -> "FeasiblePolytope":
        """Half-wavelength floors plus the aperture budget row."""
        if M_t < 2:
            raise ValidationError(f"M_t: expected M_t >= 2, got {M_t}")
        n = M_t - 1
        if L < 0.5 * n - ACTIVE_TOL:
            raise ValidationError(
                f"L: aperture {L} cannot fit {n} spacings of at least lambda/2"
            )
        A = np.vstack([np.eye(n), -np.ones((1, n))])
        b = np.concatenate([np.full(n, 0.5), [-L]])
        return cls(A=A, b=b)

    def slacks(self, d: np.ndarray) -> np.ndarray:
        return self.A @ d - self.b

    def contains(self, d: np.ndarray, tol: float = ACTIVE_TOL) -> bool:
        return bool(np.all(self.slacks(np.asarray(d, float)) >= -tol))


def active_set(d, poly: FeasiblePolytope, tol: float = ACTIVE_TOL) -> np.ndarray:
    """Matrix of rows satisfied with equality (|A_i d - b_i| <= tol).

    Raises if the point is infeasible beyond the tolerance.
    """
    idx = _active_indices(np.asarray(d, dtype=float), poly, tol)
    return poly.A[idx]


def _active_indices(d: np.ndarray, poly: FeasiblePolytope, tol: float) -> np.ndarray:
    s = poly.slacks(d)
    if np.any(s < -tol):
        worst = int(np.argmin(s))
        raise ValidationError(
            f"d: infeasible point, constraint row {worst} violated by {-s[worst]:.3g}"
        )
    return np.flatnonzero(np.abs(s) <= tol)


def projection_matrix(M_active: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of the active rows.

    Returns the identity for an empty active set; raises when the active rows
    are linearly dependent (projection undefined).
    """
    M_active = np.asarray(M_active, dtype=float)
    n = M_active.shape[1]
    if M_active.shape[0] == 0:
        return np.eye(n)
    MMT = M_active @ M_active.T
    try:
        sol = np.linalg.solve(MMT, M_active)
    except np.linalg.LinAlgError:
        raise ValidationError("active constraint rows are linearly dependent") from None
    P = np.eye(n) - M_active.T @ sol
    P = 0.5 * (P + P.T)
    if np.abs(M_active @ P).max() > 1e-8:
        raise ValidationError("active constraint rows are linearly dependent")
    return P


def _check_projector(P: np.ndarray, M_active: np.ndarray) -> None:
    # invariant guard, evaluated every iteration: symmetric, idempotent,
    # annihilates the active rows
    if np.abs(P - P.T).max() > 1e-10:
        raise RuntimeError("projector lost symmetry")
    if np.abs(P @ P - P).max() > 1e-10:
        raise RuntimeError("projector lost idempotence")
    if M_active.size and np.abs(M_active @ P).max() > 1e-10:
        raise RuntimeError("projector does not annihilate active rows")


def _max_feasible_step(d: np.ndarray, direction: np.ndarray,
                       poly: FeasiblePolytope, working) -> float:
    """Largest omega with A (d - omega*direction) >= b.

    Rows of the working set are not blocking: ``direction`` lies in their
    null space, and the roundoff left in A_i . direction would otherwise cap
    the step at their zero slack.
    """
    slack = np.maximum(poly.slacks(d), 0.0)
    along = poly.A @ direction
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

    n = d.size
    f_cur = ev.f_weighted(d, alpha)
    trace = [IterRecord(k=0, f=f_cur, grad_norm=np.nan, active_count=0, omega=np.nan)]
    converged = False
    stalled = False
    certificate = {"reason": "max-iterations", "threshold": T_threshold}

    # single-point polytope: nothing to optimize
    if poly.b[:n].sum() >= -poly.b[n:].sum() - ACTIVE_TOL:
        certificate = {"reason": "degenerate", "threshold": T_threshold,
                       "grad_norm": 0.0, "min_multiplier": None,
                       "active_count": n + 1}
        layout = AntennaLayout(d=np.maximum(d, 0.5), L=d0.L)
        return RgpmResult(layout=layout, trace=tuple(trace), converged=True,
                          stalled=False, certificate=certificate, f_final=f_cur)

    for k in range(1, K_max + 1):
        g = ev.grad_f_weighted(d, alpha)
        idx = list(_active_indices(d, poly, ACTIVE_TOL))
        min_u = None
        while True:
            Mk = poly.A[idx]
            P = projection_matrix(Mk)
            _check_projector(P, Mk)
            pg = P @ g
            norm = float(np.linalg.norm(pg))
            if norm >= T_threshold:
                break
            if not idx:
                converged = True
                certificate = {"reason": "interior-gradient", "grad_norm": norm,
                               "min_multiplier": None, "active_count": 0,
                               "threshold": T_threshold}
                break
            u = np.linalg.solve(Mk @ Mk.T, Mk @ g)
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

    layout = AntennaLayout(d=np.maximum(d, 0.5), L=d0.L)
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
    polytope's budget row.  Returns (best result, all results).  Ties resolve
    to the earliest start; runs are independent and share ``ev``, whose
    tables are read-only, so threading (capped by MAFH_THREADS) does not
    affect the outcome.
    """
    if n_starts < 1:
        raise ValidationError(f"n_starts: expected at least 1, got {n_starts}")
    alpha = _check_alpha(alpha)
    M_t, L = ev.M, -float(poly.b[-1])
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


def write_trace_csv(result: RgpmResult, path, doc: dict, seed=None) -> None:
    """CSV columns: k, f, grad_norm, active_count, omega."""
    rows = result.trace
    write_csv(path, {
        "k": [r.k for r in rows],
        "f": [r.f for r in rows],
        "grad_norm": [r.grad_norm for r in rows],
        "active_count": [r.active_count for r in rows],
        "omega": [r.omega for r in rows],
    }, doc, seed, extra={"converged": result.converged,
                         "stalled": result.stalled,
                         "reason": result.certificate.get("reason", "")})

"""Rosen-style gradient projection over the spacing polytope.

Feasible set: d_i >= lambda/2 (rows i < n) and sum(d) <= L (row n).  Each
iteration projects the gradient onto the null space of the working rows,
which for this polytope has a closed form: P g is zero on the spacings whose
floor is in the working set, and with the budget row in the set the mean mu
of g over the free spacings is subtracted from them.  The multipliers are
g_i - mu for a floor row and -mu for the budget row (mu = 0 without it).
When the projected gradient vanishes, they decide between KKT termination
and dropping the row with the most negative multiplier.  Step length comes
from a monotone backtracking Armijo search.  Its first trial, the
Barzilai-Borwein step s's/s'y (s, y: the last step's changes in d and P g) on an
unchanged working set with s'y > 0 and ``OMEGA0`` otherwise, is capped at the
largest feasible step, so every iterate stays inside the polytope.  Each iterate
computes its slacks once, as Python floats, for the active rows and the step cap;
the reductions that decide bits (sums, the free mean, norms, dot products) stay numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FEASIBILITY_TOL, AntennaLayout, ValidationError, _check_aperture
from .model import _check_integer, _check_seed, equidistant_layout, random_feasible_layout
from .objective import ObjectiveEvaluator, _check_alpha
from .theory import mmlwd_layout

# Backtracking line-search constants.
OMEGA0 = 1.0        # first trial step without a Barzilai-Borwein step
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
        return bool(np.all(self.slacks(d) >= -FEASIBILITY_TOL))


def _active_indices(slack: list) -> list:
    """Rows whose ``slack`` (``poly.slacks(d)`` as floats) is within FEASIBILITY_TOL of 0.

    In row order; raises if the point is infeasible beyond the tolerance.
    """
    worst = min(slack)
    if worst < -FEASIBILITY_TOL:
        raise ValidationError(f"d: infeasible point, constraint row "
                              f"{slack.index(worst)} violated by {-worst:.3g}")
    return [i for i, s in enumerate(slack) if abs(s) <= FEASIBILITY_TOL]


def _project(g: np.ndarray, working) -> tuple[np.ndarray, list]:
    """(P g, multipliers) for the working rows, multipliers in ``working`` order.

    Raises when every floor and the budget are in the working set: those
    n + 1 rows are linearly dependent and the projection is undefined.
    """
    n = g.size
    fixed = [i for i in working if i < n]
    mu = 0.0
    if n in working:
        if len(fixed) == n:
            raise ValidationError("active constraint rows are linearly dependent")
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        mu = float(g[free].mean())
    pg = g - mu
    pg[fixed] = 0.0
    gl = g.tolist()
    return pg, [gl[i] - mu if i < n else -mu for i in working]


def _max_feasible_step(slack: list, direction: np.ndarray, working) -> float:
    """Largest omega that keeps d - omega*direction inside the polytope (slacks at d).

    Rows of the working set are not blocking: ``direction`` lies in their
    null space, and the roundoff left in ``along`` (the rate each slack
    shrinks at) would otherwise cap the step at their zero slack.
    """
    along = direction.tolist()
    tiny = 1e-15 * max(1.0, max(map(abs, along)))
    along.append(-float(direction.sum()))
    return min((max(s, 0.0) / a for i, (s, a) in enumerate(zip(slack, along))
                if a > tiny and i not in working), default=np.inf)


def _armijo(fval, f0: float, d: np.ndarray, direction: np.ndarray,
            slack: list, working, omega0: float = OMEGA0):
    """Backtrack along d - omega*direction from omega0.  Returns (omega, f_new, stalled).

    ``slack`` holds the slacks at d, ``working`` the rows ``direction`` was projected onto.
    """
    norm2 = float(direction @ direction)
    if norm2 == 0.0:
        raise ValidationError("descent direction is zero")
    omega = min(omega0, _max_feasible_step(slack, direction, working))
    while omega >= OMEGA_MIN:
        f_new = fval(d - omega * direction)
        if f_new <= f0 - SIGMA * omega * norm2:
            return omega, f_new, False
        omega *= RHO
    return None, f0, True


@dataclass(frozen=True, slots=True)
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
    f_evals: int        # f_weighted calls of this descent


def _check_descent(n_starts: int, K_max: int, T_threshold: float) -> tuple[int, int]:
    """(n_starts, K_max) as ints; raise unless they and the threshold can run."""
    n_starts, K_max = _check_integer("n_starts", n_starts), _check_integer("K_max", K_max)
    if n_starts < 1:
        raise ValidationError(f"n_starts: expected at least 1, got {n_starts}")
    if K_max < 1:
        raise ValidationError(f"K_max: expected at least 1, got {K_max}")
    if not 0 < T_threshold < np.inf:
        raise ValidationError(f"T_threshold: expected finite > 0, got {T_threshold}")
    return n_starts, K_max


def rgpm_optimize(d0: AntennaLayout, poly: FeasiblePolytope,
                  ev: ObjectiveEvaluator, alpha, K_max: int = 150,
                  T_threshold: float = 1e-2) -> RgpmResult:
    """Projected-gradient descent of ``ev.f_weighted(., alpha)`` from ``d0``.

    The certificate's ``reason`` says how it stopped: ``degenerate`` (every
    row can bind at once, so no iteration runs), ``interior-gradient`` or
    ``kkt-multipliers`` (projected gradient norm below ``T_threshold``, with no
    active row or all multipliers nonnegative), ``stalled`` (no Armijo step;
    the best-so-far point is returned) or ``max-iterations`` (``K_max`` reached).
    """
    _, K_max = _check_descent(1, K_max, T_threshold)
    alpha = _check_alpha(alpha)
    d = np.asarray(d0.d, dtype=float).copy()
    if not poly.contains(d):
        raise ValidationError("d0: starting point is infeasible")

    f_evals = 0

    def fval(y):
        nonlocal f_evals
        f_evals += 1
        return ev.f_weighted(y, alpha)

    f_cur = fval(d)
    prev = None     # (d, P g, working set) of the previous step
    trace = [IterRecord(k=0, f=f_cur, grad_norm=np.nan, active_count=0, omega=np.nan)]
    reason = None
    if 0.5 * poly.n >= poly.L - (poly.n + 1) * FEASIBILITY_TOL:
        # all n + 1 rows can be active together: no projection is defined
        reason, norm, min_u, idx = "degenerate", 0.0, None, range(poly.n + 1)

    k = 0
    while reason is None and k < K_max:
        k += 1
        g = ev.grad_f_weighted(d, alpha)
        slack = (d - 0.5).tolist() + [poly.L - float(d.sum())]   # poly.slacks(d)
        idx = _active_indices(slack)
        min_u = None
        while True:
            pg, u = _project(g, idx)
            norm = float(np.linalg.norm(pg))
            if norm >= T_threshold:
                break
            min_u = min(u) if idx else None
            if min_u is None or min_u >= 0.0:
                reason = "kkt-multipliers" if idx else "interior-gradient"
                break
            idx.pop(u.index(min_u))

        omega = 0.0
        if reason is None:
            omega0 = OMEGA0
            if prev is not None and prev[2] == idx:
                s, y = d - prev[0], pg - prev[1]
                sy = float(s @ y)
                if sy > 0.0:
                    omega0 = float(s @ s) / sy
            prev = (d, pg, idx)
            step, f_new, stalled = _armijo(fval, f_cur, d, pg, slack, idx, omega0)
            if stalled:
                reason = "stalled"
            else:
                omega, d, f_cur = step, d - step * pg, f_new
        trace.append(IterRecord(k=k, f=f_cur, grad_norm=norm,
                                active_count=len(idx), omega=omega))

    if reason is None:
        certificate = {"reason": "max-iterations", "threshold": T_threshold}
    else:
        certificate = {"reason": reason, "grad_norm": norm, "min_multiplier": min_u,
                       "active_count": len(idx), "threshold": T_threshold}
    layout = AntennaLayout(d=np.maximum(d, 0.5), L=poly.L)
    converged = reason in ("degenerate", "interior-gradient", "kkt-multipliers")
    return RgpmResult(layout=layout, trace=tuple(trace), converged=converged,
                      stalled=reason == "stalled", certificate=certificate,
                      f_final=f_cur, f_evals=f_evals)


def _worker_count() -> int:
    """1: multistart runs its descents one after another on the calling thread.

    Kept only for the benchmark's readers, ``bench/run.py:environment_stamp``
    and ``bench/tracer.py:_multistart_attrs``; the benchmark change of
    ROADMAP item 1 drops it.
    """
    return 1


def rgpm_multistart(poly: FeasiblePolytope, ev: ObjectiveEvaluator, alpha,
                    n_starts: int = 4, seed: int = 0, K_max: int = 150,
                    T_threshold: float = 1e-2) -> tuple[RgpmResult, list]:
    """Best of several descents: equidistant, width-optimal, then random starts.

    M_t comes from the evaluator's code and the aperture budget L from the
    polytope.  The starts run in order; ties resolve to the earliest.
    Returns (best result, all results).
    """
    n_starts, K_max = _check_descent(n_starts, K_max, T_threshold)
    seed = _check_seed("seed", seed)
    alpha = _check_alpha(alpha)
    M_t, L = ev.M, poly.L
    starts = [equidistant_layout(M_t, L), mmlwd_layout(M_t, L)]
    for i in range(max(0, n_starts - 2)):
        starts.append(random_feasible_layout(M_t, L, seed + 1 + i))
    starts = starts[:n_starts]
    results = [rgpm_optimize(s, poly, ev, alpha, K_max=K_max, T_threshold=T_threshold)
               for s in starts]
    best = min(range(len(results)), key=lambda i: (results[i].f_final, i))
    return results[best], results

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mafh import (
    AntennaLayout,
    FeasiblePolytope,
    ObjectiveEvaluator,
    RadarConfig,
    ValidationError,
    build_grid,
    generate_fh_code,
    mmlwd_layout,
    random_feasible_layout,
    rgpm_multistart,
    rgpm_optimize,
)
from mafh.rgpm import _active_indices, _armijo, _project

F1 = (1.0, 0.0, 0.0)   # angular objective only


@pytest.fixture(scope="module")
def small():
    """M_t=2 angular-only problem: cheap enough for exhaustive checks."""
    cfg = RadarConfig()
    code = generate_fh_code(cfg, 2, seed=0)
    lay = AntennaLayout(d=np.array([0.5]), L=1.2)
    grid = build_grid(cfg, lay)
    poly = FeasiblePolytope.spacing_bounds(2, 1.2)
    return ObjectiveEvaluator(grid, code, cfg), poly


def _reference_projection(g, working):
    """Generic Rosen projection of ``g`` onto the null space of the working rows.

    The spacing polytope written as A d >= b with A = [I; -1^T]: the
    projector I - M^T (M M^T)^-1 M of the working rows M, and least-squares
    multipliers u solving M^T u = g.
    """
    if not working:
        return g.copy(), np.zeros(0)
    n = g.size
    M = np.vstack([np.eye(n), -np.ones((1, n))])[list(working)]
    P = np.eye(n) - M.T @ np.linalg.solve(M @ M.T, M)
    return P @ g, np.linalg.lstsq(M.T, g, rcond=None)[0]


def _projector(working, n):
    """Matrix of the projection, one column per unit vector."""
    return np.column_stack([_project(e, working)[0] for e in np.eye(n)])


def test_polytope_structure():
    poly = FeasiblePolytope.spacing_bounds(8, 7.0)
    assert (poly.n, poly.L) == (7, 7.0)
    assert_allclose(poly.slacks(np.full(7, 0.75)), [0.25] * 7 + [1.75])
    assert poly.contains(np.full(7, 0.5))
    assert poly.contains(np.full(7, 1.0))
    assert not poly.contains(np.full(7, 1.1))   # sum exceeds the budget
    assert not poly.contains(np.full(7, 0.4))   # below the spacing floor


def test_polytope_validation():
    with pytest.raises(ValidationError, match="^M_t:"):
        FeasiblePolytope.spacing_bounds(1, 5.0)
    with pytest.raises(ValidationError, match="^L:"):
        FeasiblePolytope.spacing_bounds(8, 3.0)
    with pytest.raises(ValidationError, match="^L:"):
        FeasiblePolytope(n=1, L=0.4)   # budget below the floor


def test_polytope_rejects_wrong_length(poly8):
    for d in (np.full(6, 0.5), np.full(8, 0.5), np.full((7, 1), 0.5)):
        with pytest.raises(ValidationError, match="^d:"):
            poly8.slacks(d)
        with pytest.raises(ValidationError, match="^d:"):
            poly8.contains(d)


def test_active_indices_selection(poly8):
    # all seven floors bind at the half-wavelength start
    assert_array_equal(_active_indices(np.full(7, 0.5), poly8), np.arange(7))
    # interior point: nothing binds
    assert _active_indices(np.full(7, 0.9), poly8).size == 0
    # width-optimal layout: six floors plus the budget row
    idx = _active_indices(mmlwd_layout(8, 7.0).d, poly8)
    assert idx.size == 7 and idx[-1] == 7


def test_active_indices_rejects_infeasible(poly8):
    with pytest.raises(ValidationError, match="infeasible"):
        _active_indices(np.full(7, 0.4), poly8)


def test_project_matches_generic_projector():
    n = 4
    g = np.random.default_rng(0).normal(size=n)
    rows = range(n + 1)
    for k in range(n + 1):   # every working set but the full one
        for working in itertools.combinations(rows, k):
            pg, u = _project(g, list(working))
            pg_ref, u_ref = _reference_projection(g, working)
            assert_allclose(pg, pg_ref, rtol=0, atol=1e-12, err_msg=str(working))
            assert_allclose(u, u_ref, rtol=0, atol=1e-12, err_msg=str(working))
    with pytest.raises(ValidationError, match="dependent"):
        _project(g, list(rows))


def test_project_algebra():
    n = 5
    assert_array_equal(_projector([], n), np.eye(n))
    working = [0, n]   # the first floor and the budget row
    rows = np.zeros((2, n))
    rows[0, 0] = 1.0
    rows[1] = -1.0
    P = _projector(working, n)
    assert_allclose(P, P.T, atol=1e-12)
    assert_allclose(P @ P, P, atol=1e-12)
    assert_allclose(rows @ P, np.zeros((2, n)), atol=1e-12)


def test_project_rejects_dependent_rows():
    with pytest.raises(ValidationError, match="dependent"):
        _project(np.ones(1), [0, 1])


def _line_search(ev, d, descent_dir, poly):
    """Armijo search for f_weighted along ``-descent_dir`` from ``d``, no working set."""
    def f(y):
        return ev.f_weighted(y, F1)
    return _armijo(f, f(d), d, descent_dir, poly, [])


def test_armijo_step_respects_feasibility_cap(small):
    ev, poly = small
    # pushing the single spacing toward the budget: at most 0.05 of headroom
    d = np.array([1.15])
    omega, _, stalled = _line_search(ev, d, np.array([-1.0]), poly)
    assert not stalled
    assert 0.0 < omega <= 0.05 + 1e-12
    assert poly.contains(d + omega * np.array([1.0]))


def test_armijo_step_zero_direction_rejected(small):
    ev, poly = small
    with pytest.raises(ValidationError, match="direction"):
        _line_search(ev, np.array([0.8]), np.zeros(1), poly)


def test_armijo_step_stalls_uphill(small):
    ev, poly = small
    d = np.array([0.8])
    uphill = -ev.grad_f_weighted(d, F1)   # a step along +gradient cannot descend
    if np.linalg.norm(uphill) > 0:
        omega, f_new, stalled = _line_search(ev, d, uphill, poly)
        assert stalled and omega is None
        assert f_new == ev.f_weighted(d, F1)


def test_rgpm_monotone_and_feasible(small):
    ev, poly = small
    res = rgpm_optimize(AntennaLayout(d=np.array([1.0]), L=1.2), poly, ev, F1,
                        K_max=50)
    fs = [r.f for r in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
    assert poly.contains(res.layout.d)
    assert res.converged
    assert res.certificate["reason"] in ("interior-gradient", "kkt-multipliers")


def test_rgpm_matches_exhaustive_search(small):
    """Multistart lands on the global optimum of the 1-D landscape."""
    ev, poly = small
    ds = np.arange(0.5, 1.2 + 1e-12, 1e-3)
    vals = [ev.f_weighted(np.array([x]), F1) for x in ds]
    d_star = ds[int(np.argmin(vals))]
    best, _ = rgpm_multistart(poly, ev, F1, seed=0)
    assert abs(best.layout.d[0] - d_star) <= 1e-2
    assert best.f_final <= min(vals) + 1e-9


def test_rgpm_deterministic(small):
    ev, poly = small
    d0 = AntennaLayout(d=np.array([0.95]), L=1.2)
    r1 = rgpm_optimize(d0, poly, ev, F1)
    r2 = rgpm_optimize(d0, poly, ev, F1)
    assert_array_equal(r1.layout.d, r2.layout.d)
    assert [a.f for a in r1.trace] == [a.f for a in r2.trace]


def test_rgpm_argument_validation(small):
    ev, poly = small
    d0 = AntennaLayout(d=np.array([0.8]), L=1.2)
    with pytest.raises(ValidationError, match="^K_max:"):
        rgpm_optimize(d0, poly, ev, F1, K_max=0)
    with pytest.raises(ValidationError, match="^T_threshold:"):
        rgpm_optimize(d0, poly, ev, F1, T_threshold=0.0)
    with pytest.raises(ValidationError, match="^d0:"):
        rgpm_optimize(AntennaLayout(d=np.array([1.25]), L=1.3), poly, ev, F1)
    with pytest.raises(ValidationError, match="^alpha:"):
        rgpm_optimize(d0, poly, ev, (0.5, 0.5, 0.5))


def test_rgpm_degenerate_polytope(cfg):
    # budget exactly equal to the sum of floors: a single feasible point
    code = generate_fh_code(cfg, 4, seed=0)
    lay = AntennaLayout(d=np.full(3, 0.5), L=1.5)
    grid = build_grid(cfg, lay)
    poly = FeasiblePolytope.spacing_bounds(4, 1.5)
    res = rgpm_optimize(lay, poly, ObjectiveEvaluator(grid, code, cfg), F1)
    assert res.converged and res.certificate["reason"] == "degenerate"
    assert_allclose(res.layout.d, [0.5, 0.5, 0.5])


@pytest.mark.parametrize("start_budget", [4.2, 20.0])
def test_rgpm_layout_carries_polytope_budget(ev8, poly8, start_budget):
    # the start's own budget plays no part: the result lives in the polytope
    d0 = AntennaLayout(d=np.full(7, 0.6), L=start_budget)
    res = rgpm_optimize(d0, poly8, ev8, F1)
    assert res.layout.L == poly8.L
    assert poly8.contains(res.layout.d)


def test_rgpm_iteration_cap(small):
    ev, poly = small
    res = rgpm_optimize(AntennaLayout(d=np.array([1.0]), L=1.2), poly, ev, F1,
                        K_max=1, T_threshold=1e-12)
    assert not res.converged
    assert res.certificate["reason"] == "max-iterations"
    assert res.trace[-1].k <= 1


def test_rgpm_stall_returns_best_so_far(poly8):
    class NoDecrease:
        """Objective that admits no sufficient-decrease step anywhere."""

        def f_weighted(self, d, alpha):
            return 1.0

        def grad_f_weighted(self, d, alpha):
            return np.ones_like(d)

    d0 = AntennaLayout(d=np.full(7, 0.9), L=7.0)
    res = rgpm_optimize(d0, poly8, NoDecrease(), F1)
    assert res.stalled and not res.converged
    assert res.certificate["reason"] == "stalled"
    assert_allclose(res.layout.d, d0.d)
    assert res.f_final == 1.0


def test_rgpm_roundoff_does_not_stall(cfg, code8, poly8, equid8):
    """Working-set rows never cap the step: roundoff in A_i . Pg is not blocking.

    This start of the default (1, 0, 0) multistart used to report a stall
    before the first line-search trial, at ||Pg|| = 8.65.
    """
    ev = ObjectiveEvaluator(build_grid(cfg, equid8), code8, cfg)
    res = rgpm_optimize(random_feasible_layout(8, 7.0, seed=2), poly8, ev, F1)
    assert not res.stalled and res.converged
    assert res.certificate["reason"] == "kkt-multipliers"


def test_multistart_start_count_and_best(small):
    ev, poly = small
    best, results = rgpm_multistart(poly, ev, F1, n_starts=4, seed=0)
    assert len(results) == 4
    assert best.f_final == min(r.f_final for r in results)
    # first two starts are the deterministic layouts
    assert results[0].trace[0].f == pytest.approx(
        ev.f_weighted(np.array([0.5]), F1))
    with pytest.raises(ValidationError, match="^n_starts:"):
        rgpm_multistart(poly, ev, F1, n_starts=0)
    with pytest.raises(ValidationError, match="^alpha:"):
        rgpm_multistart(poly, ev, (1.0, 0.0))


def test_multistart_thread_count_invariance(small, monkeypatch):
    ev, poly = small
    monkeypatch.setenv("MAFH_THREADS", "1")
    b1, _ = rgpm_multistart(poly, ev, F1, seed=3)
    monkeypatch.setenv("MAFH_THREADS", "4")
    b4, _ = rgpm_multistart(poly, ev, F1, seed=3)
    assert_array_equal(b1.layout.d, b4.layout.d)
    assert b1.f_final == b4.f_final


def test_multistart_rejects_bad_thread_env(small, monkeypatch):
    ev, poly = small
    monkeypatch.setenv("MAFH_THREADS", "plenty")
    with pytest.raises(ValidationError, match="MAFH_THREADS"):
        rgpm_multistart(poly, ev, F1)

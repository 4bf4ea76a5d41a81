import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mafh import (
    AntennaLayout,
    FeasiblePolytope,
    IterRecord,
    ObjectiveEvaluator,
    RadarConfig,
    ValidationError,
    build_grid,
    equidistant_layout,
    generate_fh_code,
    mmlwd_layout,
    random_feasible_layout,
    rgpm_multistart,
    rgpm_optimize,
)
from mafh import rgpm
from mafh.cli import _simplex_weights
from mafh.model import FEASIBILITY_TOL
from mafh.rgpm import OMEGA0, _active_indices, _armijo, _max_feasible_step, _project

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


def _active(d, poly):
    return _active_indices(poly.slacks(d).tolist())


def test_active_indices_selection(poly8):
    # all seven floors bind at the half-wavelength start
    assert_array_equal(_active(np.full(7, 0.5), poly8), np.arange(7))
    # interior point: nothing binds
    assert len(_active(np.full(7, 0.9), poly8)) == 0
    # width-optimal layout: six floors plus the budget row
    idx = _active(mmlwd_layout(8, 7.0).d, poly8)
    assert len(idx) == 7 and idx[-1] == 7


def test_active_indices_rejects_infeasible(poly8):
    with pytest.raises(ValidationError, match="infeasible"):
        _active(np.full(7, 0.4), poly8)


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


# The bookkeeping helpers as written before each iterate shared one slack
# vector of Python floats: numpy on every call, slacks computed per helper.
# The helpers above must give the same rows, P g, multipliers and step cap,
# bit for bit.

def _ref_active_indices(d, poly):
    s = poly.slacks(d)
    if np.any(s < -FEASIBILITY_TOL):
        worst = int(np.argmin(s))
        raise ValidationError(
            f"d: infeasible point, constraint row {worst} violated by {-s[worst]:.3g}"
        )
    return np.flatnonzero(np.abs(s) <= FEASIBILITY_TOL)


def _ref_project(g, working):
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


def _ref_max_feasible_step(d, direction, poly, working):
    slack = np.maximum(poly.slacks(d), 0.0)
    along = np.append(direction, -direction.sum())
    scale = max(1.0, float(np.abs(direction).max()))
    blocking = along > 1e-15 * scale
    blocking[list(working)] = False
    if not np.any(blocking):
        return np.inf
    return float(np.min(slack[blocking] / along[blocking]))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# offsets from a constraint that straddle the activity tolerance
_NEAR = st.sampled_from([k * FEASIBILITY_TOL for k in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)])


@st.composite
def _bookkeeping_case(draw):
    """A point on, near or inside the spacing polytope, a gradient and a working set."""
    n = draw(st.integers(1, 8))
    d = np.array([0.5 + draw(st.one_of(_NEAR, st.floats(0.0, 1.5))) for _ in range(n)])
    L = float(d.sum()) + draw(st.one_of(_NEAR, st.floats(0.0, 2.0)))
    assume(L >= 0.5 * n - FEASIBILITY_TOL)
    # entries at the 1e-15 blocking threshold of a unit-scale direction included
    entry = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e-15, -1e-15, 1.0]))
    g = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    working = draw(st.one_of(st.just([n]), st.lists(st.integers(0, n), unique=True,
                                                   max_size=n + 1)))
    return FeasiblePolytope(n=n, L=L), d, g, working, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(case=_bookkeeping_case())
def test_bookkeeping_matches_reference_bit_for_bit(case):
    poly, d, g, working, own = case
    slack = poly.slacks(d).tolist()
    try:
        rows = _ref_active_indices(d, poly).tolist()
    except ValidationError as err:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(err))}$"):
            _active_indices(slack)
    else:
        assert _active_indices(slack) == rows
        if own and len(rows) <= poly.n:
            working = rows   # the working set a descent starts from
    if len(working) == poly.n + 1:
        for project in (_project, _ref_project):
            with pytest.raises(ValidationError, match="dependent"):
                project(g, working)
        return
    pg, u = _project(g, working)
    pg_ref, u_ref = _ref_project(g, working)
    assert _bits(pg) == _bits(pg_ref)
    assert _bits(u) == _bits(u_ref)
    # P g carries roundoff on the budget row when that row is in the working set
    for direction in (pg_ref, g, -g):
        assert _bits(_max_feasible_step(slack, direction, working)) == _bits(
            _ref_max_feasible_step(d, direction, poly, working))


def _line_search(ev, d, descent_dir, poly):
    """Armijo search for f_weighted along ``-descent_dir`` from ``d``, no working set."""
    def f(y):
        return ev.f_weighted(y, F1)
    return _armijo(f, f(d), d, descent_dir, poly.slacks(d).tolist(), [])


def test_armijo_step_respects_feasibility_cap(small):
    ev, poly = small
    # pushing the single spacing toward the budget: at most 0.05 of headroom
    d = np.array([1.15])
    omega, _, stalled = _line_search(ev, d, np.array([-1.0]), poly)
    assert not stalled
    assert 0.0 < omega <= 0.05 + 1e-12
    assert poly.contains(d + omega * np.array([1.0]))


def test_armijo_first_trial_is_capped_omega0(small):
    ev, poly = small
    d, direction = np.array([1.15]), np.array([-1.0])   # cap 0.05
    for omega0, first in ((10.0, 0.05), (0.01, 0.01)):
        trials = []

        def f(y):
            trials.append(y.copy())
            return ev.f_weighted(y, F1)

        omega, _, stalled = _armijo(f, f(d), d, direction, poly.slacks(d).tolist(), [],
                                    omega0)
        assert not stalled
        assert_allclose(trials[1], d - first * direction, rtol=0, atol=1e-12)
        assert omega <= first + 1e-12
        assert poly.contains(d - omega * direction)


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
    with pytest.raises(ValidationError, match="^K_max:"):
        rgpm_optimize(d0, poly, ev, F1, K_max=2.5)
    with pytest.raises(ValidationError, match="^n_starts:"):
        rgpm_multistart(poly, ev, F1, n_starts=2.5)
    with pytest.raises(ValidationError, match="^K_max:"):
        rgpm_multistart(poly, ev, F1, K_max=2.5)
    # two starts draw no random layout, so the seed is checked up front
    for seed in (-1, 2.5):
        with pytest.raises(ValidationError, match="^seed:"):
            rgpm_multistart(poly, ev, F1, n_starts=2, seed=seed)
    # whole floats count as integers
    _, results = rgpm_multistart(poly, ev, F1, n_starts=2.0, K_max=3.0)
    assert len(results) == 2 and all(r.trace[-1].k <= 3 for r in results)


def test_rgpm_degenerate_polytope(cfg):
    # budget exactly equal to the sum of floors: a single feasible point
    code = generate_fh_code(cfg, 4, seed=0)
    lay = AntennaLayout(d=np.full(3, 0.5), L=1.5)
    grid = build_grid(cfg, lay)
    poly = FeasiblePolytope.spacing_bounds(4, 1.5)
    res = rgpm_optimize(lay, poly, ObjectiveEvaluator(grid, code, cfg), F1)
    assert res.converged and res.certificate["reason"] == "degenerate"
    assert_allclose(res.layout.d, [0.5, 0.5, 0.5])


def test_rgpm_near_degenerate_budget_is_degenerate(small):
    # 1.5e-9 above the floor: within (n + 1) * FEASIBILITY_TOL, so a start can
    # sit on the floor and the budget row at once
    ev, _ = small
    poly = FeasiblePolytope.spacing_bounds(2, 0.5 + 1.5e-9)
    best, results = rgpm_multistart(poly, ev, F1)
    assert [r.certificate["reason"] for r in results] == ["degenerate"] * 4
    assert best.converged and best.trace[-1].k == 0


_CERTIFIED_KEYS = ["reason", "grad_norm", "min_multiplier", "active_count", "threshold"]


@pytest.mark.parametrize("reason, d0, budget, K_max, keys", [
    ("degenerate", 0.5, 0.5, 150, _CERTIFIED_KEYS),
    ("interior-gradient", 1.0, 1.2, 50, _CERTIFIED_KEYS),
    ("kkt-multipliers", 0.5, 1.2, 50, _CERTIFIED_KEYS),
    ("stalled", None, None, 150, _CERTIFIED_KEYS),
    ("max-iterations", 1.0, 1.2, 1, ["reason", "threshold"]),
])
def test_rgpm_stop_rule(small, poly8, reason, d0, budget, K_max, keys):
    """Each stop: its certificate keys in order, flags and last trace row."""
    ev, _ = small
    if reason == "stalled":
        ev, poly, start = NoDecrease(), poly8, AntennaLayout(d=np.full(7, 0.9), L=7.0)
    else:
        poly = FeasiblePolytope.spacing_bounds(2, budget)
        start = AntennaLayout(d=np.array([d0]), L=budget)
    threshold = 1e-12 if reason == "max-iterations" else 1e-2
    res = rgpm_optimize(start, poly, ev, F1, K_max=K_max, T_threshold=threshold)
    assert res.certificate["reason"] == reason
    assert list(res.certificate) == keys
    assert res.converged == (reason in ("degenerate", "interior-gradient",
                                        "kkt-multipliers"))
    assert res.stalled == (reason == "stalled")
    assert [r.k for r in res.trace] == list(range(len(res.trace)))
    last = res.trace[-1]
    if reason == "degenerate":       # no iteration runs
        assert len(res.trace) == 1
    elif reason == "max-iterations":
        assert last.k == K_max and last.omega > 0.0
    else:
        assert last.omega == 0.0 and last.f == res.f_final


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


class NoDecrease:
    """Objective that admits no sufficient-decrease step anywhere."""

    def f_weighted(self, d, alpha):
        return 1.0

    def grad_f_weighted(self, d, alpha):
        return np.ones_like(d)


def test_rgpm_stall_returns_best_so_far(poly8):
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


def test_multistart_runs_documented_starts_in_order(small):
    """Equidistant, width-optimal, then random starts seeded seed+1, seed+2."""
    ev, poly = small
    best, results = rgpm_multistart(poly, ev, F1, n_starts=4, seed=3)
    starts = [AntennaLayout(d=equidistant_layout(2).d, L=1.2), mmlwd_layout(2, 1.2),
              random_feasible_layout(2, 1.2, 4), random_feasible_layout(2, 1.2, 5)]
    assert len(results) == len(starts)
    for got, start in zip(results, starts):
        want = rgpm_optimize(start, poly, ev, F1)
        assert_array_equal(got.layout.d, want.layout.d)
        assert got.f_final == want.f_final
        assert got.certificate == want.certificate
    f_min = min(r.f_final for r in results)
    assert best is next(r for r in results if r.f_final == f_min)


def _certified(result):
    return result.certificate["reason"] in ("kkt-multipliers", "interior-gradient")


def test_sweep_protocol_takes_few_evaluations_and_certifies_every_start(
        monkeypatch, ev8, poly8):
    """``mafh tradeoff --resolution 2`` at seed 0: 6 triples, 4 starts each.

    With every search starting at omega = 1 this took 6.65 f calls per
    iteration and left two (0, 0, 1) starts at K_max without a certificate.
    """
    calls = []
    f_weighted = ev8.f_weighted

    def counting(d, alpha):
        calls.append(alpha)
        return f_weighted(d, alpha)

    monkeypatch.setattr(ev8, "f_weighted", counting)
    runs = [r for alpha in _simplex_weights(2)
            for r in rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)[1]]
    iterations = sum(r.trace[-1].k for r in runs)
    assert len(runs) == 24
    assert sum(r.f_evals for r in runs) == len(calls)
    assert len(calls) < 2 * iterations
    assert all(_certified(r) for r in runs), [r.certificate["reason"] for r in runs]


def test_working_set_change_restarts_search_at_omega0(monkeypatch, ev8, poly8):
    """A Barzilai-Borwein first trial only follows a step on the same working set."""
    searches = []

    def spy(fval, f0, d, direction, slack, working, omega0=OMEGA0):
        searches.append((list(working), omega0))
        return _armijo(fval, f0, d, direction, slack, working, omega0)

    monkeypatch.setattr(rgpm, "_armijo", spy)
    # the fourth seed-0 start at (0, 0, 1) meets new floors as it descends
    res = rgpm_optimize(random_feasible_layout(8, 7.0, seed=2), poly8, ev8,
                        (0.0, 0.0, 1.0))
    assert _certified(res)
    changed = [i for i in range(1, len(searches))
               if searches[i][0] != searches[i - 1][0]]
    assert changed and searches[0][1] == OMEGA0
    assert all(searches[i][1] == OMEGA0 for i in changed)
    assert any(omega0 != OMEGA0 for _, omega0 in searches)


def _result_bits(r):
    """Everything a descent reports, as bytes and exact reprs."""
    return (r.layout.d.tobytes(), np.array([dataclasses.astuple(t) for t in r.trace]).tobytes(),
            repr(r.certificate), r.f_evals, repr(r.f_final))


def test_multistart_does_not_depend_on_the_kept_pass(monkeypatch, passes, ev8, poly8):
    """Each gradient finishes the value pass at its point; clearing the kept
    pass and weights before every call gives the same descents, bit for bit."""
    kept = {alpha: rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)[1]
            for alpha in _simplex_weights(2)}
    # every gradient lands on the accepted trial, the last value point
    assert passes[0] == sum(r.f_evals for runs in kept.values() for r in runs)

    weighted = ObjectiveEvaluator._weighted

    def cleared(self, d, alpha, grad):
        self._last = self._h23 = None
        return weighted(self, d, alpha, grad)

    monkeypatch.setattr(ObjectiveEvaluator, "_weighted", cleared)
    for alpha, runs in kept.items():
        again = rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)[1]
        assert [_result_bits(r) for r in again] == [_result_bits(r) for r in runs]


def test_multistart_matches_reference_bookkeeping(monkeypatch, ev8, poly8):
    """The six resolution-2 triples give the same descents, bit for bit, when
    every helper is the reference that recomputes its own numpy slacks."""
    shared = {alpha: rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)[1]
              for alpha in _simplex_weights(2)}
    at = {}
    grad = ev8.grad_f_weighted

    def recording(d, alpha):   # each iterate starts with the gradient at its point
        at["d"] = d
        return grad(d, alpha)

    def active(slack):
        assert _bits(slack) == _bits(poly8.slacks(at["d"]))
        return _ref_active_indices(at["d"], poly8).tolist()

    def project(g, working):
        pg, u = _ref_project(g, working)
        return pg, u.tolist()

    monkeypatch.setattr(ev8, "grad_f_weighted", recording)
    monkeypatch.setattr(rgpm, "_active_indices", active)
    monkeypatch.setattr(rgpm, "_project", project)
    monkeypatch.setattr(rgpm, "_max_feasible_step", lambda slack, direction, working:
                        _ref_max_feasible_step(at["d"], direction, poly8, working))
    for alpha, runs in shared.items():
        again = rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)[1]
        assert [_result_bits(r) for r in again] == [_result_bits(r) for r in runs]


def test_trace_rows_have_slots():
    row = IterRecord(k=1, f=2.0, grad_norm=0.5, active_count=1, omega=0.25)
    assert not hasattr(row, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.f = 1.0

import itertools

import numpy as np
import pytest

from mafh import (
    AntennaLayout,
    FeasiblePolytope,
    GaParams,
    GaResult,
    ObjectiveEvaluator,
    RadarConfig,
    ValidationError,
    build_grid,
    ga_optimize,
    generate_fh_code,
    rgpm_multistart,
)
from mafh.ga import P_CROSS, P_MUT, SIGMA_MUT, _repair
from mafh.model import random_feasible_layout

F1 = (1.0, 0.0, 0.0)   # angular objective only


@pytest.fixture(scope="module")
def small():
    """Same cheap M_t=2 angular-only problem used for the gradient optimizer."""
    cfg = RadarConfig()
    code = generate_fh_code(cfg, 2, seed=0)
    lay = AntennaLayout(d=np.array([0.5]), L=1.2)
    grid = build_grid(cfg, lay)
    poly = FeasiblePolytope.spacing_bounds(2, 1.2)
    return ObjectiveEvaluator(grid, code, cfg), poly


def test_params_defaults():
    p = GaParams()
    assert p.generations == 100
    assert p.population == 16
    assert p.seed == 0


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(generations=0), "generations"),
        (dict(population=1), "population"),
        (dict(generations=2.5), "generations"),
        (dict(population=3.5), "population"),
        (dict(seed=-1), "seed"),
        (dict(seed=2.5), "seed"),
    ],
)
def test_params_validation(kwargs, field):
    with pytest.raises(ValidationError, match=f"^{field}:"):
        GaParams(**kwargs)


def test_params_store_whole_floats_as_int():
    p = GaParams(generations=4.0, population=6.0)
    assert (p.generations, p.population) == (4, 6)
    assert type(p.generations) is int and type(p.population) is int


def test_repair_clamps_and_rescales():
    # below the floor -> lifted; over budget -> excess shrunk, floor kept
    d = _repair(np.array([0.3, 2.0, 1.0]), L=2.4)
    assert np.all(d >= 0.5 - 1e-12)
    assert d.sum() <= 2.4 + 1e-9
    # genes already at the floor stay there
    assert d[0] == pytest.approx(0.5)
    # a feasible vector passes through untouched
    np.testing.assert_array_equal(_repair(np.array([0.6, 0.7]), L=2.0),
                                  [0.6, 0.7])


def test_repair_preserves_ordering_of_excess():
    d = _repair(np.array([1.5, 0.9]), L=1.6)
    assert d.sum() == pytest.approx(1.6)
    # the larger gene keeps the larger share of the remaining slack
    assert d[0] > d[1] >= 0.5


def test_ga_smoke_and_feasibility(small):
    ev, poly = small
    res = ga_optimize(poly, ev, F1,
                      GaParams(generations=5, population=6, seed=3))
    assert poly.contains(res.layout.d)
    assert len(res.best_trace) == 6      # initial + one per generation
    assert res.f_final == pytest.approx(res.best_trace[-1])


def test_ga_trace_monotone(small):
    ev, poly = small
    res = ga_optimize(poly, ev, F1,
                      GaParams(generations=12, population=8, seed=1))
    trace = np.asarray(res.best_trace)
    assert np.all(np.diff(trace) <= 1e-12)   # elitism forbids regressions


def test_ga_deterministic(small):
    ev, poly = small
    p = GaParams(generations=4, population=6, seed=7)
    a = ga_optimize(poly, ev, F1, p)
    b = ga_optimize(poly, ev, F1, p)
    np.testing.assert_array_equal(a.layout.d, b.layout.d)
    assert a.best_trace == b.best_trace

    c = ga_optimize(poly, ev, F1,
                    GaParams(generations=4, population=6, seed=8))
    assert c.best_trace != a.best_trace  # different stream, different path


def test_ga_tiny_run(small):
    ev, poly = small
    res = ga_optimize(poly, ev, F1,
                      GaParams(generations=1, population=2, seed=0))
    assert len(res.best_trace) == 2
    assert np.isfinite(res.f_final)


def test_ga_infeasible_budget(small):
    ev, _ = small
    with pytest.raises(ValidationError, match="^L:"):
        ga_optimize(FeasiblePolytope(n=1, L=0.4), ev, F1)   # budget below the floor


def test_ga_rejects_bad_alpha(small):
    ev, poly = small
    with pytest.raises(ValidationError, match="^alpha:"):
        ga_optimize(poly, ev, (0.5, 0.6, -0.1))


def test_ga_tracks_gradient_optimizer(small):
    # On the unimodal 1-D problem the GA should land near the same spacing
    # multistart projected gradient finds, and not beat it by much.
    ev, poly = small
    ref, _ = rgpm_multistart(poly, ev, F1, seed=0)
    res = ga_optimize(poly, ev, F1,
                      GaParams(generations=30, population=10, seed=0))
    assert res.f_final >= ref.f_final - 1e-6
    assert abs(res.layout.d[0] - ref.layout.d[0]) < 0.05


def test_ga_scores_each_individual_once(small, monkeypatch):
    # one stacked call per generation; the elite re-enters with its fitness known
    ev, poly = small
    rows = []
    f_weighted = ev.f_weighted

    def counted(d, alpha):
        rows.append(np.atleast_2d(d).shape[0])
        return f_weighted(d, alpha)

    monkeypatch.setattr(ev, "f_weighted", counted)
    p = GaParams(generations=5, population=6, seed=3)
    ga_optimize(poly, ev, F1, p)
    assert len(rows) == p.generations + 1
    assert sum(rows) == p.population + p.generations * (p.population - 1)


def test_ga_stacked_scoring_matches_row_by_row(ev8, poly8, monkeypatch):
    p = GaParams(generations=6, population=8, seed=2)
    alpha = (0.2, 0.3, 0.5)
    stacked = ga_optimize(poly8, ev8, alpha, p)
    f_weighted = ev8.f_weighted
    monkeypatch.setattr(ev8, "f_weighted",
                        lambda d, a: np.array([f_weighted(row, a) for row in d]))
    by_row = ga_optimize(poly8, ev8, alpha, p)
    np.testing.assert_array_equal(stacked.layout.d, by_row.layout.d)
    assert stacked.best_trace == by_row.best_trace
    assert stacked.f_final == by_row.f_final


def _reference_ga(poly, ev, alpha, params):
    """The breeding loop as written with size-2 tournament draws and ``uniform``."""
    n, L = poly.n, poly.L
    rng = np.random.default_rng(params.seed)
    pop = np.array([random_feasible_layout(n + 1, L, rng).d
                    for _ in range(params.population)])
    fit = ev.f_weighted(pop, alpha)
    trace = [float(fit.min())]
    for _ in range(params.generations):
        order = np.argsort(fit, kind="stable")
        elite = pop[order[0]].copy()
        elite_fit = float(fit[order[0]])
        children = [elite]
        while len(children) < params.population:
            i, j = rng.integers(0, params.population, size=2)
            p1 = pop[i] if fit[i] <= fit[j] else pop[j]
            i, j = rng.integers(0, params.population, size=2)
            p2 = pop[i] if fit[i] <= fit[j] else pop[j]
            child = p1.copy()
            if rng.uniform() < P_CROSS:
                mix = rng.uniform(size=n)
                child = mix * p1 + (1.0 - mix) * p2
            mutate = rng.uniform(size=n) < P_MUT
            if mutate.any():
                child = child + mutate * rng.normal(0.0, SIGMA_MUT, size=n)
            children.append(_repair(child, L))
        pop = np.asarray(children)
        fit = np.concatenate(([elite_fit], ev.f_weighted(pop[1:], alpha)))
        trace.append(float(fit.min()))
    best = int(np.argmin(fit))
    return GaResult(layout=AntennaLayout(d=pop[best], L=L), best_trace=tuple(trace),
                    f_final=float(fit[best]))


@pytest.fixture(scope="module")
def ev4(cfg):
    lay = AntennaLayout(d=np.full(3, 0.5), L=3.0)
    return (ObjectiveEvaluator(build_grid(cfg, lay), generate_fh_code(cfg, 4, seed=0), cfg),
            FeasiblePolytope.spacing_bounds(4, 3.0))


@pytest.mark.parametrize("M_t", [4, 8])
def test_ga_keeps_the_reference_stream(ev4, ev8, poly8, M_t):
    """Scalar tournament draws and ``random`` give the stream of size-2 draws
    and ``uniform``: a numpy where they differ fails here, not in GA outputs."""
    ev, poly = ev4 if M_t == 4 else (ev8, poly8)
    alpha = (0.2, 0.3, 0.5)
    for seed, population in itertools.product(range(4), (2, 7, 16, 17)):
        p = GaParams(generations=8, population=population, seed=seed)
        got, want = ga_optimize(poly, ev, alpha, p), _reference_ga(poly, ev, alpha, p)
        assert got.layout.d.tobytes() == want.layout.d.tobytes(), (seed, population)
        assert got.best_trace == want.best_trace
        assert repr(got.f_final) == repr(want.f_final)

import numpy as np
import pytest

from mafh import (
    AntennaLayout,
    FeasiblePolytope,
    GaParams,
    ObjectiveEvaluator,
    RadarConfig,
    ValidationError,
    build_grid,
    ga_optimize,
    generate_fh_code,
    rgpm_multistart,
)
from mafh.ga import _repair

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
    assert p.p_cross == 0.9
    assert p.p_mut == 0.2
    assert p.sigma_mut == 0.1
    assert p.seed == 0


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(generations=0), "generations"),
        (dict(population=1), "population"),
        (dict(p_cross=1.5), "p_cross"),
        (dict(p_mut=-0.1), "p_mut"),
        (dict(sigma_mut=0.0), "sigma_mut"),
    ],
)
def test_params_validation(kwargs, field):
    with pytest.raises(ValidationError, match=f"^{field}:"):
        GaParams(**kwargs)


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
    bad = FeasiblePolytope(A=np.vstack([np.eye(1), -np.ones((1, 1))]),
                           b=np.array([0.5, -0.4]))   # budget below the floor
    with pytest.raises(ValidationError, match="^L:"):
        ga_optimize(bad, ev, F1)


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

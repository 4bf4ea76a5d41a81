import dataclasses
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from mafh import (
    AntennaLayout,
    ObjectiveEvaluator,
    RadarConfig,
    ValidationError,
    build_grid,
    generate_fh_code,
    random_feasible_layout,
)
from mafh.ambiguity import kernel_matrix, steering
from mafh.cli import _simplex_weights
from mafh.objective import ObjectiveGrid

ALPHA_CORNERS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


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


def _scaled_grid(g, cfg, k1, k2, k3):
    """Same axes ranges with k-times finer subdivisions."""
    n1, n2, n3 = g.n1 * k1, g.n2 * k2, g.n3 * k3
    th = -np.pi / 2 + np.arange(n1 + 1) * (np.pi / n1)
    v = -cfg.f_max + np.arange(n2 + 1) * (2 * cfg.f_max / n2)
    tau = -cfg.T_w + np.arange(n3 + 1) * (2 * cfg.T_w / n3)
    return ObjectiveGrid(
        n1=n1, n2=n2, n3=n3, theta_samples=th, v_samples=v, tau_samples=tau,
        d_theta=np.pi / n1, d_v=2 * cfg.f_max / n2 * cfg.delta_t,
        d_tau=2 * cfg.T_w / n3 / cfg.delta_t, theta_f23=th, w_theta23=np.pi / n1)


def _pair_energy(x, theta_a, theta_b, G, w, Q):
    """w * sum |chi|^2 over paired angles (theta_a[t], theta_b[t]) and the
    tables G[p], with its position gradient, from every per-sample chi.

    chi[t, p] = a(theta_a)^T G[p] conj(a(theta_b)) / Q.  Moving x_k turns
    a_k by j*2*pi*sin(theta_a) and conj(a_k) by -j*2*pi*sin(theta_b), so
    d|chi|^2/dx_k = 2 Re(conj(chi) dchi/dx_k) with the row-k and column-k
    terms written out below.
    """
    A, Bc = steering(theta_a, x), steering(theta_b, x).conj()
    chi = np.einsum("tm,pmn,tn->tp", A, G, Bc) / Q
    rows = np.einsum("tk,pkn,tn->tpk", A, G, Bc) * np.sin(theta_a)[:, None, None]
    cols = np.einsum("tm,pmk,tk->tpk", A, G, Bc) * np.sin(theta_b)[:, None, None]
    dchi = 2j * np.pi / Q * (rows - cols)
    gx = 2.0 * (chi.conj()[:, :, None] * dchi).real.sum(axis=(0, 1))
    return w * float((np.abs(chi) ** 2).sum()), w * gx


def _reference(ev, code, cfg, d, alpha):
    """f_weighted and its spacing gradient from the per-sample kernel tables."""
    g = ev.grid
    x = np.concatenate(([0.0], np.cumsum(d)))
    ta, tb = (t.ravel() for t in np.meshgrid(g.theta_samples, g.theta_samples,
                                             indexing="ij"))
    parts = [
        _pair_energy(x, ta, tb, kernel_matrix(0.0, 0.0, code, cfg)[None],
                     g.d_theta ** 2, cfg.Q),
        _pair_energy(x, g.theta_f23, g.theta_f23,
                     kernel_matrix(0.0, g.v_samples, code, cfg),
                     g.w_theta23 * g.d_v, cfg.Q),
        _pair_energy(x, g.theta_f23, g.theta_f23,
                     kernel_matrix(g.tau_samples, 0.0, code, cfg),
                     g.w_theta23 * g.d_tau, cfg.Q),
    ]
    f = sum(a * fk for a, (fk, _) in zip(alpha, parts))
    gx = sum(a * gk for a, (_, gk) in zip(alpha, parts))
    return f, np.cumsum(gx[::-1])[::-1][1:]


@pytest.mark.parametrize("theta_eval", [None, np.pi / 3])
@pytest.mark.parametrize("M_t,L", [(8, 7.0), (4, 3.0)])
def test_gram_objectives_match_per_sample_reference(cfg, M_t, L, theta_eval):
    code = generate_fh_code(cfg, M_t, seed=0)
    lay = random_feasible_layout(M_t, L, seed=3)
    ev = ObjectiveEvaluator(build_grid(cfg, lay, theta_eval=theta_eval), code, cfg)
    for alpha in ALPHA_CORNERS + [(1 / 3, 1 / 3, 1 / 3), (0.0, 0.4, 0.6)]:
        f_ref, g_ref = _reference(ev, code, cfg, lay.d, alpha)
        assert abs(ev.f_weighted(lay.d, alpha) - f_ref) <= 1e-12 * f_ref
        g = ev.grad_f_weighted(lay.d, alpha)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


def test_evaluator_keeps_hermitian_grams_not_tables(ev8):
    samples = {ev8.grid.v_samples.size, ev8.grid.tau_samples.size}
    for H in (ev8._h1, ev8._h2, ev8._h3):
        assert H.shape == (64, 64)
        assert_allclose(H, H.conj().T, rtol=0, atol=1e-15 * np.abs(H).max())
    for value in vars(ev8).values():
        assert not samples & set(np.shape(value))
        assert np.shape(value) != (8, 8)    # no zero-shift table either


def test_f1_closed_rule_converges_to_bessel_integral(cfg, code8, ev8):
    """Exact-integral oracle: over theta, sum_t a_t a_t^H dtheta tends to
    U_mp = pi J0(2 pi (x_m - x_p)), so f1 tends to
    sum G_mn conj(G_pq) U_mp conj(U_nq) / Q^2.  The closed rule gives both
    endpoint samples a full cell, so it overshoots by O(dtheta): each
    doubling of n1 about halves the gap.
    """
    G = kernel_matrix(0.0, 0.0, code8, cfg)
    evs = [ObjectiveEvaluator(_scaled_grid(ev8.grid, cfg, k, 1, 1), code8, cfg)
           for k in (1, 2, 4, 8)]
    for seed in range(5):
        lay = random_feasible_layout(8, 7.0, seed=seed)
        U = np.pi * special.j0(2 * np.pi * np.subtract.outer(lay.x, lay.x))
        exact = np.einsum("mn,pq,mp,nq->", G, G.conj(), U, U.conj()).real / cfg.Q ** 2
        gaps = np.array([ev.f_weighted(lay.d, (1, 0, 0)) for ev in evs]) - exact
        print(f"seed {seed}: f1 {gaps[0] + exact:.3f} on the default grid, "
              f"integral {exact:.3f}, gap ratios {np.round(gaps[1:] / gaps[:-1], 3)}")
        assert np.all(gaps > 0)
        assert np.all((gaps[1:] / gaps[:-1] > 0.45) & (gaps[1:] / gaps[:-1] < 0.55))


def test_grid_sizes_default_config(cfg, equid8):
    g = build_grid(cfg, equid8)
    assert (g.n1, g.n2, g.n3) == (35, 240, 192)
    assert g.theta_samples.size == 36
    assert g.v_samples.size == 241
    assert g.tau_samples.size == 193
    assert_allclose(g.d_theta, np.pi / 35)
    # Doppler / delay cell weights are kept in subpulse units so the three
    # objectives stay commensurate under one weight triple
    assert_allclose(g.d_v, 2 * cfg.f_max / 240 * cfg.delta_t)
    assert_allclose(g.d_tau, 2 * cfg.T_w / 192 / cfg.delta_t)


def test_alpha_validation(ev8, equid8):
    # the weights are checked where they enter, on every weighted call
    for alpha in [(0.5, 0.5), (-0.1, 0.6, 0.5), (0.5, 0.4, 0.4),
                  (np.nan, 0.5, 0.5), None]:
        with pytest.raises(ValidationError, match="^alpha:"):
            ev8.f_weighted(equid8.d, alpha)
        with pytest.raises(ValidationError, match="^alpha:"):
            ev8.grad_f_weighted(equid8.d, alpha)
        with pytest.raises(ValidationError, match="^alpha:"):
            finite_diff_grad(ev8, alpha, equid8.d)


def test_grid_theta_eval_mode(cfg, equid8):
    g = build_grid(cfg, equid8, theta_eval=np.pi / 3)
    assert_allclose(g.theta_f23, [np.pi / 3])
    assert g.w_theta23 == pytest.approx(np.pi)
    with pytest.raises(ValidationError, match="^theta_eval:"):
        build_grid(cfg, equid8, theta_eval=2.0)


def test_frozen_objectives_equidistant(ev8, equid8):
    assert_allclose(ev8.f_weighted(equid8.d, (1, 0, 0)), 116.370402, rtol=1e-8)
    assert_allclose(ev8.f_weighted(equid8.d, (0, 1, 0)), 81.348069, rtol=1e-8)
    assert_allclose(ev8.f_weighted(equid8.d, (0, 0, 1)), 49.085063, rtol=1e-8)


def test_matched_diagonal_floor(ev8, equid8):
    # the n1+1 matched samples alone contribute M_t^2 * cell each to f1
    g = ev8.grid
    floor = 64.0 * (g.n1 + 1) * g.d_theta ** 2
    assert ev8.f_weighted(equid8.d, (1, 0, 0)) >= floor


def test_single_antenna_degenerate(cfg):
    """M_t=1: |chi| = 1 everywhere, so f1 is the closed-rule square measure."""
    lay = AntennaLayout(d=np.zeros(0), L=0.0)
    code = generate_fh_code(cfg, 1, seed=0)
    g = build_grid(cfg, lay)
    want = (np.pi * (1 + 1 / g.n1)) ** 2  # (n1+1 samples) x (pi/n1 weight), squared
    ev = ObjectiveEvaluator(g, code, cfg)
    assert_allclose(ev.f_weighted(lay.d, (1, 0, 0)), want, rtol=1e-12)


def test_f2_single_element_reduction():
    """M_t=1, Q=1 collapses f2 to the sampled sinc^2 Doppler energy."""
    cfg = RadarConfig(Q=1, K=8)
    lay = AntennaLayout(d=np.zeros(0), L=0.0)
    code = generate_fh_code(cfg, 1, seed=0)
    g = build_grid(cfg, lay)
    want = (np.sinc(g.v_samples * cfg.delta_t) ** 2).sum() * g.d_v \
        * g.theta_f23.size * g.w_theta23
    ev = ObjectiveEvaluator(g, code, cfg)
    assert_allclose(ev.f_weighted(lay.d, (0, 1, 0)), want, rtol=1e-12)


def test_f3_single_element_reduction():
    cfg = RadarConfig(Q=1, K=8)
    lay = AntennaLayout(d=np.zeros(0), L=0.0)
    code = generate_fh_code(cfg, 1, seed=0)
    g = build_grid(cfg, lay)
    tri = np.clip(1.0 - np.abs(g.tau_samples) / cfg.delta_t, 0.0, None)
    want = (tri ** 2).sum() * g.d_tau * g.theta_f23.size * g.w_theta23
    ev = ObjectiveEvaluator(g, code, cfg)
    assert_allclose(ev.f_weighted(lay.d, (0, 0, 1)), want, rtol=1e-12)


def test_mixed_weights_match_single_domains(ev8):
    # the fused a2*H2 + a3*H3 contraction against the single-domain ones
    d = random_feasible_layout(8, 7.0, seed=5).d
    assert_allclose(ev8.f_weighted(d, (0, .5, .5)),
                    .5 * ev8.f_weighted(d, (0, 1, 0)) + .5 * ev8.f_weighted(d, (0, 0, 1)),
                    rtol=1e-12)
    assert_allclose(ev8.grad_f_weighted(d, (0, .5, .5)),
                    .5 * ev8.grad_f_weighted(d, (0, 1, 0))
                    + .5 * ev8.grad_f_weighted(d, (0, 0, 1)), rtol=1e-12)


def test_weighted_convex_combination(ev8, equid8):
    parts = [ev8.f_weighted(equid8.d, unit) for unit in ALPHA_CORNERS]
    f = ev8.f_weighted(equid8.d, (1 / 3, 1 / 3, 1 / 3))
    assert min(parts) <= f <= max(parts)


@pytest.mark.parametrize("alpha", ALPHA_CORNERS)
def test_gradient_matches_finite_differences(ev8, alpha):
    lay = random_feasible_layout(8, 7.0, seed=5)
    ga = ev8.grad_f_weighted(lay.d, alpha)
    gn = finite_diff_grad(ev8, alpha, lay.d, h=1e-6)
    assert_allclose(ga, gn, rtol=1e-4, atol=1e-8)


def test_gradient_matches_fd_theta_eval_mode(cfg, code8):
    lay = random_feasible_layout(8, 7.0, seed=6)
    g = build_grid(cfg, lay, theta_eval=np.pi / 3)
    ev = ObjectiveEvaluator(g, code8, cfg)
    alpha = (0.2, 0.3, 0.5)
    assert_allclose(ev.grad_f_weighted(lay.d, alpha),
                    finite_diff_grad(ev, alpha, lay.d, h=1e-6),
                    rtol=1e-4, atol=1e-8)


def test_finite_differences_second_order(ev8):
    """Halving h cuts the central-difference error roughly fourfold."""
    lay = random_feasible_layout(8, 7.0, seed=7)
    exact = ev8.grad_f_weighted(lay.d, (1, 0, 0))
    err = [np.max(np.abs(finite_diff_grad(ev8, (1, 0, 0), lay.d, h=h) - exact))
           for h in (4e-3, 2e-3)]
    assert err[1] < err[0] / 2.5


def test_finite_diff_rejects_bad_step(ev8, equid8):
    with pytest.raises(ValidationError, match="^h:"):
        finite_diff_grad(ev8, (1, 0, 0), equid8.d, h=0.0)


def test_gradient_length_excludes_anchor(ev8, equid8):
    # d_{t,0} = 0 is a convention, not a variable: M_t - 1 components only
    assert ev8.grad_f_weighted(equid8.d, (1, 0, 0)).shape == (7,)


@pytest.mark.parametrize("N", [1, 16])
@pytest.mark.parametrize("theta_eval", [None, np.pi / 3], ids=["full", "theta_eval"])
def test_stack_rows_match_single_calls_bit_for_bit(cfg, code8, equid8, ev8,
                                                   theta_eval, N):
    ev = ev8 if theta_eval is None else ObjectiveEvaluator(
        build_grid(cfg, equid8, theta_eval=theta_eval), code8, cfg)
    D = np.array([random_feasible_layout(8, 7.0, seed=s).d for s in range(N)])
    for alpha in _simplex_weights(2) + [(1 / 3, 1 / 3, 1 / 3)]:
        f, g = ev.f_weighted(D, alpha), ev.grad_f_weighted(D, alpha)
        assert f.shape == (N,) and g.shape == (N, 7)
        assert np.array_equal(f, [ev.f_weighted(d, alpha) for d in D])
        assert np.array_equal(g, [ev.grad_f_weighted(d, alpha) for d in D])


def test_one_layout_gives_a_float_and_other_shapes_raise(ev8, equid8):
    assert type(ev8.f_weighted(equid8.d, (1 / 3, 1 / 3, 1 / 3))) is float
    assert type(ev8.f_weighted(list(equid8.d), (1, 0, 0))) is float
    for d in (np.full((2, 3, 7), 0.5), np.full((3, 6), 0.5), np.full(8, 0.5), 0.5):
        for method in (ev8.f_weighted, ev8.grad_f_weighted):
            with pytest.raises(ValidationError, match="^d: expected 7 spacings"):
                method(d, (1, 0, 0))


def test_evaluator_deterministic(ev8, equid8):
    alpha = (0.4, 0.3, 0.3)
    assert ev8.f_weighted(equid8.d, alpha) == ev8.f_weighted(equid8.d, alpha)
    a = ev8.grad_f_weighted(equid8.d, alpha)
    b = ev8.grad_f_weighted(equid8.d, alpha)
    assert np.array_equal(a, b)


def test_refinement_convergence(cfg, code8, equid8, ev8):
    """Finer grids move each objective toward a limit.

    The Doppler/delay integrands are smooth, so doubling stays within 2%;
    the angular square carries an arcsin shear at the visible-region edges
    and its closed-rule sum converges more slowly (about 5% per doubling at
    the minimal n1).
    """
    fine = ObjectiveEvaluator(_scaled_grid(ev8.grid, cfg, 2, 2, 2), code8, cfg)
    for alpha, tol in [((1, 0, 0), 0.06), ((0, 1, 0), 0.02), ((0, 0, 1), 0.02)]:
        f_base = ev8.f_weighted(equid8.d, alpha)
        f_fine = fine.f_weighted(equid8.d, alpha)
        assert abs(f_fine - f_base) / f_base < tol


def test_refinement_is_cauchy(cfg, code8, equid8, ev8):
    # successive doublings shrink the change: the sums are converging
    alpha = (1 / 3, 1 / 3, 1 / 3)
    f1x = ev8.f_weighted(equid8.d, alpha)
    f2x = ObjectiveEvaluator(_scaled_grid(ev8.grid, cfg, 2, 2, 2), code8,
                             cfg).f_weighted(equid8.d, alpha)
    f4x = ObjectiveEvaluator(_scaled_grid(ev8.grid, cfg, 4, 4, 4), code8,
                             cfg).f_weighted(equid8.d, alpha)
    assert abs(f4x - f2x) < abs(f2x - f1x)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("theta_eval", [None, np.pi / 3], ids=["full", "theta_eval"])
def test_gradient_at_the_last_value_point_finishes_that_pass(cfg, code8, equid8, passes,
                                                              theta_eval):
    grid = build_grid(cfg, equid8, theta_eval=theta_eval)
    ev = ObjectiveEvaluator(grid, code8, cfg)
    d = random_feasible_layout(8, 7.0, seed=4).d
    for alpha in _simplex_weights(2):
        ev.f_weighted(d, alpha)
        before = passes[0]
        g = ev.grad_f_weighted(d, alpha)
        assert passes[0] == before          # no second pass at the same point
        fresh = ObjectiveEvaluator(grid, code8, cfg).grad_f_weighted(d, alpha)
        assert _bits(g) == _bits(fresh)


def test_last_point_is_keyed_by_shape(ev8, passes):
    """A (1, M_t - 1) stack and its one row share their bytes but no record."""
    alpha = (1 / 3, 1 / 3, 1 / 3)
    D = random_feasible_layout(8, 7.0, seed=8).d[None, :]
    ev8.f_weighted(D, alpha)
    ev8.grad_f_weighted(D, alpha)            # a stack is not kept
    g_row = ev8.grad_f_weighted(D[0], alpha)
    assert passes[0] == 3
    g_stack = ev8.grad_f_weighted(D, alpha)  # the kept row has another shape
    assert passes[0] == 4 and g_row.shape == (7,) and g_stack.shape == (1, 7)
    assert _bits(g_stack[0]) == _bits(g_row)


def test_last_point_misses_after_an_in_place_change(cfg, code8, ev8):
    alpha = (0.5, 0.0, 0.5)
    d = random_feasible_layout(8, 7.0, seed=9).d.copy()
    ev8.f_weighted(d, alpha)
    d[3] += 0.01
    fresh = ObjectiveEvaluator(ev8.grid, code8, cfg).grad_f_weighted(d, alpha)
    assert _bits(ev8.grad_f_weighted(d, alpha)) == _bits(fresh)


def test_negative_zero_weight_gets_no_shared_gram(cfg, code8, ev8):
    d = random_feasible_layout(8, 7.0, seed=10).d
    grams = []
    for alpha in [(0.5, 0.0, 0.5), (0.5, -0.0, 0.5), (0.0, 0.5, 0.5), (-0.0, 0.5, 0.5)]:
        f, g = ev8.f_weighted(d, alpha), ev8.grad_f_weighted(d, alpha)
        grams.append(ev8._h23.value)
        assert _bits(grams[-1]) == _bits(alpha[1] * ev8._h2 + alpha[2] * ev8._h3)
        fresh = ObjectiveEvaluator(ev8.grid, code8, cfg)
        assert _bits(g, f) == _bits(fresh.grad_f_weighted(d, alpha),
                                    fresh.f_weighted(d, alpha))
    assert len({id(H) for H in grams}) == 4


def test_threads_sharing_an_evaluator_get_their_own_gradients(cfg, code8, equid8):
    """The kept pass is one object written once, so a gradient never finishes
    another thread's pass: each thread's value-then-gradient calls at its own
    point and weights return the single-threaded bits."""
    ev = ObjectiveEvaluator(build_grid(cfg, equid8), code8, cfg)
    jobs = [(random_feasible_layout(8, 7.0, seed=s).d, alpha)
            for s, alpha in enumerate(_simplex_weights(2))]
    want = [_bits(ObjectiveEvaluator(ev.grid, code8, cfg).grad_f_weighted(d, a))
            for d, a in jobs]
    got = [[] for _ in jobs]

    def work(i):
        d, alpha = jobs[i]
        for _ in range(20):
            ev.f_weighted(d, alpha)
            got[i].append(_bits(ev.grad_f_weighted(d, alpha)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 20 for w in want]

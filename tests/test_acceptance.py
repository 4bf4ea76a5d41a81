"""End-to-end acceptance checks.

One test per shipped claim; each prints a single ``[criterion NN] PASS/FAIL``
line (run with ``-s`` to see the lines for passing tests too).  Tolerances are
pinned in the assertions.

Criteria 08 and 11 check the two claims of the paper's abstract in the form
the documented objectives promise them:

- 08, main-lobe width against sidelobe peaks.  With the seed-0 code and
  delta_f*delta_t = 1 the zero-delay, zero-Doppler kernel table is Q*I, so
  f1 tends to pi^2 * sum_{m,n} J0(2*pi*(x_m - x_n))^2 as the angular grid is
  refined.  Its minimizer spreads the elements at near-uniform 0.93-0.96
  lambda spacings without filling the aperture, and its main lobe is
  1.44 b_min wide; a better optimizer moves away from b_min, so no fixed
  factor of b_min is promised.  What is promised is the trade-off: the
  optimized lobe lies between the width-optimal layout (the lower envelope,
  criterion 03) and the fixed half-wavelength array, and its peak sidelobe
  is below that of the width-optimal layout.
- 11, the weights balance the three domains.  For minimizers x_a, x_b of
  a.F and b.F, adding a.F(x_a) <= a.F(x_b) and b.F(x_b) <= b.F(x_a) gives
  (a - b).(F(x_a) - F(x_b)) <= 0: each f_k falls as its own weight rises.
  The sweep asserts that as a negative rank correlation between alpha_k and
  f_k for every k.  Correlations between the domains themselves are not
  fixed by the scalarization and are only reported.
"""

import itertools

import numpy as np
import pytest
from scipy import stats

from mafh import (
    AmbiguityQuery,
    AntennaLayout,
    DetectionParams,
    FeasiblePolytope,
    GaParams,
    ObjectiveEvaluator,
    RadarConfig,
    ValidationError,
    af_slice,
    b_min,
    bound_gap,
    build_grid,
    chi,
    chi_oracle,
    delay_lower_bound,
    detection_probability,
    doppler_lower_bound,
    ga_optimize,
    generate_fh_code,
    measure_lobes,
    mmlwd_layout,
    random_feasible_layout,
    rgpm_multistart,
    rgpm_optimize,
)
from mafh.ambiguity import matched_cut

CORNERS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def corner_runs(poly8, ev8):
    """Multistart optimum on the full grid for each weight corner."""
    return {alpha: rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)[0]
            for alpha in CORNERS}


def test_criterion_01_closed_form_matches_simulation():
    errs = []
    for cfg, M_t, L in [
        (RadarConfig(Q=2, K=4, f_s=512e6), 2, 1.5),
        (RadarConfig(Q=4, K=6, f_s=768e6), 4, 2.5),
    ]:
        code = generate_fh_code(cfg, M_t, seed=0)
        layout = random_feasible_layout(M_t, L, seed=3)
        taus = np.linspace(-0.9 * cfg.T_w, 0.9 * cfg.T_w, 10)
        vs = np.linspace(-cfg.f_max, cfg.f_max, 10)
        angles = (-np.pi / 4, 0.0, np.pi / 3)
        err = 0.0
        for tau, v, th, thp in itertools.product(taus, vs, angles, angles):
            q = AmbiguityQuery(tau=float(tau), v=float(v), theta=th,
                               theta_p=thp)
            err = max(err, abs(chi(q, layout, code, cfg)
                               - chi_oracle(q, layout, code, cfg)))
        errs.append((M_t, err, 1e-4 * M_t))
    ok = all(err <= tol for _, err, tol in errs)
    detail = "; ".join(f"M_t={m}: max |closed-form − simulated| = {e:.3g} "
                       f"(tol {t:.0e})" for m, e, t in errs)
    _report(1, ok, detail)


def test_criterion_02_width_formula_matches_measurement(cfg):
    step = np.pi / 6000
    tol = max(1e-3, 2 * step)
    bad = []
    infeasible_agreed = 0
    for M_t in (4, 6, 8):
        code = generate_fh_code(cfg, M_t, seed=0)
        for L in (5.0, 7.0, 9.0):
            for theta in (0.0, np.pi / 6, np.pi / 3):
                try:
                    predicted = b_min(M_t, L, theta)
                except ValidationError:
                    # formula says no full lobe fits: the measurement must
                    # fail on the same geometry
                    s = af_slice("angular", mmlwd_layout(M_t, L), code, cfg,
                                 theta=theta, n_points=6001)
                    try:
                        measure_lobes(s)
                        bad.append((M_t, L, theta, "lobe measured where "
                                                   "formula is infeasible"))
                    except ValidationError:
                        infeasible_agreed += 1
                    continue
                s = af_slice("angular", mmlwd_layout(M_t, L), code, cfg,
                             theta=theta, n_points=6001)
                width = measure_lobes(s).width
                if abs(width - predicted) > tol:
                    bad.append((M_t, L, theta, width, predicted))
    ok = not bad
    _report(2, ok, f"26 feasible (M_t, L, theta) combos within {tol:.2e} rad; "
                   f"{infeasible_agreed} infeasible combo flagged by both "
                   f"formula and measurement"
            if ok else f"mismatches: {bad}")


def test_criterion_03_width_optimal_layout_is_lower_envelope(cfg, code8):
    mold = mmlwd_layout(8, 9.0)
    offsets = np.linspace(-0.5 * b_min(8, 9.0, 0.0),
                          0.5 * b_min(8, 9.0, 0.0), 41)
    ref = matched_cut("angular", offsets, mold, code8, cfg, 0.0)
    worst = np.inf
    for i in range(100):
        lay = random_feasible_layout(8, 9.0, seed=i)
        vals = matched_cut("angular", offsets, lay, code8, cfg, 0.0)
        worst = min(worst, float((vals - ref).min()))
    ok = worst >= -1e-9
    _report(3, ok, f"min margin over 100 random layouts x 41 in-lobe "
                   f"offsets = {worst:.3g} (needs >= -1e-9)")


def test_criterion_04_sidelobe_lower_bounds_hold(cfg, code8):
    code4 = generate_fh_code(cfg, 4, seed=0)
    spacings = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)   # half- to 1.5-wavelength
    panels = [
        (code8, 8, [random_feasible_layout(8, 20.0, seed=i)
                    for i in range(200)]),
        (code4, 4, [AntennaLayout(d=np.array(c), L=float(sum(c)))
                    for c in itertools.product(spacings, repeat=3)]),
    ]
    theta = np.pi / 3
    violations = 0
    min_gap = np.inf
    checked = 0
    for code, M_t, layouts in panels:
        for axis, bound_fn in (("doppler", doppler_lower_bound),
                               ("delay", delay_lower_bound)):
            bound = None
            for lay in layouts:
                s = af_slice(axis, lay, code, cfg, theta=theta, n_points=481)
                if bound is None:   # the bound is layout independent
                    bound = bound_fn(s.coords, code, cfg, M_t)
                g = bound_gap(s, bound)
                violations += g.violation_count
                min_gap = min(min_gap, g.min_gap)
                checked += 1
    ok = violations == 0
    _report(4, ok, f"{checked} layout/axis slices (481 points each, "
                   f"theta=pi/3): {violations} bound violations, "
                   f"min gap {min_gap:.3g}")


def test_criterion_05_analytic_gradient_matches_differences(ev8):
    h = 1e-6
    worst = 0.0
    for alpha in CORNERS:
        for i in range(20):
            d = random_feasible_layout(8, 7.0, seed=100 + i).d
            g = ev8.grad_f_weighted(d, alpha)
            fd = np.empty_like(g)
            for j in range(d.size):
                e = np.zeros_like(d)
                e[j] = h
                fd[j] = (ev8.f_weighted(d + e, alpha)
                         - ev8.f_weighted(d - e, alpha)) / (2 * h)
            rel = float(np.max(np.abs(g - fd) / np.abs(fd)))
            worst = max(worst, rel)
    ok = worst <= 1e-4
    _report(5, ok, f"max componentwise relative gradient error over 3 "
                   f"corners x 20 random layouts = {worst:.3g} (tol 1e-4)")


def test_criterion_06_descent_is_monotone_and_certified(cfg, code8, poly8,
                                                        equid8):
    grid = build_grid(cfg, equid8, theta_eval=np.pi / 3)
    start = random_feasible_layout(8, 7.0, seed=1)
    res = rgpm_optimize(start, poly8, ObjectiveEvaluator(grid, code8, cfg),
                        (0.0, 0.0, 1.0), K_max=150, T_threshold=1e-2)
    fs = np.array([r.f for r in res.trace])
    monotone = bool(np.all(np.diff(fs) <= 1e-12))
    # objective at iteration 60 versus at termination (a converged run holds
    # its final value through the iteration cap)
    f60 = fs[min(60, fs.size - 1)]
    plateau = abs(res.f_final - f60) <= 0.01 * (fs[0] - res.f_final)
    ok = (res.converged and not res.stalled and monotone and plateau
          and poly8.contains(res.layout.d)
          and res.certificate["reason"] in ("interior-gradient",
                                            "kkt-multipliers"))
    _report(6, ok, f"f {fs[0]:.6f} -> {res.f_final:.6f} in "
                   f"{res.trace[-1].k} iterations, monotone={monotone}, "
                   f"|f_end − f_60| = {abs(res.f_final - f60):.2e} "
                   f"(≤ 1% of the drop), "
                   f"certificate={res.certificate['reason']}")


def test_criterion_07_optimizer_beats_baselines(poly8, equid8, ev8,
                                                corner_runs):
    lines = []
    ok = True
    for alpha in CORNERS:
        best = corner_runs[alpha]
        f_eq = ev8.f_weighted(equid8.d, alpha)
        ga = ga_optimize(poly8, ev8, alpha, GaParams(seed=0))
        good = (best.f_final <= 1.05 * ga.f_final
                and best.f_final < f_eq and ga.f_final < f_eq)
        ok = ok and good
        lines.append(f"alpha={alpha}: rgpm {best.f_final:.4f}, "
                     f"ga {ga.f_final:.4f}, equidistant {f_eq:.4f}")
    _report(7, ok, "; ".join(lines))


def test_criterion_08_optimized_width_and_sidelobes(cfg, code8, equid8,
                                                    corner_runs):
    def lobes(layout):
        return measure_lobes(af_slice("angular", layout, code8, cfg,
                                      n_points=6001))

    r = lobes(corner_runs[(1.0, 0.0, 0.0)].layout)
    r_ref = lobes(mmlwd_layout(8, 7.0))
    r_eq = lobes(equid8)
    b = b_min(8, 7.0, 0.0)
    width_ok = r_ref.width < r.width < r_eq.width
    psl_ok = r.psl_db < r_ref.psl_db
    _report(8, width_ok and psl_ok,
            f"width {r.width:.5f} rad = {r.width / b:.3f} b_min, needs "
            f"width-optimal {r_ref.width:.5f} < it < half-wavelength "
            f"{r_eq.width:.5f} ({'ok' if width_ok else 'outside'}); "
            f"PSL {r.psl_db:.2f} dB vs width-optimal layout "
            f"{r_ref.psl_db:.2f} dB ({'ok' if psl_ok else 'not better'})")


def test_criterion_09_budget_sweep_reaches_plateau(cfg, code8):
    budgets = np.arange(4.0, 12.5, 1.0)
    domains = {(0.0, 1.0, 0.0): "doppler-energy", (0.0, 0.0, 1.0): "delay-energy"}
    prev, energy = {}, {alpha: [] for alpha in domains}
    for L in budgets:
        poly = FeasiblePolytope.spacing_bounds(8, float(L))
        ref = AntennaLayout(d=np.full(7, 0.5), L=float(L))
        ev = ObjectiveEvaluator(build_grid(cfg, ref, theta_eval=np.pi / 3),
                                code8, cfg)
        full = ObjectiveEvaluator(build_grid(cfg, ref), code8, cfg)
        for alpha, name in domains.items():
            if alpha not in prev:
                best, _ = rgpm_multistart(poly, ev, alpha, n_starts=2, seed=0)
            else:    # warm start: the smaller-budget optimum stays feasible
                best = rgpm_optimize(AntennaLayout(d=prev[alpha], L=float(L)),
                                     poly, ev, alpha)
            prev[alpha] = best.layout.d
            energy[alpha].append(full.f_weighted(best.layout.d, alpha))   # unit weight
    summary = []
    ok = True
    for alpha, name in domains.items():
        vals = np.array(energy[alpha])
        rel = np.abs(np.diff(vals)) / vals[:-1]
        plateau = next((budgets[i] for i in range(rel.size)
                        if np.all(rel[i:] <= 0.02)), None)
        good = (plateau is not None and plateau < budgets[-1]
                and vals[-1] < vals[0])
        ok = ok and good
        summary.append(f"{name}: {vals[0]:.2f} @L=4 -> {vals[-1]:.2f} @L=12, "
                       f"steps <= 2% from L={plateau}")
    _report(9, ok, "; ".join(summary))


def test_criterion_10_detection_curves(cfg, code8, equid8, corner_runs):
    det = DetectionParams()   # P_fa 1e-4, 1e6 trials, -20..0 dB
    opt = corner_runs[(1.0, 0.0, 0.0)].layout
    c_eq = detection_probability(equid8, code8, cfg, det, seed=0)
    c_opt = detection_probability(opt, code8, cfg, det, seed=0)

    half_fa = 1.96 * np.sqrt(det.P_fa * (1.0 - det.P_fa) / det.trials)
    pfa_ok = abs(c_eq.pfa_measured - det.P_fa) <= half_fa
    width = np.array(c_eq.ci_high) - np.array(c_eq.ci_low)
    mono_ok = bool(np.all(np.diff(c_eq.p_d) >= -width[:-1]))
    range_ok = c_eq.p_d[0] < 0.5 and c_eq.p_d[-1] > 0.99
    # the matched-filter peak is layout independent; with common random
    # numbers the optimized layout must not fall below the baseline
    dom_ok = all(po >= pe - w for po, pe, w in zip(c_opt.p_d, c_eq.p_d, width))
    ok = pfa_ok and mono_ok and range_ok and dom_ok
    _report(10, ok, f"measured P_fa {c_eq.pfa_measured:.2e} within "
                    f"{det.P_fa:.0e} ± {half_fa:.1e}: {pfa_ok}; "
                    f"monotone within CI: {mono_ok}; "
                    f"p_d spans {c_eq.p_d[0]:.4f} -> {c_eq.p_d[-1]:.4f}; "
                    f"optimized >= baseline − CI: {dom_ok}")


def test_criterion_11_weight_sweep_correlations(poly8, ev8):
    # Scalarization promises (a - b).(F(x_a) - F(x_b)) <= 0 for minimizers,
    # i.e. each f_k falls as its own weight alpha_k rises; the multistart
    # finds local minima, so this is checked as a rank correlation.  The
    # cross-domain correlations are not fixed by it and are only reported.
    triples = [(i / 5, j / 5, (5 - i - j) / 5)
               for i in range(6) for j in range(6 - i)]
    f1s, f2s, f3s = [], [], []
    for alpha in triples:
        best, _ = rgpm_multistart(poly8, ev8, alpha, n_starts=4, seed=0)
        d = best.layout.d
        f1s.append(ev8.f_weighted(d, (1, 0, 0)))
        f2s.append(ev8.f_weighted(d, (0, 1, 0)))
        f3s.append(ev8.f_weighted(d, (0, 0, 1)))
    own = [float(stats.spearmanr([a[k] for a in triples], fs).statistic)
           for k, fs in enumerate((f1s, f2s, f3s))]
    r13 = float(stats.spearmanr(f1s, f3s).statistic)
    r12 = float(stats.spearmanr(f1s, f2s).statistic)
    r23 = float(stats.spearmanr(f2s, f3s).statistic)
    ok = all(r < 0 for r in own)
    _report(11, ok, f"spearman over 21 weight triples: own weight "
                    f"alpha_k–f_k {own[0]:+.3f} / {own[1]:+.3f} / "
                    f"{own[2]:+.3f} (need <0 each); cross-domain f1–f3 "
                    f"{r13:+.3f}, f1–f2 {r12:+.3f}, f2–f3 {r23:+.3f}")

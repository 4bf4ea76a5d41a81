import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mafh import (
    AmbiguityQuery,
    AntennaLayout,
    RadarConfig,
    ValidationError,
    af_slice,
    chi,
    chi_mag_sq,
    chi_oracle,
    chi_r,
    delay_lower_bound,
    doppler_lower_bound,
    equidistant_layout,
    generate_fh_code,
    mmlwd_layout,
    random_feasible_layout,
)
from mafh import ambiguity
from mafh.ambiguity import kernel_matrix, matched_cut


def _subpulse_oracle(tau, v, delta_t, n=40001):
    """Trapezoid integral of the defining overlap correlation for one subpulse.

    chi_r correlates a unit-height rectangle on [0, delta_t] against its
    (tau, v)-shifted copy, normalized by delta_t.
    """
    lo, hi = max(0.0, -tau), min(delta_t, delta_t - tau)
    if hi <= lo:
        return 0j
    t = np.linspace(lo, hi, n)
    return np.trapezoid(np.exp(2j * np.pi * v * t), t) / delta_t


def test_chi_r_matched_and_support():
    dt = 1e-6
    assert chi_r(0.0, 0.0, dt) == pytest.approx(1.0)
    assert chi_r(dt, 0.0, dt) == 0.0
    assert chi_r(-1.5 * dt, 0.3e6, dt) == 0.0


@pytest.mark.parametrize("tau_frac,v_dt", [
    (0.3, 0.4), (-0.25, 1.3), (0.0, 2.0), (0.9, -0.7), (-0.6, 0.0),
])
def test_chi_r_matches_direct_integration(tau_frac, v_dt):
    dt = 1e-6
    tau, v = tau_frac * dt, v_dt / dt
    assert_allclose(chi_r(tau, v, dt), _subpulse_oracle(tau, v, dt),
                    rtol=0, atol=1e-8)


def test_matched_peak_is_element_count(cfg, code8):
    lay = random_feasible_layout(8, 7.0, seed=11)
    val = chi(AmbiguityQuery(theta=0.7, theta_p=0.7), lay, code8, cfg)
    assert_allclose(val, 8.0 + 0.0j, rtol=0, atol=1e-12)


def test_chi_zero_outside_delay_support(cfg, code8, equid8):
    q = AmbiguityQuery(tau=cfg.Q * cfg.delta_t, v=1e5, theta=0.1, theta_p=-0.2)
    assert chi(q, equid8, code8, cfg) == 0j
    assert chi_oracle(q, equid8, code8, cfg) == 0j


def test_angular_cut_equidistant_closed_form(cfg, code8, equid8):
    """At tau=v=0 and orthogonal hops the cut is the bare array factor.

    For half-wavelength spacings that is the Dirichlet kernel
    |sin(M*pi*s/2) / sin(pi*s/2)| with s = sin(theta_p).
    """
    theta_p = np.linspace(-1.4, 1.4, 23)
    got = matched_cut("angular", theta_p, equid8, code8, cfg, 0.0)
    s = np.sin(theta_p)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = np.abs(np.sin(8 * np.pi * s / 2) / np.sin(np.pi * s / 2))
    want = np.where(np.isclose(s, 0.0), 8.0, want)
    assert_allclose(got, want, rtol=0, atol=1e-10)


def test_chi_mag_sq_consistency(cfg, code8):
    lay = random_feasible_layout(8, 7.0, seed=5)
    q = AmbiguityQuery(tau=0.4e-6, v=2.3e5, theta=0.2, theta_p=-0.4)
    assert_allclose(chi_mag_sq(q, lay, code8, cfg),
                    abs(chi(q, lay, code8, cfg)) ** 2, rtol=1e-12, atol=1e-12)


def test_chi_oracle_agreement_default_rate(cfg, code8):
    # strict agreement on dense grids lives in the acceptance tests; here a
    # handful of points at the default sampling rate
    lay = random_feasible_layout(8, 7.0, seed=9)
    for q in [AmbiguityQuery(tau=0.7e-6, v=1.5e5, theta=0.3, theta_p=0.1),
              AmbiguityQuery(tau=-2.2e-6, v=-4e5, theta=-0.9, theta_p=0.6),
              AmbiguityQuery(tau=0.0, v=7.7e5, theta=1.0, theta_p=1.0)]:
        assert_allclose(chi(q, lay, code8, cfg), chi_oracle(q, lay, code8, cfg),
                        rtol=0, atol=5e-3)


def test_chi_oracle_error_is_second_order():
    """Doubling f_s shrinks the closed-form/oracle gap about fourfold."""
    cfg_lo = RadarConfig(Q=2, K=4, f_s=6.4e7)
    cfg_hi = dataclasses.replace(cfg_lo, f_s=1.28e8)
    code = generate_fh_code(cfg_lo, 2, seed=0)
    lay = AntennaLayout(d=np.array([0.8]), L=1.0)
    q = AmbiguityQuery(tau=0.37e-6, v=3.1e5, theta=0.4, theta_p=-0.2)
    err_lo = abs(chi(q, lay, code, cfg_lo) - chi_oracle(q, lay, code, cfg_lo))
    err_hi = abs(chi(q, lay, code, cfg_hi) - chi_oracle(q, lay, code, cfg_hi))
    assert err_hi < err_lo / 3.0


@settings(max_examples=20, deadline=None)
@given(
    tau=st.floats(min_value=-5e-6, max_value=5e-6),
    v=st.floats(min_value=-1e6, max_value=1e6),
    th=st.floats(min_value=-1.2, max_value=1.2),
    thp=st.floats(min_value=-1.2, max_value=1.2),
)
def test_chi_swap_symmetry(tau, v, th, thp):
    """|chi(-tau, -v, theta_p, theta)| equals |chi(tau, v, theta, theta_p)|."""
    cfg = RadarConfig()
    code = generate_fh_code(cfg, 4, seed=1)
    lay = random_feasible_layout(4, 6.0, seed=1)
    a = abs(chi(AmbiguityQuery(tau=tau, v=v, theta=th, theta_p=thp), lay, code, cfg))
    b = abs(chi(AmbiguityQuery(tau=-tau, v=-v, theta=thp, theta_p=th), lay, code, cfg))
    assert a == pytest.approx(b, abs=1e-10)


def test_query_rejects_out_of_range_angle():
    with pytest.raises(ValidationError, match="theta_p"):
        AmbiguityQuery(theta_p=2.0)


@pytest.mark.parametrize("call", [
    lambda lay, code, cfg: chi(AmbiguityQuery(), lay, code, cfg),
    lambda lay, code, cfg: chi_mag_sq(AmbiguityQuery(), lay, code, cfg),
    lambda lay, code, cfg: chi_oracle(AmbiguityQuery(), lay, code, cfg),
    lambda lay, code, cfg: kernel_matrix(0.0, 0.0, code, cfg),
    lambda lay, code, cfg: matched_cut("angular", [0.0], lay, code, cfg, 0.0),
    lambda lay, code, cfg: af_slice("angular", lay, code, cfg),
], ids=["chi", "chi_mag_sq", "chi_oracle", "kernel_matrix", "matched_cut",
        "af_slice"])
def test_code_columns_must_match_config(cfg, call):
    # normalized by cfg.Q = 6, a 4-column code would peak at 8 * 4/6
    code = generate_fh_code(RadarConfig(Q=4), 8, seed=0)
    with pytest.raises(ValidationError, match="^c:"):
        call(equidistant_layout(8), code, cfg)


def test_af_slice_defaults_and_peak(cfg, code8, equid8):
    s = af_slice("doppler", equid8, code8, cfg, theta=0.3)
    assert s.coords[0] == -cfg.f_max and s.coords[-1] == cfg.f_max
    assert s.values.max() == pytest.approx(8.0, abs=1e-9)
    # the matched coordinate is inserted even when the base grid misses it
    s2 = af_slice("doppler", equid8, code8, cfg, n_points=500)
    assert np.any(s2.coords == 0.0)
    assert s2.coords.size == 501


def test_af_slice_inserts_matched_coordinate_near_grid_point(cfg, code8):
    # a grid point 4e-6 rad from theta lies within a relative 1e-5 of it but
    # is not theta, so theta must still be inserted and the peak read exactly
    th = 0.5
    s = af_slice("angular", mmlwd_layout(8, 7.0), code8, cfg, theta=th,
                 lo=th + 4e-6 - 0.1, hi=th + 4e-6 + 0.1, n_points=101)
    assert np.any(s.coords == th)
    assert s.values.max() == pytest.approx(8.0, rel=0, abs=1e-12)


def test_af_slice_matches_pointwise_chi(cfg, code8):
    lay = random_feasible_layout(8, 7.0, seed=4)
    th = np.pi / 3
    for axis in ("angular", "doppler", "delay"):
        s = af_slice(axis, lay, code8, cfg, theta=th, n_points=41)
        for i in (0, 7, 20, 33):
            c = float(s.coords[i])
            q = AmbiguityQuery(tau=c if axis == "delay" else 0.0,
                               v=c if axis == "doppler" else 0.0,
                               theta=th, theta_p=c if axis == "angular" else th)
            assert_allclose(s.values[i], abs(chi(q, lay, code8, cfg)),
                            rtol=0, atol=1e-12, err_msg=axis)


@pytest.mark.parametrize("axis", ["angular", "doppler", "delay"])
def test_matched_cut_stacks_layouts_bit_for_bit(monkeypatch, cfg, code8, axis):
    """A sequence of layouts shares one kernel table; each row is its single cut."""
    layouts = [random_feasible_layout(8, 20.0, seed=i) for i in range(4)]
    layouts.append(mmlwd_layout(8, 7.0))
    s = af_slice(axis, layouts[0], code8, cfg, theta=np.pi / 3, n_points=121)
    singles = [matched_cut(axis, s.coords, lay, code8, cfg, np.pi / 3) for lay in layouts]
    tables = []
    monkeypatch.setattr(ambiguity, "kernel_matrix",
                        lambda *a: tables.append(a) or kernel_matrix(*a))
    cuts = matched_cut(axis, s.coords, layouts, code8, cfg, np.pi / 3)
    assert len(tables) == 1
    assert cuts.shape == (len(layouts), s.coords.size)
    assert cuts[0].tobytes() == s.values.tobytes()
    for row, single in zip(cuts, singles):
        assert row.tobytes() == single.tobytes()


def test_af_slice_angular_range(cfg, code8, equid8):
    s = af_slice("angular", equid8, code8, cfg, theta=0.0, n_points=101)
    assert s.coords[0] == -np.pi / 2 and s.coords[-1] == np.pi / 2
    assert s.axis == "angular"


def test_af_slice_validation(cfg, code8, equid8):
    with pytest.raises(ValidationError, match="^axis:"):
        af_slice("range", equid8, code8, cfg)
    with pytest.raises(ValidationError, match="^axis:"):
        matched_cut("angualr", [0.0], equid8, code8, cfg, 0.0)
    with pytest.raises(ValidationError, match="^theta:"):
        af_slice("doppler", equid8, code8, cfg, theta=3.0)
    with pytest.raises(ValidationError, match="^n_points:"):
        af_slice("doppler", equid8, code8, cfg, n_points=1)
    with pytest.raises(ValidationError, match="^range:"):
        af_slice("doppler", equid8, code8, cfg, lo=1.0, hi=-1.0)
    with pytest.raises(ValidationError, match="^M_t:"):
        af_slice("doppler", AntennaLayout(d=np.array([0.5]), L=1.0), code8, cfg)


def _configs():
    cfg = RadarConfig()
    frac = RadarConfig(delta_f=0.75e6)  # delta_f*delta_t = 0.75
    for c in (cfg, frac):
        for M_t in (8, 4):
            yield c, generate_fh_code(c, M_t, seed=0)


def _dense_terms(tau, v, code, cfg):
    """All Q^2 subpulse-pair terms, shape (..., M_t, M_t, Q, Q), zeros included."""
    tau = np.asarray(tau, dtype=float)[..., None, None, None, None]
    v = np.asarray(v, dtype=float)[..., None, None, None, None]
    c = code.c.astype(float)
    qs = np.arange(code.Q, dtype=float)
    dt, df = cfg.delta_t, cfg.delta_f
    cm, cmp_ = c[:, None, :, None], c[None, :, None, :]
    kern = chi_r(tau - (qs[None, :] - qs[:, None]) * dt,
                 v - (cmp_ - cm) * df, dt)
    phase = (2.0 * np.pi * ((cm - cmp_) * df + v) * qs[:, None] * dt
             - 2.0 * np.pi * df * cmp_ * tau)
    return kern * np.exp(1j * phase)


def test_overlap_edges_match_table_free_reference():
    """|chi|^2 through the kernel table equals chi_mag_sq where pairs start
    or stop overlapping, the table vanishes outside the delay support, and
    both bounds stay below |chi| there."""
    for cfg, code in _configs():
        M_t, dt = code.M_t, cfg.delta_t
        lay = random_feasible_layout(M_t, 7.0, seed=1)
        th = np.pi / 3
        edges = np.array([s * dt + e for s in range(1 - cfg.Q, cfg.Q)
                          for e in (-dt, 0.0, dt)])
        taus = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        vs = np.array([0.0, np.nextafter(0.0, 1.0), 0.3 / dt, -2.7 / dt])
        for v in vs:
            mags = []
            for tau in taus:
                q = AmbiguityQuery(tau=tau, v=v, theta=th, theta_p=th)
                mag_sq = chi_mag_sq(q, lay, code, cfg)
                assert abs(abs(chi(q, lay, code, cfg)) ** 2 - mag_sq) \
                    <= 1e-9 * M_t ** 2, (M_t, cfg.hop_product, tau, v)
                mags.append(np.sqrt(mag_sq))
            if v == 0.0:
                bound = delay_lower_bound(taus, code, cfg, M_t).lower
                assert np.all(bound <= np.array(mags) + 1e-12)
        at_zero = [abs(chi(AmbiguityQuery(v=v, theta=th, theta_p=th),
                           lay, code, cfg)) for v in vs]
        assert np.all(doppler_lower_bound(vs, code, cfg, M_t).lower
                      <= np.array(at_zero) + 1e-12)

        edge = cfg.Q * dt
        outside = np.array([edge, np.nextafter(edge, np.inf), 1.5 * edge])
        outside = np.concatenate([outside, -outside])
        G = kernel_matrix(outside[:, None], vs, code, cfg)
        assert np.all(G == 0.0), (M_t, cfg.hop_product)


def test_kernel_matrix_broadcast_shapes(cfg, code8):
    dt = cfg.delta_t
    assert kernel_matrix(0.0, 0.0, code8, cfg).shape == (8, 8)
    taus = np.array([0.0, 0.4 * dt, -1.7 * dt, 2.0 * dt, 5.5 * dt])[:, None]
    vs = np.array([0.0, 0.25 / dt, -3.1 / dt])
    G = kernel_matrix(taus, vs, code8, cfg)
    assert G.shape == (5, 3, 8, 8)
    for i in range(5):
        for k in range(3):
            assert_allclose(G[i, k], kernel_matrix(taus[i, 0], vs[k], code8, cfg),
                            rtol=0, atol=1e-14)


def test_cuts_and_bounds_match_dense_all_pairs_reference():
    for cfg, code in _configs():
        M_t = code.M_t
        lay = random_feasible_layout(M_t, 7.0, seed=2)
        a = np.exp(2j * np.pi * lay.x * np.sin(0.4))
        eye = np.eye(M_t, dtype=bool)
        v = np.linspace(-cfg.f_max, cfg.f_max, 481)
        tau = np.linspace(-cfg.T_w, cfg.T_w, 481)
        for axis, t_arg, v_arg, bound in (
                ("doppler", 0.0, v, doppler_lower_bound(v, code, cfg, M_t)),
                ("delay", tau, 0.0, delay_lower_bound(tau, code, cfg, M_t))):
            T = _dense_terms(np.broadcast_to(t_arg, (481,)),
                             np.broadcast_to(v_arg, (481,)), code, cfg)
            G = T.sum(axis=(-2, -1))
            cut = np.abs(np.einsum("...mn,m,n->...", G, a, a.conj())) / cfg.Q
            diag = np.abs(T[:, eye].sum(axis=(-3, -2, -1)))
            cross = np.abs(T[:, ~eye]).sum(axis=(-3, -2, -1))
            floor = np.maximum(0.0, diag - cross) / cfg.Q
            msg = f"{axis}, M_t={M_t}, hop product {cfg.hop_product}"
            assert_allclose(kernel_matrix(t_arg, v_arg, code, cfg), G,
                            rtol=0, atol=1e-12, err_msg=msg)
            assert_allclose(matched_cut(axis, bound.coords, lay, code, cfg, 0.4),
                            cut, rtol=0, atol=1e-12, err_msg=msg)
            assert_allclose(bound.lower, floor, rtol=0, atol=1e-12, err_msg=msg)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mafh import (
    AmbiguityQuery,
    ValidationError,
    af_slice,
    b_min,
    chi,
    delay_lower_bound,
    doppler_lower_bound,
    generate_fh_code,
    measure_lobes,
    mmlwd_layout,
    random_feasible_layout,
)
from mafh.ambiguity import matched_cut


def test_mmlwd_layout_structure():
    lay = mmlwd_layout(8, 7.0)
    # two half-wavelength groups at the aperture ends, one wide central gap
    assert_allclose(lay.d, [0.5, 0.5, 0.5, 4.0, 0.5, 0.5, 0.5])
    assert_allclose(lay.d.sum(), 7.0)
    # odd element count puts the gap after element ceil(M_t/2)
    lay5 = mmlwd_layout(5, 6.0)
    assert_allclose(lay5.d, [0.5, 0.5, 4.5, 0.5])


def test_mmlwd_layout_uses_whole_budget():
    for m, L in [(4, 5.0), (6, 9.0), (8, 12.0)]:
        assert_allclose(mmlwd_layout(m, L).d.sum(), L)


def test_mmlwd_layout_rejects_tight_budget():
    with pytest.raises(ValidationError, match="^L:"):
        mmlwd_layout(8, 3.0)


def test_b_min_frozen_values():
    # u = 2/(4L - M_t + 2); at broadside the width is 2*arcsin(u)
    assert_allclose(b_min(8, 7.0, 0.0), 2 * math.asin(1 / 11), rtol=1e-15)
    assert_allclose(b_min(8, 7.0, 0.0), 0.18206955607483016, rtol=1e-15)
    assert_allclose(b_min(8, 9.0, 0.0), 0.13343229682045052, rtol=1e-15)


def test_b_min_off_broadside():
    u = 2.0 / (4 * 9.0 - 8 + 2)
    s = math.sin(math.pi / 6)
    want = math.asin(s + u) - math.asin(s - u)
    assert_allclose(b_min(8, 9.0, math.pi / 6), want, rtol=1e-15)


def test_b_min_narrows_with_aperture():
    widths = [b_min(8, L, 0.0) for L in (5.0, 7.0, 9.0, 12.0)]
    assert np.all(np.diff(widths) < 0)


def test_b_min_visible_region_error():
    # sin(pi/3) + 2/(4*5 - 8 + 2) > 1: the upper null leaves visible space
    with pytest.raises(ValidationError, match="visible region"):
        b_min(8, 5.0, math.pi / 3)


def test_b_min_rejects_degenerate_aperture():
    with pytest.raises(ValidationError, match="^L:"):
        b_min(8, 1.0, 0.0)


@pytest.mark.parametrize("M_t,L", [(8, 2.0), (8, 3.4), (4, 1.2)])
def test_b_min_rejects_apertures_the_array_cannot_fit(M_t, L):
    # 4L - M_t + 2 > 0, so the formula has a value, but M_t elements at
    # lambda/2 spacings need L >= (M_t - 1)/2
    with pytest.raises(ValidationError, match="^L: aperture .* cannot fit"):
        b_min(M_t, L, 0.0)


@pytest.mark.parametrize("theta", [2.5, -2.5, math.pi / 2 + 1e-9, math.nan])
def test_b_min_rejects_angles_past_endfire(theta):
    # sin(pi - theta) = sin(theta): without the check 2.5 rad returns the
    # width at pi - 2.5
    with pytest.raises(ValidationError, match="^theta: expected"):
        b_min(8, 7.0, theta)


def test_mmlwd_width_matches_formula(cfg):
    """Numeric null-to-null width of the optimal layout hits the closed form."""
    code = generate_fh_code(cfg, 8, seed=0)
    lay = mmlwd_layout(8, 7.0)
    s = af_slice("angular", lay, code, cfg, theta=0.0, n_points=6001)
    width = measure_lobes(s).width
    step = s.coords[1] - s.coords[0]
    assert abs(width - b_min(8, 7.0, 0.0)) <= 2 * step


def test_null_at_half_width_broadside(cfg, code8):
    """At theta=0 the first nulls sit exactly at +/- b_min/2."""
    lay = mmlwd_layout(8, 7.0)
    half = b_min(8, 7.0, 0.0) / 2
    vals = matched_cut("angular", [half, -half], lay, code8, cfg, 0.0)
    assert np.all(vals < 1e-6 * 8)


def test_null_positions_off_broadside(cfg, code8):
    """Off broadside the nulls are symmetric in sin-space, not angle-space."""
    lay = mmlwd_layout(8, 7.0)
    th = math.pi / 6
    u = 2.0 / (4 * 7.0 - 8 + 2)
    nulls = [math.asin(math.sin(th) - u), math.asin(math.sin(th) + u)]
    assert np.all(matched_cut("angular", nulls, lay, code8, cfg, th) < 1e-6 * 8)


def test_doppler_bound_matched_point(cfg, code8):
    b = doppler_lower_bound(np.array([0.0]), code8, cfg, 8)
    assert_allclose(b.lower, [8.0], rtol=0, atol=1e-12)


def test_doppler_bound_zero_at_subpulse_line(cfg, code8):
    # v = 1/delta_t: whole-pulse sinc vanishes, clamp keeps the bound at 0
    b = doppler_lower_bound(np.array([1.0 / cfg.delta_t]), code8, cfg, 8)
    assert b.lower[0] == 0.0


def test_doppler_bound_matches_closed_form(cfg, code8):
    """The bound equals max(0, M_t*|sinc(v*T_w)| - Xi(v)) written out directly."""
    v = np.linspace(-cfg.f_max, cfg.f_max, 481)
    for code in (code8, generate_fh_code(cfg, 4, seed=0)):
        M_t, c = code.M_t, code.c.astype(float)
        xi = np.zeros_like(v)
        for m in range(M_t):
            for mp in range(M_t):
                if m != mp:
                    xi += np.abs(np.sinc(v[:, None] * cfg.delta_t
                                         - (c[m] - c[mp]) * cfg.hop_product)
                                 ).sum(axis=1)
        want = np.maximum(0.0, M_t * np.abs(np.sinc(v * cfg.T_w)) - xi / cfg.Q)
        got = doppler_lower_bound(v, code, cfg, M_t).lower
        assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"M_t={M_t}")


def test_doppler_bound_below_random_layouts(cfg, code8):
    v = 0.3 / cfg.delta_t
    bound = doppler_lower_bound(np.array([v]), code8, cfg, 8).lower[0]
    vals = []
    for s in range(200):
        lay = random_feasible_layout(8, 20.0, seed=s)
        q = AmbiguityQuery(tau=0.0, v=v, theta=np.pi / 3, theta_p=np.pi / 3)
        vals.append(abs(chi(q, lay, code8, cfg)))
    assert bound <= min(vals) + 1e-6


def test_delay_bound_matched_point(cfg, code8):
    b = delay_lower_bound(np.array([0.0]), code8, cfg, 8)
    assert_allclose(b.lower, [8.0], rtol=0, atol=1e-12)


def test_delay_bound_outside_support(cfg, code8):
    taus = np.array([cfg.Q * cfg.delta_t, -1.5 * cfg.Q * cfg.delta_t])
    b = delay_lower_bound(taus, code8, cfg, 8)
    assert_allclose(b.lower, [0.0, 0.0], rtol=0, atol=0)


def test_delay_bound_below_random_layouts(cfg, code8):
    tau = 1.5 * cfg.delta_t
    bound = delay_lower_bound(np.array([tau]), code8, cfg, 8).lower[0]
    vals = []
    for s in range(200):
        lay = random_feasible_layout(8, 20.0, seed=s)
        q = AmbiguityQuery(tau=tau, v=0.0, theta=np.pi / 3, theta_p=np.pi / 3)
        vals.append(abs(chi(q, lay, code8, cfg)))
    assert bound <= min(vals) + 1e-6


def test_bounds_are_nonnegative(cfg, code8):
    v = np.linspace(-cfg.f_max, cfg.f_max, 201)
    tau = np.linspace(-cfg.T_w, cfg.T_w, 201)
    assert doppler_lower_bound(v, code8, cfg, 8).lower.min() >= 0.0
    assert delay_lower_bound(tau, code8, cfg, 8).lower.min() >= 0.0


def test_bound_code_subset_validation(cfg, code8):
    with pytest.raises(ValidationError, match="^M_t:"):
        doppler_lower_bound(np.array([0.0]), code8, cfg, 9)
    short = generate_fh_code(cfg, 4, seed=0)
    with pytest.raises(ValidationError, match="^M_t:"):
        delay_lower_bound(np.array([0.0]), short, cfg, 5)

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mafh import (
    AmbiguitySlice,
    AntennaLayout,
    DetectionParams,
    FeasiblePolytope,
    FhCode,
    ObjectiveGrid,
    RadarConfig,
    TheoryBound,
    ValidationError,
    b_min,
    build_grid,
    equidistant_layout,
    generate_fh_code,
    load_config,
    load_fh_code,
    load_layout,
    parse_config,
    random_feasible_layout,
    save_fh_code,
)
from mafh.model import _DETECTION_KEYS, _RADAR_KEYS, config_to_dict

# Seed-0 hop code for M_t=8 on the default config; regenerated values must
# never drift, as downstream optimizer/detection expectations are frozen
# against this matrix.
CODE8_SEED0 = np.array([
    [3, 7, 4, 6, 3, 5],
    [5, 3, 3, 5, 2, 8],
    [4, 8, 2, 4, 4, 7],
    [7, 5, 8, 1, 7, 6],
    [6, 6, 7, 8, 1, 1],
    [1, 2, 1, 3, 6, 2],
    [2, 1, 6, 2, 5, 3],
    [8, 4, 5, 7, 8, 4],
])


def test_default_config_values(cfg):
    assert cfg.f_c == 8.2e9
    assert cfg.delta_f == 1e6
    assert cfg.delta_t == 1e-6
    assert cfg.Q == 6
    assert cfg.K == 8
    assert cfg.f_max == 1e7
    # T_w is derived from Q*delta_t when not given explicitly
    assert_allclose(cfg.T_w, 6e-6, rtol=0, atol=0)
    assert_allclose(cfg.wavelength, 0.036560055853658534, rtol=1e-15)
    assert cfg.hop_product == 1.0


def test_validate_config_accepts_default(cfg):
    assert dataclasses.replace(cfg) == cfg


@pytest.mark.parametrize("field,value,name", [
    ("Q", 0, "Q"),
    ("K", 0, "K"),
    ("delta_t", -1e-6, "delta_t"),
    ("delta_f", 0.0, "delta_f"),
    ("bandwidth", 4e6, "bandwidth"),
    ("T_w", 5e-6, "T_w"),
    ("f_c", 0.0, "f_c"),
    ("f_s", 1e6, "f_s"),
    ("T_P", 1e-6, "T_P"),
    ("f_max", 0.0, "f_max"),
])
def test_validate_config_rejects(cfg, field, value, name):
    with pytest.raises(ValidationError, match=f"^{name}:"):
        if field in ("bandwidth", "T_w"):   # derived: checked as config keys
            parse_config({field: value})
        else:
            dataclasses.replace(cfg, **{field: value})


def test_layout_positions():
    lay = AntennaLayout(d=np.array([0.5, 0.7]), L=2.0)
    assert lay.M_t == 3
    assert_allclose(lay.x, [0.0, 0.5, 1.2])


def test_layout_rejects_small_spacing():
    with pytest.raises(ValidationError, match="lambda/2"):
        AntennaLayout(d=np.array([0.49, 0.5]), L=2.0)


def test_layout_rejects_budget_overrun():
    with pytest.raises(ValidationError, match="aperture budget"):
        AntennaLayout(d=np.array([0.6, 0.6]), L=1.0)


def test_layout_rejects_bad_shape():
    with pytest.raises(ValidationError, match="1-D"):
        AntennaLayout(d=np.zeros((2, 2)) + 0.5, L=4.0)


def test_layout_and_aperture_share_one_tolerance(cfg):
    # each spacing may sit 1e-9 below lambda/2, but the budget only 1e-9 in
    # total below (M_t - 1)/2: a layout that builds works everywhere else
    d = np.full(7, 0.5 - 0.9e-9)
    with pytest.raises(ValidationError, match="^L: aperture"):
        AntennaLayout(d=d, L=3.5 - 7e-9)
    lay = AntennaLayout(d=d, L=3.5 - 0.9e-9)
    assert build_grid(cfg, lay).n1 >= 2
    assert b_min(lay.M_t, lay.L, 0.0) > 0
    assert FeasiblePolytope.spacing_bounds(lay.M_t, lay.L).contains(lay.d)


def test_layout_spacings_are_immutable(equid8):
    with pytest.raises(ValueError):
        equid8.d[0] = 1.0


def test_frozen_arrays_are_copies_of_the_callers():
    c, v = np.linspace(0.0, 1.0, 3), np.ones(3)
    built = [
        AmbiguitySlice(axis="angular", coords=c, values=v),
        TheoryBound(axis="delay", coords=c, lower=v),
        ObjectiveGrid(n1=2, n2=2, n3=2, theta_samples=c, v_samples=v, tau_samples=c,
                      d_theta=1.0, d_v=1.0, d_tau=1.0, theta_f23=v, w_theta23=1.0),
        AntennaLayout(d=v, L=3.0),
    ]
    assert c.flags.writeable and v.flags.writeable
    for obj in built:
        for f in dataclasses.fields(obj):
            arr = getattr(obj, f.name)
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable, f.name
                assert not np.shares_memory(arr, c) and not np.shares_memory(arr, v)


def test_fh_code_column_distinctness():
    FhCode(c=np.array([[1, 2], [2, 1]]))  # distinct per column: fine
    with pytest.raises(ValidationError, match="column 1"):
        FhCode(c=np.array([[1, 3], [2, 3]]))


def test_fh_code_rejects_nonpositive_index():
    with pytest.raises(ValidationError, match=">= 1"):
        FhCode(c=np.array([[0, 1], [1, 2]]))


@pytest.mark.parametrize("bad,match", [
    (3.7, "^c: expected an integer, got 3.7"),
    (np.inf, "^c: expected an integer, got inf"),
    (np.nan, "^c: expected an integer, got nan"),
    (1e30, "^c: hop index too large for an integer"),
])
def test_fh_code_rejects_fractional_and_non_finite_floats(bad, match):
    # a cast to int would keep 3.7 as 3 and wrap 1e30 to a negative index
    with pytest.raises(ValidationError, match=match):
        FhCode(c=np.array([[1.0, 2.0], [bad, 1.0]]))


def test_fh_code_keeps_whole_floats():
    code = FhCode(c=np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert code.c.dtype.kind == "i"
    assert_array_equal(code.c, [[1, 2], [3, 1]])


def test_generate_fh_code_frozen(cfg, code8):
    assert_array_equal(code8.c, CODE8_SEED0)
    again = generate_fh_code(cfg, 8, seed=0)
    assert_array_equal(again.c, code8.c)


def test_generate_fh_code_rejects_too_many_antennas(cfg):
    with pytest.raises(ValidationError, match="distinct hops"):
        generate_fh_code(cfg, cfg.K + 1, seed=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       m=st.integers(min_value=1, max_value=8))
def test_generate_fh_code_always_valid(seed, m):
    """Any seed yields in-range, column-distinct hop indices."""
    cfg = RadarConfig()
    code = generate_fh_code(cfg, m, seed=seed)
    assert code.c.shape == (m, cfg.Q)
    assert code.c.min() >= 1 and code.c.max() <= cfg.K
    for q in range(cfg.Q):
        assert np.unique(code.c[:, q]).size == m


def test_equidistant_layout():
    lay = equidistant_layout(8)
    assert_allclose(lay.d, np.full(7, 0.5))
    assert lay.L == 3.5
    with pytest.raises(ValidationError):
        equidistant_layout(1)


def test_equidistant_layout_in_a_given_budget():
    lay = equidistant_layout(4, 2.0)
    assert_allclose(lay.d, np.full(3, 0.5))
    assert lay.L == 2.0
    single = equidistant_layout(1, 3.0)     # a single element fits any budget
    assert single.M_t == 1 and single.L == 3.0
    for M_t, L, match in ((0, 3.0, "^M_t: expected M_t >= 1"),
                          (4, 1.0, "^L: aperture 1.0 cannot fit"),
                          (4, math.inf, "^L: expected a finite aperture")):
        with pytest.raises(ValidationError, match=match):
            equidistant_layout(M_t, L)


def test_load_layout(tmp_path):
    path = tmp_path / "lay.json"
    path.write_text(json.dumps({"d": [0.5, 1.25], "M_t": 3, "objective": {}}))
    lay = load_layout(path)                 # L defaults to sum(d); other keys ignored
    assert_array_equal(lay.d, [0.5, 1.25])
    assert lay.L == 1.75
    for doc, match in (({"L": 2.0}, "^d: required"),
                       ({"d": 0.5}, "^d: expected a list"),
                       ({"d": [0.5, None]}, "^d: expected a number"),
                       ({"d": [0.5], "L": False}, "^L: expected a number"),
                       ({"d": [0.5], "L": 1e999}, "^L: expected a finite number")):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match):
            load_layout(path)


def test_random_feasible_layout_deterministic():
    a = random_feasible_layout(8, 7.0, seed=3)
    b = random_feasible_layout(8, 7.0, seed=3)
    assert_array_equal(a.d, b.d)
    assert not np.array_equal(a.d, random_feasible_layout(8, 7.0, seed=4).d)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_feasible_layout_respects_constraints(seed):
    lay = random_feasible_layout(6, 9.0, seed=seed)
    assert lay.d.min() >= 0.5 - 1e-9
    assert lay.d.sum() <= 9.0 + 1e-9


@pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
def test_seeds_must_be_non_negative_integers(cfg, seed):
    with pytest.raises(ValidationError, match="^seed:"):
        generate_fh_code(cfg, 4, seed)
    with pytest.raises(ValidationError, match="^seed:"):
        random_feasible_layout(4, 3.0, seed)


def test_seeds_take_whole_floats_and_generators(cfg):
    assert_array_equal(generate_fh_code(cfg, 4, 5.0).c, generate_fh_code(cfg, 4, 5).c)
    rng = np.random.default_rng(7)
    assert_array_equal(random_feasible_layout(4, 3.0, rng).d,
                       random_feasible_layout(4, 3.0, np.random.default_rng(7)).d)


def test_random_feasible_layout_rejects_tight_budget():
    with pytest.raises(ValidationError, match="cannot fit"):
        random_feasible_layout(8, 3.0, seed=0)


def test_detection_params_validation():
    det = DetectionParams()
    assert dataclasses.replace(det) is not None
    with pytest.raises(ValidationError, match="^P_fa:"):
        DetectionParams(P_fa=0.0)
    with pytest.raises(ValidationError, match="^P_fa:"):
        DetectionParams(P_fa=1.0)
    with pytest.raises(ValidationError, match="^M_r:"):
        DetectionParams(M_r=0)
    with pytest.raises(ValidationError, match="^M_r: expected an integer"):
        DetectionParams(M_r=8.5)
    with pytest.raises(ValidationError, match="^trials:"):
        dataclasses.replace(det, P_fa=1e-4, trials=1000)
    with pytest.raises(ValidationError, match="^snr_grid:"):
        dataclasses.replace(det, snr_grid=())


@pytest.mark.parametrize("key", sorted(
    _RADAR_KEYS | _DETECTION_KEYS | {"bandwidth", "lambda", "T_w", "M_t", "L", "d"}))
@pytest.mark.parametrize("value", ["abc", True, math.inf, math.nan])
def test_parse_config_rejects_non_numeric(key, value):
    doc = {key: value, "L": 7.0} if key in ("M_t", "d") else {key: value}
    with pytest.raises(ValidationError, match=f"^{key}: expected"):
        parse_config(doc)


def test_parse_config_accepts_ints_and_floats():
    cfg, lay, det = parse_config({"Q": 6, "K": 8.0, "f_c": 8200000000, "M_t": 4,
                                  "L": 3, "M_r": 4.0, "snr_grid": [-10, 0.5],
                                  "trials": 200000, "P_fa": 1e-3})
    assert (cfg.Q, cfg.K, cfg.f_c) == (6, 8.0, 8.2e9)
    assert lay.M_t == 4 and lay.L == 3.0
    assert det.M_r == 4.0 and det.snr_grid == (-10.0, 0.5)


def test_integer_keys_store_whole_floats_as_int():
    cfg, lay, det = parse_config({"Q": 6.0, "K": 8.0, "M_t": 4.0, "L": 3,
                                  "M_r": 4.0, "trials": 1e6})
    for value, want in ((cfg.Q, 6), (cfg.K, 8), (lay.M_t, 4), (det.M_r, 4),
                        (det.trials, 1_000_000)):
        assert type(value) is int and value == want
    assert cfg == RadarConfig()


@pytest.mark.parametrize("key,value", [
    ("Q", 2.5), ("Q", 6.5), ("K", 8.5), ("M_r", 8.5), ("trials", 100000.5),
    ("trials", float("inf")), ("M_t", 8.7), ("M_t", 3.5)])
def test_integer_keys_reject_fractions(key, value):
    doc = {key: value, "L": 7.0} if key == "M_t" else {key: value}
    with pytest.raises(ValidationError, match=f"^{key}: expected an integer"):
        parse_config(doc)
    if key == "M_t":
        # also when spacings are given and M_t would truncate to their count + 1
        with pytest.raises(ValidationError, match="^M_t: expected an integer"):
            parse_config({"M_t": value, "d": [0.5] * int(value - 1), "L": 7.0})


def test_parse_config_roundtrip(cfg, equid8):
    det = DetectionParams(trials=200_000, P_fa=1e-3)
    doc = config_to_dict(cfg, equid8, det)
    cfg2, lay2, det2 = parse_config(doc)
    assert cfg2 == cfg
    assert_allclose(lay2.d, equid8.d)
    assert lay2.L == equid8.L
    assert det2.P_fa == det.P_fa and det2.trials == det.trials


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValidationError, match="carrier_ghz"):
        parse_config({"carrier_ghz": 8.2})


def test_parse_config_checks_wavelength():
    cfg, _, _ = parse_config({"lambda": 0.036560055853658534})
    assert cfg.f_c == 8.2e9
    with pytest.raises(ValidationError, match="^lambda:"):
        parse_config({"lambda": 0.04})


def test_parse_config_layout_modes():
    # M_t + L without spacings defaults to the half-wavelength pattern
    _, lay, _ = parse_config({"M_t": 4, "L": 5.0})
    assert_allclose(lay.d, [0.5, 0.5, 0.5])
    # explicit spacings, M_t optional but checked when present
    _, lay, _ = parse_config({"d": [0.5, 0.8], "L": 2.0})
    assert lay.M_t == 3
    with pytest.raises(ValidationError, match="^M_t:"):
        parse_config({"M_t": 4, "d": [0.5, 0.8], "L": 2.0})
    with pytest.raises(ValidationError, match="^L:"):
        parse_config({"M_t": 4})


def test_load_config_file(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"M_t": 8, "L": 7.0, "trials": 200000}))
    cfg2, lay, det = load_config(path)
    assert cfg2 == cfg
    assert lay.M_t == 8 and lay.L == 7.0
    assert det.trials == 200000


def test_save_load_fh_code_roundtrip(tmp_path, cfg, code8):
    path = tmp_path / "code.json"
    save_fh_code(code8, path)
    loaded = load_fh_code(path, cfg)
    assert_array_equal(loaded.c, code8.c)


def test_load_fh_code_validates_against_config(tmp_path, cfg):
    path = tmp_path / "code.json"
    save_fh_code(FhCode(c=np.array([[1, 2], [2, 1]])), path)
    with pytest.raises(ValidationError, match="columns"):
        load_fh_code(path, cfg)  # Q mismatch
    save_fh_code(FhCode(c=np.full((1, 6), 9)), path)
    with pytest.raises(ValidationError, match="exceeds K"):
        load_fh_code(path, cfg)


@pytest.mark.parametrize("text,match", [
    ("[[1, 2], [2, 3.5]]", "^c: expected an integer, got 3.5"),
    ("[[1, 2], [2, true]]", "^c: expected a number"),
    ("[[1, 2], [2]]", "^c: expected a matrix"),
    ("[1, 2]", "^c: expected a matrix"),
    ('{"c": [[1, 2]]}', "expected a JSON array$"),
    ("[[1, 2],", "cannot read a JSON document"),
])
def test_load_fh_code_requires_an_integer_matrix(tmp_path, text, match):
    path = tmp_path / "code.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match):
        load_fh_code(path)


def test_load_fh_code_keeps_whole_floats(tmp_path):
    path = tmp_path / "code.json"
    path.write_text("[[1, 2.0], [2, 1]]")
    assert_array_equal(load_fh_code(path).c, [[1, 2], [2, 1]])


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir(),
                                  lambda p: p.write_bytes(b"\xff\xfe{")],
                         ids=["missing", "directory", "not-utf8"])
def test_readers_reject_unreadable_files(tmp_path, make):
    path = tmp_path / "in.json"
    make(path)
    for load in (load_config, load_fh_code, load_layout):
        with pytest.raises(ValidationError, match="cannot read a JSON document"):
            load(path)

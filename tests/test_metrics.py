import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mafh import (
    AmbiguitySlice,
    AntennaLayout,
    DetectionParams,
    ValidationError,
    af_slice,
    b_min,
    bound_gap,
    detection_probability,
    doppler_lower_bound,
    generate_fh_code,
    measure_lobes,
    mmlwd_layout,
    random_feasible_layout,
)
from mafh.ambiguity import kernel_matrix
from mafh import metrics
from mafh.metrics import _exceed_fraction, _noise_power
from mafh.theory import TheoryBound

# Detection figures below were produced by this module at seed 0 and frozen;
# they double as a regression net for the chunked noise generator.
DET_PD = (0.230275, 0.979275, 1.0)
DET_PFA = 0.000825


def _slice(coords, values):
    return AmbiguitySlice(axis="angular", coords=np.asarray(coords, float),
                          values=np.asarray(values, float))


def test_lobes_equidistant(cfg, code8, equid8):
    s = af_slice("angular", equid8, code8, cfg, n_points=4001)
    r = measure_lobes(s)
    assert r.peak == pytest.approx(8.0, abs=1e-9)
    assert r.peak_coord == 0.0
    # null-to-null width of the uniform array: 2*arcsin(2/M_t) on this axis
    assert r.width == pytest.approx(2.0 * np.arcsin(0.25), abs=1e-4)
    assert r.width == pytest.approx(0.5053641348653739, rel=1e-9)
    assert r.psl_db == pytest.approx(-12.797363441426501, rel=1e-9)
    assert r.left_null == pytest.approx(-r.right_null, abs=1e-6)


def test_lobes_minimum_width_layout(cfg, code8):
    s = af_slice("angular", mmlwd_layout(8, 7.0), code8, cfg, n_points=4001)
    r = measure_lobes(s)
    # width collapses to the design minimum, paid for with huge sidelobes
    assert r.width == pytest.approx(b_min(8, 7.0, 0.0), abs=2e-6)
    assert r.width == pytest.approx(0.18207099683334485, rel=1e-9)
    assert r.psl_db == pytest.approx(-1.7761646637091022, rel=1e-9)
    assert r.psl_db > -3.0


def test_lobes_short_slice_rejected():
    with pytest.raises(ValidationError, match="too short"):
        measure_lobes(_slice([0, 1, 2, 3], [1, 2, 1, 0.1]))


def test_lobes_flat_slice_rejected():
    with pytest.raises(ValidationError, match="no positive peak"):
        measure_lobes(_slice(np.arange(6), np.zeros(6)))


def test_lobes_single_element_has_no_nulls(cfg):
    # one transmit element: |chi| over angle is identically the peak
    lay = AntennaLayout(d=np.zeros(0), L=0.0)
    code = generate_fh_code(cfg, 1, seed=0)
    s = af_slice("angular", lay, code, cfg, n_points=301)
    with pytest.raises(ValidationError, match="no null found"):
        measure_lobes(s)


def test_lobes_null_threshold_argument(cfg, code8, equid8):
    s = af_slice("angular", equid8, code8, cfg, n_points=2001)
    # a permissive threshold accepts the same first nulls
    assert measure_lobes(s, null_threshold=0.2).width == pytest.approx(
        measure_lobes(s).width, rel=1e-12)


def test_bound_gap_counts_violations():
    coords = np.array([0.0, 1.0, 2.0])
    s = _slice(coords, [1.0, 2.0, 3.0])
    bound = TheoryBound(axis="angular", coords=coords,
                        lower=np.array([0.5, 2.5, 1.0]))
    g = bound_gap(s, bound)
    assert g.min_gap == pytest.approx(-0.5)
    assert g.violation_count == 1


def test_bound_gap_grid_mismatch():
    s = _slice([0.0, 1.0], [1.0, 1.0])
    bound = TheoryBound(axis="angular", coords=np.array([0.0, 1.5]),
                        lower=np.zeros(2))
    with pytest.raises(ValidationError, match="do not match"):
        bound_gap(s, bound)


def test_bound_gap_holds_on_doppler_cut(cfg, code8, equid8):
    s = af_slice("doppler", equid8, code8, cfg, n_points=241)
    bound = doppler_lower_bound(s.coords, code8, cfg, 8)
    g = bound_gap(s, bound)
    assert g.violation_count == 0
    assert g.min_gap >= -1e-9


# ---------------------------------------------------------------------------
# Monte Carlo detection.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def det_curve(cfg, code8, equid8):
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=40_000)
    return detection_probability(equid8, code8, cfg, det, seed=0)


def test_detection_frozen_values(det_curve):
    assert det_curve.p_d == pytest.approx(DET_PD, abs=1e-12)
    assert det_curve.pfa_measured == pytest.approx(DET_PFA, abs=1e-12)
    assert det_curve.snr_db == (-12.0, -6.0, 0.0)
    assert det_curve.trials == 40_000


def test_detection_monotone_in_snr(det_curve):
    assert det_curve.p_d[0] < det_curve.p_d[1] < 0.999
    assert det_curve.p_d[2] == 1.0


def test_detection_false_alarm_calibration(det_curve):
    # measured P_fa within the binomial 95% band around the target
    half = 1.96 * np.sqrt(1e-3 / 40_000)
    assert abs(det_curve.pfa_measured - 1e-3) <= half
    assert det_curve.threshold > 0


def test_detection_confidence_intervals(det_curve):
    for p, lo, hi in zip(det_curve.p_d, det_curve.ci_low, det_curve.ci_high):
        assert 0.0 <= lo <= p <= hi <= 1.0
        assert hi - lo < 0.02


def test_detection_matches_closed_form(det_curve):
    """Square-law detection of a known amplitude in complex Gaussian noise.

    With noise variance sigma^2 = M_t the threshold is -sigma^2 ln P_fa and
    P_d = Q_1(sqrt(2a^2/sigma^2), sqrt(2T/sigma^2)) = ncx2.sf(2T/sigma^2, 2,
    2a^2/sigma^2), a = sqrt(M_r snr) M_t.  Each estimate may differ by 5 sd:
    its binomial spread plus the spread passed on by the threshold, which is
    the empirical 1 - P_fa quantile of ``trials`` noise draws.
    """
    M_t, M_r, p_fa, n = 8, 8, 1e-3, det_curve.trials
    sigma2 = float(M_t)
    T = -sigma2 * np.log(p_fa)
    sd_T = sigma2 * np.sqrt((1.0 - p_fa) / (n * p_fa))
    assert abs(det_curve.threshold - T) <= 5 * sd_T
    x = 2.0 * T / sigma2
    for snr_db, pd in zip(det_curve.snr_db, det_curve.p_d):
        lam = 2.0 * M_r * 10.0 ** (snr_db / 10.0) * M_t ** 2 / sigma2
        want = stats.ncx2.sf(x, 2, lam)
        dens = 2.0 / sigma2 * stats.ncx2.pdf(x, 2, lam)
        sd = np.sqrt(max(want * (1.0 - want), 1.0 / n) / n + (dens * sd_T) ** 2)
        assert abs(pd - want) <= 5 * sd, (snr_db, pd, want, sd)


def test_detection_deterministic(cfg, code8, equid8, det_curve):
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=40_000)
    again = detection_probability(equid8, code8, cfg, det, seed=0)
    assert again.p_d == det_curve.p_d
    assert again.threshold == det_curve.threshold

    other = detection_probability(equid8, code8, cfg, det, seed=1)
    assert other.p_d != det_curve.p_d


@pytest.mark.parametrize("chunk", [7_001, 40_000, 40_001])
def test_detection_chunking_invariance(cfg, code8, equid8, det_curve,
                                       monkeypatch, chunk):
    # chunk size is an implementation detail; the draws must not depend on it
    import mafh.metrics as metrics
    monkeypatch.setattr(metrics, "_CHUNK", chunk)
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=40_000)
    chunked = detection_probability(equid8, code8, cfg, det, seed=0)
    assert chunked.p_d == det_curve.p_d
    assert chunked.threshold == det_curve.threshold
    assert chunked.pfa_measured == det_curve.pfa_measured


@pytest.mark.parametrize("amp", [0.0, 3.7])
def test_noise_power_keeps_the_bits_of_the_one_shot_formula(amp):
    """The frozen p_d values would not see a one-ulp change in the statistic."""
    trials, sigma2 = 150_001, 6.0   # two full chunks and a partial; scale sqrt(3)
    z = np.random.default_rng(np.random.SeedSequence(5)).normal(
        0.0, np.sqrt(0.5 * sigma2), (trials, 2))
    re = amp + z[:, 0]
    im = z[:, 1]
    want = re * re + im * im
    got = _noise_power(np.random.SeedSequence(5), trials, sigma2, amp=amp)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [None, 7_001])
@pytest.mark.parametrize("workers", [1, 4])
def test_detection_does_not_depend_on_the_thread_count(
        cfg, code8, equid8, det_curve, monkeypatch, workers, chunk):
    monkeypatch.setattr(metrics, "_usable_cores", lambda: workers)
    if chunk is not None:
        monkeypatch.setattr(metrics, "_CHUNK", chunk)
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=40_000)
    got = detection_probability(equid8, code8, cfg, det, seed=0)
    assert got.p_d == det_curve.p_d
    assert got.threshold == det_curve.threshold
    assert got.pfa_measured == det_curve.pfa_measured


@pytest.mark.parametrize("amp", [0.0, 3.7])
def test_exceed_fraction_counts_strict_exceedances_chunk_by_chunk(amp):
    trials, sigma2 = 150_001, 6.0   # two full chunks and a partial
    stat = _noise_power(np.random.SeedSequence(5), trials, sigma2, amp=amp)
    t = float(stat[trials // 3])    # a drawn value, so ">" and ">=" differ
    got = _exceed_fraction(np.random.SeedSequence(5), trials, sigma2, amp, t)
    assert got == np.mean(stat > t)
    assert got != np.mean(stat >= t)


def test_detection_pool_has_no_more_workers_than_tasks(cfg, code8, equid8,
                                                        monkeypatch):
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(metrics, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(metrics, "_usable_cores", lambda: 64)
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(0.0,), trials=40_000)
    detection_probability(equid8, code8, cfg, det, seed=0)
    assert sizes == [2]     # measured P_fa and one SNR point


def test_detection_leaves_no_thread_behind(cfg, code8, equid8):
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=40_000)
    before = threading.active_count()
    detection_probability(equid8, code8, cfg, det, seed=0)
    assert threading.active_count() == before


def test_detection_working_memory(cfg, code8, equid8):
    # one trials-long statistic at a time plus one 1 MiB draw buffer: 1.33x
    trials = 400_000
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=trials)
    tracemalloc.start()
    try:
        detection_probability(equid8, code8, cfg, det, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * trials, peak / (8 * trials)


def test_detection_validation(cfg, code8, equid8):
    with pytest.raises(ValidationError, match="^P_fa:"):
        detection_probability(equid8, code8, cfg,
                              DetectionParams(P_fa=0.0, trials=40_000))
    with pytest.raises(ValidationError, match="^trials:"):
        detection_probability(equid8, code8, cfg,
                              DetectionParams(P_fa=1e-4, trials=1_000))
    with pytest.raises(ValidationError, match="^seed:"):
        detection_probability(equid8, code8, cfg,
                              DetectionParams(P_fa=1e-3, trials=40_000), seed=-1)


@pytest.mark.parametrize("delta_f", [1e6, 1.3e6])
def test_detection_does_not_depend_on_the_layout(cfg, equid8, delta_f):
    """At theta = theta' = 0 every steering phasor is 1, so the curve is the
    same bits for any layout of the code, also when G(0,0) is not diagonal."""
    cfg = replace(cfg, delta_f=delta_f)
    code = generate_fh_code(cfg, 8, seed=0)
    G = kernel_matrix(0.0, 0.0, code, cfg)
    assert (np.abs(G - np.diag(np.diag(G))).max() > 0.1) == (delta_f == 1.3e6)
    det = DetectionParams(M_r=8, P_fa=1e-3, snr_grid=(-12.0, -6.0, 0.0),
                          trials=40_000)
    a = detection_probability(equid8, code, cfg, det, seed=0)
    b = detection_probability(random_feasible_layout(8, 7.0, 0), code, cfg, det,
                              seed=0)
    assert a.p_d == b.p_d
    assert a.threshold == b.threshold
    assert a.pfa_measured == b.pfa_measured

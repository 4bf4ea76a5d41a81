import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mafh
from mafh import FhCode, RadarConfig, generate_fh_code, rgpm_multistart, save_fh_code
from mafh.cli import _objective_record, _simplex_weights, _spearman, main


def _body(path):
    """Data lines of an output CSV (metadata stripped)."""
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def _rows(path):
    body = _body(path)
    names = body[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return names, data


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_af_writes_slice_files(tmp_path):
    rc = main(["af", "--axis", "angular", "--mt", "4", "--budget", "1.5",
               "--points", "64", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "af_angular.csv"
    json_path = tmp_path / "af_angular.json"
    assert csv_path.exists() and json_path.exists()

    names, data = _rows(csv_path)
    assert names == ["coord", "magnitude", "magnitude_db"]
    # even point count -> the matched angle 0 is inserted
    assert data.shape[0] == 65
    assert data[:, 1].max() == pytest.approx(4.0, abs=1e-9)

    header = csv_path.read_text().splitlines()
    assert any(ln.startswith("# seed=0") for ln in header)
    assert any(ln.startswith("# config_hash=") for ln in header)

    doc = json.loads(json_path.read_text())
    assert doc["meta"]["seed"] == 0
    assert doc["axis"] == "angular"


def test_af_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["af", "--axis", "doppler", "--mt", "2", "--budget", "1.2",
            "--points", "33"]
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert (a / "af_doppler.csv").read_bytes() == (b / "af_doppler.csv").read_bytes()


def test_af_layout_file(tmp_path):
    lay = tmp_path / "lay.json"
    lay.write_text(json.dumps({"d": [0.7], "L": 1.2}))
    rc = main(["af", "--axis", "angular", "--mt", "2", "--budget", "1.2",
               "--layout", f"file:{lay}", "--points", "33",
               "--out-dir", str(tmp_path)])
    assert rc == 0


def test_af_bad_layout_name(tmp_path, capsys):
    rc = main(["af", "--axis", "angular", "--layout", "fancy",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_af_missing_code_file(tmp_path, capsys):
    rc = main(["af", "--axis", "angular", "--code",
               str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_set_overrides_config(tmp_path):
    rc = main(["af", "--axis", "doppler", "--mt", "2", "--budget", "1.2",
               "--points", "17", "--set", "Q=2", "--set", "K=4",
               "--set", "bandwidth=4e6", "--out-dir", str(tmp_path)])
    assert rc == 0
    # Q=2 subpulses of the K=4-slot code: the doppler peak is still M_t
    _, data = _rows(tmp_path / "af_doppler.csv")
    assert data[:, 1].max() == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("key,raw", [("Q", "abc"), ("bandwidth", "abc"),
                                     ("f_c", "xyz"), ("L", "abc")])
def test_set_rejects_non_numeric_value(tmp_path, capsys, key, raw):
    out = tmp_path / "out"
    rc = main(["af", "--axis", "angular", "--set", f"{key}={raw}",
               "--out-dir", str(out)])
    assert rc == 2
    assert f"error: {key}: expected a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,raw", [("Q", "6.5"), ("Q", "2.5"), ("K", "8.5")])
def test_set_rejects_fractional_integer_key(tmp_path, capsys, key, raw):
    out = tmp_path / "out"
    rc = main(["af", "--axis", "doppler", "--set", f"{key}={raw}",
               "--out-dir", str(out)])
    assert rc == 2
    assert f"error: {key}: expected an integer, got {raw}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_rejects_non_numeric_value(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"trials": "many"}))
    out = tmp_path / "out"
    rc = main(["detect", "--mt", "2", "--budget", "1.2", "--config", str(path),
               "--layouts", "equidistant", "--out-dir", str(out)])
    assert rc == 2
    assert "error: trials: expected a number" in capsys.readouterr().err
    assert not out.exists()


def test_set_whole_float_integer_key_matches_plain_run(tmp_path):
    for axis in ("angular", "doppler", "delay"):
        assert main(["af", "--axis", axis, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["af", "--axis", axis, "--set", "Q=6.0",
                     "--out-dir", str(tmp_path / "b")]) == 0
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_detect_set_whole_float_trials_matches_integer(tmp_path, capsys):
    args = ["detect", "--mt", "2", "--budget", "1.2", "--layouts", "equidistant",
            "--set", "P_fa=1e-3", "--snr=-6:0:6"]
    assert main(args + ["--trials", "10000", "--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--set", "trials=10000.0",
                        "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("detect_equidistant.csv", "detect_compare.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    rc = main(args + ["--set", "trials=10000.5", "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    assert "error: trials: expected an integer" in capsys.readouterr().err


def test_set_requires_key_value(tmp_path, capsys):
    rc = main(["af", "--axis", "angular", "--set", "oops",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_theory_sweep_width_decreases_with_budget(tmp_path):
    rc = main(["theory", "--sweep", "L", "--mt", "8", "--sweep-lo", "4",
               "--sweep-hi", "12", "--sweep-points", "9",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    names, data = _rows(tmp_path / "theory_width_L.csv")
    assert names == ["L", "width"]
    assert data.shape[0] == 9
    assert np.all(np.diff(data[:, 1]) < 0)   # more aperture, narrower lobe


def test_theory_sweep_skips_angles_past_endfire(tmp_path, capsys):
    rc = main(["theory", "--sweep", "theta", "--sweep-lo", "1",
               "--sweep-hi", "3", "--sweep-points", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "theory_width_theta.csv"
    names, data = _rows(path)
    assert data[:, 0].tolist() == [1.0]    # 2 rad leaves the visible region
    assert "# skipped=2" in path.read_text()
    capsys.readouterr()

    rc = main(["theory", "--sweep", "L", "--theta", "3",
               "--out-dir", str(tmp_path / "L")])
    assert rc == 2
    assert "no feasible points" in capsys.readouterr().err
    assert list((tmp_path / "L").iterdir()) == []


def test_theory_sweep_skips_apertures_the_array_cannot_fit(tmp_path):
    assert main(["theory", "--sweep", "Mt", "--budget", "1.2",
                 "--out-dir", str(tmp_path / "Mt")]) == 0
    path = tmp_path / "Mt" / "theory_width_Mt.csv"
    _, data = _rows(path)
    assert data[:, 0].tolist() == [2, 3]   # 4 elements need L >= 1.5
    assert "# skipped=5" in path.read_text()

    assert main(["theory", "--sweep", "L", "--sweep-lo", "1", "--sweep-hi", "4",
                 "--sweep-points", "7", "--out-dir", str(tmp_path / "L")]) == 0
    path = tmp_path / "L" / "theory_width_L.csv"
    _, data = _rows(path)
    assert data[:, 0].tolist() == [3.5, 4.0]   # 8 elements need L >= 3.5
    assert "# skipped=5" in path.read_text()


def test_theory_sweep_all_infeasible(tmp_path, capsys):
    rc = main(["theory", "--sweep", "Mt", "--budget", "1.2",
               "--sweep-lo", "6", "--sweep-hi", "8",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "no feasible points" in capsys.readouterr().err


def test_theory_bound_doppler(tmp_path):
    rc = main(["theory", "--bound", "doppler", "--mt", "4", "--budget", "1.5",
               "--points", "41", "--out-dir", str(tmp_path)])
    assert rc == 0
    names, data = _rows(tmp_path / "theory_bound_doppler.csv")
    assert names == ["coord", "bound"]
    assert data.shape[0] == 41
    mid = data[data[:, 0] == 0.0]
    assert mid[0, 1] == pytest.approx(4.0, abs=1e-9)   # matched value M_t


@pytest.mark.parametrize("points", ["0", "1"])
def test_theory_bound_needs_two_points(tmp_path, capsys, points):
    rc = main(["theory", "--bound", "doppler", "--points", points,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: points:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_theory_bound_with_overlay(tmp_path):
    rc = main(["theory", "--bound", "delay", "--mt", "4", "--budget", "1.5",
               "--points", "41", "--layout", "equidistant",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    names, data = _rows(tmp_path / "theory_bound_delay.csv")
    assert names == ["coord", "bound", "magnitude", "magnitude_db"]
    # the sampled cut never dips below its lower envelope
    assert np.all(data[:, 2] >= data[:, 1] - 1e-9)


def _layout4(tmp_path):
    path = tmp_path / "L4.json"
    path.write_text(json.dumps({"d": [0.5, 0.7, 0.9]}))
    return path


def test_theory_overlay_layout_code_mismatch(tmp_path, capsys):
    # a 4-element layout against the default 8-row code
    out = tmp_path / "out"
    rc = main(["theory", "--bound", "doppler", "--points", "41",
               "--layout", f"file:{_layout4(tmp_path)}", "--out-dir", str(out)])
    assert rc == 2
    assert "error: M_t:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_optimize_rgpm_smoke(tmp_path):
    args = ["optimize", "--mt", "2", "--budget", "1.2", "--kmax", "20",
            "--starts", "2"]
    rc = main(args + ["--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    layout = json.loads((tmp_path / "layout.json").read_text())
    assert summary["method"] == "rgpm"
    assert summary["f"] <= summary["f_equidistant"] + 1e-9
    assert summary["certificate"]["reason"] in (
        "interior-gradient", "kkt-multipliers", "stalled", "degenerate")
    # one entry per start; the reported run is the first start with least f
    per_start = summary["per_start"]
    assert [s["start"] for s in per_start] == [0, 1]
    best = min(per_start, key=lambda s: (s["f_final"], s["start"]))
    assert best["reason"] == summary["certificate"]["reason"]
    assert best["iterations"] == summary["iterations"]
    # the start value plus at least one line-search trial per step taken
    assert all(isinstance(s["f_evals"], int) and s["f_evals"] >= s["iterations"]
               for s in per_start)
    assert summary["f"] == pytest.approx(best["f_final"], rel=1e-9)
    assert main(args + ["--out-dir", str(tmp_path / "rerun")]) == 0
    assert ((tmp_path / "rerun" / "summary.json").read_bytes()
            == (tmp_path / "summary.json").read_bytes())
    d = np.array(layout["d"])
    assert d.size == 1 and 0.5 <= d[0] <= 1.2 + 1e-9

    names, data = _rows(tmp_path / "trace.csv")
    assert names == ["k", "f", "grad_norm", "active_count", "omega"]
    assert data.shape[0] == summary["iterations"] + 1
    assert np.all(np.diff(data[:, 1]) <= 1e-12)
    assert "# reason=" in (tmp_path / "trace.csv").read_text()


def test_optimize_budget_within_feasibility_tolerance(tmp_path):
    # 1e-10 below seven lambda/2 spacings: every start and the polytope
    # accept it with the same 1e-9 slack
    rc = main(["optimize", "--budget", "3.4999999999", "--kmax", "2",
               "--starts", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["certificate"]["reason"] == "degenerate"


@pytest.mark.parametrize("command", ["optimize", "tradeoff"])
def test_near_degenerate_budget_runs(tmp_path, command):
    # within (n + 1) * 1e-9 of the floors, a start can bind every row at once
    args = [command, "--mt", "2", "--budget", "0.5000000015",
            "--out-dir", str(tmp_path)]
    if command == "tradeoff":
        args += ["--resolution", "2"]
    assert main(args) == 0
    if command == "optimize":
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [s["reason"] for s in summary["per_start"]] == ["degenerate"] * 4


def test_optimize_ga_smoke(tmp_path):
    rc = main(["optimize", "--method", "ga", "--mt", "2", "--budget", "1.2",
               "--generations", "3", "--population", "4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["method"] == "ga"
    names, data = _rows(tmp_path / "trace.csv")
    assert names == ["generation", "f"]
    assert data.shape[0] == 4   # initial + 3 generations


def test_code_file_uses_first_mt_rows(tmp_path):
    cfg = RadarConfig()
    code = generate_fh_code(cfg, 8, seed=5)
    save_fh_code(code, tmp_path / "c8.json")
    save_fh_code(FhCode(c=code.c[:4]), tmp_path / "c4.json")
    args = ["optimize", "--mt", "4", "--budget", "3", "--starts", "2",
            "--kmax", "10", "--theta-eval"]
    for rows in ("c8", "c4"):
        assert main(args + ["--code", str(tmp_path / f"{rows}.json"),
                            "--out-dir", str(tmp_path / rows)]) == 0
    assert ((tmp_path / "c8" / "summary.json").read_bytes()
            == (tmp_path / "c4" / "summary.json").read_bytes())
    assert main(["af", "--axis", "delay", "--mt", "4", "--points", "17",
                 "--code", str(tmp_path / "c8.json"),
                 "--out-dir", str(tmp_path / "af")]) == 0


def test_optimize_bad_alpha(tmp_path, capsys):
    assert main(["optimize", "--alpha", "0.5,0.5",
                 "--out-dir", str(tmp_path)]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert main(["optimize", "--alpha", "0.5,0.4,0.2",
                 "--out-dir", str(tmp_path)]) == 2
    assert "alpha" in capsys.readouterr().err
    assert main(["optimize", "--alpha", "a,b,c",
                 "--out-dir", str(tmp_path / "letters")]) == 2
    assert "alpha" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tradeoff_smoke(tmp_path):
    rc = main(["tradeoff", "--mt", "2", "--budget", "1.2", "--resolution", "2",
               "--kmax", "10", "--starts", "1", "--theta-eval",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "tradeoff.csv"
    names, data = _rows(path)
    assert names == ["a1", "a2", "a3", "f1", "f2", "f3", "f"]
    assert data.shape[0] == 6    # resolution 2 -> 6 weight triples
    np.testing.assert_allclose(data[:, :3].sum(axis=1), 1.0, atol=1e-12)
    # weighted total is consistent with the per-term columns
    # (CSV floats carry 12 significant digits)
    np.testing.assert_allclose(
        data[:, 6], np.sum(data[:, :3] * data[:, 3:6], axis=1), rtol=1e-10)
    text = path.read_text()
    for key in ("spearman_f1_f3", "spearman_f1_f2", "spearman_f2_f3"):
        assert f"# {key}=" in text


def test_tradeoff_constant_columns_write_nan(tmp_path):
    # two elements in a lambda/2 budget admit one layout: every column is constant
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["tradeoff", "--mt", "2", "--budget", "0.5", "--resolution", "2",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "tradeoff.csv").read_text()
    for key in ("spearman_f1_f3", "spearman_f1_f2", "spearman_f2_f3"):
        assert f"# {key}=nan\n" in text


def test_spearman_matches_scipy_bit_for_bit(poly8, ev8):
    from scipy import stats

    def same(x, y):
        return (np.float64(_spearman(x, y)).tobytes()
                == np.float64(stats.spearmanr(x, y).statistic).tobytes())

    # the columns of `tradeoff --resolution 5` at seed 0
    rows = [_objective_record(ev8, alpha, rgpm_multistart(poly8, ev8, alpha)[0].layout)
            for alpha in _simplex_weights(5)]
    fs = {k: np.array([r[k] for r in rows]) for k in ("f1", "f2", "f3")}
    assert all(same(fs[a], fs[b]) for a, b in (("f1", "f3"), ("f1", "f2"), ("f2", "f3")))
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        x, y = rng.integers(0, int(rng.integers(2, 8)), (2, n)).astype(float)
        if rng.random() < 0.3:
            y = rng.standard_normal(n)
        if np.ptp(x) > 0 and np.ptp(y) > 0:    # ties, but no constant column
            assert same(x, y), (x, y)
            checked += 1
    assert checked > 500


def test_cli_import_loads_no_scipy(tmp_path):
    """No command imports scipy, ``tradeoff`` included (its Spearman is numpy's)."""
    src = str(Path(mafh.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    for run in ("", f"mafh.cli.main(['tradeoff', '--resolution', '1', "
                    f"'--out-dir', {str(tmp_path)!r}]); "):
        out = subprocess.run([sys.executable, "-c", f"import sys, mafh.cli; {run}{loaded}"],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"
    assert "spearman_f1_f3=nan" not in (tmp_path / "tradeoff.csv").read_text()


def test_detect_smoke_and_matched_tie(tmp_path):
    args = ["detect", "--mt", "2", "--budget", "1.2",
            "--layouts", "equidistant,mmlwd", "--pfa", "1e-3",
            "--trials", "40000", "--snr=-12:0:6"]
    rc = main(args + ["--out-dir", str(tmp_path)])
    assert rc == 0
    for label in ("equidistant", "mmlwd"):
        path = tmp_path / f"detect_{label}.csv"
        names, data = _rows(path)
        assert names == ["snr_db", "p_d", "ci_low", "ci_high"]
        assert data.shape[0] == 3
        text = path.read_text()
        assert "# threshold=" in text and "# pfa_measured=" in text
    assert main(args + ["--out-dir", str(tmp_path / "rerun")]) == 0
    assert ((tmp_path / "rerun" / "detect_mmlwd.csv").read_bytes()
            == (tmp_path / "detect_mmlwd.csv").read_bytes())
    names, data = _rows(tmp_path / "detect_compare.csv")
    assert names == ["snr_db", "p_d_equidistant", "p_d_mmlwd"]
    assert data.shape[0] == 3    # -12, -6, 0 dB
    # matched-filter peak is layout independent, so shared noise draws tie
    np.testing.assert_array_equal(data[:, 1], data[:, 2])
    assert np.all(np.diff(data[:, 1]) >= 0)


def test_detect_simulates_once_for_every_layout(tmp_path, monkeypatch):
    # |chi(0,0,0,0)| is layout independent, so one curve serves all layouts
    calls = []
    simulate = mafh.cli.detection_probability

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(mafh.cli, "detection_probability", counted)
    assert main(["detect", "--mt", "2", "--budget", "1.2", "--pfa", "1e-3",
                 "--trials", "40000", "--snr=-12:0:6",
                 "--layouts", "equidistant,mmlwd,random",
                 "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    texts = [(tmp_path / f"detect_{label}.csv").read_text().splitlines()
             for label in ("equidistant", "mmlwd", "random")]
    hashes = {ln for text in texts for ln in text if ln.startswith("# config_hash=")}
    assert len(hashes) == 3                  # the layouts differ ...
    bodies = [[ln for ln in text if not ln.startswith("# config_hash=")]
              for text in texts]
    assert bodies[0] == bodies[1] == bodies[2]   # ... and nothing else does


def test_detect_optimizes_with_the_optimizer_flags(tmp_path):
    """The optimized detect layout is the one ``optimize`` finds with the same flags."""
    flags = ["--mt", "3", "--budget", "2", "--method", "ga",
             "--generations", "3", "--population", "4"]
    assert main(["optimize", *flags, "--out-dir", str(tmp_path)]) == 0
    assert main(["detect", *flags, "--pfa", "1e-2", "--trials", "2000",
                 "--snr=-6:0:6",
                 "--layouts", f"optimized,file:{tmp_path / 'layout.json'}",
                 "--out-dir", str(tmp_path)]) == 0
    # the config hash in each header covers the layout spacings
    assert ((tmp_path / "detect_optimized.csv").read_bytes()
            == (tmp_path / "detect_layout.csv").read_bytes())


def test_detect_applies_pfa_trials_and_snr_together(tmp_path):
    # the configured trials=1000 is too few for --pfa 0.001 alone; with
    # --trials 10000 the final setup holds
    rc = main(["detect", "--layouts", "equidistant", "--set", "P_fa=0.01",
               "--set", "trials=1000", "--pfa", "0.001", "--trials", "10000",
               "--snr=-10:0:5", "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "detect_equidistant.csv").read_text()
    assert "# pfa_target=0.001" in text and "# trials=10000" in text


def test_detect_checks_every_layout_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["detect", "--layouts", f"equidistant,file:{_layout4(tmp_path)}",
               "--pfa", "1e-3", "--trials", "40000", "--snr=-12:0:6",
               "--out-dir", str(out)])
    assert rc == 2
    assert "error: M_t:" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("layouts", ["equidistant,equidistant",
                                     "file:a/x.json,file:b/x.json"])
def test_detect_rejects_repeated_labels(tmp_path, capsys, layouts):
    # both entries would write detect_x.csv and one p_d_x column
    for sub, spacing in (("a", 0.5), ("b", 0.7)):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.json").write_text(json.dumps({"d": [spacing]}))
    layouts = layouts.replace("file:", f"file:{tmp_path}/")
    out = tmp_path / "out"
    rc = main(["detect", "--mt", "2", "--budget", "1.2", "--pfa", "1e-3",
               "--trials", "40000", "--layouts", layouts, "--out-dir", str(out)])
    assert rc == 2
    assert "error: --layouts:" in capsys.readouterr().err
    assert not out.exists()


def test_detect_rejects_bad_pfa(tmp_path, capsys):
    rc = main(["detect", "--mt", "2", "--budget", "1.2", "--pfa", "0",
               "--layouts", "equidistant", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "P_fa" in capsys.readouterr().err


def test_detect_rejects_insufficient_trials(tmp_path, capsys):
    rc = main(["detect", "--mt", "2", "--budget", "1.2", "--pfa", "1e-3",
               "--trials", "100", "--layouts", "equidistant",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_detect_rejects_bad_snr(tmp_path, capsys):
    rc = main(["detect", "--mt", "2", "--budget", "1.2",
               "--snr", "0:-6:2", "--layouts", "equidistant",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--snr" in capsys.readouterr().err


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"Q": 2, "K": 4, "bandwidth": 4e6,
                                    "d": [0.6], "L": 1.2}))
    rc = main(["af", "--axis", "angular", "--config", str(cfg_path),
               "--points", "33", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, data = _rows(tmp_path / "af_angular.csv")
    assert data[:, 1].max() == pytest.approx(2.0, abs=1e-9)  # M_t from layout


_AF = ["af", "--axis", "doppler", "--mt", "2", "--budget", "1.2", "--points", "17"]
# case -> ((file name, text, or None for a directory) or None, argv); {f} is the file
_MALFORMED = {
    "config-bad-json": (("cfg.json", '{"Q": 4,'), _AF + ["--config", "{f}"]),
    "config-directory": (("cfg", None), _AF + ["--config", "{f}"]),
    "code-bad-json": (("code.json", "[[1, 2, 3, 4, 5, 6],"), _AF + ["--code", "{f}"]),
    "code-ragged": (("code.json", "[[1, 2, 3, 4, 5, 6], [2, 3]]"),
                    _AF + ["--code", "{f}"]),
    "code-non-numeric": (("code.json", '[["a", 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 7]]'),
                         _AF + ["--code", "{f}"]),
    # 3.5 used to be truncated to 3, giving the same output as the integer code
    "code-fractional": (("code.json", "[[1, 2, 3, 4, 5, 6], [2, 3.5, 4, 5, 6, 7]]"),
                        _AF + ["--code", "{f}"]),
    # used to overflow the integer code matrix
    "code-huge": (("code.json", "[[1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1e30]]"),
                  _AF + ["--code", "{f}"]),
    "layout-bad-json": (("lay.json", '{"d": [0.7],'), _AF + ["--layout", "file:{f}"]),
    "layout-d-non-numeric": (("lay.json", '{"d": ["a", 1]}'),
                             _AF + ["--layout", "file:{f}"]),
    "layout-L-non-numeric": (("lay.json", '{"d": [0.7], "L": "x"}'),
                             _AF + ["--layout", "file:{f}"]),
    # true used to be read as L = 1.0
    "layout-L-bool": (("lay.json", '{"d": [0.7], "L": true}'),
                      _AF + ["--layout", "file:{f}"]),
    "snr-non-numeric": (None, ["detect", "--layouts", "equidistant", "--snr", "a:b:c"]),
    # used to reach np.arange and fail with "Maximum allowed size exceeded"
    "snr-too-many-points": (None, ["detect", "--layouts", "equidistant",
                                   "--snr", "0:2:1e-300"]),
    "theta-nan": (None, _AF + ["--theta", "nan"]),
    "range-inf": (None, _AF + ["--hi", "inf"]),
    "f_c-inf": (None, _AF + ["--set", "f_c=Infinity"]),
    "budget-inf": (None, ["af", "--axis", "doppler", "--budget", "inf"]),
    "mt-zero": (None, ["af", "--axis", "doppler", "--mt", "0"]),
    "f_max-inf": (None, ["optimize", "--set", "f_max=Infinity"]),
    "threshold-inf": (None, ["optimize", "--mt", "2", "--budget", "1.2",
                             "--threshold", "inf"]),
    "vmax-inf": (None, ["theory", "--bound", "doppler", "--vmax", "inf"]),
    # used to reach numpy and fail with "expected non-negative integer"
    "seed-negative": (None, ["optimize", "--mt", "2", "--budget", "1.2", "--seed", "-5"]),
    "tau-max-nan": (None, ["theory", "--bound", "delay", "--tau-max", "nan"]),
    # used to write one point three times, or a descending grid
    "tau-max-zero": (None, ["theory", "--bound", "delay", "--tau-max", "0",
                            "--points", "3"]),
    "vmax-negative": (None, ["theory", "--bound", "doppler", "--vmax", "-5"]),
    # used to reach numpy and fail with "Number of samples, -1, must be non-negative"
    "sweep-points-negative": (None, ["theory", "--sweep", "L", "--sweep-points", "-1"]),
    # used to sweep from M_t = 2
    "sweep-mt-fractional": (None, ["theory", "--sweep", "Mt", "--sweep-lo", "2.7"]),
    "sweep-mt-inf": (None, ["theory", "--sweep", "Mt", "--sweep-hi", "inf"]),
    # used to write a descending grid, one row three times, or to drop rows
    # after numpy "invalid value" warnings
    "sweep-l-descending": (None, ["theory", "--sweep", "L", "--sweep-lo", "10",
                                  "--sweep-hi", "5"]),
    "sweep-l-below-default-lo": (None, ["theory", "--sweep", "L", "--sweep-hi", "2"]),
    "sweep-theta-empty": (None, ["theory", "--sweep", "theta", "--sweep-lo", "0",
                                 "--sweep-hi", "0", "--sweep-points", "3"]),
    "sweep-l-inf": (None, ["theory", "--sweep", "L", "--sweep-lo", "inf"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_2_and_writes_nothing(tmp_path, capsys, case):
    spec, argv = _MALFORMED[case]
    path = tmp_path / "input"
    if spec is not None:
        name, text = spec
        path = tmp_path / name
        path.mkdir() if text is None else path.write_text(text)
    out = tmp_path / "out"
    rc = main([a.replace("{f}", str(path)) for a in argv] + ["--out-dir", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_out_dir_that_cannot_be_made_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    rc = main(["af", "--axis", "angular", "--points", "17",
               "--out-dir", str(tmp_path / "afile" / "x")])
    assert rc == 2
    assert "error: --out-dir:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--resolution", "0"], ["--starts", "0"], ["--kmax", "0"],
    ["--threshold", "0"], ["--theta-eval", "nan"],
    ["--method", "ga", "--generations", "0"], ["--method", "ga", "--population", "1"],
])
def test_tradeoff_checks_flags_before_building_tables(tmp_path, capsys, monkeypatch,
                                                      flags):
    def no_tables(*args, **kwargs):
        raise AssertionError("kernel tables built before the flags were checked")

    monkeypatch.setattr(mafh.cli, "ObjectiveEvaluator", no_tables)
    out = tmp_path / "out"
    rc = main(["tradeoff", "--mt", "2", "--budget", "1.2"] + flags
              + ["--out-dir", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_layout_file_feeds_af(tmp_path):
    opt = tmp_path / "opt"
    assert main(["optimize", "--mt", "4", "--budget", "2.5", "--starts", "2",
                 "--theta-eval", "--out-dir", str(opt)]) == 0
    saved = json.loads((opt / "layout.json").read_text())
    rc = main(["af", "--axis", "angular", "--layout", f"file:{opt / 'layout.json'}",
               "--points", "33", "--out-dir", str(tmp_path / "af")])
    assert rc == 0
    header = (tmp_path / "af" / "af_angular.csv").read_text()
    lay = mafh.AntennaLayout(d=np.array(saved["d"]), L=saved["L"])
    want = mafh.model.config_to_dict(RadarConfig(), lay, mafh.DetectionParams())
    assert f"# config_hash={mafh.output.config_hash(want)}" in header


def _output_imports(path):
    """Names a module imports from ``mafh.output`` (``output`` for the module)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if module in (".output", "mafh.output"):
            names += [a.name for a in node.names]
        elif module in (".", "mafh"):
            names += [a.name for a in node.names if a.name == "output"]
    return names


def test_only_the_cli_writes_files():
    """File layouts live in one module: the analysis modules return data only."""
    users = {}
    for path in sorted(Path(mafh.__file__).parent.glob("*.py")):
        names = _output_imports(path)
        if names:
            users[path.name] = names
    assert users.pop("__init__.py") == ["__version__"]
    assert list(users) == ["cli.py"]


def _file_reads(path):
    """Line numbers of ``path`` that read a file: json.load, np.load*, Path.read_*,
    or open() in a mode without w, a or x."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
            reads = not set(mode) & set("wax")
        else:
            reads = name in ("load", "loadtxt", "genfromtxt", "fromfile",
                             "read_text", "read_bytes")
        if reads:
            lines.append(node.lineno)
    return lines


def test_only_model_reads_files():
    """Input documents have one reader: model._read_json."""
    readers = {}
    for path in sorted(Path(mafh.__file__).parent.glob("*.py")):
        lines = _file_reads(path)
        if lines:
            readers[path.name] = lines
    assert list(readers) == ["model.py"]
    assert len(readers["model.py"]) == 2    # one open() and one json.load

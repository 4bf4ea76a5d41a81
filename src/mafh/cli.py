"""Command line front end: slices, theory curves, optimization, sweeps, detection.

Every subcommand reads an optional JSON config (flat keys, see model.parse_config),
applies --set key=value overrides, and writes CSV/JSON files with a
reproducibility header into --out-dir; the analysis modules only return data.
Exit code 0 means results were emitted (optimizer stalls are reported inside
the summary, not via the exit code); validation and usage problems exit
nonzero before any file is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats

from .ambiguity import _check_pair, af_slice, matched_cut
from .ga import GaParams, ga_optimize
from .metrics import detection_probability
from .model import (AntennaLayout, FhCode, ValidationError, config_to_dict,
                    generate_fh_code, load_fh_code, parse_config,
                    random_feasible_layout)
from .objective import ObjectiveEvaluator, _check_alpha, build_grid
from .output import write_csv, write_json
from .rgpm import FeasiblePolytope, rgpm_multistart
from .theory import b_min, delay_lower_bound, doppler_lower_bound, mmlwd_layout

THETA_EVAL_DEFAULT = math.pi / 3   # fast single-angle mode for f2/f3


# ---------------------------------------------------------------------------
# Manifest plumbing.
# ---------------------------------------------------------------------------

def _parse_overrides(pairs) -> dict:
    doc = {}
    for item in pairs or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        try:
            doc[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key.strip()] = raw
    return doc


def _load_manifest(args):
    """(cfg, config layout or None, det) after file + --set overrides."""
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValidationError("configuration document must be a JSON object")
        doc.update(loaded)
    doc.update(_parse_overrides(args.set))
    return parse_config(doc)


def _geometry(args, cfg_layout) -> tuple[int, float]:
    """(M_t, L) from flags, falling back to the config layout, then 8 / 7.0."""
    M_t = args.mt if args.mt is not None else \
        (cfg_layout.M_t if cfg_layout is not None else 8)
    L = args.budget if args.budget is not None else \
        (cfg_layout.L if cfg_layout is not None else 7.0)
    return int(M_t), float(L)


def _equidistant_budget(M_t: int, L: float) -> AntennaLayout:
    """Half-wavelength spacings carried inside the requested budget."""
    return AntennaLayout(d=np.full(M_t - 1, 0.5), L=max(L, 0.5 * (M_t - 1)))


def _resolve_layout(name, M_t: int, L: float, cfg_layout, seed: int) -> AntennaLayout:
    if name is None:
        if cfg_layout is not None and cfg_layout.d.size + 1 == M_t:
            return cfg_layout
        return _equidistant_budget(M_t, L)
    if name == "equidistant":
        return _equidistant_budget(M_t, L)
    if name == "mmlwd":
        return mmlwd_layout(M_t, L)
    if name == "random":
        return random_feasible_layout(M_t, L, seed)
    if name.startswith("file:"):
        path = name[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "d" not in doc:
            raise ValidationError(f"layout file {path}: expected an object with 'd'")
        d = np.asarray(doc["d"], dtype=float)
        return AntennaLayout(d=d, L=float(doc.get("L", d.sum())))
    raise ValidationError(
        f"--layout: expected equidistant|mmlwd|random|file:PATH, got {name!r}"
    )


def _code_for(args, cfg, M_t: int):
    """The --code file's first M_t rows, or the seed's generated code."""
    if getattr(args, "code", None):
        code = load_fh_code(args.code, cfg)
        if code.M_t < M_t:
            raise ValidationError(f"code file has {code.M_t} rows, need at least {M_t}")
        return FhCode(c=code.c[:M_t])
    return generate_fh_code(cfg, M_t, args.seed)


def _parse_alpha(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--alpha expects a1,a2,a3, got {text!r}")
    return _check_alpha(parts)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _db(values, peak: float) -> np.ndarray:
    """|chi| in dB relative to the matched peak (-inf at exact zeros)."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(values / peak)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_af(args) -> int:
    cfg, cfg_layout, det = _load_manifest(args)
    M_t, L = _geometry(args, cfg_layout)
    layout = _resolve_layout(args.layout, M_t, L, cfg_layout, args.seed)
    code = _code_for(args, cfg, layout.M_t)
    s = af_slice(args.axis, layout, code, cfg, theta=args.theta,
                 lo=args.lo, hi=args.hi, n_points=args.points)
    doc = config_to_dict(cfg, layout, det)
    out = _out_dir(args)
    path = out / f"af_{args.axis}.csv"
    write_csv(path, {"coord": s.coords, "magnitude": s.values,
                     "magnitude_db": _db(s.values, layout.M_t)},
              doc, seed=args.seed, extra={"axis": args.axis, "theta": args.theta})
    write_json(out / f"af_{args.axis}.json", {
        "axis": args.axis, "theta": args.theta,
        "coord": [float(v) for v in s.coords],
        "magnitude": [float(v) for v in s.values],
    }, doc, seed=args.seed)
    print(f"af: wrote {path}")
    return 0


_SWEEP_DEFAULTS = {
    # sweep variable -> (lo, hi, points); Mt sweeps integers lo..hi
    "L": (None, 12.0, 17),
    "Mt": (2, 8, None),
    "theta": (-1.2, 1.2, 25),
}


def _sweep_rows(kind: str, M_t: int, L: float, theta: float, lo, hi, points):
    if kind == "L":
        lo = 0.5 * (M_t - 1) if lo is None else float(lo)
        geometry = [(val, (M_t, float(val), theta))
                    for val in np.linspace(lo, float(hi), int(points))]
    elif kind == "Mt":
        geometry = [(m, (m, L, theta)) for m in range(int(lo), int(hi) + 1)]
    else:
        geometry = [(th, (M_t, L, float(th)))
                    for th in np.linspace(float(lo), float(hi), int(points))]
    rows, skipped = [], 0
    for val, shape in geometry:
        try:
            rows.append((val, b_min(*shape)))
        except ValidationError:
            skipped += 1
    if not rows:
        raise ValidationError(f"--sweep {kind}: no feasible points in the range")
    return rows, skipped


def cmd_theory(args) -> int:
    cfg, cfg_layout, det = _load_manifest(args)
    M_t, L = _geometry(args, cfg_layout)
    out = _out_dir(args)
    doc = config_to_dict(cfg, None, det)
    doc.update({"M_t": M_t, "L": L})

    if args.sweep:
        d_lo, d_hi, d_pts = _SWEEP_DEFAULTS[args.sweep]
        lo = args.sweep_lo if args.sweep_lo is not None else d_lo
        hi = args.sweep_hi if args.sweep_hi is not None else d_hi
        pts = args.sweep_points if args.sweep_points is not None else d_pts
        rows, skipped = _sweep_rows(args.sweep, M_t, L, args.theta, lo, hi, pts)
        col = {"L": "L", "Mt": "M_t", "theta": "theta"}[args.sweep]
        path = out / f"theory_width_{args.sweep}.csv"
        write_csv(path, {col: [r[0] for r in rows],
                         "width": [r[1] for r in rows]},
                  doc, seed=args.seed,
                  extra={"sweep": args.sweep, "theta": args.theta,
                         "skipped": skipped})
        print(f"theory: wrote {path}")
        return 0

    # --bound mode
    if args.points < 2:
        raise ValidationError(f"points: expected at least 2, got {args.points}")
    code = _code_for(args, cfg, M_t)
    if args.bound == "doppler":
        vmax = args.vmax if args.vmax is not None else cfg.f_max
        coords = np.linspace(-vmax, vmax, args.points)
        bound = doppler_lower_bound(coords, code, cfg, M_t)
    else:
        tmax = args.tau_max if args.tau_max is not None else cfg.T_w
        coords = np.linspace(-tmax, tmax, args.points)
        bound = delay_lower_bound(coords, code, cfg, M_t)

    cols = {"coord": coords, "bound": bound.lower}
    if args.layout is not None:
        layout = _resolve_layout(args.layout, M_t, L, cfg_layout, args.seed)
        overlay = matched_cut(args.bound, coords, layout, code, cfg, args.theta)
        cols.update(magnitude=overlay, magnitude_db=_db(overlay, M_t))
        doc = config_to_dict(cfg, layout, det)

    path = out / f"theory_bound_{args.bound}.csv"
    write_csv(path, cols, doc, seed=args.seed, extra={"axis": args.bound})
    write_json(out / f"theory_bound_{args.bound}.json", {
        "axis": args.bound,
        "coord": [float(v) for v in coords],
        "bound": [float(v) for v in bound.lower],
    }, doc, seed=args.seed)
    print(f"theory: wrote {path}")
    return 0


def _objective_record(ev: ObjectiveEvaluator, alpha, layout: AntennaLayout) -> dict:
    g = ev.grid
    f1, f2, f3 = ev.f1(layout.d), ev.f2(layout.d), ev.f3(layout.d)
    return {
        "alpha": list(alpha),
        "layout": [float(v) for v in layout.d],
        "f1": f1, "f2": f2, "f3": f3,
        "f": alpha[0] * f1 + alpha[1] * f2 + alpha[2] * f3,
        "grid": {"n1": g.n1, "n2": g.n2, "n3": g.n3},
    }


def _run_optimizer(args, poly: FeasiblePolytope, ev: ObjectiveEvaluator, alpha):
    """(best result, per-start results) of the --method optimizer.

    GA runs once, so its per-start list is None.  Either result carries the
    final ``layout``.
    """
    if args.method == "rgpm":
        return rgpm_multistart(poly, ev, alpha, n_starts=args.starts,
                               seed=args.seed, K_max=args.kmax,
                               T_threshold=args.threshold)
    params = GaParams(generations=args.generations,
                      population=args.population, seed=args.seed)
    return ga_optimize(poly, ev, alpha, params), None


def cmd_optimize(args) -> int:
    cfg, cfg_layout, det = _load_manifest(args)
    M_t, L = _geometry(args, cfg_layout)
    alpha = _parse_alpha(args.alpha)
    code = _code_for(args, cfg, M_t)
    ref = _equidistant_budget(M_t, L)
    grid = build_grid(cfg, ref, theta_eval=args.theta_eval)
    poly = FeasiblePolytope.spacing_bounds(M_t, L)
    out = _out_dir(args)
    ev = ObjectiveEvaluator(grid, code, cfg)

    best, runs = _run_optimizer(args, poly, ev, alpha)
    final = best.layout
    doc = config_to_dict(cfg, final, det)
    if args.method == "rgpm":
        write_csv(out / "trace.csv", {
            name: [getattr(r, name) for r in best.trace]
            for name in ("k", "f", "grad_norm", "active_count", "omega")
        }, doc, seed=args.seed, extra={"converged": best.converged,
                                      "stalled": best.stalled,
                                      "reason": best.certificate["reason"]})
        run_info = {
            "method": "rgpm", "starts": args.starts,
            "converged": best.converged, "stalled": best.stalled,
            "certificate": best.certificate,
            "iterations": best.trace[-1].k,
            "per_start": [{"start": i, "reason": r.certificate["reason"],
                           "iterations": r.trace[-1].k, "f_final": r.f_final}
                          for i, r in enumerate(runs)],
        }
    else:
        write_csv(out / "trace.csv", {
            "generation": list(range(len(best.best_trace))),
            "f": list(best.best_trace),
        }, doc, seed=args.seed, extra={"method": "ga"})
        run_info = {"method": "ga", "generations": args.generations,
                    "population": args.population}

    record = _objective_record(ev, alpha, final)
    summary = dict(record)
    summary.update(run_info)
    summary["f_equidistant"] = ev.f_weighted(ref.d, alpha)
    summary["f_mmlwd"] = ev.f_weighted(mmlwd_layout(M_t, L).d, alpha)
    write_json(out / "layout.json", {"d": record["layout"], "L": L,
                                     "M_t": M_t, "objective": record},
               doc, seed=args.seed)
    write_json(out / "summary.json", summary, doc, seed=args.seed)
    flag = " [stalled]" if run_info.get("stalled") else ""
    print(f"optimize: f = {record['f']:.6g}{flag}; wrote {out / 'summary.json'}")
    return 0


def _simplex_weights(resolution: int):
    if resolution < 1:
        raise ValidationError(f"--resolution: expected >= 1, got {resolution}")
    r = resolution
    return [(i / r, j / r, (r - i - j) / r)
            for i in range(r + 1) for j in range(r + 1 - i)]


def cmd_tradeoff(args) -> int:
    cfg, cfg_layout, det = _load_manifest(args)
    M_t, L = _geometry(args, cfg_layout)
    code = _code_for(args, cfg, M_t)
    poly = FeasiblePolytope.spacing_bounds(M_t, L)
    ref = _equidistant_budget(M_t, L)
    out = _out_dir(args)
    ev = ObjectiveEvaluator(build_grid(cfg, ref, theta_eval=args.theta_eval), code, cfg)

    rows = []
    for alpha in _simplex_weights(args.resolution):
        best, _ = _run_optimizer(args, poly, ev, alpha)
        rows.append((alpha, _objective_record(ev, alpha, best.layout)))

    f1s = np.array([r["f1"] for _, r in rows])
    f2s = np.array([r["f2"] for _, r in rows])
    f3s = np.array([r["f3"] for _, r in rows])
    corr = {
        "spearman_f1_f3": float(stats.spearmanr(f1s, f3s).statistic),
        "spearman_f1_f2": float(stats.spearmanr(f1s, f2s).statistic),
        "spearman_f2_f3": float(stats.spearmanr(f2s, f3s).statistic),
    }
    doc = config_to_dict(cfg, ref, det)
    path = out / "tradeoff.csv"
    write_csv(path, {
        "a1": [a[0] for a, _ in rows],
        "a2": [a[1] for a, _ in rows],
        "a3": [a[2] for a, _ in rows],
        "f1": f1s, "f2": f2s, "f3": f3s,
        "f": [r["f"] for _, r in rows],
    }, doc, seed=args.seed,
        extra={"resolution": args.resolution, "method": args.method, **corr})
    print(f"tradeoff: wrote {path} ({len(rows)} rows)")
    return 0


def _parse_snr(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--snr expects from:to:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValidationError(f"--snr: expected from <= to and step > 0, got {text!r}")
    return tuple(np.arange(lo, hi + 0.5 * step, step))


def _layout_label(name: str) -> str:
    if name.startswith("file:"):
        return Path(name[len("file:"):]).stem
    return name


def cmd_detect(args) -> int:
    cfg, cfg_layout, det = _load_manifest(args)
    M_t, L = _geometry(args, cfg_layout)
    # one replace: DetectionParams checks itself, and a partial override can be invalid
    overrides = {"P_fa": args.pfa, "trials": args.trials,
                 "snr_grid": None if args.snr is None else _parse_snr(args.snr)}
    det = replace(det, **{k: v for k, v in overrides.items() if v is not None})
    code = _code_for(args, cfg, M_t)

    names = [n.strip() for n in args.layouts.split(",") if n.strip()]
    if not names:
        raise ValidationError("--layouts: expected a comma-separated list")
    labels = [_layout_label(n) for n in names]
    for label in labels:
        if labels.count(label) > 1:
            raise ValidationError(f"--layouts: label {label!r} appears more than once")
    # resolve and pair-check every layout before any detection or write
    layouts = {name: _resolve_layout(name, M_t, L, cfg_layout, args.seed)
               for name in names if name != "optimized"}
    for layout in layouts.values():
        _check_pair(layout, code, cfg)
    if "optimized" in names:
        alpha = _parse_alpha(args.alpha)
        grid = build_grid(cfg, _equidistant_budget(M_t, L), theta_eval=args.theta_eval)
        poly = FeasiblePolytope.spacing_bounds(M_t, L)
        best, _ = _run_optimizer(args, poly, ObjectiveEvaluator(grid, code, cfg),
                                 alpha)
        layouts["optimized"] = best.layout

    out = _out_dir(args)
    curves = {}
    for name, label in zip(names, labels):
        curve = detection_probability(layouts[name], code, cfg, det, seed=args.seed)
        doc = config_to_dict(cfg, layouts[name], det)
        write_csv(out / f"detect_{label}.csv", {
            "snr_db": curve.snr_db, "p_d": curve.p_d,
            "ci_low": curve.ci_low, "ci_high": curve.ci_high,
        }, doc, seed=args.seed, extra={
            "threshold": curve.threshold, "pfa_target": curve.pfa_target,
            "pfa_measured": curve.pfa_measured, "trials": curve.trials,
        })
        curves[label] = curve

    first = curves[next(iter(curves))]
    cols = {"snr_db": first.snr_db}
    for label, curve in curves.items():
        cols[f"p_d_{label}"] = curve.p_d
    doc = config_to_dict(cfg, None, det)
    path = out / "detect_compare.csv"
    write_csv(path, cols, doc, seed=args.seed,
              extra={"layouts": ";".join(curves)})
    print(f"detect: wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file (flat keys)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one configuration key (repeatable)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--mt", type=int, default=None, help="transmit antennas")
    p.add_argument("--budget", type=float, default=None,
                   help="aperture budget L in wavelengths")
    p.add_argument("--code", default=None,
                   help="hop-code JSON file (default: generated from seed)")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("rgpm", "ga"), default="rgpm")
    p.add_argument("--alpha", default="1,0,0", metavar="A1,A2,A3",
                   help="objective weights, must sum to 1")
    p.add_argument("--starts", type=int, default=4,
                   help="multi-start count for rgpm")
    p.add_argument("--kmax", type=int, default=150, help="iteration cap")
    p.add_argument("--threshold", type=float, default=1e-2,
                   help="projected-gradient convergence threshold")
    p.add_argument("--generations", type=int, default=100, help="ga generations")
    p.add_argument("--population", type=int, default=16, help="ga population")
    p.add_argument("--theta-eval", type=float, nargs="?", default=None,
                   const=THETA_EVAL_DEFAULT, metavar="RAD",
                   help="single-angle mode for the Doppler/delay objectives "
                        f"(flag alone = {THETA_EVAL_DEFAULT:.4f} rad)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mafh",
        description="Movable-antenna frequency-hopping radar toolbox",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("af", help="sample one ambiguity-function cut")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   choices=("angular", "doppler", "delay"))
    p.add_argument("--layout", default=None,
                   help="equidistant | mmlwd | random | file:PATH")
    p.add_argument("--theta", type=float, default=0.0,
                   help="matched target angle (rad)")
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--lo", type=float, default=None, help="axis range start")
    p.add_argument("--hi", type=float, default=None, help="axis range end")
    p.set_defaults(func=cmd_af)

    p = sub.add_parser("theory", help="width formula sweeps and lower bounds")
    _add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sweep", choices=("L", "Mt", "theta"),
                      help="emit the closed-form width over this variable")
    mode.add_argument("--bound", choices=("doppler", "delay"),
                      help="emit the sidelobe lower bound on this axis")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--points", type=int, default=481)
    p.add_argument("--sweep-lo", type=float, default=None)
    p.add_argument("--sweep-hi", type=float, default=None)
    p.add_argument("--sweep-points", type=int, default=None)
    p.add_argument("--vmax", type=float, default=None,
                   help="Doppler range (Hz), default f_max")
    p.add_argument("--tau-max", type=float, default=None,
                   help="delay range (s), default T_w")
    p.add_argument("--layout", default=None,
                   help="overlay |chi| of this layout on the bound grid")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("optimize", help="optimize antenna spacings")
    _add_common(p)
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("tradeoff", help="objective sweep over a weight simplex")
    _add_common(p)
    _add_optimizer_flags(p)
    p.add_argument("--resolution", type=int, default=5,
                   help="simplex resolution (5 -> 21 weight triples)")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("detect", help="Monte Carlo detection curves")
    _add_common(p)
    _add_optimizer_flags(p)
    p.add_argument("--layouts", default="equidistant,optimized",
                   help="comma list: equidistant|mmlwd|random|optimized|file:PATH")
    p.add_argument("--pfa", type=float, default=None,
                   help="false-alarm probability override")
    p.add_argument("--snr", default=None, metavar="FROM:TO:STEP",
                   help="SNR grid in dB")
    p.add_argument("--trials", type=int, default=None,
                   help="Monte Carlo trials per point")
    p.set_defaults(func=cmd_detect)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:        # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

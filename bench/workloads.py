"""The four benchmark workloads, each driven in a closed loop by one client.

A workload is set up once per process (``setup_s`` covers importing this
module, which imports ``mafh`` and ``mafh.cli``, plus the constructor), then
runs timed *passes* until the time budget is spent.  Every pass takes its
inputs from ``(seed, pass index)`` only; ``mafh`` receives nothing else.
Checks and fingerprints run after a pass, outside its timed interval.

* ``screen`` — layout screening as in acceptance criterion 04: Doppler and
  delay cuts checked against the layout-independent bounds, one angular cut
  per layout measured with ``measure_lobes``.  Kernel-table builds dominate.
* ``sweep`` — ``mafh tradeoff`` with rgpm (4 starts, full grid) over the
  resolution-2 weight simplex, corner (1,0,0) included.  Objective value and
  gradient dominate; the multistart thread pool runs.
* ``ga`` — the same sweep with ``--method ga``: objective values only, no
  gradient and no line search.
* ``detect`` — ``mafh detect`` on two layouts with the default SNR grid:
  Monte Carlo draws dominate; tables and objectives do almost nothing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

import mafh
import mafh.cli
from mafh import (AmbiguityQuery, AntennaLayout, FeasiblePolytope,
                  RadarConfig, ValidationError, build_grid, chi_mag_sq,
                  generate_fh_code, parse_config, random_feasible_layout)
from mafh.ambiguity import kernel_matrix, steering

THETA_CUT = math.pi / 3        # matched angle of the Doppler/delay cuts
CUT_POINTS = 481               # samples per Doppler/delay cut (criterion 04)
ANGULAR_POINTS = 2001          # samples per angular cut
# measure_lobes' default 5 % null threshold finds no null on 112 of the 216
# four-element grid layouts (their unequal spacings leave partial nulls), so
# the angular cut takes the first minima below 30 % of the peak (-10.5 dB).
LOBE_THRESHOLD = 0.3
ORACLE_RATE = 128              # oracle sampling rate / bandwidth (criterion 01)
SPACINGS = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
# criterion 04 screens 200 eight-element and 216 four-element layouts, about
# one to one; a pass keeps that proportion
M8_PER_PASS, M4_PER_PASS = 3, 3
RESOLUTION = 2                 # 6 weight triples, corners included
PFA = 1e-4
DETECT_LAYOUTS = "equidistant,mmlwd"
CI_MULTIPLE = 5.0              # detection checks: |measured - closed form| <= 5 sd
F_RTOL = 1e-9


@dataclass
class Pass:
    """What one timed pass produced."""

    seed: int           # pass seed: names the pass inputs
    seconds: float      # timed interval
    items: list         # per-item latencies (s)
    units: int          # throughput units completed
    attempted: int
    failed: int         # failures known without the checks
    spans: list
    data: object        # inputs to check() and fingerprint()


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _items(starts, end):
    """Latencies between consecutive item starts; the last item ends at ``end``."""
    return [b - a for a, b in zip(starts, starts[1:] + [end])]


class Screen:
    name = "screen"
    unit = "cuts/s"
    item, attempt = "layouts", "cuts"
    boundary = None
    nominal_s = 1.3             # typical pass time; sets the traced pass count

    def __init__(self, seed, out_root):
        self.seed = seed
        self.cfg = RadarConfig()
        self.code = {8: generate_fh_code(self.cfg, 8, seed),
                     4: generate_fh_code(self.cfg, 4, seed)}
        grid = [np.array(c) for c in itertools.product(SPACINGS, repeat=3)]
        order = np.random.default_rng(seed).permutation(len(grid))
        self.grid4 = [grid[i] for i in order]
        self.bounds = {}
        self.oracle_cfg = RadarConfig(f_s=ORACLE_RATE * self.cfg.bandwidth)

    def _layouts(self, index):
        for j in range(M8_PER_PASS):
            yield 8, random_feasible_layout(8, 20.0, self.seed * 1000
                                            + index * M8_PER_PASS + j)
        for j in range(M4_PER_PASS):
            d = self.grid4[(index * M4_PER_PASS + j) % len(self.grid4)]
            yield 4, AntennaLayout(d=d, L=float(d.sum()))

    def _bound(self, M_t, axis, coords):
        key = (M_t, axis)
        if key not in self.bounds:   # layout independent: once per code and axis
            fn = (mafh.doppler_lower_bound if axis == "doppler"
                  else mafh.delay_lower_bound)
            self.bounds[key] = fn(coords, self.code[M_t], self.cfg, M_t)
        return self.bounds[key]

    def run_pass(self, index, tracer):
        cfg = self.cfg
        rows, items = [], []
        t_start = time.perf_counter()
        for M_t, lay in self._layouts(index):
            t0 = time.perf_counter()
            code = self.code[M_t]
            cuts = {}
            for axis in ("doppler", "delay"):
                s = mafh.af_slice(axis, lay, code, cfg, theta=THETA_CUT,
                                  n_points=CUT_POINTS)
                gap = mafh.bound_gap(s, self._bound(M_t, axis, s.coords))
                cuts[axis] = (s, gap)
            s = mafh.af_slice("angular", lay, code, cfg, theta=0.0,
                              n_points=ANGULAR_POINTS)
            try:
                lobe = mafh.measure_lobes(s, LOBE_THRESHOLD)
            except ValidationError:
                lobe = None
            items.append(time.perf_counter() - t0)
            rows.append((M_t, lay, cuts, lobe))
        seconds = time.perf_counter() - t_start
        n = 3 * len(rows)
        return Pass(self.seed * 1000 + index, seconds, items, n, n, 0,
                    tracer.take(), rows)

    def check(self, p):
        """Oracle spot-check of one sampled point per layout, bound and lobe status."""
        errors = []
        rng = np.random.default_rng([self.seed, p.seed])
        for k, (M_t, lay, cuts, lobe) in enumerate(p.data):
            axis = ("doppler", "delay")[k % 2]
            s, gap = cuts[axis]
            i = int(rng.integers(s.coords.size))
            c = float(s.coords[i])
            q = AmbiguityQuery(tau=c if axis == "delay" else 0.0,
                               v=c if axis == "doppler" else 0.0,
                               theta=THETA_CUT, theta_p=THETA_CUT)
            ref = abs(mafh.chi_oracle(q, lay, self.code[M_t], self.oracle_cfg))
            if abs(ref - s.values[i]) > 1e-4 * M_t:
                errors.append(f"pass {p.seed} layout {k}: {axis} cut at {c:.6g} "
                              f"is {s.values[i]:.9g}, oracle {ref:.9g}")
            for ax, (_, g) in cuts.items():
                if g.violation_count:
                    errors.append(f"pass {p.seed} layout {k}: {g.violation_count} "
                                  f"{ax} bound violations (min gap {g.min_gap:.3g})")
            if lobe is None:
                errors.append(f"pass {p.seed} layout {k}: no angular lobe measured")
        return errors

    def fingerprint(self, p):
        h = hashlib.sha256()
        for M_t, lay, cuts, lobe in p.data:
            for s, _ in cuts.values():
                h.update(",".join(f"{v:.10g}" for v in s.values).encode())
            if lobe is not None:
                h.update(f"{lobe.width:.10g},{lobe.psl_db:.10g}".encode())
        return {"cuts": h.hexdigest()[:16]}


class _Command:
    """A workload that calls ``mafh.cli.main`` once per pass.

    The command's ``--seed`` (hop code and the command's own random draws)
    is the pass seed, unless the workload fixes it.
    """

    fixed_seed = None

    def __init__(self, seed, out_root):
        self.seed = seed
        self.out = Path(out_root) / f"{self.name}-{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg, _, self.det = parse_config({})
        generate_fh_code(self.cfg, 8, self.pass_seed(0))   # set-up covers it

    def pass_seed(self, index):
        if self.fixed_seed is not None:
            return self.fixed_seed
        return self.seed * 1000 + index

    def _argv(self, pass_seed, out):
        raise NotImplementedError

    def run_pass(self, index, tracer):
        pass_seed = self.pass_seed(index)
        out = self.out / f"pass-{index}"
        argv = self._argv(pass_seed, out)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = mafh.cli.main(argv)
        t1 = time.perf_counter()
        spans = tracer.take()
        if rc != 0:
            raise RuntimeError(f"mafh {' '.join(argv)} exited {rc}")
        calls = [s for s in spans if s[2] == self.boundary]
        items = _items([s[4] for s in calls], t1)
        results = [s[6]["result"] for s in calls]
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        shutil.rmtree(out)
        return self._finish(pass_seed, t1 - t0, items, results, files, spans)


class _Tradeoff(_Command):
    unit = "triples/s"

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self.tables = {}

    def _argv(self, pass_seed, out):
        return ["tradeoff", "--resolution", str(RESOLUTION), "--seed",
                str(pass_seed), "--out-dir", str(out)] + self.extra

    def _finish(self, pass_seed, seconds, items, results, files, spans):
        layouts = [self._layout(r) for r in results]
        attempted, failed = self._outcomes(results)
        rows = list(csv.DictReader(
            line for line in files["tradeoff.csv"].decode().splitlines()
            if not line.startswith("#")))
        return Pass(pass_seed, seconds, items, len(rows), attempted, failed,
                    spans, {"rows": rows, "layouts": layouts, "files": files})

    def _tables(self, pass_seed):
        """Code, grid and the three kernel tables of one pass, built once."""
        if pass_seed not in self.tables:
            code = generate_fh_code(self.cfg, 8, pass_seed)
            ref = AntennaLayout(d=np.full(7, 0.5), L=7.0)
            g = build_grid(self.cfg, ref, (1.0, 0.0, 0.0))
            self.tables[pass_seed] = (
                code, g, kernel_matrix(0.0, 0.0, code, self.cfg),
                kernel_matrix(0.0, g.v_samples, code, self.cfg),
                kernel_matrix(g.tau_samples, 0.0, code, self.cfg))
        return self.tables[pass_seed]

    def _objectives(self, pass_seed, lay, rng):
        """f1, f2, f3 of layout ``lay`` without ``ObjectiveEvaluator``.

        The Riemann sums of ``mafh.objective`` are taken with plain matrix
        products over ``kernel_matrix`` tables, and one sampled point of each
        table is checked against ``chi_mag_sq``, which does not use the
        tables.  Returns the three values and a list of table errors.
        """
        code, g, G1, G2, G3 = self._tables(pass_seed)
        Q, M = self.cfg.Q, code.M_t
        x = lay.x
        A = steering(g.theta_samples, x)
        chi1 = A @ G1 @ A.conj().T / Q                      # (theta, theta_p)
        B = steering(g.theta_f23, x)
        chi2 = ((B @ G2) * B.conj()).sum(axis=-1) / Q       # (v, theta)
        chi3 = ((B @ G3) * B.conj()).sum(axis=-1) / Q       # (tau, theta)
        fs = (g.d_theta ** 2 * float((np.abs(chi1) ** 2).sum()),
              g.w_theta23 * g.d_v * float((np.abs(chi2) ** 2).sum()),
              g.w_theta23 * g.d_tau * float((np.abs(chi3) ** 2).sum()))
        t, s = rng.integers(g.theta_samples.size, size=2)
        k, v, u = (rng.integers(n) for n in
                   (g.v_samples.size, g.tau_samples.size, g.theta_f23.size))
        th, tp, t23 = (float(g.theta_samples[t]), float(g.theta_samples[s]),
                       float(g.theta_f23[u]))
        spots = ((chi1[t, s], AmbiguityQuery(theta=th, theta_p=tp)),
                 (chi2[k, u], AmbiguityQuery(
                     v=float(g.v_samples[k]), theta=t23, theta_p=t23)),
                 (chi3[v, u], AmbiguityQuery(
                     tau=float(g.tau_samples[v]), theta=t23, theta_p=t23)))
        errors = []
        for name, (value, q) in zip(("G1", "G2", "G3"), spots):
            got = abs(complex(value)) ** 2
            want = chi_mag_sq(q, lay, code, self.cfg)
            if abs(got - want) > F_RTOL * M * M:
                errors.append(f"{name} |chi|^2 {got!r} != chi_mag_sq {want!r} "
                              f"at {q}")
        return fs, errors

    def check(self, p):
        """Feasible layouts, and every reported f1, f2, f3, f recomputed."""
        errors = []
        rows, layouts = p.data["rows"], p.data["layouts"]
        if len(rows) != len(layouts):
            return [f"pass {p.seed}: {len(rows)} rows for {len(layouts)} runs"]
        poly = FeasiblePolytope.spacing_bounds(8, 7.0)
        rng = np.random.default_rng([self.seed, p.seed])
        for k, (row, lay) in enumerate(zip(rows, layouts)):
            bad = []
            if not poly.contains(lay.d):
                bad.append("infeasible layout")
            fs, table_errors = self._objectives(p.seed, lay, rng)
            bad += table_errors
            alpha = [float(row[a]) for a in ("a1", "a2", "a3")]
            want = dict(zip(("f1", "f2", "f3"), fs))
            want["f"] = sum(a * f for a, f in zip(alpha, fs))
            for col, val in want.items():
                got = float(row[col])
                if abs(got - val) > F_RTOL * max(abs(val), 1e-12):
                    bad.append(f"{col} {got!r} != recomputed {val!r}")
            if bad:
                errors.append(f"pass {p.seed} triple {k}: " + "; ".join(bad))
        return errors

    def fingerprint(self, p):
        fp = {name: _digest(blob) for name, blob in p.data["files"].items()}
        fp["f"] = [f"{float(r['f']):.10g}" for r in p.data["rows"]]
        return fp

    def objective_values(self, p):
        return [float(r["f"]) for r in p.data["rows"]]


class Sweep(_Tradeoff):
    name = "sweep"
    item, attempt = "triples", "multistart starts"
    boundary = "rgpm.rgpm_multistart"
    nominal_s = 5.0
    # Every pass runs the command's default seed: pass time follows how many
    # random starts converge, which moves it by about 15 % from seed to seed,
    # more than a run can average out.  Seed 0 is also the protocol whose
    # (1,0,0) start 4 shows the roundoff stall.
    fixed_seed = 0
    extra = []

    @staticmethod
    def _layout(result):
        return result[0].layout

    @staticmethod
    def _outcomes(results):
        runs = [r for _, rs in results for r in rs]
        bad = sum(r.certificate.get("reason") in ("stalled", "max-iterations")
                  for r in runs)
        return len(runs), bad


class Ga(_Tradeoff):
    name = "ga"
    item, attempt = "triples", "triples"
    boundary = "ga.ga_optimize"
    nominal_s = 5.5
    extra = ["--method", "ga"]

    @staticmethod
    def _layout(result):
        return result.layout

    @staticmethod
    def _outcomes(results):
        return len(results), 0


class Detect(_Command):
    name = "detect"
    unit = "draws/s"
    item, attempt = "detection curves", "SNR points and P_fa checks"
    boundary = "metrics.detection_probability"
    nominal_s = 1.6

    def _argv(self, pass_seed, out):
        return ["detect", "--layouts", DETECT_LAYOUTS, "--pfa", repr(PFA),
                "--seed", str(pass_seed), "--out-dir", str(out)]

    def _finish(self, pass_seed, seconds, items, results, files, spans):
        draws = sum(c.trials * (2 + len(c.snr_db)) for c in results)
        attempted = sum(len(c.snr_db) + 1 for c in results)
        return Pass(pass_seed, seconds, items, draws, attempted, 0, spans,
                    {"curves": results, "files": files})

    def check(self, p):
        """Closed form: T = -sigma^2 ln P_fa, P_d = ncx2.sf(2T/sigma^2, 2, 2a^2/sigma^2).

        The threshold is calibrated on ``trials`` noise draws, so the tolerance
        combines the binomial spread of each estimate with the spread the
        empirical threshold passes on (delta method on the 1 - P_fa quantile).
        """
        errors = []
        M_t, M_r = 8, self.det.M_r
        sigma2 = float(M_t)
        for curve in p.data["curves"]:
            n = curve.trials
            T = -sigma2 * math.log(PFA)
            sd_T = sigma2 * math.sqrt((1.0 - PFA) / (n * PFA))
            sd_fa = math.sqrt(2.0 * PFA * (1.0 - PFA) / n)
            if abs(curve.pfa_measured - PFA) > CI_MULTIPLE * sd_fa:
                errors.append(f"pass {p.seed}: P_fa {curve.pfa_measured:.3g} "
                              f"vs target {PFA:g} (sd {sd_fa:.2g})")
            for snr_db, pd in zip(curve.snr_db, curve.p_d):
                lam = 2.0 * M_r * 10.0 ** (snr_db / 10.0) * M_t ** 2 / sigma2
                x = 2.0 * T / sigma2
                want = float(stats.ncx2.sf(x, 2, lam))
                dens = 2.0 / sigma2 * float(stats.ncx2.pdf(x, 2, lam))
                sd = math.sqrt(max(want * (1.0 - want), 1.0 / n) / n
                               + (dens * sd_T) ** 2)
                if abs(pd - want) > CI_MULTIPLE * sd:
                    errors.append(f"pass {p.seed}: P_d {pd:.6f} at {snr_db:g} dB "
                                  f"vs closed form {want:.6f} (sd {sd:.2g})")
        return errors

    def fingerprint(self, p):
        return {name: _digest(blob) for name, blob in p.data["files"].items()}


WORKLOADS = {w.name: w for w in (Screen, Sweep, Ga, Detect)}

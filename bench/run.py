#!/usr/bin/env python3
"""Benchmark of the ``mafh`` package: four workloads, one closed-loop client.

Usage (from the repository root)::

    python3 bench/run.py --workload screen|sweep|ga|detect --seed N \
        --seconds S --trace 0|1

``--trace 0`` runs timed passes until ``S`` seconds are spent and prints the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs a fixed number of
passes twice, first with only the item-boundary span and then with a span
around every public ``mafh`` function, and prints the per-layer metrics of
BENCHMARK.json plus the tracing overhead (traced minus untraced ``wall_s``).
The package is imported from ``src`` in-process; BLAS and OpenMP are pinned
to one thread and ``MAFH_THREADS`` is left at its automatic default.

Every pass is checked for correctness after it is timed; a failed check
makes the run exit 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files, span logs and a full result document go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("MAFH_THREADS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 4          # fresh processes timed besides this one
TAIL_BEYOND = 10          # items beyond the reported tail percentile
# per-layer values every run prints with their sample counts
SUMMARISED = ("item_p50_ms", "item_tail_ms", "item.count", "fail_ratio",
              "objective_mean")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("screen", "sweep", "ga", "detect"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="add this run's pass fingerprints to "
                         "bench/reference.json where none is recorded")
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD commit read from .git inside the checkout, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp(args, workers):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MAFH_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "multistart_workers": workers,
    }


def probe_setup(workload, seed):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
         str(OUT)], env=env, check=True, capture_output=True, text=True,
        timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def timed(wl, tracer, budget=None, count=None):
    """Run passes back to back: ``count`` of them, or until ``budget`` is spent."""
    passes = []
    with tracer:
        start = time.perf_counter()
        while True:
            passes.append(wl.run_pass(len(passes), tracer))
            if count is not None:
                if len(passes) >= count:
                    break
                continue
            if time.perf_counter() - start >= budget:
                break
    return passes


def tail(items):
    """(value, percentile): the highest percentile with 10 items beyond it.

    With fewer than 20 items no percentile above the median has 10 items
    beyond it, and the maximum is reported as p100.
    """
    xs = sorted(items)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def fingerprints(wl, passes, reference, problems):
    """Pass fingerprints by key; disagreements are appended to ``problems``."""
    fps = {}
    for p in passes:
        key = str(p.seed)
        fp = wl.fingerprint(p)
        if key in fps and fps[key] != fp:
            problems.append(f"{key}: rerun of the same inputs differs")
        fps[key] = fp
        want = reference.get(key)
        if want is None:
            continue
        for name in sorted(set(want) | set(fp)):
            if want.get(name) != fp.get(name):
                problems.append(f"{key} {name}: reference {want.get(name)} "
                                f"got {fp.get(name)}")
    return fps


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mafh" / "__init__.py").is_file():
        print(f"error: no mafh package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    sys.path[:0] = [str(SRC), str(BENCH)]

    t0 = time.perf_counter()
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, OUT)
    setups = [time.perf_counter() - t0]
    if args.trace == 0:     # setup_s is reported by untraced runs only
        setups += [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]

    import mafh.rgpm
    from layers import layer_metrics
    from tracer import Tracer, write_spans
    if not Path(mafh.__file__).resolve().is_relative_to(SRC):
        print(f"error: mafh imported from {mafh.__file__}", file=sys.stderr)
        return 2

    boundary = {cls.boundary} - {None}
    light = Tracer(only=boundary, keep_results=boundary)
    layers, extra = {}, {}
    if args.trace == 0:
        passes = timed(wl, light, budget=args.seconds)
        measured = passes
        # high-water mark of the timed passes, before the checks add theirs
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        n = max(1, round(args.seconds / (2 * cls.nominal_s)))
        untraced = timed(wl, light, count=n)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        full = Tracer(keep_results=boundary)
        passes = timed(cls(args.seed, OUT), full, count=n)
        spans = [s for p in passes for s in p.spans]
        single = []
        if args.workload == "sweep":
            os.environ["MAFH_THREADS"] = "1"
            try:
                single = timed(cls(args.seed, OUT), Tracer(keep_results=boundary),
                               count=1)
            finally:
                os.environ.pop("MAFH_THREADS")
        wall = statistics.median(p.seconds for p in passes)
        layers = layer_metrics(spans, sum(p.seconds for p in passes),
                               [s for p in single for s in p.spans])
        layers["tracing.overhead_s"] = wall - statistics.median(
            p.seconds for p in untraced)
        span_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans, span_path)
        extra["spans_file"] = str(span_path.relative_to(ROOT))
        measured = untraced
        passes = untraced + passes + single

    errors = [e for p in passes for e in wl.check(p)]
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + len(errors))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    mismatches = []
    fps = fingerprints(wl, passes,
                       reference.get(args.workload, {}), mismatches)
    values_of = getattr(wl, "objective_values", None)
    objective = [f for p in passes for f in values_of(p)] if values_of else []
    items = [x for p in measured for x in p.items]
    tail_value, tail_pct = tail(items)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.seconds for p in measured),
        "throughput": (sum(p.units for p in measured)
                       / sum(p.seconds for p in measured)),
        "peak_rss_mb": peak_rss,
    }
    layers.update({
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_tail_ms": 1e3 * tail_value,
        "item.count": len(items),
        "fail_ratio": failed / attempted,
        "objective_mean": statistics.fmean(objective) if objective else 0.0,
        "fingerprint.mismatches": len(mismatches),
    })
    stamp = environment_stamp(args, min(mafh.rgpm._worker_count(), 4))
    digest = hashlib.sha256(json.dumps(fps, sort_keys=True).encode()).hexdigest()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {args.workload}: {len(measured)} untraced passes, throughput "
          f"in {cls.unit}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"item_p50_ms = {layers['item_p50_ms']:.6g} ms, item_tail_ms = "
          f"{layers['item_tail_ms']:.6g} ms (p{tail_pct:.1f} of {len(items)} "
          f"{cls.item})")
    print(f"fail_ratio = {layers['fail_ratio']:.6g} ({failed}/{attempted} "
          f"{cls.attempt})")
    if objective:
        print(f"objective_mean = {layers['objective_mean']:.10g} "
              f"over {len(objective)} triples")
    if args.trace:
        for name, value in layers.items():
            if name not in SUMMARISED:
                print(f"{name} = {value:.6g} {units[name]}")
    print(f"fingerprint = {digest[:16]} ({len(fps)} distinct pass inputs)")
    for line in mismatches:
        print(f"FINGERPRINT MISMATCH {args.workload} {line}")
    for line in errors[:20]:
        print(f"CHECK FAILED {args.workload} {line}")
    print("stamp = " + json.dumps(stamp))

    if args.update_reference:
        ref = reference.setdefault(args.workload, {})
        for key, fp in fps.items():
            ref.setdefault(key, fp)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in names}}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "end_to_end": e2e, "per_layer": layers,
                    "stamp": stamp, "fingerprints": fps,
                    "fingerprint_mismatches": mismatches, "errors": errors,
                    "setup_samples_s": setups,
                    "pass_seconds": [p.seconds for p in measured],
                    **extra}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

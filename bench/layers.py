"""Per-layer metrics computed from the spans of a traced run.

Each metric names the layer boundary it is measured at; ``busy_s`` is the
summed span duration, ``self_s`` the duration not covered by child spans.
Counts (calls, samples, entries, iterations, evaluations, draws, bytes)
repeat exactly for a given seed and run length; times do not.
"""

from __future__ import annotations

import statistics

from tracer import self_times


def _ancestor_index(spans):
    parent = {s[0]: s[1] for s in spans}
    name = {s[0]: s[2] for s in spans}

    def has_ancestor(sid, target):
        sid = parent.get(sid, 0)
        while sid:
            if name[sid] == target:
                return True
            sid = parent.get(sid, 0)
        return False

    return has_ancestor


def layer_metrics(spans, traced_wall, single_spans=()):
    """Metric name -> value over ``spans``; ``traced_wall`` is the summed pass time.

    ``single_spans`` are the spans of the same first pass run with
    ``MAFH_THREADS=1`` (sweep only), the single-threaded baseline.
    """
    selfs = self_times(spans)
    by = {}
    for s in spans:
        by.setdefault(s[2], []).append(s)
    has_ancestor = _ancestor_index(spans)

    def group(*names):
        return [s for n in names for s in by.get(n, ())]

    def busy(rows):
        return sum(s[5] - s[4] for s in rows)

    def self_s(rows):
        return sum(selfs[s[0]] for s in rows)

    def attr_sum(rows, key):
        return sum(s[6][key] for s in rows if s[6] and key in s[6])

    def mean_us(rows):
        return 1e6 * busy(rows) / len(rows) if rows else 0.0

    m = {}
    km = group("ambiguity.kernel_matrix")
    keys = {s[6]["key"] for s in km if s[6]}
    m["ambiguity.kernel_matrix.calls"] = len(km)
    m["ambiguity.kernel_matrix.busy_s"] = busy(km)
    m["ambiguity.kernel_matrix.share"] = busy(km) / traced_wall
    m["ambiguity.kernel_matrix.samples"] = attr_sum(km, "samples")
    m["ambiguity.kernel_matrix.entries_computed"] = attr_sum(km, "entries")
    m["ambiguity.kernel_matrix.reuse_ratio"] = len(keys) / len(km) if km else 0.0

    sl = group("ambiguity.af_slice")
    m["ambiguity.af_slice.calls"] = len(sl)
    m["ambiguity.af_slice.busy_s"] = busy(sl)
    m["ambiguity.af_slice.self_s"] = self_s(sl)

    tb = group("theory.doppler_lower_bound", "theory.delay_lower_bound")
    m["theory.bound.calls"] = len(tb)
    m["theory.bound.busy_s"] = busy(tb)
    m["metrics.bound_gap.busy_s"] = busy(group("metrics.bound_gap"))
    m["metrics.measure_lobes.busy_s"] = busy(group("metrics.measure_lobes"))

    commands = len(group("cli.main"))
    evs = group("objective.ObjectiveEvaluator.__init__")
    m["objective.evaluators"] = len(evs) / commands if commands else 0.0
    f = group("objective.ObjectiveEvaluator.f_weighted")
    g = group("objective.ObjectiveEvaluator.grad_f_weighted")
    for label, rows in (("f", f), ("grad", g)):
        m[f"objective.{label}.calls"] = len(rows)
        m[f"objective.{label}.busy_s"] = busy(rows)
        m[f"objective.{label}.mean_us"] = mean_us(rows)
    m["objective.grad_over_f"] = mean_us(g) / mean_us(f) if f and g else 0.0

    ms = group("rgpm.rgpm_multistart")
    opt = group("rgpm.rgpm_optimize")
    m["rgpm.multistart.calls"] = len(ms)
    m["rgpm.multistart.busy_s"] = busy(ms)
    m["rgpm.multistart.p50_s"] = (statistics.median(s[5] - s[4] for s in ms)
                                  if ms else 0.0)
    m["rgpm.optimize.calls"] = len(opt)
    m["rgpm.optimize.busy_s"] = busy(opt)
    m["rgpm.optimize.self_s"] = self_s(opt)
    iters = attr_sum(opt, "iterations")
    f_opt = sum(has_ancestor(s[0], "rgpm.rgpm_optimize") for s in f)
    m["rgpm.iterations"] = iters
    m["rgpm.f_evals_per_iter"] = f_opt / iters if iters else 0.0
    m["rgpm.stalls"] = sum(bool(s[6]["stalled"]) for s in opt)
    m["rgpm.uncertified_ratio"] = (sum(not s[6]["converged"] for s in opt)
                                   / len(opt) if opt else 0.0)
    capacity = sum((s[5] - s[4]) * s[6]["workers"] for s in ms)
    m["rgpm.parallel_efficiency"] = busy(opt) / capacity if capacity else 0.0
    single = [s for s in single_spans if s[2] == "rgpm.rgpm_multistart"]
    # the single-threaded pass repeats the first traced pass, same inputs
    first = ms[:len(single)]
    m["rgpm.single_thread_s"] = busy(single)
    m["rgpm.thread_speedup"] = busy(single) / busy(first) if single else 0.0

    ga = group("ga.ga_optimize")
    m["ga.calls"] = len(ga)
    m["ga.busy_s"] = busy(ga)
    m["ga.self_s"] = self_s(ga)
    m["ga.f_evals"] = sum(has_ancestor(s[0], "ga.ga_optimize") for s in f)

    det = group("metrics.detection_probability")
    draws = attr_sum(det, "draws")
    m["metrics.detection.calls"] = len(det)
    m["metrics.detection.busy_s"] = busy(det)
    m["metrics.detection.draws"] = draws
    m["metrics.detection.draws_per_s"] = draws / busy(det) if det else 0.0

    wr = group("output.write_csv", "output.write_json")
    m["output.write.calls"] = len(wr)
    m["output.write.busy_s"] = busy(wr)
    m["output.write.bytes"] = attr_sum(wr, "bytes")
    m["cli.self_s"] = self_s([s for s in spans if s[2].startswith("cli.")])
    m["tracing.spans"] = len(spans)
    return m

"""Outside-in span recorder for the ``mafh`` package.

The tracer wraps the public functions of every ``mafh`` module, plus the
``ObjectiveEvaluator`` methods named in ``METHODS``, without touching the
package source: each wrapper is installed at *every* module attribute that
holds the original function, because ``from .x import f`` copies the
binding into the importing module (``kernel_matrix``, for example, is bound
in ``mafh.ambiguity``, ``mafh.objective`` and ``mafh.cli``).

A span is (id, parent id, name, thread id, start, end, attrs).  Spans are
kept in memory under a lock, because multistart descents run on a thread
pool, and written out once at the end.  A span opened on a pool thread with
no open span of its own takes the innermost open span of the main thread as
its parent: that is the ``rgpm_multistart`` call waiting on the pool.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import threading
import time

import numpy as np

import mafh
from mafh import (ambiguity, cli, ga, metrics, model, objective, output, rgpm,
                  theory)

MODULES = (ambiguity, cli, ga, metrics, model, objective, output, rgpm, theory)
METHODS = {objective.ObjectiveEvaluator: ("__init__", "f_weighted",
                                          "grad_f_weighted")}


def _kernel_attrs(args, kwargs, result):
    tau, v, code, cfg = args[:4]
    samples = int(np.prod(np.broadcast_shapes(np.shape(tau), np.shape(v))))
    key = hashlib.sha256()
    for part in (code.c, np.asarray(tau, dtype=float), np.asarray(v, dtype=float)):
        key.update(np.ascontiguousarray(part).tobytes())
    key.update(repr(cfg).encode())
    return {"samples": samples,
            "entries": samples * code.M_t ** 2 * code.Q ** 2,
            "key": key.hexdigest()[:16]}


def _optimize_attrs(args, kwargs, result):
    return {"iterations": result.trace[-1].k, "stalled": result.stalled,
            "converged": result.converged,
            "reason": result.certificate.get("reason", "")}


def _multistart_attrs(args, kwargs, result):
    n_starts = kwargs.get("n_starts", args[6] if len(args) > 6 else 4)
    return {"workers": min(rgpm._worker_count(), n_starts)}


def _detection_attrs(args, kwargs, result):
    det = args[3]
    return {"draws": det.trials * (2 + len(det.snr_grid))}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> attrs(args, kwargs, result), evaluated after a successful call
ATTRS = {
    "ambiguity.kernel_matrix": _kernel_attrs,
    "rgpm.rgpm_optimize": _optimize_attrs,
    "rgpm.rgpm_multistart": _multistart_attrs,
    "metrics.detection_probability": _detection_attrs,
    "output.write_csv": _write_attrs,
    "output.write_json": _write_attrs,
}


def targets():
    """(span name, callable, [(holder, attribute), ...]) for everything wrapped.

    The holders of a module function are all module attributes bound to it.
    """
    holders = (mafh,) + MODULES
    out = []
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                sites = [(h, attr) for h in holders
                         for attr, val in vars(h).items() if val is obj]
                out.append((f"{short}.{name}", obj, sites))
    for cls, names in METHODS.items():
        short = cls.__module__.rsplit(".", 1)[-1]
        for meth in names:
            out.append((f"{short}.{cls.__name__}.{meth}", vars(cls)[meth],
                        [(cls, meth)]))
    return out


class Tracer:
    """Records spans around the selected ``mafh`` functions while installed.

    ``only`` limits the wrapped span names (None wraps everything);
    ``keep_results`` names the spans whose return value is kept in
    ``attrs["result"]``, which the workloads read to check outputs.
    """

    def __init__(self, only=None, keep_results=()):
        self.only = None if only is None else set(only)
        self.keep_results = set(keep_results)
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks = {}
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)
        keep = name in self.keep_results
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and stack is not main else 0
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if attrs is None:
                    attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
                    if keep:
                        attrs["result"] = result
                with tracer._lock:
                    tracer.spans.append((sid, parent, name, threading.get_ident(),
                                         t0, t1, attrs or None))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        for name, fn, sites in targets():
            if self.only is not None and name not in self.only:
                continue
            wrapper = self._wrap(name, fn)
            for holder, attr in sites:
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
        return self

    def uninstall(self):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading -------------------------------------------------------------

    def take(self):
        """Spans recorded so far (sorted by start), clearing the buffer."""
        with self._lock:
            spans, self.spans = self.spans, []
        spans.sort(key=lambda s: s[4])
        return spans


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for sid, _, _, _, t0, t1, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def write_spans(spans, path):
    """One JSON object per line: id, parent, name, thread, start, end, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, tid, t0, t1, attrs in spans:
            attrs = {k: v for k, v in (attrs or {}).items() if k != "result"}
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "thread": tid, "start": t0, "end": t1,
                                 "attrs": attrs}) + "\n")

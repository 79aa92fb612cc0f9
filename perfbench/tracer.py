"""In-memory span tracer wrapped around spinzeno's public functions.

The tracer replaces each function at the place where it is looked up
(for instance ``spinzeno.cli.sample_curve`` rather than only
``spinzeno.regimes.sample_curve``), because a module that did
``from .x import f`` holds its own reference.  Spans are kept in memory
and summarised once the traced call has finished.
"""

import functools
import itertools
import threading
import time

import numpy as np


def _triangle_note(args, kwargs, result):
    order = result[2]
    start = kwargs.get("start_order", 64)
    estimates = []
    while start <= order:
        estimates.append(start)
        start *= 2
    return {"order": order, "nodes": sum(k * k for k in estimates)}


# (module or class path, attribute, layer name, note(args, kwargs, result))
WRAP_POINTS = (
    ("spinzeno.cli", "parse_config", "config.parse", None),
    ("spinzeno.cli", "emit", "tables.emit",
     lambda a, kw, r: {"bytes": len(r.encode("utf-8"))}),
    ("spinzeno.cli", "sample_curve", "regimes.sample_curve",
     lambda a, kw, r: {"gaps": len(r.errors)}),
    ("spinzeno.cli", "classify", "regimes.classify", None),
    ("spinzeno.cli", "survival_prob", "survival.prob", None),
    ("spinzeno.regimes", "survival_prob", "survival.prob", None),
    ("spinzeno.survival", "integrate_triangle", "quadrature.triangle",
     _triangle_note),
    ("spinzeno.survival", "rot_coeffs", "polaron.rot_coeffs", None),
    ("spinzeno.bath.BathKernel", "__post_init__", "bath.kernel_init", None),
    ("spinzeno.bath.BathKernel", "tabulate", "bath.tabulate", None),
    ("spinzeno.bath.BathKernel", "phi_parts", "bath.phi_parts",
     lambda a, kw, r: {"t_evals": int(np.size(a[1]))}),
    ("spinzeno.bath.BathKernel", "scaled_exponentials", "bath.lookup", None),
    ("spinzeno.bath.KernelTable", "psi", "bath.lookup", None),
    ("spinzeno.bath.KernelTable", "phi_i", "bath.lookup", None),
    ("spinzeno.oracle.ExactEvolution", "__init__", "oracle.init",
     lambda a, kw, r: {"dim": int(a[0].h.shape[0])}),
    ("spinzeno.oracle.ExactEvolution", "survival", "oracle.survival", None),
)


def _resolve(path):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


class Tracer:
    """Records (layer, start, end, parent, note) spans, thread-safely."""

    def __init__(self):
        self.spans = {}          # id -> [layer, start, end, parent, note]
        self._open = {}          # id -> thread ident, for spans not yet ended
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self):
        for path, attr, layer, note in WRAP_POINTS:
            owner = _resolve(path)
            setattr(owner, attr, self._wrap(getattr(owner, attr), layer, note))

    def _enter(self, layer):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        me = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                # A pool worker's first span: its parent is the newest span
                # still open in another thread (the one that submitted it).
                others = [s for s, t in self._open.items() if t != me]
                parent = max(others) if others else None
            self._open[sid] = me
            self.spans[sid] = [layer, time.perf_counter(), None, parent, None]
        stack.append(sid)
        return sid

    def _exit(self, sid, note):
        end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            del self._open[sid]
            self.spans[sid][2] = end
            self.spans[sid][4] = note

    def _wrap(self, fn, layer, note_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._enter(layer)
            note = None
            try:
                result = fn(*args, **kwargs)
                if note_fn is not None:
                    note = note_fn(args, kwargs, result)
                return result
            finally:
                tracer._exit(sid, note)

        return traced

    def summary(self):
        """Per-layer calls, total and self seconds, durations and notes.

        Self time is a span's duration minus the union of the intervals
        its child spans cover.  ``top_s`` sums the spans with no parent.
        """
        children = {}
        for sid, (_, start, end, parent, _) in self.spans.items():
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        layers = {}
        top_s = 0.0
        for sid, (layer, start, end, parent, note) in self.spans.items():
            dur = end - start
            covered = _union_length(children.get(sid, ()), start, end)
            agg = layers.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "durations": [],
                                            "notes": {}})
            agg["calls"] += 1
            agg["self_s"] += dur - covered
            agg["durations"].append(dur)
            if parent is None or self.spans[parent][0] != layer:
                agg["total_s"] += dur    # nested same-layer spans count once
            if parent is None:
                top_s += dur
            for key, val in (note or {}).items():
                agg["notes"].setdefault(key, []).append(val)
        return {"layers": layers, "top_s": top_s}


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

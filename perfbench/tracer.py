"""Span tracer that wraps fockport's public functions from outside the package.

Tracer.install() replaces every public function of the layer modules at every
module binding that refers to it (the defining module, each module that
imported it, and the package namespace), so calls between layers are seen
wherever they come from.  Nothing under src/ changes and the wrapped
functions return exactly what the originals return.

Each thread keeps its own span stack.  A span that starts on a pool thread
with an empty stack takes the innermost open sweep.run_sweep span as its
parent.  Spans stay in memory and are dumped once, at the end of the pass.
aggregate() turns the dumped spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("su2", "states", "quasi_epr", "teleport", "sweep", "cli")
_SWEEP = "sweep.run_sweep"


def _extra_before(name, args, kwargs):
    if name in ("cli.write_csv", "cli.write_json"):
        stream = args[0] if args else kwargs["stream"]
        return stream.tell() if stream.seekable() else None
    return None


def _extra_after(name, args, kwargs, result, before):
    """A count measured where the work happens, or None."""
    if name == "su2.wigner_d_column":
        return (args[0] if args else kwargs["j"]).dim
    if name in ("cli.write_csv", "cli.write_json") and before is not None:
        stream = args[0] if args else kwargs["stream"]
        return stream.tell() - before
    if name == "teleport.evaluate_outcome":
        return int(result.probability > 0.0)
    if name == _SWEEP:
        spec = args[0] if args else kwargs["spec"]
        return len(spec.beta_grid.values())
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, thread, name, t0, t1, extra, op, domain_error]
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_sweeps = []
        self._main = threading.get_ident()
        self._seen_errors = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, domain_error: type):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main and tracer._open_sweeps:
                parent = tracer._open_sweeps[-1]
            else:
                parent = 0
            stack.append(sid)
            if name == _SWEEP:
                tracer._open_sweeps.append(sid)
            before = _extra_before(name, args, kwargs)
            raised = done = False
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except domain_error as exc:
                # count each DomainError once, in the innermost traced layer
                if not any(exc is seen for seen in tracer._seen_errors):
                    tracer._seen_errors.append(exc)
                    raised = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if name == _SWEEP:
                    tracer._open_sweeps.pop()
                extra = _extra_after(name, args, kwargs, result, before) if done else None
                tracer.spans.append([sid, parent, threading.get_ident(), name, t0, t1,
                                     extra, tracer.op, raised])

        return traced

    def install(self) -> int:
        """Wrap every public layer function at every binding; returns the count wrapped."""
        from fockport.errors import DomainError
        homes = {f"fockport.{layer}" for layer in LAYERS}
        modules = [sys.modules["fockport"]] + [sys.modules[m] for m in sorted(homes)]
        wrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ not in homes):
                    continue
                if value not in wrapped:
                    layer = value.__module__.split(".", 1)[1]
                    wrapped[value] = self._wrap(value, f"{layer}.{value.__name__}", DomainError)
                setattr(module, attr, wrapped[value])
        return len(wrapped)


def aggregate(spans: list) -> dict:
    """Per-function and per-layer totals over a list of dumped spans.

    self_s is a span's duration minus its children on the same thread.
    Layer exclusive time also subtracts children on other threads (clamped at
    zero), so the layer totals add up to the traced busy time.
    """
    by_id = {s[0]: s for s in spans}
    same_thread_child = defaultdict(float)
    any_child = defaultdict(float)
    child_names = defaultdict(lambda: defaultdict(int))
    for sid, parent, tid, name, t0, t1, *_ in spans:
        if parent in by_id:
            dur = t1 - t0
            any_child[parent] += dur
            child_names[parent][name] += 1
            if by_id[parent][2] == tid:
                same_thread_child[parent] += dur
    funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "extra": 0,
                                 "child_s": 0.0, "child_calls": defaultdict(int)})
    layer_self = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    for sid, parent, tid, name, t0, t1, extra, op, raised in spans:
        dur = t1 - t0
        f = funcs[name]
        f["calls"] += 1
        f["wall_s"] += dur
        f["self_s"] += dur - same_thread_child[sid]
        f["child_s"] += any_child[sid]
        f["extra"] += extra or 0
        for child, n in child_names[sid].items():
            f["child_calls"][child] += n
        layer = name.split(".", 1)[0]
        layer_self[layer] += max(dur - any_child[sid], 0.0)
        errors[layer] += int(raised)
    return {"functions": funcs, "layer_self_s": layer_self, "errors": errors}

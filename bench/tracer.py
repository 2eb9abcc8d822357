"""Outside-in layer tracer for the triqubit package.

``Tracer.install`` wraps every public function and public method defined in
each layer module and rebinds the wrapper in every ``triqubit.*`` namespace
that references the original, including module-level dicts such as
``hamiltonians.PRESETS``. The package itself is not edited, and
``uninstall`` puts the originals back. Properties are not wrapped.

Each wrapped call appends one span (function, start, end, parent span, call
id) to in-memory arrays. A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over its
functions. Work between the benchmark's timer and the outermost span is
``outside`` time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "scenarios", "evolution", "measures", "hamiltonians", "states", "linalg")
PACKAGE = "triqubit"


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "layer.qualname", indexed by function id
        self.layer_of: list[int] = []
        self.span_fn = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_error = array("b")  # 1 when an exception left the call
        self.call_id = -1  # set by the caller before each top-level call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, key, original)

    def _wrap(self, fn, layer: int, qualname: str):
        fid = len(self.names)
        self.names.append(f"{LAYERS[layer]}.{qualname}")
        self.layer_of.append(layer)
        stack, fns, starts, ends, parents, calls, errors = (
            self._stack,
            self.span_fn,
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_call,
            self.span_error,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            errors.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer, name in enumerate(LAYERS):
            module = importlib.import_module(f"{PACKAGE}.{name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, attr))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(fn, layer, f"{attr}.{method}")
                            self._patches.append((obj, method, fn))
                            setattr(obj, method, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.span_fn, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.span_call, dtype=np.int32).copy(),
            "error": np.frombuffer(self.span_error, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write the spans and function names as an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), layer_of=np.array(self.layer_of), **self.spans())

    def summary(self, call_lo: int, call_hi: int, wall_ns: int) -> dict:
        """Per-function and per-layer totals over spans whose call id is in [call_lo, call_hi).

        ``wall_ns`` is the benchmark's own timing of those calls; the part of
        it no outermost span covers is returned as ``outside_ns``.
        """
        s = self.spans()
        n_fn = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        sel = (s["call"] >= call_lo) & (s["call"] < call_hi)
        fn = s["fn"][sel]
        fn_self = np.bincount(fn, weights=self_ns[sel], minlength=n_fn)
        fn_calls = np.bincount(fn, minlength=n_fn)
        fn_errors = np.bincount(fn, weights=s["error"][sel], minlength=n_fn).astype(int)
        layer_of = np.array(self.layer_of, dtype=np.int64)
        root_ns = int(dur[sel & ~has_parent].sum())
        return {
            "fn_self_ns": dict(zip(self.names, fn_self.tolist())),
            "fn_calls": dict(zip(self.names, fn_calls.tolist())),
            "fn_errors": dict(zip(self.names, fn_errors.tolist())),
            "layer_self_ns": dict(zip(LAYERS, np.bincount(layer_of, weights=fn_self, minlength=len(LAYERS)).tolist())),
            "layer_calls": dict(zip(LAYERS, np.bincount(layer_of, weights=fn_calls, minlength=len(LAYERS)).astype(int).tolist())),
            "layer_errors": dict(zip(LAYERS, np.bincount(layer_of, weights=fn_errors, minlength=len(LAYERS)).astype(int).tolist())),
            "outside_ns": wall_ns - root_ns,
            "wall_ns": wall_ns,
        }

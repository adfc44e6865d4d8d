"""Per-layer tracing of linrel, applied from outside the library.

The layers are the modules of ``linrel`` that do work.  :func:`install`
wraps every public function, method and cached property defined in those
modules, and rebinds every name under which ``linrel`` holds the original
(``linrel.schur.analyze`` and ``linrel.verify.analyze`` both point at
``linrel.block.analyze``, ``linrel.cli.opnorm`` at ``linrel.kernel.opnorm``,
and so on).  Plain properties are attribute accessors and stay unwrapped, so
their cost lands in the caller's self time.

Each wrapped call inside an op is a span with a parent and the op's id.  A
span's self time is its duration minus the durations of its direct
children; the op itself is the root span, so the self times of one op add
up to its wall time.  ``numpy.linalg`` is wrapped as well, as counters and
timers rather than spans: LAPACK time stays inside the self time of the
layer that called it and is reported on its own as ``lapack_s``.

Wrappers record only while an op is open; outside one they call straight
through.  :func:`install` returns a handle whose ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property

import numpy as np

LAYERS = ("kernel", "subspace", "relation", "nonneg", "block", "schur",
          "generator", "serialize", "cli", "verify")

# numpy.linalg entry points the library calls, by counter name
_NUMPY_KINDS = {"svd": "svd", "norm": "norm2", "eigh": "eig",
                "eigvalsh": "eig", "qr": "qr"}


def svd_flops(shape, full_matrices: bool, compute_uv: bool, is_complex: bool) -> float:
    """Computed flop count of one SVD (Golub and Van Loan's R-SVD table).

    Real flops for an m x n input with k = min(m, n), l = max(m, n):
    singular values only 4 l k^2 - 4 k^3 / 3; thin factors 6 l k^2 + 20 k^3;
    full factors 4 l^2 k + 22 k^3.  Complex arithmetic counts four times.
    """
    m, n = shape[-2:]
    k, l = min(m, n), max(m, n)
    if not compute_uv:
        real = 4 * l * k * k - 4 * k ** 3 / 3
    elif full_matrices:
        real = 4 * l * l * k + 22 * k ** 3
    else:
        real = 6 * l * k * k + 20 * k ** 3
    return float(real) * (4.0 if is_complex else 1.0)


class Tracer:
    """Span and counter store for one traced phase.

    Aggregates per layer (calls, self time, errors) and per function
    (calls, total time), plus the ``numpy.linalg`` counters.  With
    ``keep_spans`` every span is kept as ``(op_id, span_id, parent_id,
    layer, name, start, end, self_s)``; the op's root span has layer
    ``"op"`` and parent ``None``.
    """

    def __init__(self, keep_spans: bool = False):
        from linrel.errors import LinRelError
        self._error_type = LinRelError
        self.layer_calls = Counter()
        self.layer_self = defaultdict(float)
        self.layer_errors = Counter()
        self.func_calls = Counter()
        self.func_time = defaultdict(float)
        self.numpy_calls = Counter()
        self.lapack_s = 0.0
        self.svd_flops = 0.0
        self.ops = 0
        self.spans = [] if keep_spans else None
        self._stack = []
        self._next_id = 0
        self.op_id = None

    def _enter(self, layer: str, name: str) -> list:
        parent = self._stack[-1][4] if self._stack else None
        frame = [layer, name, time.perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        layer, name, start, child, span_id, parent = frame
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        self.layer_self[layer] += dur - child
        if layer != "op":
            self.layer_calls[layer] += 1
            self.func_calls[name] += 1
            self.func_time[name] += dur
        if self.spans is not None:
            self.spans.append((self.op_id, span_id, parent, layer, name,
                               start, end, dur - child))

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one op."""
        self.op_id = op_id
        frame = self._enter("op", "op")
        try:
            yield
        finally:
            self._exit(frame)
            self.op_id = None
            self.ops += 1

    def call(self, layer: str, name: str, fn, args, kwargs):
        if self.op_id is None:
            return fn(*args, **kwargs)
        frame = self._enter(layer, name)
        try:
            return fn(*args, **kwargs)
        except self._error_type:
            self.layer_errors[layer] += 1
            raise
        finally:
            self._exit(frame)

    def numpy_call(self, kind: str, fn, args, kwargs):
        if self.op_id is None:
            return fn(*args, **kwargs)
        if kind == "norm2":
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            if ord_ != 2 or np.ndim(args[0]) != 2:
                return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.lapack_s += time.perf_counter() - start
            self.numpy_calls[kind] += 1
            if kind in ("svd", "norm2"):
                a = args[0]
                full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
                uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
                if kind == "norm2":
                    full, uv = False, False
                self.svd_flops += svd_flops(np.shape(a), bool(full), bool(uv),
                                            np.iscomplexobj(a))


def _wrap(fn, record, *labels):
    """``fn`` routed through ``record(*labels, fn, args, kwargs)``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return record(*labels, fn, args, kwargs)
    return wrapper


class Installation:
    """Handle on installed wrappers: what was wrapped, and how to undo it."""

    def __init__(self):
        self.wrapped = {}      # qualified name -> original callable
        self.bindings = []     # (owner, attribute, original value)

    def rebind(self, owner, attr: str, value) -> None:
        self.bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings.clear()


def _linrel_namespaces():
    """The package and every loaded ``linrel`` module."""
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "linrel" or key.startswith("linrel."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every public callable of the ten layers and ``numpy.linalg``."""
    inst = Installation()
    replacements = {}  # id(original function) -> wrapper
    for layer in LAYERS:
        mod = importlib.import_module(f"linrel.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                qual = f"{layer}.{name}"
                replacements[id(obj)] = _wrap(obj, tracer.call, layer, qual)
                inst.wrapped[qual] = obj
            elif inspect.isclass(obj):
                _wrap_class(tracer, inst, layer, obj)

    # rebind every name that holds an original function
    for ns in _linrel_namespaces():
        for name, value in list(vars(ns).items()):
            if id(value) in replacements:
                inst.rebind(ns, name, replacements[id(value)])

    for name, kind in _NUMPY_KINDS.items():
        original = getattr(np.linalg, name)
        inst.rebind(np.linalg, name, _wrap(original, tracer.numpy_call, kind))
    return inst


def _wrap_class(tracer: Tracer, inst: Installation, layer: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        qual = f"{layer}.{cls.__name__}.{name}"
        if inspect.isfunction(attr):
            new = _wrap(attr, tracer.call, layer, qual)
            inst.wrapped[qual] = attr
        elif isinstance(attr, (classmethod, staticmethod)):
            new = type(attr)(_wrap(attr.__func__, tracer.call, layer, qual))
            inst.wrapped[qual] = attr.__func__
        elif isinstance(attr, cached_property):
            new = cached_property(_wrap(attr.func, tracer.call, layer, qual))
            new.__set_name__(cls, name)
            inst.wrapped[qual] = attr.func
        else:
            continue
        inst.rebind(cls, name, new)


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers for the duration of the block."""
    inst = install(tracer)
    try:
        yield inst
    finally:
        inst.restore()

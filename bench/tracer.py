"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and the methods of the library's
layer modules from the outside, by replacing module and class attributes;
nothing in the library changes.  Every wrapped call made while the tracer
is enabled records a span [name, start, end, parent] in memory.  `fold`
turns the spans recorded so far into per-name call counts, total times and
self times (a span's duration minus the time covered by its child spans)
and clears them, so memory holds at most one operation's spans.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

LAYERS = ("kalg", "group", "stiefel", "optim", "cover")

# methods that never do numerical work; tracing them only adds overhead
_SKIPPED_METHODS = {"__repr__", "__setattr__"}


class Tracer:
    """Spans and their per-name aggregates, plus computed work counters."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: collections.Counter = collections.Counter()
        self.total_s: collections.defaultdict = collections.defaultdict(float)
        self.self_s: collections.defaultdict = collections.defaultdict(float)
        self.matmul_flops = 0.0
        self.inverse_rows = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_call=None):
        """fn with a span named `name` around every call made while enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def fold(self):
        """Aggregate and drop the recorded spans; call only between operations."""
        if self._stack:
            raise RuntimeError("fold called inside an open span")
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered
        self.spans.clear()

    def _count_matmul(self, a, b, *_):
        # computed flops of a product over a ring with d real components
        d = a.data.shape[2]
        self.matmul_flops += 2.0 * d * d * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]

    def _count_inverse(self, m, *_):
        self.inverse_rows += m.data.shape[0]

    def instrument(self, modules: dict):
        """Wrap every public function and every class method of the given modules.

        `modules` maps a layer name from LAYERS to its module.  Only code
        defined in the module's own source file is wrapped, which leaves out
        imported names and dataclass-generated methods.
        """
        hooks = {"kalg.Mat.__matmul__": self._count_matmul,
                 "kalg.mat_inverse": self._count_inverse}
        for layer, mod in modules.items():
            source = inspect.getsourcefile(mod)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__code__.co_filename == source:
                    self._patch(mod, name, f"{layer}.{name}", hooks)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if (inspect.isfunction(member) and attr not in _SKIPPED_METHODS
                                and member.__code__.co_filename == source):
                            self._patch(obj, attr, f"{layer}.{name}.{attr}", hooks)

    def _patch(self, owner, attr: str, span: str, hooks: dict):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, hooks.get(span)))

    def restore(self):
        """Put back every attribute `instrument` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

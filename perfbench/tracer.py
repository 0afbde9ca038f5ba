"""In-memory tracing of cullen_lehmer's public functions, installed from
outside the package by replacing attributes on its module objects.

Every call inside the package goes through a module attribute
(`arith.is_prime`, `structure.prime_shape`, a module-global name inside
`arith` itself), so a wrapper set on the module object sees every call.

Two kinds of wrapper:
  span  one record per call: name, start, end, parent span, the n it
        serves and its self time (duration minus what traced children
        cover).
  hot   a call count, inclusive time and self time per function, for
        functions called millions of times (cullen_mod runs ~13M times on
        the residue workload); a leaf calls no traced function, so its
        counter needs no frame of its own.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time

# (module, function) pairs traced one span per call.
SPAN_FUNCS = (
    ("screen", "screen_set"),
    ("screen", "witness_search"),
    ("arith", "primes_up_to"),
    ("arith", "bounded_factor"),
    ("structure", "cullen_value"),
    ("bounds", "refine_chain"),
    ("bounds", "check_two_thirds"),
    ("exceptional", "scan_exceptional"),
    ("exceptional", "uniqueness_scan"),
    ("cli", "main"),
)

# (module, function) pairs traced as counters.
HOT_FUNCS = (("structure", "prime_shape"),)

# Counters for functions that call no traced function, so their self time
# is their whole time and the wrapper can skip the frame bookkeeping.
LEAF_FUNCS = (
    ("arith", "cullen_mod"),
    ("arith", "is_prime"),
    ("arith", "int_nth_root"),
)

# Functions whose first argument is the n the span serves.
_N_ARG = {"screen.witness_search", "bounds.check_two_thirds"}


class Tracer:
    """Wraps the traced functions while installed; restores them on uninstall."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [id, name, start, end, parent, n, self]
        self.hot: dict[str, list[float]] = {}  # name -> [calls, total, self]
        # Frames of the calls in progress: [child time, span id, n].  The
        # root frame collects time of calls made outside any span.
        self._stack: list[list] = [[0.0, None, None]]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod, attr in SPAN_FUNCS:
            self._replace(mod, attr, self._span_wrapper)
        for mod, attr in HOT_FUNCS:
            self._replace(mod, attr, self._hot_wrapper)
        for mod, attr in LEAF_FUNCS:
            self._replace(mod, attr, self._leaf_wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _replace(self, mod: str, attr: str, make) -> None:
        module = self.modules[mod]
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn, f"{mod}.{attr}"))

    def _span_wrapper(self, fn, name: str):
        stack, spans, perf, origin = self._stack, self.spans, time.perf_counter, self.origin
        takes_n = name in _N_ARG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans)
            label = f"cli.{args[0][0]}" if name == "cli.main" else name
            record = [span_id, label, 0.0, 0.0, parent[1], args[0] if takes_n else parent[2], 0.0]
            spans.append(record)
            frame = [0.0, span_id, record[5]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                record[2] = start - origin
                record[3] = end - origin
                record[6] = duration - frame[0]
                parent[0] += duration

        return wrapper

    def _hot_wrapper(self, fn, name: str):
        stack, perf = self._stack, time.perf_counter
        stat = self.hot.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                parent[0] += duration

        return wrapper

    def _leaf_wrapper(self, fn, name: str):
        stack, perf = self._stack, time.perf_counter
        stat = self.hot.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration
                stack[-1][0] += duration

        return wrapper

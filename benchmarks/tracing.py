"""Per-layer spans and counts for qcovert, installed from outside the program.

The layers are the modules of ``src/qcovert``.  ``Tracer.install`` wraps
every public function of each layer.  The layers copy names into their own
namespaces (``from .linalg import tensor_power``), so each wrapper replaces
the original in every qcovert module that holds it.  ``numpy.linalg.eigh``
and ``eigvalsh`` are wrapped too, to count eigensolves and their sizes.

A span is ``[name, start, end, parent]``, parent being the index of the
span that caused it (-1 for a root).  Spans stay in memory until
``write_spans``.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "channels", "divergences", "covert", "detection", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.eig_dim3 = 0          # sum of d**3 over eigensolves
        self.kron_bytes = 0        # bytes of tensor_power outputs
        self.max_detection_dim = 0  # largest matrix built or solved under detection
        self._stack: list[int] = []
        self._detection_depth = 0
        self._wrappers: list[tuple] = []  # (module, attribute, original, wrapper)
        self._build()

    # -- wrappers -------------------------------------------------------

    def _span(self, layer: str, fn, after=None):
        name = f"{layer}.{fn.__name__}"
        spans, stack, counts = self.spans, self._stack, self.counts
        detection = layer == "detection"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            self._detection_depth += detection
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                self._detection_depth -= detection
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_eigensolve(self, fn):
        name = f"numpy.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            dim = np.shape(a)[-1]
            self.counts[name] += 1
            self.eig_dim3 += dim**3
            if self._detection_depth:
                self.max_detection_dim = max(self.max_detection_dim, dim)
            return fn(a, *args, **kwargs)

        return wrapper

    def _tensor_power_done(self, result):
        self.kron_bytes += result.nbytes
        if self._detection_depth:
            self.max_detection_dim = max(self.max_detection_dim, result.shape[0])

    def _build(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qcovert" or name.startswith("qcovert."))]
        for layer in LAYERS:
            module = sys.modules[f"qcovert.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                after = self._tensor_power_done if attr == "tensor_power" else None
                wrapper = self._span(layer, fn, after)
                for holder in modules:
                    for name, value in vars(holder).items():
                        if value is fn:
                            self._wrappers.append((holder, name, fn, wrapper))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            self._wrappers.append((np.linalg, attr, fn, self._count_eigensolve(fn)))

    def install(self):
        for holder, name, _, wrapper in self._wrappers:
            setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original, _ in self._wrappers:
            setattr(holder, name, original)

    # -- summaries ------------------------------------------------------

    def self_times(self, start: int, stop: int):
        """Self time per layer, root time, and cli.write_output time of spans[start:stop]."""
        own = [0.0] * (stop - start)
        root = write = 0.0
        for i in range(start, stop):
            name, t0, t1, parent = self.spans[i]
            dur = t1 - t0
            own[i - start] += dur
            if parent >= start:
                own[parent - start] -= dur
            else:
                root += dur
            if name == "cli.write_output":
                write += dur
        layers = dict.fromkeys(LAYERS, 0.0)
        for i, value in enumerate(own):
            layers[self.spans[start + i][0].split(".", 1)[0]] += value
        return layers, root, write

    def last_span(self, name: str, start: int, stop: int):
        """Duration of the last span called ``name`` in spans[start:stop], or None."""
        for i in range(stop - 1, start - 1, -1):
            record = self.spans[i]
            if record[0] == name:
                return record[2] - record[1]
        return None

    def write_spans(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

"""Per-layer tracing of neqfridge from outside the package.

Each traced function is replaced, in every ``neqfridge.*`` module namespace
that binds it, by a wrapper that records one span per call.  Modules bind
their own ``from .x import f`` references, so patching only the defining
module would miss most calls.  The hot helpers inside these functions
(``thermal_population``, ``tilde_operator``, ``embed``) are deliberately not
traced: they run hundreds of thousands of times per pass and their spans
would swamp the ones that matter.

Per call the wrapper keeps a running call count and self time (duration
minus the time covered by traced child spans), and appends the span itself
(name, parent span, start, end) to in-memory arrays that are written out
once, when the run ends.  The package runs single-threaded
(``NEQFRIDGE_THREADS`` unset), so one span stack is exact.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

TRACED = {
    "model": ("resonant_frame", "tilde_populations", "build_hamiltonians"),
    "steadystate": ("steady_coefficients", "analytic_steady_state", "numeric_steady_state",
                    "decompose", "reconstruct_state"),
    "dissipation": ("assemble_liouvillian", "build_generator_parts"),
    "linalg": ("steady_null_space",),
    "observables": ("heat_currents", "currents_closed", "cop_g"),
    "experiments": ("random_ensemble", "cooling_window", "maximize_cooling_power", "deviation",
                    "sweep_fig3", "sweep_fig4", "sweep_fig5", "sweep"),
    "cli": ("main", "write_csv"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


class Tracer:
    """Span recorder installed over the package's module namespaces."""

    def __init__(self) -> None:
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.csv_bytes = 0
        # one entry per span, in completion order
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, child ns] of open spans
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, func):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        span_ids, span_name, span_parent = self.span_id, self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns
        is_write_csv = SPAN_NAMES[index] == "cli.write_csv"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                span_ids.append(span_id)
                span_name.append(index)
                span_parent.append(parent)
                span_start.append(start)
                span_end.append(end)
                if is_write_csv:
                    self.csv_bytes += Path(args[0]).stat().st_size

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function across neqfridge.*."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "neqfridge" or name.startswith("neqfridge.")) and m is not None]
        for index, qualified in enumerate(SPAN_NAMES):
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"neqfridge.{module_name}"], func_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def count(self, qualified: str) -> int:
        return self.calls[SPAN_NAMES.index(qualified)]

    def metrics(self, scale: float) -> dict[str, tuple[float, str]]:
        """Call counts and self times; self times are multiplied by ``scale``."""
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (self.calls[index], "count")
            out[f"{name}.self_s"] = (scale * self.self_ns[index] / 1e9, "s")
        out["cli.write_csv.bytes"] = (self.csv_bytes, "B")
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as gzipped tab-separated text."""
        with gzip.open(path, "wt") as fh:
            fh.write("# span\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_id[i]}\t{SPAN_NAMES[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\n")

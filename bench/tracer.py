"""Per-layer tracing of ``invrel`` from outside the package.

Each public layer function is wrapped by identity wherever a loaded
``invrel`` module references it, so calls through module globals, through
``from ... import`` names and through the package namespace all pass the
wrapper.  Spans (name, start, end, parent) are kept in memory and written out
at the end; plain counters count calls that are too frequent for a span.
Nothing under ``src/`` is modified: :meth:`Tracer.active` patches on entry
and restores every original on exit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import sys
import time
from array import array
from pathlib import Path

# (layer, module, attribute, mode).  Modes: "span" times the call; "count"
# only counts it; "build" times a family constructor and wraps the returned
# kernel's alpha/beta in counters; "closed" times a closed-form constructor
# and wraps the returned entry callables in "families.closed_form" spans.
# Layers that are not reported on their own (kernels.pair, ...) still take
# their time out of their caller's self time.
TARGETS = (
    ("cli", "cli", "main", "span"),
    ("families.build", "families", "binomial_kernel", "build"),
    ("families.build", "families", "gasper_kernel", "build"),
    ("families.build", "families", "schlosser_kernel", "build"),
    ("families.build", "families", "warnaar_kernel", "build"),
    ("families.build", "families", "elliptic_sum_kernel", "build"),
    ("families.build", "families", "partial_theta_kernel", "build"),
    ("families.build", "families", "eds_kernel", "build"),
    ("families.build", "families", "binomial_closed_entries", "closed"),
    ("families.build", "families", "gasper_closed_entries", "closed"),
    ("families.build", "families", "schlosser_closed_entries", "closed"),
    ("families.build", "families", "elliptic_sum_closed_entries", "closed"),
    ("families.build", "families", "eds_closed_entries", "closed"),
    ("families.eds", "families", "eds_generate", "span"),
    ("families.eds", "families", "eds_property_residual", "span"),
    ("families.eds", "families", "EdsSequence.recurrence_residual", "span"),
    ("kernels.entries", "kernels", "f_entry", "span"),
    ("kernels.entries", "kernels", "g_entry", "span"),
    ("kernels.verify", "kernels", "verify_inversion", "span"),
    ("kernels.pair", "kernels", "pair_from_kernel", "span"),
    ("kernels.validate", "kernels", "validate_kernel_window", "span"),
    ("kernels.antisym", "kernels", "max_antisymmetry_residual", "span"),
    ("identities.tsi", "identities", "max_tsi_residual", "span"),
    ("identities.qsi", "identities", "max_qsi_residual", "span"),
    ("identities.cond3", "identities", "max_anchored_tsi_residual", "span"),
    ("identities.evals", "identities", "tsi_residual", "count"),
    ("identities.evals", "identities", "qsi_residual", "count"),
    ("identities.evals", "identities", "anchored_tsi_residual", "count"),
    ("numerics", "numerics", "theta", "span"),
    ("numerics", "numerics", "partial_theta", "span"),
    ("numerics", "numerics", "partial_theta_slope_series", "span"),
    ("recursions.inversion", "recursions", "beta_table_inversion", "span"),
    ("recursions.tsi_route", "recursions", "beta_table_tsi", "span"),
    ("recursions.tsi_route", "recursions", "beta_closed_tsi", "span"),
    ("recursions.counterexample", "recursions", "counterexample_discrepancies", "span"),
    ("recursions.counterexample", "recursions", "counterexample_reference", "span"),
    ("recursions.weight_calls", "recursions", "f_weight", "count"),
    ("recursions.weight_calls", "recursions", "g_weight", "count"),
)

# numerics is traced only where other modules call into it; its internal
# calls (theta_product -> theta, ...) stay inside the caller's span.
ENTRY_ONLY = ("numerics",)


class Tracer:
    """Span and counter recorder; :meth:`active` installs its wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: dict[str, list[int]] = {"families.kernel_calls": [0]}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # --- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            return result if post is None else post(result)

        return traced

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_kernel(self, kernel):
        if not dataclasses.is_dataclass(kernel) or not hasattr(kernel, "alpha"):
            return kernel
        count = self._counted
        return dataclasses.replace(
            kernel,
            alpha=count("families.kernel_calls", kernel.alpha),
            beta=count("families.kernel_calls", kernel.beta),
        )

    def _wrap_closed(self, entries):
        return tuple(self._span("families.closed_form", f) for f in entries)

    def _plan(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "invrel" or n.startswith("invrel.")}
        for layer, mod_name, attr, mode in TARGETS:
            module = modules.get(f"invrel.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if module is None or owner is None or not callable(original):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if mode == "count":
                wrapper = self._counted(layer, original)
            elif mode == "build":
                wrapper = self._span(layer, original, self._wrap_kernel)
            elif mode == "closed":
                wrapper = self._span(layer, original, self._wrap_closed)
            else:
                wrapper = self._span(layer, original)
            if owner_name:
                self._patches.append((owner, leaf, original, wrapper))
                continue
            for mod in modules.values():
                if mod_name in ENTRY_ONLY and mod is module:
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)

    # --- results ------------------------------------------------------------------

    def mark(self) -> int:
        return len(self.names)

    def layer_totals(self, since: int = 0, until: int | None = None) -> dict[str, dict[str, float]]:
        """Per layer name: span count, self seconds, and inclusive seconds of
        the outermost spans of that layer, over spans ``since..until``."""
        until = len(self.names) if until is None else until
        child = [0.0] * (until - since)
        for i in range(since, until):
            p = self.parent[i]
            if p >= since:
                child[p - since] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(since, until):
            name = self.names[i]
            dur = self.end[i] - self.start[i]
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i - since]
            p = self.parent[i]
            if p < since or self.names[p] != name:
                row["incl_s"] += dur
        return out

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")

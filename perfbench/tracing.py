"""Layer spans recorded from outside the library.

A ``Tracer`` replaces each listed public function by a timing wrapper in
every ``fracheat`` namespace that binds it (``evolve`` is bound in
``fracheat.evolution``, ``fracheat.harness``, ``fracheat.cli`` and
``fracheat``), and restores the originals on ``uninstall``. Methods are
wrapped on their class. Spans are kept in memory as (name, start, end,
parent) records; a span's self time is its duration minus the durations of
its direct children, so the self times of one traced repetition sum to the
duration of its root span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

# "<layer>.<function>" names, resolved against the module fracheat.<layer>.
SPANS = (
    "harness.figure1_comparison",
    "harness.error_norms",
    "evolution.evolve",
    "evolution.initial_grid",
    "evolution.factorize",
    "evolution.step",
    "operators.build_operator",
    "weights.new_weights",
    "weights.grunwald_weights",
    "reference.principal_eigenvalue",
    "reference.eigenfunction_u_c",
    "reference.gaussian_ic",
    "reference.continuous_inverse_apply",
    "specfun.mittag_leffler_e_alpha0",
    "interp.from_grid",
    "interp.PowerInterpolant.__call__",
    "cli.main",
)


def held_bytes(obj: Any) -> int:
    """Sum of ``nbytes`` over the arrays an object holds as attributes."""
    fields = getattr(obj, "__dict__", None) or {
        s: getattr(obj, s) for s in getattr(type(obj), "__slots__", ()) if hasattr(obj, s)
    }
    total = 0
    for value in fields.values():
        items = value if isinstance(value, (tuple, list)) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


class Tracer:
    ROOT = "bench.repetition"  # the benchmark's own span around one repetition

    def __init__(self):
        self.records: list[tuple[str, float, float, int]] = []
        self.factor_bytes = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        records, stack = self.records, self._stack
        perf = time.perf_counter
        measure_factor = name == "evolution.factorize"

        def traced(*args, **kwargs):
            idx = len(records)
            records.append((name, 0.0, 0.0, -1))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                records[idx] = (name, t0, t1, parent)
            if measure_factor:
                self.factor_bytes = max(self.factor_bytes, held_bytes(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every span; names the package no longer has go to ``missing``."""
        modules = [m for k, m in list(sys.modules.items()) if k == "fracheat" or k.startswith("fracheat.")]
        missing = []
        for name in SPANS:
            layer, *path = name.split(".")
            owner = sys.modules.get(f"fracheat.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = vars(owner).get(path[-1]) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        self.missing = missing

    def _patch(self, owner: object, attr: str, original: object, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.records)
        for _, t0, t1, parent in self.records:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, t0, t1, _), covered in zip(self.records, child):
            out[name][0] += 1
            out[name][1] += (t1 - t0) - covered
        return {k: (c, s) for k, (c, s) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.records if n == name]

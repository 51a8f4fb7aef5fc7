"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Smoke run: every workload of ``workloads.py`` (a superset of those
   BENCHMARK.json names) goes through run.py with ``--seconds 1`` (a
   single timed repetition, the shortest run) in both trace modes. Each run
   must be correct and must emit exactly the ``end_to_end`` (trace 0) or
   ``per_layer`` (trace 1) metrics of BENCHMARK.json, each with its unit.
2. Gate check: one repetition of each workload in this process. Its gate
   must accept the output as is and after a rounding-level change
   (relative 1e-15), and must reject the output, or a golden value, changed
   by a relative 1e-6; for the CLI, a changed digest.

Exits with status 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROUNDING = 1e-15
CHANGE = 1e-6


def perturbed(obj, rel: float, strings: bool = False):
    """A copy with every float scaled by (1 + rel); digests changed if ``strings``."""
    if isinstance(obj, float):
        return obj * (1.0 + rel)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return obj * (1.0 + rel)
    if isinstance(obj, dict):
        return {k: perturbed(v, rel, strings) for k, v in obj.items()}
    if isinstance(obj, list):
        return [perturbed(v, rel, strings) for v in obj]
    if strings and isinstance(obj, str):
        return obj[:-1] + ("1" if obj[-1] == "0" else "0")
    return obj


def has_floats(obj) -> bool:
    if isinstance(obj, float) or (isinstance(obj, np.ndarray) and obj.dtype.kind == "f"):
        return True
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return any(has_floats(v) for v in values)


def smoke(spec: dict) -> list[str]:
    problems = []
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems += [f"BENCHMARK.json names unknown workload {w['name']}"
                 for w in spec["workloads"] if w["name"] not in workloads.WORKLOADS]
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
            r = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                               timeout=300, check=False)
            label = f"{name} trace {trace}"
            if r.returncode != 0:
                problems.append(f"{label}: exit {r.returncode}: {r.stderr.strip()[-500:]}")
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {result['failed']} failed")
            if got != wanted[trace]:
                diff = set(got.items()) ^ set(wanted[trace].items())
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: {sorted(diff)}")
            print(f"smoke {label}: {len(got)} metrics, {result['attempted']} repetitions", flush=True)
    return problems


def gates() -> list[str]:
    problems = []
    for wl in workloads.WORKLOADS.values():
        inputs = wl.prepare(seed=7)
        wl.reset()
        out = wl.run(inputs)

        def expect(ok: bool, what: str, output=out, golden=wl.golden):
            fails = wl.check(inputs, output, golden)
            if bool(fails) == ok:
                problems.append(f"{wl.name}: gate {'rejected' if ok else 'accepted'} {what}: {fails}")

        expect(True, "the unchanged output")
        expect(True, "a rounding-level change", output=perturbed(out, ROUNDING))
        if has_floats(out):
            expect(False, "a changed output", output=perturbed(out, CHANGE))
        if wl.golden:
            expect(False, "a changed golden value", golden=perturbed(wl.golden, CHANGE, strings=True))
        print(f"gates {wl.name}: checked", flush=True)
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = gates() + smoke(spec)
    for p in problems:
        print(f"FAIL: {p}")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

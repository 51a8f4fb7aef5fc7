#!/usr/bin/env python3
"""fracheat benchmark: time one workload end to end, or trace its layers.

Run from the repository root:

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With ``--trace 0`` a run measures the end-to-end metrics:

- ``wall_s`` / ``cpu_s``: wall and process CPU time of the fastest of the
  untraced repetitions made in ``--seconds`` (at least one);
- ``peak_mb``: peak tracemalloc allocation of one more repetition, made
  after the timed ones because tracemalloc slows the run several-fold;
- ``setup_s``: median over fresh interpreters (``setup_probe.py``) of the
  time to import fracheat, build the inputs from the seed and pay the
  first-call costs on a miniature of the workload.

Timings take the fastest repetition because, on a shared host, other
tenants only ever slow a repetition, and they do so in bursts of seconds
that slow interpreter-bound code up to 1.8x: a per-run median then flips
between the two speeds, while the fastest repetition stays put. The median,
quartiles and count of every timing are kept in the result file.

With ``--trace 1`` it alternates untraced and traced repetitions for
``--seconds``. The per-layer metrics come from the fastest traced
repetition: per span, its calls and self time, the latency quantiles of its
``evolution.step`` calls, the bytes its largest factorization holds and
the CLI output size. ``tracing_overhead_s`` is the fastest traced minus the
fastest untraced wall time.

Every repetition's output goes through the workload's gate; a repetition
that raises or fails its gate counts as failed. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (environment, config, every sample, the spans)
is written under ``.perfbench_out/``. The run exits with status 2, printing
no result, when the fracheat source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_mb": "MB", "setup_s": "s"}


def cap_blas_threads() -> int:
    """Allow BLAS no more threads than the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "count": len(values)}


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> dict:
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.with_name(pkg.__name__ + ".libs")
        for lib in sorted(libdir.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def _blas_build(pkg) -> dict:
    blas = pkg.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_head(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    r = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return r.stdout.strip() if r.returncode == 0 else f"unavailable ({r.stderr.strip()})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workloads, seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_build(numpy),
        "blas_scipy": _blas_build(scipy),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_head": _git_head(workloads.ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes


def repetition(wl, inputs, tracer=None, trace_memory: bool = False) -> dict:
    """One gated repetition; times wall and CPU of ``wl.run`` only.

    With a tracer, the library is wrapped for the repetition and the run is
    the root span. With ``trace_memory``, tracemalloc watches the run alone,
    not the gate.
    """
    gc.collect()
    wl.reset()
    run = wl.run
    if tracer is not None:
        tracer.install()
        run = tracer.wrap(tracer.ROOT, wl.run)
    if trace_memory:
        tracemalloc.start()
    out, error = None, None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = run(inputs)
    except Exception:  # a failed repetition is counted, not fatal
        error = traceback.format_exc(limit=4)
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        peak = tracemalloc.get_traced_memory()[1] / 1e6 if trace_memory else None
        if trace_memory:
            tracemalloc.stop()
        if tracer is not None:
            tracer.uninstall()
    failures = [error] if error else wl.check(inputs, out, wl.golden)
    return {"wall_s": wall, "cpu_s": cpu, "peak_mb": peak, "failures": failures, "out": out}


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds from fresh interpreters; the first, which may compile bytecode, is dropped."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({r.returncode}): {r.stderr.strip()}")
        if i:
            times.append(float(r.stdout.split()[-1]))
    return times


def _passed(reps: list[dict]) -> list[dict]:
    """The repetitions whose output passed the gate, or all if none did."""
    return [r for r in reps if not r["failures"]] or reps


def timed_pass(wl, inputs, seconds: float) -> list[dict]:
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(repetition(wl, inputs))
    return reps


def end_to_end(wl, inputs, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    setup = measure_setup(wl.name, seed)
    reps = timed_pass(wl, inputs, seconds)
    fastest = min(_passed(reps), key=lambda r: r["wall_s"])
    peak_rep = repetition(wl, inputs, trace_memory=True)
    peak_mb = peak_rep["peak_mb"]
    summary = {
        "wall_s": quartiles([r["wall_s"] for r in reps]),
        "cpu_s": quartiles([r["cpu_s"] for r in reps]),
        "setup_s": quartiles(setup),
    }
    values = {
        "wall_s": fastest["wall_s"],
        "cpu_s": fastest["cpu_s"],
        "peak_mb": peak_mb,
        "setup_s": summary["setup_s"]["median"],
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record = {
        "samples": {
            "wall_s": [r["wall_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "setup_s": setup,
            "peak_mb": [peak_mb],
        },
        "summary": summary,
    }
    return metrics, reps + [peak_rep], record


def layered(wl, inputs, seconds: float) -> tuple[dict, list[dict], dict]:
    import tracing

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(repetition(wl, inputs))
        tracers.append(tracing.Tracer())
        traced.append(repetition(wl, inputs, tracers[-1]))
    fastest = min(_passed(traced), key=lambda r: r["wall_s"])
    best = next(i for i, r in enumerate(traced) if r is fastest)
    tracer = tracers[best]
    missing = tracer.missing
    self_times = tracer.self_times()
    metrics = {}
    for span in (*tracing.SPANS, tracing.Tracer.ROOT):
        if span not in missing:
            calls, self_s = self_times.get(span, (0, 0.0))
            metrics[f"{span}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{span}.self_s"] = {"value": self_s, "unit": "s"}
    if "evolution.step" not in missing:
        steps_us = [d * 1e6 for d in tracer.durations("evolution.step")]
        cuts = statistics.quantiles(steps_us, n=100, method="inclusive") if len(steps_us) > 1 else None
        metrics["evolution.step.p50_us"] = {"value": cuts[49] if cuts else 0.0, "unit": "us"}
        metrics["evolution.step.p99_us"] = {"value": cuts[98] if cuts else 0.0, "unit": "us"}
    if "evolution.factorize" not in missing:
        metrics["evolution.factorize.bytes"] = {"value": tracer.factor_bytes, "unit": "bytes"}
    counters = (traced[best]["out"] or {}).get("counters", {})
    metrics["cli.out_bytes"] = {"value": counters.get("cli.out_bytes", 0), "unit": "bytes"}
    overhead = traced[best]["wall_s"] - min(r["wall_s"] for r in plain)
    metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}

    per_rep = [t.self_times() for t in tracers]
    self_sums = [sum(s for _, s in p.values()) for p in per_rep]
    record = {
        "missing_spans": missing,
        "fastest_traced": best,
        "untraced_wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "self_time_sum_s": self_sums,
        "unattributed_s": [r["wall_s"] - s for r, s in zip(traced, self_sums)],
        "per_rep": [{k: {"calls": c, "self_s": s} for k, (c, s) in p.items()} for p in per_rep],
    }
    spans = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "repetitions": [
            [[n, t0 - t.records[0][1], t1 - t.records[0][1], p] for n, t0, t1, p in t.records]
            for t in tracers
        ],
    }
    return metrics, plain + traced, {**record, "spans": spans}


# ---------------------------------------------------------------------------
# command line


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(seed)
    if trace:
        metrics, reps, record = layered(wl, inputs, seconds)
    else:
        metrics, reps, record = end_to_end(wl, inputs, seed, seconds)
    failed = sum(1 for r in reps if r["failures"])
    failures = [f for r in reps for f in r["failures"]]
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    spans = record.pop("spans", None)
    full = {
        "workload": name,
        "config": wl.config,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "fail_rate": failed / len(reps),
        "failures": failures[:20],
        **record,
        "result": result,
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    stem = workloads.OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1, default=str) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for f in failures[:5]:
        print(f"{name}: FAILED: {f}", file=sys.stderr)
    _print_table(name, result, full)
    return result


def _print_table(name: str, result: dict, full: dict) -> None:
    print(f"== {name}: {result['attempted']} repetitions, {result['failed']} failed "
          f"(fail_rate {full['fail_rate']:g})")
    def order(kv):  # self times first, largest first; the rest by name
        is_self = kv[0].endswith(".self_s")
        return (not is_self, -kv[1]["value"] if is_self else 0.0, kv[0])

    for key, m in sorted(result["metrics"].items(), key=order):
        extra = ""
        summary = full.get("summary", {}).get(key)
        if summary and summary["count"] > 1:
            extra = (f"  (median {summary['median']:.6g}, q1 {summary['q1']:.6g}, "
                     f"q3 {summary['q3']:.6g}, n={summary['count']})")
        print(f"  {key:42s} {m['value']:>14.6g} {m['unit']}{extra}")
    if full["trace"]:
        best = full["fastest_traced"]
        print(f"  self times sum to {full['self_time_sum_s'][best]:.6g} s of "
              f"{full['traced_wall_s'][best]:.6g} s traced wall")
        for span in full["missing_spans"]:
            print(f"  span {span}: MISSING from fracheat")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    nproc = cap_blas_threads()
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load fracheat: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    env = environment(workloads, args.seed, nproc)
    results = {n: run_workload(workloads, n, args.seed, args.seconds, bool(args.trace), env)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics from the traced spans, the span file, and the environment record."""

from __future__ import annotations

import ctypes
import json
import os
import platform
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import Span, self_times


def per_layer(spans: list[Span], names: set[str], traced: list[dict], dims: list[int],
              untraced: list[dict]) -> dict[str, dict]:
    """Every per-layer statistic, named ``<module>.<function>.<stat>``.

    Per-op and per-flag figures count the spans of the traced ops only;
    ``self_ms_setup`` counts the spans of the workload's set-up.
    """
    n_ops = len(traced)
    n_flags = sum(r["flags"] for r in traced)
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    setup_ms = defaultdict(float)
    module_ms = defaultdict(float)
    flops = resamples = exit3 = 0
    for s, t in zip(spans, selfs):
        if s.op == "setup":
            setup_ms[s.name] += t * 1e3
            continue
        calls[s.name] += 1
        self_ms[s.name] += t * 1e3
        module_ms[s.name.split(".")[0]] += t * 1e3
        if s.name == "algebra.bracket":
            flops += dims[s.op % len(dims)] ** 3
        elif (s.name == "metrics.orthonormalize_flag" and s.error == "FlagError"
              and s.parent >= 0 and spans[s.parent].name == "flagcurvature.sample_flag"):
            resamples += 1
        elif s.name == "cli.main" and s.result == 3:
            exit3 += 1
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in sorted(names):
        put(f"{name}.calls_per_op", calls[name] / n_ops, "count")
        put(f"{name}.calls_per_flag", calls[name] / n_flags, "count")
        put(f"{name}.self_ms_per_op", self_ms[name] / n_ops, "ms")
        put(f"{name}.self_ms_setup", setup_ms[name], "ms")
    for module in sorted({name.split(".")[0] for name in names}):
        put(f"{module}.self_ms_per_op", module_ms[module] / n_ops, "ms")
    put("algebra.bracket.flops_per_flag", flops / n_flags, "count")
    put("flagcurvature.sample_flag.resamples_per_op", resamples / n_ops, "count")
    put("cli.main.exit3_per_op", exit3 / n_ops, "count")
    put("trace.overhead_frac",
        sum(r["ms"] for r in traced) / sum(r["ms"] for r in untraced) - 1.0, "frac")
    put("trace.spans", len(spans), "count")
    return out


def write_spans(spans: list[Span], path: Path) -> str:
    """One JSON array per span: name, start, end, parent, op, error, result."""
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                 s.error, s.result]) + "\n")
    return str(path.name)


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment(cpus: list[int]) -> dict:
    """Where the run happened; ``cpus`` are the CPUs the run may use."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    l2 = _read("/sys/devices/system/cpu/cpu0/cache/index2/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": l2.strip() if l2 else None,
        "platform": platform.platform(),
    }

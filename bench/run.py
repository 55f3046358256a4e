"""flagcurv benchmark.

    python3 bench/run.py --workload {scan-group,scan-reductive,audit} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up is timed several times, each in a
fresh interpreter (worker.py) with BLAS threads pinned to 1; the last worker
then runs the timed closed loop.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics.  Every metric of the run, the environment and the output
digest go to ``bench/results/<workload>-s<seed>-t<trace>.json``.

The traced table has calls and self time for every public function; the
per-layer list of BENCHMARK.json keeps the counts the issue names and only
those self times that are non-zero on every workload, so that no reported
time is a constant 0.  ``bench/baseline.json`` holds the first measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUPS = 8  # set-ups per run, taking turns over the CPUs; setup_s is their median
# Fixed per workload so that two commits compare the same percentile; each
# leaves at least ten ops beyond it at the benchmark's run length.
TAIL_PCT = {"scan-group": 85, "scan-reductive": 90, "audit": 97}
DEADLINE_S = 170.0


def _worker(args, k: int, setup_only: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", str(RESULTS / f"work-{args.workload}-s{args.seed}-{os.getpid()}-{k}")]
    if setup_only:
        cmd.append("--setup-only")
    cpus = sorted(os.sched_getaffinity(0))
    cmd += ["--cpus", ",".join(map(str, cpus))]
    t0 = time.monotonic()
    # Set-ups take turns over the CPUs, as the timed loop's cycles do.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpus[k % len(cpus)]}))
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    msgs = {}
    for line in stdout.splitlines():
        tag, _, payload = line.partition(" ")
        if tag in ("READY", "RESULT"):
            msgs[tag] = json.loads(payload)
    if proc.returncode != 0 or "READY" not in msgs or ("RESULT" in msgs) == setup_only:
        raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
    msgs["setup_s"] = msgs["READY"]["t_ready"] - t0
    return msgs


def _quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, setups: list[float], result: dict) -> tuple[dict, dict]:
    recs = result["records"]
    ms = [r["ms"] for r in recs]
    ok = [r for r in recs if r["status"] == "ok"]
    pct = TAIL_PCT[workload]
    tail = _quantile(ms, pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "flags_per_s": (sum(r["flags"] for r in ok) / result["phase_s"], "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "ok_frac": (len(ok) / len(recs), "frac"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "op_ms_tail_percentile": pct,
        "op_ms_tail_samples_beyond": sum(1 for x in ms if x > tail),
        "ops": len(recs),
        "fail_frac": sum(r["status"] == "failed" for r in recs) / len(recs),
        "known_defect_frac": sum(r["status"] == "known-defect" for r in recs) / len(recs),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "flagcurv" / "__init__.py").is_file():
        print(f"no flagcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    try:
        runs = [_worker(args, k, k < SETUPS - 1, env, deadline) for k in range(SETUPS)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = runs[-1]["RESULT"]
    setups = [r["setup_s"] for r in runs]
    imports = {k: statistics.median(r["READY"][k] for r in runs)
               for k in ("import.numpy_s", "import.flagcurv_s")}
    e2e, notes = end_to_end(args.workload, setups, result)
    failed = sum(r["status"] == "failed" for r in result["records"])
    correct = failed == 0

    if args.trace:
        table = dict(result["per_layer"])
        table.update({k: {"value": v, "unit": "s"} for k, v in imports.items()})
        names = [m["name"] for m in spec["per_layer"]]
    else:
        table = e2e
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {n: table[n] for n in names}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "digest": result["digest"],
        "problems": result["problems"], "dims": result["dims"],
        "environment": {**result["environment"], **imports},
        "setup_s_samples": setups, "end_to_end": e2e, **notes,
        "per_layer": table if args.trace else None,
        "spans_file": result.get("spans_file"),
        "ops_not_ok": [r for r in result["records"] if r["status"] != "ok"][:50],
        "op_ms": [round(r["ms"], 4) for r in result["records"]],
    }
    out = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={notes['ops']} digest={result['digest'][:16]} results={out.relative_to(ROOT)}")
    for name, m in sorted(table.items()):
        if m["value"] or name in names:  # the traced table lists every function
            print(f"{name:58s} {m['value']:>16.6g} {m['unit']}")
    for key in ("op_ms_tail_percentile", "op_ms_tail_samples_beyond", "fail_frac",
                "known_defect_frac"):
        print(f"{key:58s} {notes[key]:>16.6g}")
    print(json.dumps({"correct": correct, "attempted": len(result["records"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: fresh interpreter, set-up, then a closed loop of ops.

Started by run.py with BLAS threads pinned to 1.  It writes two protocol
lines to stdout: ``READY {...}`` when set-up is done (run.py times set-up up
to that line) and ``RESULT {...}`` at the end.  The timed phase is a single
caller: each op starts when the previous one returns.
"""

import time

# Fresh-interpreter import times, reported as import.numpy_s and import.flagcurv_s.
_T0 = time.perf_counter()
import numpy  # noqa: E402,F401

_T1 = time.perf_counter()
import flagcurv  # noqa: E402

_T2 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACE_CYCLES = 4  # traced cycles over the workload's problems


def _send(stream, tag: str, payload: dict) -> None:
    stream.write(f"{tag} {json.dumps(payload)}\n")
    stream.flush()


def _timed_loop(wl, ops, cpus, seconds=None, tracer=None):
    """Run the op indices ``ops`` in order; with ``seconds``, stop once that
    much time has passed and every problem has run once."""
    clock = time.perf_counter
    n_problems = len(wl.problems)
    records, texts = [], {}
    start = clock()
    for i in ops:
        if seconds is not None and i >= n_problems and clock() - start >= seconds:
            break
        # Each cycle over the problems runs on the next CPU in turn: on a
        # shared host one CPU can run far slower than another for minutes,
        # and a run should not depend on where the scheduler put it.
        os.sched_setaffinity(0, {cpus[(i // n_problems) % len(cpus)]})
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = wl.run(i)
            error = None
        except Exception:  # the loop must go on; the op counts as failed
            out, error = None, traceback.format_exc(limit=3)
        t1 = clock()
        if error is None:
            op, text = wl.check(i, out)
            texts[i] = digest(text)
            status, detail = op.status, op.errors or op.defects
        else:
            status, detail = "failed", [error]
        records.append({"i": i, "ms": (t1 - t0) * 1e3, "flags": wl.flags(i),
                        "status": status, "detail": detail})
    return records, texts, clock() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cpus", required=True, help="CPUs the timed cycles take turns on")
    args = ap.parse_args()
    cpus = [int(c) for c in args.cpus.split(",")]
    proto = sys.stdout

    src = (ROOT / "src").resolve()
    if Path(flagcurv.__file__).resolve().parent.parent != src:
        print(f"flagcurv imported from {flagcurv.__file__}, not from {src}", file=sys.stderr)
        return 2
    imports = {"import.numpy_s": _T1 - _T0, "import.flagcurv_s": _T2 - _T1}

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workdir = Path(args.workdir)
    try:
        wl = WORKLOADS[args.workload](args.workload, args.seed, workdir)
        n_problems = len(wl.problems)
        _send(proto, "READY", {**imports, "t_ready": time.monotonic()})
        if args.setup_only:
            return 0
        result = {"problems": [p.name for p in wl.problems],
                  "dims": [p.dim for p in wl.problems],
                  "environment": layers.environment(cpus)}
        if tracer is None:
            records, texts, phase_s = _timed_loop(wl, itertools.count(), cpus, args.seconds)
        else:
            # Untraced first half.  Then TRACE_CYCLES cycles of the same ops,
            # after the first (colder) cycle, run again in pairs, untraced and
            # traced back to back: the pairs' time ratio is the tracing overhead.
            tracer.uninstall()
            records, texts, phase_s = _timed_loop(wl, itertools.count(), cpus, args.seconds / 2)
            skip = n_problems if len(records) > n_problems else 0
            again = range(skip, min(len(records), skip + TRACE_CYCLES * n_problems))
            plain, traced = [], []
            for i in again:
                plain += _timed_loop(wl, [i], cpus)[0]
                tracer.install()
                rec, traced_texts, _ = _timed_loop(wl, [i], cpus, tracer=tracer)
                tracer.uninstall()
                if traced_texts.get(i) != texts.get(i):
                    rec[0]["status"] = "failed"
                    rec[0]["detail"] = rec[0]["detail"] + ["output differs when traced"]
                traced += rec
            result["per_layer"] = layers.per_layer(
                tracer.spans, tracer.names, traced, [p.dim for p in wl.problems], plain)
            result["spans_file"] = layers.write_spans(
                tracer.spans, workdir.parent / f"spans-{args.workload}-s{args.seed}.jsonl")
            records = records[:skip] + traced + records[again.stop:]
        # Ops of one problem repeat their output exactly (scan seeds differ
        # per op, so only audit ops repeat within a run).
        first = {}
        for rec in records:
            key = rec["i"] % n_problems if args.workload == "audit" else rec["i"]
            d = texts.get(rec["i"])
            if d is not None and first.setdefault(key, d) != d:
                rec["status"] = "failed"
                rec["detail"] = rec["detail"] + ["output differs from the first cycle"]
        result.update(
            records=records, phase_s=phase_s,
            digest=digest("".join(texts[i] for i in range(n_problems) if i in texts)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        _send(proto, "RESULT", result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

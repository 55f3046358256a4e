"""The three workloads: set-up, one op, and the check of one op's output.

An op returns its raw outputs; ``check`` compares them with the benchmark's
reference and classifies the op as

* ``ok``: every output is on the reference and every exit code is expected;
* ``failed``: an exception, an unexpected exit code, or an output off the
  reference where the paper's hypotheses hold;
* ``known-defect``: a method whose hypotheses fail (see
  ``Reference.applicable``) exited 0 with a K off the reference instead of
  refusing with exit 3.  Today this is ``general`` on every Heisenberg
  problem (ROADMAP item 3a).  It lowers ``ok_frac`` but is not a failed op.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import flagcurv
from flagcurv import cli
from problems import generate, sub_seed
from reference import TOL_HYP, Reference, k_matches

SCAN_FLAGS = 250  # flags per scan op
SCAN_METHOD = {"scan-group": "general", "scan-reductive": "naturally-reductive"}
BERWALD_SAMPLES = 50
METHODS = ("general", "naturally-reductive", "bi-invariant")
EXIT_OK, EXIT_VALIDATION, EXIT_PRECONDITION = 0, 2, 3
TOL_NUM_CLOSED = 1e-9  # identity tolerances of the repository's tests
TOL_NUM_FD = 1e-5
TOL_DEN = 1e-9


def fmt(x: float) -> str:
    """12 significant digits, as the CLI prints.  Not flagcurv.cli.fmt: checks
    must not call library code, which the traced run would count."""
    return f"{x:.12g}"


class Op:
    """Result of checking one op."""

    def __init__(self):
        self.errors: list[str] = []
        self.defects: list[str] = []

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    @property
    def status(self) -> str:
        return "failed" if self.errors else "known-defect" if self.defects else "ok"


def _build(problem, **config_args):
    doc = problem.to_config(**config_args)
    geom, data, _ = flagcurv.build_problem(flagcurv.config_from_dict(doc))
    return doc, geom, data, Reference(problem.c, problem.h_dim, problem.phi, problem.X)


class ScanWorkload:
    """One ``scan_flags`` call per op, cycling over a ladder of geometries."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed = name, seed
        self.problems = generate(name, seed)
        self.n_flags = SCAN_FLAGS
        self.method = SCAN_METHOD[name]
        self.built = [_build(p)[1:] for p in self.problems]
        for geom, data, _ in self.built:  # warm-up
            flagcurv.scan_flags(geom, data, n_samples=4, seed=0, method=self.method)

    def flags(self, i: int) -> int:
        return self.n_flags

    def run(self, i: int):
        geom, data, _ = self.built[i % len(self.built)]
        return flagcurv.scan_flags(geom, data, n_samples=self.n_flags,
                                   seed=sub_seed(self.seed, "scan", i), method=self.method)

    def check(self, i: int, s) -> tuple[Op, str]:
        op, ref = Op(), self.built[i % len(self.built)][2]
        if s.n_samples != self.n_flags:
            op.fail(f"n_samples {s.n_samples} != {self.n_flags}")
        tol = 1e-12 * max(1.0, abs(s.min_K), abs(s.max_K))
        if not s.min_K - tol <= s.mean_K <= s.max_K + tol:
            op.fail(f"min {s.min_K} <= mean {s.mean_K} <= max {s.max_K} fails")
        for label, flag, k in (("argmin", s.argmin_flag, s.min_K),
                               ("argmax", s.argmax_flag, s.max_K)):
            k_ref = float(ref.K(flag.Y, flag.U)[0])
            if not k_matches(k, k_ref):
                op.fail(f"{label} K {k!r} != reference {k_ref!r}")
        text = " ".join([fmt(s.min_K), fmt(s.max_K), fmt(s.mean_K),
                         str(s.argmin_index), str(s.argmax_index)]
                        + [fmt(x) for f in (s.argmin_flag, s.argmax_flag)
                           for x in (*f.Y, *f.U)])
        return op, text


class AuditWorkload:
    """One small problem per op: the CLI subcommands plus the library oracles."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed = name, seed
        self.problems = generate(name, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for index, p in enumerate(self.problems):
            doc, geom, data, ref = _build(p, seed=sub_seed(seed, "berwald", index) % 2**31,
                                          samples=BERWALD_SAMPLES)
            path = workdir / f"p{index:02d}.json"
            path.write_text(json.dumps(doc))
            argvs = [["validate", str(path), "--output", "json"]]
            argvs += [["curvature", str(path), "--output", "json", "--method", m]
                      for m in METHODS]
            if p.h_dim == 0:
                argvs.append(["berwald", str(path), "--output", "json"])
            y = np.array([f[0] for f in p.flags])
            u = np.array([f[1] for f in p.flags])
            Y, U = ref.orthonormalize(y, u)
            self.items.append({
                "problem": p, "geom": geom, "data": data, "ref": ref, "argvs": argvs,
                "K": ref.K(y, u), "R": ref.R_UYY(U, Y),
            })
        self.run(0)  # warm-up

    def flags(self, i: int) -> int:
        return len(self.problems[i % len(self.problems)].flags)

    def run(self, i: int):
        item = self.items[i % len(self.items)]
        runs = []
        for argv in item["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            runs.append((argv, code, out.getvalue()))
        d, g = item["data"], item["geom"].inner
        oracles = []
        for (y, u), R in zip(item["problem"].flags, item["R"]):
            flag = flagcurv.orthonormalize_flag(g, y, u)
            oracles.append((
                flagcurv.numerator_identity_check(d, flag, R),
                flagcurv.numerator_identity_check(d, flag, R, gy_source="fd"),
                flagcurv.denominator_identity(d, flag),
            ))
        return runs, oracles

    def check(self, i: int, result) -> tuple[Op, str]:
        item = self.items[i % len(self.items)]
        ref: Reference = item["ref"]
        runs, oracles = result
        op = Op()
        for argv, code, stdout in runs:
            cmd = argv[0] if argv[0] != "curvature" else f"curvature {argv[-1]}"
            try:
                doc = json.loads(stdout) if stdout else None
                if argv[0] == "validate":
                    self._check_validate(op, ref, code, doc)
                elif argv[0] == "berwald":
                    self._check_berwald(op, ref, code, doc)
                else:
                    self._check_curvature(op, ref, argv[-1], code, doc, item["K"])
            except (KeyError, TypeError, ValueError) as exc:
                op.fail(f"{cmd}: unreadable output ({type(exc).__name__}: {exc})")
        for j, (num_c, num_fd, den) in enumerate(oracles):
            for label, rep, tol in (("numerator closed", num_c, TOL_NUM_CLOSED),
                                    ("numerator fd", num_fd, TOL_NUM_FD),
                                    ("denominator", den, TOL_DEN)):
                if not rep.defect <= tol * max(1.0, abs(rep.rhs)):
                    op.fail(f"flag {j + 1}: {label} identity defect {rep.defect:g}")
        text = "".join(f"{' '.join(argv[:1] + argv[2:])}\n{code}\n{stdout}"
                       for argv, code, stdout in runs)
        return op, text

    @staticmethod
    def _check_validate(op, ref, code, doc):
        expected = EXIT_VALIDATION if ref.h == 0 and ref.norm_X > 0 and \
            not ref.drift_parallel else EXIT_OK
        if code != expected:
            op.fail(f"validate exit {code}, expected {expected}")
            return
        if doc["ok"] != (expected == EXIT_OK):
            op.fail(f"validate ok={doc['ok']} with exit {code}")
        fin = next(c for c in doc["checks"] if c["name"] == "finsler_condition")
        if not abs(fin["value"] - ref.norm_X) <= 1e-9:
            op.fail(f"validate |X|_g {fin['value']} != reference {ref.norm_X}")

    @staticmethod
    def _check_berwald(op, ref, code, doc):
        if code != EXIT_OK:
            op.fail(f"berwald exit {code}, expected 0")
            return
        if doc["berwald_admissible"] != ref.berwald_admissible:
            op.fail(f"berwald_admissible {doc['berwald_admissible']}, "
                    f"reference {ref.berwald_admissible}")
        sect = doc.get("sectional_along_X")
        if ref.berwald_admissible:
            # R(u, X)X = 0 for a parallel X, so every sampled K(X, u) is 0.
            if sect is None or sect["n_samples"] != BERWALD_SAMPLES:
                op.fail("berwald: missing or wrong-sized sectional sample")
            elif max(abs(sect["min_K"]), abs(sect["max_K"])) > TOL_HYP:
                op.fail(f"berwald: K(X, u) in [{sect['min_K']}, {sect['max_K']}], expected 0")

    @staticmethod
    def _check_curvature(op, ref, method, code, doc, k_ref):
        applicable = ref.applicable(method)
        if code == EXIT_PRECONDITION and not applicable:
            return  # a refusal outside the hypotheses is correct
        if code != EXIT_OK:
            op.fail(f"curvature {method}: exit {code}, expected "
                    f"{EXIT_OK if applicable else f'{EXIT_OK} or {EXIT_PRECONDITION}'}")
            return
        ks = [f["K"] for f in doc["flags"]]
        off = [j + 1 for j, (k, kr) in enumerate(zip(ks, k_ref)) if not k_matches(k, kr)]
        if len(ks) != len(k_ref):
            op.fail(f"curvature {method}: {len(ks)} flags, expected {len(k_ref)}")
        elif off and applicable:
            op.fail(f"curvature {method}: K off the reference on flags {off}")
        elif off:
            op.defects.append(f"curvature {method}: exit 0 outside its hypotheses, "
                              f"K off the reference on flags {off}")


WORKLOADS = {"scan-group": ScanWorkload, "scan-reductive": ScanWorkload,
             "audit": AuditWorkload}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()

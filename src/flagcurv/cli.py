"""Command-line front-end: validate | curvature | scan | berwald.

Reads a JSON problem config (see config.py for the schema), runs the
requested computation and builds its one document, which --output json
prints under schema_version and the aligned table views, reading no
report again.  Reals are printed with 12 significant digits;
identical config + seed gives byte-identical JSON output.  A process
builds its parser once, on its first call, and writes JSON in one pass
over the document.

Exit codes: 0 success, 1 usage/parse, 2 validation failure,
3 precondition failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import is_dataclass, replace
from itertools import islice
from json.encoder import encode_basestring_ascii

import numpy as np

from . import berwald as berwald_mod
from .config import ProblemConfig, RunOptions, build_problem, parse_config
from .errors import FlagcurvError, InputError, PreconditionError, ValidationError
from .finsler import validate_finsler
from .flagcurvature import CONVENTIONS, METHODS, _Kernel, hypotheses, scan_flags
from .geometry import STRUCTURE
from .metrics import CheckReport, orthonormalize_flag, require

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


def fmt(x: float) -> str:
    """12 significant digits; + 0.0 turns -0.0 into 0.0."""
    return f"{x + 0.0:.12g}"


def _ryyy(rep) -> float:
    """RYYY = <R(U,Y)Y,Y> vanishes identically; rounding noise up to
    1e-12 max(1, |URYY|) prints as 0.0."""
    RYYY, URYY = rep.contractions.RYYY, rep.contractions.URYY
    return 0.0 if abs(RYYY) <= 1e-12 * max(1.0, abs(URYY)) else RYYY


def _json_chunks(obj, newline: str, out: list[str]) -> None:
    """Append to out the JSON of obj, indented by 2 and key-sorted, with
    each float at 12 significant digits; JSON has no NaN or Infinity, so a
    non-finite float becomes null.  newline is a line break and obj's indent."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(float(fmt(obj))) if math.isfinite(obj) else "null")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for value in obj:
            out.append(sep + inner)
            _json_chunks(value, inner, out)
            sep = ","
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, value in sorted(obj.items()):  # a key that is not a str: TypeError
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _json_chunks(value, inner, out)
            sep = ","
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit_json(doc: dict) -> None:
    """Print doc under schema_version as json.dumps(indent=2, sort_keys=True)
    prints it with every float rounded by fmt, in one walk of the document."""
    out: list[str] = []
    _json_chunks({"schema_version": SCHEMA_VERSION, **doc}, "\n", out)
    print("".join(out))


def _cell(value) -> str:
    """A table cell: a vector and a real by fmt, entry by entry; a bool, int,
    None or str by str."""
    if isinstance(value, list):
        return "[" + ", ".join(map(fmt, value)) + "]"
    return fmt(value) if isinstance(value, float) else str(value)


def emit_table(rows: list[tuple[str, object]], title: str | None = None) -> None:
    """Print title, then one aligned line per (label, value) row; _cell writes the value."""
    if title:
        print(title)
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"  {k:<{width}}  {_cell(v)}")


def _fields(report) -> dict:
    """A report's fields by name, a nested Flag as its dict and an array as a list."""
    return {k: _fields(v) if is_dataclass(v) else v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(report).items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def cmd_validate(config: ProblemConfig, args) -> int:
    geom, data, _ = build_problem(config)
    fin = validate_finsler(data)
    checks = [*geom.checks(), ("finsler_condition", CheckReport(fin.ok, fin.norm_X), True)]

    # geom.connection is the metric's Levi-Civita connection only where levi_civita() holds
    berwald_status = "not checked"
    if all(rep.ok for _, rep in geom.levi_civita()):
        berwald_status = "trivial (X = 0: metric is Riemannian)"
        if geom.inner.norm(data.X) > 0:
            nabla = geom.drift_parallel(data.X)
            checks.append(("berwald_admissible", nabla, True))
            berwald_status = "admissible" if nabla.ok else "inadmissible"
            if not nabla.ok and berwald_mod.is_perfect(geom.algebra):
                berwald_status += (": the algebra is perfect ([g, g] = g), so no nonzero "
                                   "drift vector is parallel and no non-Riemannian metric "
                                   "of this type exists")

    failed_hard = [name for name, rep, hard in checks if hard and not rep.ok]
    doc = {
        "command": "validate",
        "name": config.name,
        "checks": [{"name": name, "ok": bool(rep.ok), "value": rep.max_defect, "hard": hard}
                   for name, rep, hard in checks],
        "berwald": berwald_status,
        "ok": not failed_hard,
    }
    if args.output == "json":
        emit_json(doc)
    else:
        emit_table([*((c["name"], f"{'ok' if c['ok'] else 'FAIL'}  ({fmt(c['value'])})")
                      for c in doc["checks"]),
                    ("berwald", doc["berwald"]),
                    ("result", "ok" if doc["ok"] else "FAILED: " + ", ".join(failed_hard))],
                   title=f"validate {config.name}")
    return EXIT_OK if doc["ok"] else EXIT_VALIDATION


def _gate(config: ProblemConfig, args, method: str | None):
    """build_problem, then unless --force refuse broken structure or hypotheses."""
    geom, data, raw_flags = build_problem(config)
    if not args.force:
        for name, rep, _ in islice(geom.checks(), STRUCTURE):
            if not rep.ok:
                raise ValidationError(f"check {name} fails (defect {rep.max_defect:g})")
        if method is not None:
            require(hypotheses(geom, data.X, method))
    return geom, data, raw_flags


def _options(config: ProblemConfig, **given) -> RunOptions:
    """The config's run options under the command-line values given (None: not given)."""
    return replace(config.options, **{k: v for k, v in given.items() if v is not None})


def cmd_curvature(config: ProblemConfig, args) -> int:
    opts = _options(config, sign_convention=args.convention, method=args.method)
    convention, method = opts.sign_convention, opts.method
    geom, data, raw_flags = _gate(config, args, method)
    if not raw_flags:
        raise InputError("config has no flags; add at least one [Y, U] pair")
    kernel = _Kernel(geom, data, method, convention)
    flags = [orthonormalize_flag(geom.inner, y, u) for y, u in raw_flags]
    Y, U = np.array([f.Y for f in flags]), np.array([f.U for f in flags])
    # a flag moved by more than 1e-10 in an entry, or by NaN, was re-orthonormalized
    moved = np.abs(np.hstack((Y, U)) - np.array(raw_flags, dtype=float).reshape(len(Y), -1))
    doc = {
        "command": "curvature", "name": config.name, "convention": convention, "method": method,
        "flags": [
            {"index": idx, "Y": y, "U": u, "orthonormalized": normalized, "K": rep.K,
             "XRYY": rep.contractions.XRYY, "URYY": rep.contractions.URYY, "RYYY": _ryyy(rep),
             "numerator": rep.numerator, "denominator": rep.denominator,
             "oracle_URYY": rep.oracle_URYY, "sign_mismatch": rep.sign_mismatch}
            for idx, (y, u, normalized, rep) in enumerate(zip(
                Y.tolist(), U.tolist(), (~(moved.max(axis=1) <= 1e-10)).tolist(),
                kernel.reports(Y, U)), 1)
        ],
    }
    if args.output == "json":
        emit_json(doc)
        return EXIT_OK
    for flag in doc["flags"]:
        if flag["orthonormalized"]:
            print(f"notice: flag {flag['index']} was re-orthonormalized", file=sys.stderr)
        cells = {**doc, **flag, "XRYY": "n/a" if flag["XRYY"] is None else flag["XRYY"]}
        emit_table([(k, cells[k]) for k in ("Y", "U", "K", "XRYY", "URYY", "RYYY", "numerator",
                                            "denominator", "convention", "method", "sign_mismatch")],
                   title=f"flag {flag['index']} ({config.name})")
    return EXIT_OK


def cmd_scan(config: ProblemConfig, args) -> int:
    opts = _options(config, sign_convention=args.convention, method=args.method,
                    samples=args.samples, seed=args.seed)
    convention, method = opts.sign_convention, opts.method
    geom, data, _ = _gate(config, args, method)
    summary = scan_flags(
        geom, data, n_samples=opts.samples, seed=opts.seed,
        method=method, convention=convention,
    )
    doc = {"command": "scan", "name": config.name, "convention": convention, "method": method,
           **_fields(summary)}
    if args.output == "json":
        emit_json(doc)
    else:
        emit_table([("samples", doc["n_samples"]),
                    *((k, doc[k]) for k in ("seed", "min_K", "max_K", "mean_K")),
                    *((f"{end} {v}", doc[f"{end}_flag"][v]) for end in ("argmin", "argmax")
                      for v in "YU")],
                   title=f"scan {config.name} ({method}, {convention})")
    return EXIT_OK


def cmd_berwald(config: ProblemConfig, args) -> int:
    opts = _options(config, samples=args.samples, seed=args.seed)
    geom, data, _ = _gate(config, args, None)
    rep = berwald_mod.obstruction_report(geom, data.X)
    doc = {"command": "berwald", "name": config.name, **_fields(rep)}
    if rep.berwald_admissible and geom.m_dim >= 2:  # else no 2-plane contains X
        sect = berwald_mod.sectional_along_X_sign(
            geom, data.X, n_samples=opts.samples, seed=opts.seed
        )
        doc["sectional_along_X"] = {
            "min_K": sect.min_K, "max_K": sect.max_K, "n_samples": sect.n_samples,
            "zero_witnesses": [{"u": u.tolist(), "K": k} for u, k in sect.witnesses],
        }
    if args.output == "json":
        emit_json(doc)
        return EXIT_OK
    rows = [("perfect", doc["perfect"]), ("parallel_space_dim", len(doc["parallel_space"])),
            *((k, doc[k]) for k in ("in_parallel_space", "ad_skew_ok", "ad_skew_defect",
                                    "nabla_X_norm", "berwald_admissible"))]
    if "sectional_along_X" in doc:
        along = doc["sectional_along_X"]
        rows += [("sectional min_K", along["min_K"]), ("sectional max_K", along["max_K"]),
                 ("zero_witnesses", len(along["zero_witnesses"]))]
    emit_table(rows, title=f"berwald {config.name}")
    return EXIT_OK


def _subcommands():
    """{name: (command, flags)}: each subcommand accepts only the flags its command reads."""
    return {
        "validate": (cmd_validate, ("--output",)),
        "curvature": (cmd_curvature, ("--output", "--convention", "--method", "--force")),
        "scan": (cmd_scan, ("--output", "--convention", "--method", "--samples", "--seed",
                            "--force")),
        "berwald": (cmd_berwald, ("--output", "--samples", "--seed", "--force")),
    }


_OPTIONS = {
    "--output": {"choices": ("table", "json"), "default": "table"},
    "--convention": {"choices": CONVENTIONS},
    "--method": {"choices": METHODS},
    "--samples": {"type": int},
    "--seed": {"type": int},
    "--force": {"action": "store_true",
                "help": "skip the structure and hypothesis gate; what the formula "
                        "needs (|X|_g < 1, a reductive split, the method's metric) "
                        "is still refused"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every call, built once per process: parsing leaves it as
    it was, help reads the terminal width when it is printed, and it records
    the subcommand's name, not its command function."""
    parser = _Parser(
        prog="flagcurv",
        description=(
            "Flag curvature of invariant (alpha+beta)^2/alpha metrics on "
            "homogeneous spaces, from Lie-algebra data.  The basis must be "
            "adapted: the first h_dim vectors span the isotropy subalgebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _subcommands().items():
        command = sub.add_parser(name)
        command.add_argument("config", help="path to a JSON problem config")
        for flag in flags:
            command.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        return _subcommands()[args.command][0](config, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FlagcurvError as exc:  # NumericError, and any other package error
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

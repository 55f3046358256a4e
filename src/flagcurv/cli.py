"""Command-line front-end: validate | curvature | scan | berwald.

Reads a JSON problem config (see config.py for the schema), runs the
requested computation, and prints either an aligned table or
schema-versioned JSON.  Reals are printed with 12 significant digits;
identical config + seed gives byte-identical JSON output.

Exit codes: 0 success, 1 usage/parse, 2 validation failure,
3 precondition failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import berwald as berwald_mod
from .algebra import TOL_HYPOTHESIS, jacobi_defect
from .config import ProblemConfig, RunOptions, build_problem, parse_config
from .errors import FlagcurvError, InputError, PreconditionError, ValidationError
from .finsler import validate_finsler
from .flagcurvature import CONVENTIONS, METHODS, _Kernel, hypotheses, scan_flags
from .metrics import orthonormalize_flag, require

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


def _round_floats(obj):
    """Normalize every float to 12 significant digits for stable output;
    JSON has no NaN or Infinity, so a non-finite float becomes null."""
    if isinstance(obj, float):
        return float(fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit_json(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    print(json.dumps(_round_floats(doc), indent=2, sort_keys=True))


def emit_table(rows: list[tuple[str, str]], title: str | None = None) -> None:
    if title:
        print(title)
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"  {k:<{width}}  {v}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _vec(v: np.ndarray) -> str:
    return "[" + ", ".join(fmt(float(x)) for x in v) + "]"


def _structure_checks(geom) -> list[tuple[str, bool, float, bool]]:
    """(name, ok, defect, hard) of the Jacobi identity and the reductive split."""
    jd = jacobi_defect(geom.algebra)
    red = geom.reductive
    return [
        ("jacobi", jd <= TOL_HYPOTHESIS, jd, True),
        ("reductive_subalgebra", red.subalgebra_ok, red.subalgebra_defect, True),
        ("reductive_ad_invariance", red.ad_invariant_ok, red.ad_invariant_defect, True),
    ]


def cmd_validate(config: ProblemConfig, args) -> int:
    geom, data, _ = build_problem(config)
    checks = _structure_checks(geom)

    bi = geom.g0_bi_invariance
    checks.append(("g0_bi_invariance", bi.ok, bi.max_defect, False))

    if geom.h_dim > 0:
        adh = geom.ad_h_invariance
        checks.append(("ad_h_invariance", adh.ok, adh.max_defect, True))

    nat = geom.naturally_reductive
    checks.append(("naturally_reductive", nat.ok, nat.max_defect, False))

    fin = validate_finsler(data)
    checks.append(("finsler_condition", fin.ok, fin.norm_X, True))

    # geom.connection is the metric's Levi-Civita connection only on a
    # reductive split with an ad(h)-invariant metric
    red = geom.reductive
    berwald_status = "not checked"
    if red.subalgebra_ok and red.ad_invariant_ok and geom.ad_h_invariance.ok:
        berwald_status = "trivial (X = 0: metric is Riemannian)"
        if geom.inner.norm(data.X) > 0:
            nabla = geom.drift_parallel(data.X)
            checks.append(("berwald_admissible", nabla.ok, nabla.max_defect, True))
            berwald_status = "admissible" if nabla.ok else "inadmissible"
            if not nabla.ok and berwald_mod.is_perfect(geom.algebra):
                berwald_status += (": the algebra is perfect ([g, g] = g), so no nonzero "
                                   "drift vector is parallel and no non-Riemannian metric "
                                   "of this type exists")

    failed_hard = [name for name, ok, _, hard in checks if hard and not ok]
    if args.output == "json":
        emit_json({
            "command": "validate",
            "name": config.name,
            "checks": [
                {"name": name, "ok": bool(ok), "value": val, "hard": hard}
                for name, ok, val, hard in checks
            ],
            "berwald": berwald_status,
            "ok": not failed_hard,
        })
    else:
        rows = [(name, f"{'ok' if ok else 'FAIL'}  ({fmt(val)})")
                for name, ok, val, hard in checks]
        rows.append(("berwald", berwald_status))
        rows.append(("result", "ok" if not failed_hard else
                     "FAILED: " + ", ".join(failed_hard)))
        emit_table(rows, title=f"validate {config.name}")
    return EXIT_OK if not failed_hard else EXIT_VALIDATION


def _gate(config: ProblemConfig, args, method: str | None):
    """build_problem, then unless --force refuse broken structure or hypotheses."""
    geom, data, raw_flags = build_problem(config)
    if not args.force:
        for name, ok, defect, _ in _structure_checks(geom):
            if not ok:
                raise ValidationError(f"check {name} fails (defect {defect:g})")
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
    reps = kernel.reports(np.array([f.Y for f in flags]), np.array([f.U for f in flags]))
    results = []
    for idx, ((y, u), flag, rep) in enumerate(zip(raw_flags, flags, reps)):
        normalized = not (np.allclose(flag.Y, y, rtol=0, atol=1e-10)
                          and np.allclose(flag.U, u, rtol=0, atol=1e-10))
        if normalized and args.output == "table":
            print(f"notice: flag {idx + 1} was re-orthonormalized", file=sys.stderr)
        results.append((idx, flag, normalized, rep))

    if args.output == "json":
        emit_json({
            "command": "curvature",
            "name": config.name,
            "convention": convention,
            "method": method,
            "flags": [
                {
                    "index": idx + 1,
                    "Y": list(flag.Y),
                    "U": list(flag.U),
                    "orthonormalized": normalized,
                    "K": rep.K,
                    "XRYY": rep.contractions.XRYY,
                    "URYY": rep.contractions.URYY,
                    "RYYY": _ryyy(rep),
                    "numerator": rep.numerator,
                    "denominator": rep.denominator,
                    "oracle_URYY": rep.oracle_URYY,
                    "sign_mismatch": rep.sign_mismatch,
                }
                for idx, flag, normalized, rep in results
            ],
        })
    else:
        for idx, flag, _, rep in results:
            emit_table(
                [
                    ("Y", _vec(flag.Y)),
                    ("U", _vec(flag.U)),
                    ("K", fmt(rep.K)),
                    ("XRYY", "n/a" if rep.contractions.XRYY is None
                     else fmt(rep.contractions.XRYY)),
                    ("URYY", fmt(rep.contractions.URYY)),
                    ("RYYY", fmt(_ryyy(rep))),
                    ("numerator", fmt(rep.numerator)),
                    ("denominator", fmt(rep.denominator)),
                    ("convention", rep.convention),
                    ("method", rep.method),
                    ("sign_mismatch", str(rep.sign_mismatch)),
                ],
                title=f"flag {idx + 1} ({config.name})",
            )
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
    if args.output == "json":
        emit_json({
            "command": "scan",
            "name": config.name,
            "convention": convention,
            "method": method,
            "n_samples": summary.n_samples,
            "seed": summary.seed,
            "min_K": summary.min_K,
            "max_K": summary.max_K,
            "mean_K": summary.mean_K,
            "argmin_index": summary.argmin_index,
            "argmax_index": summary.argmax_index,
            "argmin_flag": {"Y": list(summary.argmin_flag.Y),
                            "U": list(summary.argmin_flag.U)},
            "argmax_flag": {"Y": list(summary.argmax_flag.Y),
                            "U": list(summary.argmax_flag.U)},
        })
    else:
        emit_table(
            [
                ("samples", str(summary.n_samples)),
                ("seed", str(summary.seed)),
                ("min_K", fmt(summary.min_K)),
                ("max_K", fmt(summary.max_K)),
                ("mean_K", fmt(summary.mean_K)),
                ("argmin Y", _vec(summary.argmin_flag.Y)),
                ("argmin U", _vec(summary.argmin_flag.U)),
                ("argmax Y", _vec(summary.argmax_flag.Y)),
                ("argmax U", _vec(summary.argmax_flag.U)),
            ],
            title=f"scan {config.name} ({method}, {convention})",
        )
    return EXIT_OK


def cmd_berwald(config: ProblemConfig, args) -> int:
    opts = _options(config, samples=args.samples, seed=args.seed)
    geom, data, _ = _gate(config, args, None)
    rep = berwald_mod.obstruction_report(geom, data.X)
    sect = None
    if rep.berwald_admissible and geom.m_dim >= 2:  # else no 2-plane contains X
        sect = berwald_mod.sectional_along_X_sign(
            geom, data.X, n_samples=opts.samples, seed=opts.seed
        )
    fields = [("in_parallel_space", rep.in_parallel_space), ("ad_skew_ok", rep.ad_skew_ok),
              ("ad_skew_defect", rep.ad_skew_defect), ("nabla_X_norm", rep.nabla_X_norm),
              ("berwald_admissible", rep.berwald_admissible)]
    if args.output == "json":
        doc = {"command": "berwald", "name": config.name, "perfect": rep.perfect,
               "parallel_space": [list(row) for row in rep.parallel_space], **dict(fields)}
        if sect is not None:
            doc["sectional_along_X"] = {
                "min_K": sect.min_K,
                "max_K": sect.max_K,
                "n_samples": sect.n_samples,
                "zero_witnesses": [
                    {"u": list(u), "K": k} for u, k in sect.witnesses
                ],
            }
        emit_json(doc)
    else:
        rows = [("perfect", str(rep.perfect)),
                ("parallel_space_dim", str(rep.parallel_space.shape[0])),
                *((k, fmt(v) if isinstance(v, float) else str(v)) for k, v in fields)]
        if sect is not None:
            rows.append(("sectional min_K", fmt(sect.min_K)))
            rows.append(("sectional max_K", fmt(sect.max_K)))
            rows.append(("zero_witnesses", str(len(sect.witnesses))))
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


def _with_arguments(parser: argparse.ArgumentParser, fn, flags) -> argparse.ArgumentParser:
    parser.add_argument("config", help="path to a JSON problem config")
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(func=fn)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser; given a command, that subcommand's parser alone, built
    as the full parser builds it, so its usage, help and errors read the same."""
    if command is not None:
        return _with_arguments(_Parser(prog=f"flagcurv {command}"), *_subcommands()[command])
    parser = _Parser(
        prog="flagcurv",
        description=(
            "Flag curvature of invariant (alpha+beta)^2/alpha metrics on "
            "homogeneous spaces, from Lie-algebra data.  The basis must be "
            "adapted: the first h_dim vectors span the isotropy subalgebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _subcommands().items():
        _with_arguments(sub.add_parser(name), fn, flags)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The subcommand argv[0] names parses alone (the top-level parser has only -h); the
    full parser takes any other call, and leftover arguments, and prints the errors."""
    if argv and argv[0] in _subcommands():
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    try:
        config = parse_config(args.config)
        return args.func(config, args)
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

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
import sys

import numpy as np

from . import berwald as berwald_mod
from .algebra import check_reductive, jacobi_defect
from .config import ProblemConfig, build_problem, parse_config
from .errors import (
    FlagcurvError,
    InputError,
    NumericError,
    PreconditionError,
    ValidationError,
)
from .finsler import validate_finsler
from .flagcurvature import CONVENTIONS, METHODS, flag_curvature, scan_flags
from .metrics import (
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
    orthonormalize_flag,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj):
    """Normalize every float to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(float(v)) for v in obj.ravel()] if obj.ndim == 1 \
            else [_round_floats(row) for row in obj]
    if isinstance(obj, (np.floating,)):
        return float(fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
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


def cmd_validate(config: ProblemConfig, args) -> int:
    geom, data, _ = build_problem(config)
    L, pair, g = geom.algebra, geom.pair, geom.inner
    checks = []

    jd = jacobi_defect(L)
    checks.append(("jacobi", jd <= 1e-9, jd, True))

    red = check_reductive(L, pair)
    checks.append(("reductive_subalgebra", red.subalgebra_ok, red.max_defect, True))
    checks.append(("reductive_ad_invariance", red.ad_invariant_ok, red.max_defect, True))

    bi = check_bi_invariance(L, geom.g0.g0)
    checks.append(("g0_bi_invariance", bi.ok, bi.max_defect, False))

    if pair.h_dim > 0:
        adh = check_ad_h_invariance(L, pair, g)
        checks.append(("ad_h_invariance", adh.ok, adh.max_defect, True))

    nat = check_naturally_reductive(L, pair, g)
    checks.append(("naturally_reductive", nat.ok, nat.max_defect, False))

    fin = validate_finsler(data)
    checks.append(("finsler_condition", fin.ok, fin.norm_X, True))

    berwald_status = "not checked"
    if pair.h_dim == 0 and g.norm(data.X) > 0:
        rep = berwald_mod.obstruction_report(L, g, data.X)
        checks.append(("berwald_admissible", rep.berwald_admissible,
                       rep.nabla_X_norm, True))
        if rep.perfect and not rep.berwald_admissible:
            berwald_status = (
                "inadmissible: the algebra is perfect ([g, g] = g), so no "
                "nonzero drift vector is parallel and no non-Riemannian "
                "metric of this type exists"
            )
        else:
            berwald_status = "admissible" if rep.berwald_admissible else "inadmissible"
    elif pair.h_dim == 0:
        berwald_status = "trivial (X = 0: metric is Riemannian)"

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


def _gate(config: ProblemConfig, args):
    geom, data, raw_flags = build_problem(config)
    if not args.force:
        jd = jacobi_defect(geom.algebra)
        if jd > 1e-9:
            raise ValidationError(f"Jacobi identity fails (defect {jd:g})")
        red = check_reductive(geom.algebra, geom.pair)
        if not (red.subalgebra_ok and red.ad_invariant_ok):
            raise ValidationError(
                f"decomposition is not reductive (defect {red.max_defect:g})"
            )
    return geom, data, raw_flags


def cmd_curvature(config: ProblemConfig, args) -> int:
    geom, data, raw_flags = _gate(config, args)
    if not raw_flags:
        raise InputError("config has no flags; add at least one [Y, U] pair")
    convention = args.convention or config.options.sign_convention
    method = args.method or config.options.method
    results = []
    for idx, (y, u) in enumerate(raw_flags):
        flag = orthonormalize_flag(geom.inner, y, u)
        normalized = not (
            np.allclose(flag.Y, y, atol=1e-10) and np.allclose(flag.U, u, atol=1e-10)
        )
        if normalized and args.output == "table":
            print(f"notice: flag {idx + 1} was re-orthonormalized", file=sys.stderr)
        rep = flag_curvature(
            geom, data, flag, method=method, convention=convention,
            require_valid=not args.force,
        )
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
                    "RYYY": rep.contractions.RYYY,
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
                    ("XRYY", fmt(rep.contractions.XRYY)),
                    ("URYY", fmt(rep.contractions.URYY)),
                    ("RYYY", fmt(rep.contractions.RYYY)),
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
    geom, data, _ = _gate(config, args)
    convention = args.convention or config.options.sign_convention
    method = args.method or config.options.method
    samples = args.samples or config.options.samples
    seed = args.seed if args.seed is not None else config.options.seed
    summary = scan_flags(
        geom, data, n_samples=samples, seed=seed,
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
    geom, data, _ = _gate(config, args)
    if geom.pair.h_dim > 0:
        if args.output == "json":
            emit_json({"command": "berwald", "name": config.name,
                       "status": "not checked",
                       "reason": "admissibility checks apply to trivial isotropy only"})
        else:
            emit_table([("status", "not checked (h_dim > 0)")],
                       title=f"berwald {config.name}")
        return EXIT_OK
    L, g = geom.algebra, geom.inner
    rep = berwald_mod.obstruction_report(L, g, data.X)
    sect = None
    if rep.berwald_admissible:
        seed = args.seed if args.seed is not None else config.options.seed
        samples = args.samples or config.options.samples
        sect = berwald_mod.sectional_along_X_sign(
            L, g, data.X, n_samples=samples, seed=seed
        )
    if args.output == "json":
        doc = {
            "command": "berwald",
            "name": config.name,
            "perfect": rep.perfect,
            "parallel_space": [list(row) for row in rep.parallel_space],
            "in_parallel_space": rep.in_parallel_space,
            "ad_skew_ok": rep.ad_skew_ok,
            "ad_skew_defect": rep.ad_skew_defect,
            "nabla_X_norm": rep.nabla_X_norm,
            "berwald_admissible": rep.berwald_admissible,
        }
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
        rows = [
            ("perfect", str(rep.perfect)),
            ("parallel_space_dim", str(rep.parallel_space.shape[0])),
            ("in_parallel_space", str(rep.in_parallel_space)),
            ("ad_skew_ok", str(rep.ad_skew_ok)),
            ("ad_skew_defect", fmt(rep.ad_skew_defect)),
            ("nabla_X_norm", fmt(rep.nabla_X_norm)),
            ("berwald_admissible", str(rep.berwald_admissible)),
        ]
        if sect is not None:
            rows.append(("sectional min_K", fmt(sect.min_K)))
            rows.append(("sectional max_K", fmt(sect.max_K)))
            rows.append(("zero_witnesses", str(len(sect.witnesses))))
        emit_table(rows, title=f"berwald {config.name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagcurv",
        description=(
            "Flag curvature of invariant (alpha+beta)^2/alpha metrics on "
            "homogeneous spaces, from Lie-algebra data.  The basis must be "
            "adapted: the first h_dim vectors span the isotropy subalgebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("validate", cmd_validate),
        ("curvature", cmd_curvature),
        ("scan", cmd_scan),
        ("berwald", cmd_berwald),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON problem config")
        p.add_argument("--output", choices=("table", "json"), default="table")
        p.add_argument("--convention", choices=CONVENTIONS, default=None)
        p.add_argument("--method", choices=METHODS, default=None)
        p.add_argument("--fd-step", type=float, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true",
                       help="run diagnostics even when validation-level checks fail")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (NumericError, FlagcurvError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

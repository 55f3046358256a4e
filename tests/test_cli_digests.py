"""Every CLI call on the shipped configs and the test inputs prints the bytes
recorded in data/cli_digests.json: each subcommand, both outputs, each method
and convention (and the config's own), with and without --force.  The usage,
help and error calls of test_cli.PARSER_ARGVS print the bytes recorded in
data/cli_parser_digests.json, help wrapped at 80 columns, on a first and a
second call in one process.

A call is recorded as the sha256 of its exit code, stdout and stderr, where
stderr also holds the category and text of each warning the call raises.
After an intended change of output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path
from unittest import mock

from flagcurv.cli import main
from flagcurv.flagcurvature import CONVENTIONS, METHODS
from test_cli import PARSER_ARGVS, SU2_PLUS_R

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"
PARSER_DIGESTS = ROOT / "tests" / "data" / "cli_parser_digests.json"
INPUTS = [*sorted(ROOT.glob("configs/*.json")), *sorted(ROOT.glob("tests/data/input_*.json"))]
CHOICES = ([], *(["--method", m, "--convention", c] for m in METHODS for c in CONVENTIONS))


def argvs():
    """Each argv, its config path relative to the repository root."""
    for path in INPUTS:
        rel = path.relative_to(ROOT).as_posix()
        for output in ("table", "json"):
            yield ["validate", rel, "--output", output]
            for force in ([], ["--force"]):
                yield ["berwald", rel, "--output", output, *force]
                for command in ("curvature", "scan"):
                    for choice in CHOICES:
                        yield [command, rel, "--output", output, *choice, *force]


def _record(argv: list[str]) -> list:
    """The exit code, stdout and stderr (warnings included) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    raised = [f"{w.category.__name__}: {w.message}" for w in caught]
    return [code, out.getvalue(), err.getvalue(), raised]


def _sha256(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr (warnings included) of main(argv)."""
    return _sha256(_record([argv[0], str(ROOT / argv[1]), *argv[2:]]))


def digests() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in argvs()}


def parser_digests() -> dict[str, str]:
    """{argv, its config path relative to the repository root: sha256 of the
    records of two calls of main(argv) in this process, with COLUMNS=80}."""
    got = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # argparse wraps help to it
        for argv in PARSER_ARGVS:
            rel = [Path(a).relative_to(ROOT).as_posix() if a == SU2_PLUS_R else a for a in argv]
            got[" ".join(rel)] = _sha256([_record(list(argv)), _record(list(argv))])
    return got


def _changed(got: dict[str, str], path: Path) -> list[str]:
    recorded = json.loads(path.read_text())
    assert sorted(got) == sorted(recorded)
    return [argv for argv, d in got.items() if recorded[argv] != d]


def test_every_call_prints_its_recorded_bytes():
    assert _changed(digests(), DIGESTS) == []


def test_every_parser_call_prints_its_recorded_bytes():
    assert _changed(parser_digests(), PARSER_DIGESTS) == []


if __name__ == "__main__":
    for path, got in ((DIGESTS, digests()), (PARSER_DIGESTS, parser_digests())):
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    sys.exit(0)

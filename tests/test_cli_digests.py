"""Every CLI call on the shipped configs and the test inputs prints the bytes
recorded in data/cli_digests.json: each subcommand, both outputs, each method
and convention (and the config's own), with and without --force.

A call is recorded as the sha256 of its exit code, stdout and stderr, where
stderr also holds the category and text of each warning the call raises.
After an intended change of output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

from flagcurv.cli import main
from flagcurv.flagcurvature import CONVENTIONS, METHODS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"
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


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr (warnings included) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
        except SystemExit as exc:
            code = exc.code
    raised = [f"{w.category.__name__}: {w.message}" for w in caught]
    record = json.dumps([code, out.getvalue(), err.getvalue(), raised])
    return hashlib.sha256(record.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in argvs()}


def test_every_call_prints_its_recorded_bytes():
    recorded = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(recorded)
    assert [argv for argv, d in got.items() if recorded[argv] != d] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)

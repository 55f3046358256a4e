"""The CLI gate against the benchmark's statement of the paper's hypotheses.

The benchmark decides independently when the paper's K holds
(``Reference.applicable`` in bench/reference.py).  ``curvature`` and ``scan``
must run (exit 0) on every problem and method of its audit ladder where that
rule holds, and refuse (exit 3) everywhere else.  The bench modules are only
read here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from flagcurv.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
METHODS = ("general", "naturally-reductive", "bi-invariant")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # dataclasses look their module up by name
    return module


problems, reference = _load("problems"), _load("reference")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curvature_runs_exactly_where_the_benchmark_rule_holds(capsys, tmp_path, seed):
    wrong = []
    for index, p in enumerate(problems.generate("audit", seed)):
        path = tmp_path / f"p{index:02d}.json"
        path.write_text(json.dumps(p.to_config()))
        ref = reference.Reference(p.c, p.h_dim, p.phi, p.X)
        for method in METHODS:
            code = main(["curvature", str(path), "--output", "json", "--method", method])
            capsys.readouterr()
            expected = 0 if ref.applicable(method) else 3
            if code != expected:
                wrong.append((p.name, method, code, expected))
    assert wrong == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_runs_exactly_where_the_benchmark_rule_holds(capsys, tmp_path, seed):
    # scan shares curvature's gate and kernel, so it must draw the same line
    wrong = []
    for index, p in enumerate(problems.generate("audit", seed)):
        path = tmp_path / f"p{index:02d}.json"
        path.write_text(json.dumps(p.to_config()))
        ref = reference.Reference(p.c, p.h_dim, p.phi, p.X)
        for method in METHODS:
            code = main(["scan", str(path), "--output", "json", "--method", method,
                         "--samples", "4"])
            capsys.readouterr()
            expected = 0 if ref.applicable(method) else 3
            if code != expected:
                wrong.append((p.name, method, code, expected))
    assert wrong == []

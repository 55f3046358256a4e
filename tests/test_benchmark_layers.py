"""The per-layer metrics of BENCHMARK.json name functions of this package.

The benchmark keys its per-layer statistics by ``<module>.<function>.<stat>``
and traces every public module-level function; renaming or privatising a
named function would make its traced run fail.  The file is only read here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _named_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({tuple(name.split(".")[:2]) for name in names
                   if name.count(".") == 2})


@pytest.mark.parametrize("module, function", _named_functions(),
                         ids=lambda part: part)
def test_per_layer_name_is_a_public_function(module, function):
    mod = importlib.import_module(f"flagcurv.{module}")
    fn = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn), f"flagcurv.{module}.{function} is not a function"
    assert fn.__module__ == mod.__name__, f"{function} is not defined in {mod.__name__}"

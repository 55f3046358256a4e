import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flagcurv
from flagcurv.cli import (SCHEMA_VERSION, _ryyy, _subcommands, build_parser, emit_json, fmt,
                          main)
from flagcurv.config import (_all_real, _is_real, build_problem, config_from_dict,
                             parse_config, structure_tensor)
from flagcurv.algebra import TOL_HYPOTHESIS
from flagcurv.berwald import obstruction_report
from flagcurv.errors import InputError, NumericError, PreconditionError
from flagcurv.finsler import FinslerData, validate_finsler
from flagcurv.flagcurvature import _Kernel, hypotheses, scan_flags
from flagcurv.geometry import make_geometry
from test_algebra import structure_tensors
from test_kernel import _count
from conftest import heisenberg_tensor, sphere_tensor, su2_tensor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def replay(capsys, *argv):
    """run twice in one process; the second call must print what the first
    printed, so nothing carries over from one call to the next."""
    first = run(capsys, *argv)
    assert run(capsys, *argv) == first
    return first


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "dim": 3,
            "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
            "flags": [[[1, 0, 0], [0, 1, 0]]],
        }))
        cfg = parse_config(p)
        assert cfg.h_dim == 0
        assert cfg.g0 is None and cfg.phi is None and cfg.X is None
        assert cfg.options.sign_convention == "oracle-aligned"

    def test_index_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            config_from_dict({
                "dim": 3,
                "structure_constants": [[1, 4, 2, 1.0]],
            })

    def test_antisymmetry_conflict(self):
        with pytest.raises(InputError, match="antisymmetry"):
            config_from_dict({
                "dim": 3,
                "structure_constants": [[1, 2, 3, 1.0], [2, 1, 3, 1.0]],
            })

    def test_bad_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError, match="line 1"):
            parse_config(p)

    def test_file_that_is_not_utf8_is_refused(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_bytes(b"\xff\xfe" + json.dumps({"dim": 3}).encode("utf-16-le"))
        with pytest.raises(InputError, match="not UTF-8"):
            parse_config(p)
        code, out, err = run(capsys, "validate", str(p))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config file {p} is not UTF-8 text")

    def test_mirror_entry_builds_the_same_tensor(self):
        doc = {"dim": 3, "structure_constants": [[1, 2, 3, 1.0]]}
        both = {"dim": 3, "structure_constants": [[1, 2, 3, 1.0], [2, 1, 3, -1.0]]}
        assert np.array_equal(structure_tensor(config_from_dict(both)),
                              structure_tensor(config_from_dict(doc)))

    def test_all_shipped_configs_parse(self):
        for path in sorted(CONFIGS.glob("*.json")):
            cfg = parse_config(path)
            assert cfg.dim >= 1


# Every numeric config field, as a path into NUMERIC_DOC.  Python's json
# parses NaN, Infinity and true, and bool is an int subclass: each must be
# refused (exit 1) rather than computed with or crashed on.
NUMERIC_DOC = {"dim": 4, "h_dim": 0, "g0": np.eye(4).tolist(), "phi": np.eye(4).tolist(),
               "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
               "X": [0.0, 0.0, 0.0, 0.5], "flags": [[[1.0, 0, 0, 0], [0, 1.0, 0, 0]]],
               "options": {"seed": 1, "samples": 10}}
NUMERIC_FIELDS = [("dim",), ("h_dim",), ("structure_constants", 0, 0),
                  ("structure_constants", 0, 3), ("g0", 0, 1), ("phi", 1, 1), ("X", 0),
                  ("flags", 0, 0, 1), ("flags", 0, 1, 0), ("options", "seed"),
                  ("options", "samples")]


def _numeric_doc_with(tmp_path, field, value) -> str:
    """Write NUMERIC_DOC with the entry at the path field set to value."""
    doc = json.loads(json.dumps(NUMERIC_DOC))
    *parents, last = field
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return TestGate.write(tmp_path, doc)


class TestConfigNumbers:
    def test_the_document_is_accepted_as_written(self, capsys, tmp_path):
        assert run(capsys, "validate", TestGate.write(tmp_path, NUMERIC_DOC))[0] == 0

    @pytest.mark.parametrize("field", NUMERIC_FIELDS, ids=lambda f: "/".join(map(str, f)))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True],
                             ids=["NaN", "Infinity", "-Infinity", "true"])
    def test_non_finite_or_boolean_refused(self, capsys, tmp_path, field, bad):
        path = _numeric_doc_with(tmp_path, field, bad)
        assert run(capsys, "validate", path)[:2] == (1, "")
        with pytest.raises(InputError):
            parse_config(path)

    # dim, h_dim, the indices, seed and samples are integers: a huge but
    # representable value there is refused by a range or shape check
    @pytest.mark.parametrize("field", [("structure_constants", 0, 3), ("g0", 0, 1),
                                       ("phi", 1, 1), ("X", 0), ("flags", 0, 0, 1),
                                       ("flags", 0, 1, 0)],
                             ids=lambda f: "/".join(map(str, f)))
    @pytest.mark.parametrize("huge", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_integer_too_large_for_a_float_refused(self, capsys, tmp_path, field, huge):
        code, out, err = run(capsys, "validate", _numeric_doc_with(tmp_path, field, huge))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "finite number" in err

    @pytest.mark.parametrize("command", ["validate", "curvature", "scan", "berwald"])
    def test_nan_in_phi_is_refused_by_every_command(self, capsys, tmp_path, command):
        doc = json.loads(json.dumps(NUMERIC_DOC))
        doc["phi"][0][0] = math.nan
        got = run(capsys, command, TestGate.write(tmp_path, doc))
        assert got == (1, "", "error: phi row 1 has an entry that is not a finite "
                              "number\n")

    def test_overflowing_jacobiator_fails_validation(self, capsys, tmp_path):
        # [e1,e2] = e3, [e1,e3] = e1 (Jacobi defect 1) scaled to 1e160: the
        # Jacobiator overflows, and the check must fail, not read 0
        doc = {"dim": 4, "structure_constants": [[1, 2, 3, 1e160], [1, 3, 1, 1e160]]}
        path = TestGate.write(tmp_path, doc)
        code, out, _ = run(capsys, "validate", path, "--output", "json")
        report = json.loads(out)  # NaN is not JSON: a non-finite value is null
        assert code == 2 and report["ok"] is False
        jacobi = report["checks"][0]
        assert jacobi["name"] == "jacobi" and jacobi["ok"] is False
        assert jacobi["value"] is None or jacobi["value"] > 1e-9
        code, _, err = run(capsys, "curvature", path)
        assert code == 2 and "check jacobi fails" in err


SC_OK = [1, 2, 3, 1.0]  # a valid first entry: the failing one is entry 2
SC = "structure_constants entry 2"


# One row per structure-constant rule, and rows that break several rules
# at once: the message names the first rule broken, in the order below.
@pytest.mark.parametrize("entries, message", [
    pytest.param([SC_OK, "x"], f"{SC} must be [i, j, k, value]", id="not-a-list"),
    pytest.param([SC_OK, {"i": 1}], f"{SC} must be [i, j, k, value]", id="object"),
    pytest.param([SC_OK, [1, 2, 3]], f"{SC} must be [i, j, k, value]", id="three"),
    pytest.param([SC_OK, [1, 2, 3, 1.0, 0]], f"{SC} must be [i, j, k, value]", id="five"),
    pytest.param([SC_OK, [1.0, 2, 3, 1.0]], f"{SC}: indices must be integers",
                 id="float-index"),
    pytest.param([SC_OK, [1, True, 3, 1.0]], f"{SC}: indices must be integers",
                 id="bool-index"),
    pytest.param([SC_OK, [1, 2, "3", 1.0]], f"{SC}: indices must be integers",
                 id="str-index"),
    pytest.param([SC_OK, [1, 2.5, 9, math.nan]], f"{SC}: indices must be integers",
                 id="index-before-value"),
    *(pytest.param([SC_OK, [2, 3, 1, v]], f"{SC}: value must be a finite number", id=i)
      for v, i in [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                   (True, "bool"), (None, "null"), ("1", "str"), (10**400, "1e400"),
                   (-10**400, "-1e400")]),
    pytest.param([SC_OK, [0, 2, 3, math.nan]], f"{SC}: value must be a finite number",
                 id="value-before-range"),
    pytest.param([SC_OK, [0, 2, 3, 1.0]], f"{SC}: index 0 out of range [1, 3]", id="i=0"),
    pytest.param([SC_OK, [1, 4, 3, 1.0]], f"{SC}: index 4 out of range [1, 3]", id="j=4"),
    pytest.param([SC_OK, [1, 2, -1, 1.0]], f"{SC}: index -1 out of range [1, 3]",
                 id="k=-1"),
    pytest.param([SC_OK, [5, 0, 3, 1.0]], f"{SC}: index 5 out of range [1, 3]",
                 id="i-before-j"),
    pytest.param([SC_OK, [4, 4, 1, 1.0]], f"{SC}: index 4 out of range [1, 3]",
                 id="range-before-vanish"),
    pytest.param([SC_OK, [2, 2, 1, 1.0]], f"{SC}: [e_2, e_2] must vanish", id="vanish"),
    pytest.param([SC_OK, [1, 2, 3, 1.0]], f"{SC}: duplicate index triple (1, 2, 3)",
                 id="duplicate"),
    pytest.param([SC_OK, [1, 2, 3, 2]], f"{SC}: duplicate index triple (1, 2, 3)",
                 id="duplicate-other-value"),
    pytest.param([[1, 1, 2, 0], [1, 1, 2, 0.0]], f"{SC}: duplicate index triple (1, 1, 2)",
                 id="duplicate-vanishing"),
    pytest.param([SC_OK, [2, 1, 3, 1.0]],
                 f"{SC}: conflicts with the entry for (1, 2, 3) (antisymmetry)",
                 id="antisymmetry"),
    pytest.param([[1, 2, 3, 2], [2, 1, 3, 2]],
                 f"{SC}: conflicts with the entry for (1, 2, 3) (antisymmetry)",
                 id="antisymmetry-int"),
])
def test_structure_constant_rule_message(entries, message):
    with pytest.raises(InputError) as exc:
        config_from_dict({"dim": 3, "structure_constants": entries})
    assert str(exc.value) == message


@pytest.mark.parametrize("entries, expected", [
    ([[2, 2, 1, 0]], ((2, 2, 1, 0.0),)),
    ([[1, 2, 3, 2], [2, 1, 3, -2.0]], ((1, 2, 3, 2.0), (2, 1, 3, -2.0))),
    # 2**53 + 1 rounds to 2**53 as a float: the mirror agrees after rounding
    ([[1, 2, 3, 2**53 + 1], [2, 1, 3, -(2**53 + 1)]],
     ((1, 2, 3, 2.0**53), (2, 1, 3, -2.0**53))),
    ([[3, 1, 2, -1.7e308], [1, 3, 2, 1.7e308]], ((3, 1, 2, -1.7e308), (1, 3, 2, 1.7e308))),
])
def test_structure_constant_edge_entries_are_accepted(entries, expected):
    got = config_from_dict({"dim": 3, "structure_constants": entries}).structure_constants
    assert got == expected
    assert all(type(v) is float for *_, v in got)


# Entries a JSON config can hold, and np.float64, which a library caller may
# pass: huge ints and floats whose sum overflows take the per-entry path.
REALISH = st.one_of(
    st.integers(), st.sampled_from([10**400, -10**400, 2**1024, 2**53 + 1]),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308]),
    st.booleans(), st.none(), st.text(max_size=2), st.floats().map(np.float64),
)
NUMBERS = st.one_of(st.integers(-10**20, 10**20), st.floats(),
                    st.sampled_from([1.7e308, -1.7e308, math.inf, -math.inf, math.nan]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(REALISH, max_size=6), st.lists(NUMBERS, max_size=6)))
def test_all_real_agrees_with_the_per_entry_check(xs):
    assert _all_real(xs) == all(map(_is_real, xs))


class TestTooLargeToAllocate:
    """A size numpy refuses to describe (more than np.iinfo(np.intp).max bytes),
    or one it can describe but that lies beyond a 47-bit address space, so
    that malloc fails at once (2**20 - 1 and 10**17 here), exits 1 with an
    error line.  Nothing is written to memory."""

    @pytest.mark.parametrize("dim", [10**7, 2**20 - 1])
    def test_dim(self, capsys, tmp_path, dim):
        path = TestGate.write(tmp_path, {"dim": dim})
        assert run(capsys, "validate", path) == (
            1, "", f"error: dim = {dim} is too large: its structure tensor "
                   "cannot be allocated\n")

    @pytest.mark.parametrize("command, config", [("scan", "su2.json"),
                                                 ("berwald", "su2_plus_r.json")])
    @pytest.mark.parametrize("samples", [10**18, 10**20, 10**17])
    def test_samples(self, capsys, command, config, samples):
        got = run(capsys, command, str(CONFIGS / config), "--samples", str(samples))
        assert got == (1, "", f"error: n_samples = {samples} is too large to allocate\n")

    def test_samples_in_the_config(self, capsys, tmp_path):
        path = _numeric_doc_with(tmp_path, ("options", "samples"), 10**20)
        assert run(capsys, "scan", path) == (
            1, "", f"error: n_samples = {10**20} is too large to allocate\n")

    def test_scan_flags(self):
        config = parse_config(CONFIGS / "su2.json")
        geom, data, _ = build_problem(config)
        with pytest.raises(InputError, match="too large to allocate"):
            scan_flags(geom, data, n_samples=2**62, seed=0)


def test_readme_config_example_validates(capsys, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert run(capsys, "validate", str(path))[0] == 0


class TestValidateCommand:
    def test_su2_ok(self, capsys):
        code, out, _ = run(capsys, "validate", str(CONFIGS / "su2.json"))
        assert code == 0
        assert "ok" in out

    def test_invalid_drift_exits_2(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "dim": 3,
            "structure_constants": [],
            "X": [1.2, 0.0, 0.0],
        }))
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 2

    def test_su2_nonzero_drift_exits_2(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "dim": 3,
            "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
            "X": [0.0, 0.0, 0.5],
        }))
        code, out, _ = run(capsys, "validate", str(p), "--output", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "perfect" in doc["berwald"]

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.json")
        assert code == 1

    @pytest.mark.parametrize("X, code, ok, defect", [
        ([0.2, 0.0, 0.0], 2, False, 0.2),  # |Lambda(e_2) X| = 0.2: curvature refuses it
        ([0.0, 0.0, 0.2], 0, True, 0.0),  # along R: central and parallel
    ])
    def test_drift_parallel_row_at_positive_h_dim(self, capsys, tmp_path, X, code, ok,
                                                  defect):
        # S^2 x R with phi = I is ad(h)-invariant, so the drift is checked:
        # the berwald_admissible row is drift_parallel at every isotropy
        doc = json.loads((GOLDEN / "input_s2_r_coupled.json").read_text())
        doc["phi"], doc["X"] = np.eye(3).tolist(), X
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        got, out, _ = run(capsys, "validate", str(p), "--output", "json")
        assert got == code
        doc = json.loads(out)
        rows = {c["name"]: c for c in doc["checks"]}
        assert "drift_parallel" not in rows
        assert rows["berwald_admissible"] == {"name": "berwald_admissible", "ok": ok,
                                              "value": defect, "hard": True}
        assert doc["berwald"] == ("admissible" if ok else "inadmissible")
        if not ok:  # validate refuses what curvature refuses
            for method in ("general", "naturally-reductive", "bi-invariant"):
                assert run(capsys, "curvature", str(p), "--method", method) == (
                    3, "", "precondition error: drift X is not parallel (defect 0.2)\n")


class TestCurvatureCommand:
    def test_su2_table(self, capsys):
        code, out, _ = run(capsys, "curvature", str(CONFIGS / "su2.json"))
        assert code == 0
        assert "0.25" in out

    def test_su2_u1_json(self, capsys):
        code, out, _ = run(capsys, "curvature", str(CONFIGS / "su2_u1.json"),
                           "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["flags"][0]["K"] == pytest.approx(1.0)

    def test_drift_case(self, capsys):
        code, out, _ = run(capsys, "curvature", str(CONFIGS / "su2_plus_r.json"),
                           "--output", "json")
        assert code == 0
        doc = json.loads(out)
        ks = [f["K"] for f in doc["flags"]]
        assert ks[0] == pytest.approx(0.25)
        assert ks[1] == pytest.approx(0.1)
        assert doc["flags"][1]["orthonormalized"] is True

    def test_small_rescaling_is_reported(self, capsys, tmp_path):
        # Y is 1e-6 off unit length, inside allclose's default relative
        # tolerance; the printed Y is rescaled, so the flag was changed
        doc = json.loads((CONFIGS / "su2.json").read_text())
        doc["flags"] = [[[1.000001, 0.0, 0.0], [0.0, 1.0, 0.0]]]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "curvature", str(p), "--output", "json")
        flag = json.loads(out)["flags"][0]
        assert code == 0 and flag["Y"] == [1.0, 0.0, 0.0]
        assert flag["orthonormalized"] is True
        code, out, err = run(capsys, "curvature", str(p))
        assert code == 0 and "  Y              [1, 0, 0]\n" in out
        assert err == "notice: flag 1 was re-orthonormalized\n"

    def test_verbatim_convention(self, capsys):
        code, out, _ = run(capsys, "curvature", str(CONFIGS / "su2.json"),
                           "--convention", "paper-verbatim", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["flags"][0]["K"] == pytest.approx(-0.25)
        assert doc["flags"][0]["sign_mismatch"] is True

    def test_heisenberg_drift_blocked_without_force(self, capsys):
        # X = e1/2 is not parallel, so the paper's K does not hold there.
        code, out, _ = run(capsys, "curvature", str(CONFIGS / "heisenberg.json"))
        assert code == 3

    def test_naturally_reductive_refuses_a_metric_that_is_not_ad_h_invariant(
        self, capsys, tmp_path
    ):
        # su(2)/u(1) with phi = diag(1, 4): [m, m]_m = 0, so natural
        # reductivity holds trivially, but ad(h) does not preserve the metric,
        # which then defines no invariant metric on G/H for any method.
        doc = json.loads((CONFIGS / "su2_u1.json").read_text())
        doc["phi"] = [[1.0, 0.0], [0.0, 4.0]]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        for method in ("naturally-reductive", "general"):
            code, out, err = run(capsys, "curvature", str(p), "--method", method)
            assert code == 3 and out == ""
            assert "ad(h)-invariant" in err

    def test_forced_general_without_curvature_vector_reports_no_XRYY(
        self, capsys, tmp_path
    ):
        # The same metric under --force: general runs its closed form, but
        # with no Levi-Civita connection there is no R(U,Y)Y to read XRYY from.
        doc = json.loads((CONFIGS / "su2_u1.json").read_text())
        doc["phi"] = [[1.0, 0.0], [0.0, 4.0]]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        args = ("curvature", str(p), "--method", "general", "--force")
        code, out, _ = run(capsys, *args, "--output", "json")
        assert code == 0
        flag = json.loads(out)["flags"][0]
        assert flag["XRYY"] is None and flag["oracle_URYY"] is None
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "  XRYY           n/a\n" in out
        assert out.endswith("  sign_mismatch  None\n")


@pytest.mark.parametrize("output", ["table", "json"])
@pytest.mark.parametrize("command, extra", [("curvature", ()), ("scan", ("--samples", "50"))])
def test_a_k_that_is_not_finite_exits_4(capsys, tmp_path, command, extra, output):
    # the closed form overflows on a structure constant of 1e308; no warning escapes
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dim": 4, "structure_constants": [[1, 2, 3, 1e308]],
                                "X": [0, 0, 0, 0.3], "flags": [[[1, 0, 0, 0], [0, 1, 0, 0]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, command, str(path), "--force", "--output", output, *extra)
    assert got == (4, "", "numeric error: K is not finite: a curvature term overflows\n")


class TestScanCommand:
    def test_constant_curvature(self, capsys):
        code, out, _ = run(capsys, "scan", str(CONFIGS / "su2.json"),
                           "--samples", "200", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_K"] - doc["min_K"] < 1e-9
        assert doc["mean_K"] == pytest.approx(0.25)

    def test_byte_identical_reruns(self, capsys):
        args = ("scan", str(CONFIGS / "su2_plus_r.json"),
                "--samples", "100", "--seed", "9", "--output", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestBerwaldCommand:
    def test_su2_inadmissible(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "dim": 3,
            "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
            "X": [0.0, 0.0, 0.5],
        }))
        code, out, _ = run(capsys, "berwald", str(p), "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["perfect"] is True
        assert doc["parallel_space"] == []
        assert doc["berwald_admissible"] is False

    def test_heisenberg(self, capsys):
        code, out, _ = run(capsys, "berwald", str(CONFIGS / "heisenberg.json"),
                           "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["parallel_space"]) == 2
        assert doc["ad_skew_ok"] is False
        assert doc["berwald_admissible"] is False

    def test_central_drift_admissible(self, capsys):
        code, out, _ = run(capsys, "berwald", str(CONFIGS / "su2_plus_r.json"),
                           "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["berwald_admissible"] is True
        assert doc["nabla_X_norm"] <= 1e-10
        assert abs(doc["sectional_along_X"]["min_K"]) <= 1e-10

    def test_homogeneous_full_report(self, capsys):
        code, out, _ = run(capsys, "berwald", str(CONFIGS / "su2_u1.json"),
                           "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["perfect"], doc["berwald_admissible"]) == (True, False)  # X = 0
        assert "status" not in doc and "sectional_along_X" not in doc

    @pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-4, 0.5])
    def test_short_central_drift_admissible(self, capsys, tmp_path, t):
        # the sectional samples' dependence test is relative to |X|
        doc = json.loads((CONFIGS / "su2_plus_r.json").read_text())
        doc["X"] = [0.0, 0.0, 0.0, t]
        path = TestGate.write(tmp_path, doc)
        code, out, err = run(capsys, "berwald", path, "--output", "json", "--samples", "200")
        assert (code, err) == (0, "")
        sect = json.loads(out)["sectional_along_X"]
        assert sect["min_K"] == sect["max_K"] == 0.0

    def test_homogeneous_full_report_table(self, capsys):
        code, out, _ = run(capsys, "berwald", str(CONFIGS / "su2_u1.json"),
                           "--output", "table")
        assert code == 0
        assert "berwald_admissible  False" in out and "not checked" not in out

    def test_metric_that_is_not_ad_h_invariant_exits_3(self, capsys):
        # S^2 x R with phi coupling the sphere to R: refused as curvature refuses it
        path = str(GOLDEN / "input_s2_r_coupled.json")
        err = "precondition error: metric is not ad(h)-invariant (defect 0.3)\n"
        for command in ("berwald", "curvature"):
            assert run(capsys, command, path) == (3, "", err)
        assert run(capsys, "berwald", path, "--force") == (3, "", err)

    # E(2) x S^2: g = e(2) + su(2) in the basis (f1 | r, t1, t2, f2, f3), h = u(1)
    E2_S2 = {"dim": 6, "h_dim": 1, "X": [0.5, 0.0, 0.0, 0.0, 0.0],
             "structure_constants": [[2, 3, 4, 1.0], [2, 4, 3, -1.0],
                                     [1, 5, 6, 1.0], [5, 6, 1, 1.0], [6, 1, 5, 1.0]],
             "flags": [[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]]}

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 0.5])
    def test_zero_witnesses_do_not_depend_on_the_drift_scale(self, capsys, tmp_path, t):
        # [X, m]_m has rank 2 for X = t r at every t: two witnesses span its complement
        path = TestGate.write(tmp_path, {**self.E2_S2, "X": [t, 0.0, 0.0, 0.0, 0.0]})
        code, out, _ = run(capsys, "berwald", path, "--output", "json", "--samples", "50")
        assert code == 0
        assert len(json.loads(out)["sectional_along_X"]["zero_witnesses"]) == 2

    def test_e2_times_s2_rotation_admissible(self, capsys, tmp_path):
        # X = r/2 is parallel for g0 = I, though r is not central in g
        path = TestGate.write(tmp_path, self.E2_S2)
        code, out, _ = run(capsys, "berwald", path, "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["berwald_admissible"], doc["nabla_X_norm"]) == (True, 0.0)
        assert doc["sectional_along_X"]["min_K"] == doc["sectional_along_X"]["max_K"] == 0.0
        code, out, _ = run(capsys, "validate", path, "--output", "json")
        assert (code, json.loads(out)["berwald"]) == (0, "admissible")


class TestGate:
    """curvature, scan and berwald refuse broken structure unless --force."""

    # [e1,e2] = e3, [e1,e3] = e1: J(e1, e2, e3) = e3
    NOT_JACOBI = {"dim": 3, "structure_constants": [[1, 2, 3, 1.0], [1, 3, 1, 1.0]],
                  "flags": [[[1, 0, 0], [0, 1, 0]]]}
    # h = span(e1), [e2,e3] = e1, [e3,e1] = e1: [h, m] is not in m
    NOT_REDUCTIVE = {"dim": 3, "h_dim": 1,
                     "structure_constants": [[2, 3, 1, 1.0], [3, 1, 1, 1.0]],
                     "flags": [[[1, 0], [0, 1]]]}

    @staticmethod
    def write(tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["curvature", "scan", "berwald"])
    def test_jacobi_failure(self, capsys, tmp_path, command):
        path = self.write(tmp_path, self.NOT_JACOBI)
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert "check jacobi fails" in err
        assert run(capsys, command, path, "--force")[0] == 0

    # forced, each refuses the split itself, as the Levi-Civita connection needs it
    @pytest.mark.parametrize("command, forced", [
        ("curvature", 3), ("scan", 3), ("berwald", 3),
    ])
    def test_split_that_is_not_reductive(self, capsys, tmp_path, command, forced):
        path = self.write(tmp_path, self.NOT_REDUCTIVE)
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert "check reductive_ad_invariance fails" in err
        assert run(capsys, command, path, "--force")[0] == forced

    def test_curvature_without_flags(self, capsys, tmp_path):
        doc = json.loads((CONFIGS / "su2.json").read_text())
        doc["flags"] = []
        code, _, err = run(capsys, "curvature", self.write(tmp_path, doc))
        assert code == 1
        assert "no flags" in err


def _tensor_config(c, h_dim, X):
    """A config of the structure tensor c with drift X and the flag (e1, e2) of m."""
    n = len(c)
    entries = [[i + 1, j + 1, k + 1, float(c[i, j, k])] for i in range(n)
               for j in range(i + 1, n) for k in range(n) if c[i, j, k]]
    m = np.eye(n - h_dim).tolist()
    return {"dim": n, "h_dim": h_dim, "structure_constants": entries, "X": X,
            "flags": [[m[0], m[1]]]}


_AFFINE = np.zeros((2, 2, 2))  # [e1, e2] = e2
_AFFINE[0, 1, 1], _AFFINE[1, 0, 1] = 1.0, -1.0


class TestHypothesisGate:
    """curvature and scan refuse (exit 3) outside the paper's hypotheses
    unless --force: X parallel, and for the general method g0 bi-invariant."""

    # (config, failing hypotheses in the gate's order, K printed under --force)
    ROWS = [
        pytest.param(_tensor_config(heisenberg_tensor(), 0, [0.5, 0.0, 0.0]),
                     [("g0 is not bi-invariant", 1.0), ("drift X is not parallel", 0.25)],
                     4 / 81, id="heisenberg-X=e1/2"),
        pytest.param(_tensor_config(heisenberg_tensor(), 0, [0.0, 0.0, 0.5]),
                     [("g0 is not bi-invariant", 1.0), ("drift X is not parallel", 0.25)],
                     0.25, id="heisenberg-X=e3/2"),
        pytest.param(_tensor_config(su2_tensor(), 0, [0.0, 0.0, 0.5]),
                     [("drift X is not parallel", 0.25)], 0.25, id="su2-X=e3/2"),
        pytest.param(_tensor_config(heisenberg_tensor(), 0, [0.0, 0.0, 0.0]),
                     [("g0 is not bi-invariant", 1.0)], 0.25, id="heisenberg-X=0"),
        pytest.param(_tensor_config(_AFFINE, 0, [0.3, 0.0]),
                     [("g0 is not bi-invariant", 2.0), ("drift X is not parallel", 0.3)],
                     0.0875319491614, id="affine-X=0.3e1"),
        # Lambda(m)X = 0 here; the defect is the [h, X] term
        pytest.param(_tensor_config(sphere_tensor(2), 1, [0.3, 0.0, 0.0]),
                     [("drift X is not parallel", 0.3)], 0.350127796646,
                     id="S2xR-X-on-sphere"),
    ]

    @pytest.mark.parametrize("doc, failing, K", ROWS)
    def test_refused_unless_forced(self, capsys, tmp_path, doc, failing, K):
        geom, data, _ = build_problem(config_from_dict(doc))
        assert [(words, pytest.approx(rep.max_defect)) for words, rep
                in hypotheses(geom, data.X, "general") if not rep.ok] == failing
        path = TestGate.write(tmp_path, doc)
        words, defect = failing[0]
        for command in ("curvature", "scan"):
            code, out, err = run(capsys, command, path, "--output", "json")
            assert (code, out) == (3, "")
            assert f"{words} (defect {defect:g})" in err
        code, out, _ = run(capsys, "curvature", path, "--output", "json", "--force")
        assert code == 0
        assert json.loads(out)["flags"][0]["K"] == pytest.approx(K, rel=1e-11)
        assert run(capsys, "scan", path, "--samples", "20", "--force")[0] == 0

    def test_drift_on_the_line_of_s2_x_r_runs(self, capsys, tmp_path):
        path = TestGate.write(tmp_path, _tensor_config(sphere_tensor(2), 1, [0.0, 0.0, 0.3]))
        code, out, _ = run(capsys, "curvature", path, "--output", "json")
        assert code == 0
        assert json.loads(out)["flags"][0]["K"] == pytest.approx(1.0)
        assert run(capsys, "scan", path, "--samples", "20")[0] == 0


# phi refused at construction, so by every command with and without --force
@pytest.mark.parametrize("g0, phi, words", [
    pytest.param(np.diag([1.0, 2.0, 1.0]), [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 "phi is not self-adjoint w.r.t. g0 (defect 0.5)", id="not-self-adjoint"),
    pytest.param(np.eye(3), np.diag([1.0, -1.0, 1.0]),
                 "phi is not positive-definite w.r.t. g0 (min eigenvalue -1)",
                 id="not-positive-definite"),
])
@pytest.mark.parametrize("command", ["validate", "curvature", "scan", "berwald"])
def test_phi_refusals(capsys, tmp_path, g0, phi, words, command):
    doc = json.loads((CONFIGS / "su2.json").read_text())
    doc["g0"], doc["phi"] = np.asarray(g0).tolist(), np.asarray(phi).tolist()
    path = TestGate.write(tmp_path, doc)
    for flags in ((), ("--force",)) if command != "validate" else ((),):
        assert run(capsys, command, path, *flags) == (2, "", f"validation error: {words}\n")


def test_validate_reads_large_constants_without_overflow(capsys, tmp_path):
    # [e1, e2] = 1e308 e3: Jacobi holds, and g0 = I is not bi-invariant by 1e308
    path = TestGate.write(tmp_path, {"dim": 4, "structure_constants": [[1, 2, 3, 1e308]]})
    code, out, _ = run(capsys, "validate", path, "--output", "json")
    values = {row["name"]: row["value"] for row in json.loads(out)["checks"]}
    assert code == 0
    assert values["jacobi"] == 0.0 and values["g0_bi_invariance"] == 1e308


@pytest.mark.parametrize("t", [1e-300, 1e-21, 1.0, 1e308])
def test_berwald_samples_a_parallel_drift_at_extreme_metric_scales(capsys, tmp_path, t):
    # R^2 with phi = diag(t, 1) and X = e2/2: every sample u lies along e1, whose
    # g-length sqrt(t) |u_1| would overflow when squared, or read as short
    path = TestGate.write(tmp_path, {"dim": 2, "structure_constants": [],
                                     "phi": [[t, 0.0], [0.0, 1.0]], "X": [0.0, 0.5]})
    code, out, err = run(capsys, "berwald", path, "--samples", "50", "--output", "json")
    assert (code, err) == (0, "")
    sect = json.loads(out)["sectional_along_X"]
    assert (sect["min_K"], sect["max_K"], sect["n_samples"]) == (0.0, 0.0, 50)


def test_berwald_witnesses_of_a_metric_of_wide_range(capsys, tmp_path):
    # R^3 with phi = diag(1e-200, 1e200, 1) and X = e3/2: e1 and e2 are both
    # witnesses, though G's entries along them are 1e400 apart
    path = TestGate.write(tmp_path, {"dim": 3, "structure_constants": [], "X": [0.0, 0.0, 0.5],
                                     "phi": [[1e-200, 0, 0], [0, 1e200, 0], [0, 0, 1.0]]})
    code, out, err = run(capsys, "berwald", path, "--samples", "20", "--output", "json")
    assert (code, err) == (0, "")
    got = [w["u"] for w in json.loads(out)["sectional_along_X"]["zero_witnesses"]]
    assert np.allclose(sorted(np.abs(got), key=np.argmax), [[1e100, 0, 0], [0, 1e-100, 0]],
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("doc, K", [
    pytest.param({"dim": 2, "structure_constants": [], "phi": [[1e-13, 0.0], [0.0, 1.0]],
                  "flags": [[[1.0, 0.0], [0.0, 1.0]]]}, 0.0, id="R2-phi=diag(1e-13,1)"),
    pytest.param({"dim": 3, "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
                  "flags": [[[1e-7, 0.0, 0.0], [0.0, 1.0, 0.0]]]}, 0.25, id="su2-Y=1e-7e1"),
])
def test_curvature_reads_short_orthogonal_flags(capsys, tmp_path, doc, K):
    code, out, _ = run(capsys, "curvature", TestGate.write(tmp_path, doc), "--output", "json")
    assert code == 0
    assert json.loads(out)["flags"][0]["K"] == pytest.approx(K, abs=1e-15)


# su(2) whose Levi-Civita connection overflows: the oracle values are not finite
WIDE_SU2 = {"name": "wide", "dim": 3,
            "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
            "g0": np.diag([1e200, 1e-200, 1.0]).tolist(),
            "flags": [[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]]}


@pytest.mark.parametrize("output", ["json", "table"])
def test_an_oracle_that_is_not_finite_decides_no_sign_mismatch(capsys, tmp_path, output):
    # warnings are errors in this suite: none may escape either command
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_SU2))
    code, out, _ = run(capsys, "curvature", str(path), "--force", "--output", output)
    assert code == 0
    if output == "json":
        flag = json.loads(out)["flags"][0]
        assert (flag["K"], flag["oracle_URYY"], flag["sign_mismatch"]) == (0.25, None, None)
        assert flag["XRYY"] is None and flag["RYYY"] is None
    else:
        assert re.search(r"^  K +0\.25$", out, re.M)
        assert re.search(r"^  sign_mismatch +None$", out, re.M)
    code, out, err = run(capsys, "berwald", str(path), "--force", "--output", output)
    assert code == 0 and err == ""
    assert "perfect" in out


def test_explicit_empty_phi_is_the_default(capsys, tmp_path):
    # m_dim = 0: phi = [] is the 0x0 matrix
    doc = dict(TestCallDomain.ISOTROPY_ONLY)
    for output in ("table", "json"):
        want = run(capsys, "validate", TestGate.write(tmp_path, doc), "--output", output)
        assert want[0] == 0
        got = run(capsys, "validate", TestGate.write(tmp_path, {**doc, "phi": []}),
                  "--output", output)
        assert got == want


@st.composite
def table_problems(draw):
    """A geometry and a drift: a random algebra (Jacobi may fail) with a
    random split and metric on m, or S^k x R with an ad(h)-invariant one or
    one coupling the sphere to R; g0 random or the identity, phi = g0_m^-1 S
    for the metric S on m, and |X|_g up to 1.2, so the Finsler condition may
    fail."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        c, _ = draw(structure_tensors())
        n = len(c)
        h = draw(st.integers(0, n))
        A = rng.normal(size=(n - h, n - h))
        S = A @ A.T / max(n - h, 1) + np.eye(n - h)
    else:
        k = draw(st.integers(2, 4))
        c, n, h = sphere_tensor(k), k * (k + 1) // 2 + 1, k * (k - 1) // 2
        S = np.diag([rng.uniform(0.5, 2.0)] * k + [rng.uniform(0.5, 2.0)])
        if draw(st.booleans()):
            S[0, k] = S[k, 0] = 0.4
    B = rng.normal(size=(n, n))
    g0 = B @ B.T / n + np.eye(n) if draw(st.booleans()) else np.eye(n)
    phi = np.linalg.solve(g0[h:, h:], S) if h < n else np.zeros((0, 0))
    geom = make_geometry(flagcurv.LieAlgebraSpec(n, c), h, g0=g0, phi=phi)
    X = rng.normal(size=n - h)
    if geom.inner.norm(X) > 0:
        X *= draw(st.floats(0.0, 1.2)) / geom.inner.norm(X)
    return geom, X


@settings(max_examples=40, deadline=None)
@given(table_problems())
def test_check_table_rows_are_the_standalone_checks(problem):
    geom, X = problem
    L, g, h = geom.algebra, geom.inner, geom.h_dim
    jd, (sub, ad) = flagcurv.jacobi_defect(L), flagcurv.check_reductive(L, h)
    want = [("jacobi", jd <= TOL_HYPOTHESIS, jd, True)]
    for name, rep, hard in (
            ("reductive_subalgebra", sub, True), ("reductive_ad_invariance", ad, True),
            ("g0_bi_invariance", flagcurv.check_bi_invariance(L, geom.g0), False),
            ("ad_h_invariance", flagcurv.check_ad_h_invariance(L, g), True),
            ("naturally_reductive", flagcurv.check_naturally_reductive(L, g), False)):
        if name != "ad_h_invariance" or h:  # it always holds with h_dim = 0
            want.append((name, rep.ok, rep.max_defect, hard))
    rows = list(geom.checks())
    assert [(name, rep.ok, rep.max_defect, hard) for name, rep, hard in rows] == want
    # each row is computed once, then read from the geometry
    assert all(a[1] is b[1] is getattr(geom, a[0]) for a, b in zip(rows, geom.checks()))

    # validate prints the table in order, then the rows of the drift
    fin = validate_finsler(FinslerData(g=g, X=X))
    want += [("finsler_condition", fin.ok, fin.norm_X, True)]
    if sub.ok and ad.ok and flagcurv.check_ad_h_invariance(L, g).ok and g.norm(X) > 0:
        nabla = geom.drift_parallel(X)
        want += [("berwald_admissible", nabla.ok, nabla.max_defect, True)]
    code, doc = _validate(geom, X)
    got = [(row["name"], row["ok"], row["value"], row["hard"]) for row in doc["checks"]]
    assert got == [(name, ok, float(fmt(value)), hard) for name, ok, value, hard in want]
    assert code == (0 if all(ok for _, ok, _, hard in want if hard) else 2)


def _validate(geom, X):
    """Exit code and JSON document of validate on a config of geom and X."""
    L = geom.algebra
    I, J, K = np.nonzero(np.triu(np.ones((L.dim,) * 2), 1)[:, :, None] * L.c)
    doc = {"dim": L.dim, "h_dim": geom.h_dim, "g0": geom.g0.tolist(), "phi": geom.phi.tolist(),
           "X": X.tolist(),
           "structure_constants": [[int(i) + 1, int(j) + 1, int(k) + 1, float(L.c[i, j, k])]
                                   for i, j, k in zip(I, J, K)]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["validate", str(path), "--output", "json"])
    return code, json.loads(buffer.getvalue())


@settings(max_examples=60, deadline=None)
@given(table_problems())
def test_readers_of_the_levi_civita_precondition_agree(problem):
    geom, X = problem
    pairs = list(geom.levi_civita())
    split_ok = geom.reductive_subalgebra.ok and geom.reductive_ad_invariance.ok
    assert [rep.ok for _, rep in pairs] == [split_ok, geom.ad_h_invariance.ok]
    refusals = [f"{words} (defect {rep.max_defect:g})" for words, rep in pairs if not rep.ok]

    assert (_validate(geom, X)[1]["berwald"] == "not checked") == bool(refusals)
    if refusals:
        with pytest.raises(PreconditionError) as refused:
            obstruction_report(geom, X)
        assert str(refused.value) == refusals[0]
    else:
        obstruction_report(geom, X)
    if geom.m_dim >= 2:  # else the kernel refuses the call before the split
        data = FinslerData(g=geom.inner, X=np.zeros(geom.m_dim))
        try:
            _Kernel(geom, data, "general", "oracle-aligned")
            words = None
        except PreconditionError as exc:
            words = str(exc)
        assert words == (None if split_ok else refusals[0])


class TestCallDomain:
    """--force skips the CLI's gate, never what the formula itself needs."""

    @pytest.mark.parametrize("command", ["curvature", "scan"])
    def test_force_keeps_the_finsler_condition(self, capsys, tmp_path, command):
        doc = json.loads((CONFIGS / "su2_plus_r.json").read_text())
        doc["X"] = [0.0, 0.0, 0.0, 1.5]
        path = TestGate.write(tmp_path, doc)
        for flags in ((), ("--force",)):
            code, out, err = run(capsys, command, path, "--output", "json", *flags)
            assert (code, out) == (3, "")
            assert err == ("precondition error: drift vector fails the Finsler "
                           "condition (|X|_g = 1.5)\n")

    def test_convention_flips_general_and_is_refused_elsewhere(self, capsys):
        path = str(CONFIGS / "su2.json")
        ks = {}
        for convention in ("oracle-aligned", "paper-verbatim"):
            code, out, _ = run(capsys, "curvature", path, "--output", "json",
                               "--convention", convention)
            assert code == 0
            ks[convention] = json.loads(out)["flags"][0]["K"]
        assert ks == {"oracle-aligned": 0.25, "paper-verbatim": -0.25}
        for method in ("naturally-reductive", "bi-invariant"):
            assert run(capsys, "curvature", path, "--method", method)[0] == 0
            for command in ("curvature", "scan"):
                code, out, err = run(capsys, command, path, "--method", method,
                                     "--convention", "paper-verbatim")
                assert (code, out) == (1, "")
                assert err == ("error: convention 'paper-verbatim' applies to the "
                               f"general method only, got '{method}'\n")

    # m_dim = 1 (a dim-1 algebra) and m_dim = 0 (su(2) with h_dim = 3): no
    # 2-plane exists, so curvature and scan refuse the call before any flag
    # is read or drawn; validate and berwald run.
    DIM1 = {"dim": 1, "structure_constants": [], "X": [0.2], "flags": [[[1.0], [1.0]]]}
    ISOTROPY_ONLY = {"dim": 3, "h_dim": 3, "X": [], "flags": [[[], []]],
                     "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]}

    @pytest.mark.parametrize("doc", [DIM1, ISOTROPY_ONLY], ids=["m_dim=1", "h_dim=dim"])
    @pytest.mark.parametrize("command, code, err", [
        ("validate", 0, ""),
        ("curvature", 3, "precondition error: flags need m_dim >= 2\n"),
        ("scan", 3, "precondition error: flags need m_dim >= 2\n"),
        ("berwald", 0, ""),
    ])
    def test_fewer_than_two_dimensions_in_m(self, capsys, tmp_path, doc, command,
                                            code, err):
        path = TestGate.write(tmp_path, doc)
        for flags in ((), ("--force",)) if command != "validate" else ((),):
            got = run(capsys, command, path, "--output", "json", *flags)
            assert (got[0], got[2]) == (code, err)
            assert (got[1] == "") == (code != 0)
            if command == "berwald":
                # the dim-1 drift is admissible, but there is no plane to sample
                assert "sectional_along_X" not in json.loads(got[1])
                table = run(capsys, command, path, *flags)
                assert table[0] == 0 and "sectional" not in table[1]


@pytest.mark.parametrize("command", ["curvature", "scan", "berwald"])
def test_force_help_names_what_it_never_skips(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    (force,) = [a for a in sub._actions if "--force" in a.option_strings]
    for words in ("|X|_g < 1", "reductive split", "method's metric"):
        assert words in force.help


@pytest.mark.parametrize("argv, message", [
    pytest.param(["scan", "su2.json", "--samples", "0"],
                 "samples must be a positive integer", id="scan--samples=0"),
    pytest.param(["berwald", "su2_plus_r.json", "--samples", "-3"],
                 "samples must be a positive integer", id="berwald--samples=-3"),
    pytest.param(["scan", "su2.json", "--seed", "-1"],
                 "seed must be a non-negative integer", id="scan--seed=-1"),
])
def test_flag_values_are_held_to_the_config_rules(capsys, argv, message):
    command, name, *flags = argv
    code, out, err = run(capsys, command, str(CONFIGS / name), "--output", "json", *flags)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("command", ["berwald", "validate"])
def test_command_builds_the_connection_once(monkeypatch, capsys, command):
    koszul = _count(monkeypatch, flagcurv.riemann, "koszul_connection")
    assert main([command, str(CONFIGS / "su2_plus_r.json"), "--output", "json"]) == 0
    assert len(koszul) == 1


@pytest.mark.parametrize("command", ["berwald"])
def test_command_computes_the_derived_subalgebra_once(monkeypatch, capsys, command):
    derived = _count(monkeypatch, flagcurv.algebra, "derived_subalgebra")
    assert main([command, str(CONFIGS / "su2_plus_r.json"), "--output", "json"]) == 0
    assert len(derived) == 1


@pytest.mark.parametrize("doc, code, calls", [
    pytest.param(json.loads((CONFIGS / "su2_plus_r.json").read_text()), 0, 0, id="parallel"),
    pytest.param(_tensor_config(su2_tensor(), 0, [0.0, 0.0, 0.5]), 2, 1, id="su2-X=e3/2"),
])
def test_validate_computes_the_derived_subalgebra_only_for_a_non_parallel_drift(
        monkeypatch, capsys, tmp_path, doc, code, calls):
    # the berwald row reads drift_parallel; only the "perfect" wording of a
    # drift that is not parallel needs [g, g]
    derived = _count(monkeypatch, flagcurv.algebra, "derived_subalgebra")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--output", "json"]) == code
    assert len(derived) == calls


@pytest.mark.parametrize("command", ["curvature", "berwald"])
def test_command_calls_the_curvature_oracle_once(monkeypatch, capsys, command):
    # curvature: the two config flags as one stack; berwald: the Jacobi
    # operator of its samples and witnesses from the basis as one stack
    oracle = _count(monkeypatch, flagcurv.riemann, "curvature_oracle")
    assert main([command, str(CONFIGS / "su2_plus_r.json"), "--output", "json"]) == 0
    assert len(oracle) == 1


@pytest.mark.parametrize("method", ["general", "naturally-reductive", "bi-invariant"])
def test_curvature_does_its_per_problem_work_once(monkeypatch, capsys, method):
    # One gated call checks the Jacobi identity once and builds the
    # connection and g0's bi-invariance report at most once; a second call
    # repeats the counts exactly, so fixed work added per call shows here.
    counts = [_count(monkeypatch, module, name) for module, name in (
        (flagcurv.algebra, "jacobi_defect"),
        (flagcurv.riemann, "koszul_connection"),
        (flagcurv.metrics, "check_bi_invariance"),
        (flagcurv.finsler, "validate_finsler"),
    )]
    # su2_plus_r.json has two flags: one kernel evaluates both
    argv = ["curvature", str(CONFIGS / "su2_plus_r.json"), "--output", "json",
            "--method", method]
    assert main(argv) == 0
    first = [len(calls) for calls in counts]
    assert first[0] == 1 and first[1] <= 1 and first[2] <= 1 and first[3] == 1
    assert main(argv) == 0
    assert [len(calls) for calls in counts] == [2 * k for k in first]


class TestGoldenOutput:
    """stdout and exit code match bytes recorded from an earlier release, on
    the first call of a command in a process and on the next."""

    @pytest.mark.parametrize("name, code", [
        ("abelian_r3", 0), ("heisenberg", 2), ("su2", 0),
        ("su2_plus_r", 0), ("su2_u1", 0),
    ])
    def test_validate(self, capsys, name, code):
        got = replay(capsys, "validate", str(CONFIGS / f"{name}.json"),
                  "--output", "json")
        assert got[:2] == (code, (GOLDEN / f"validate_{name}.json").read_text())

    # Each fails a hypothesis check with a nonzero defect: jacobi (1),
    # both reductive rows (1), g0_bi_invariance (2), ad_h_invariance (0.3)
    # and naturally_reductive (2) between them.
    @pytest.mark.parametrize("name", ["not_jacobi", "not_reductive", "s2_r_coupled"])
    def test_validate_failing_input(self, capsys, name):
        got = replay(capsys, "validate", str(GOLDEN / f"input_{name}.json"),
                  "--output", "json")
        assert got[:2] == (2, (GOLDEN / f"validate_{name}.json").read_text())

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg"])
    def test_forced_curvature(self, capsys, name):
        got = replay(capsys, "curvature", str(CONFIGS / f"{name}.json"),
                  "--output", "json", "--force")
        assert got[:2] == (0, (GOLDEN / f"curvature_{name}.json").read_text())

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg"])
    def test_forced_scan(self, capsys, name):
        got = replay(capsys, "scan", str(CONFIGS / f"{name}.json"),
                  "--output", "json", "--force")
        assert got[:2] == (0, (GOLDEN / f"scan_{name}.json").read_text())

    @pytest.mark.parametrize("command", ["curvature", "scan"])
    @pytest.mark.parametrize("name", ["su2", "su2_u1", "abelian_r3"])
    def test_default_json(self, capsys, command, name):
        got = replay(capsys, command, str(CONFIGS / f"{name}.json"), "--output", "json")
        assert got[:2] == (0, (GOLDEN / f"{command}_{name}.json").read_text())

    def test_default_curvature_table(self, capsys):
        got = replay(capsys, "curvature", str(CONFIGS / "su2_plus_r.json"))
        assert got[:2] == (0, (GOLDEN / "curvature_su2_plus_r.txt").read_text())

    # input_s2_r_coupled has no Levi-Civita connection: XRYY prints n/a and
    # sign_mismatch None
    @pytest.mark.parametrize("command, path, extra, code", [
        pytest.param("validate", CONFIGS / "su2_plus_r.json", (), 0, id="validate"),
        pytest.param("scan", CONFIGS / "su2_plus_r.json", (), 0, id="scan"),
        pytest.param("berwald", CONFIGS / "su2_plus_r.json", (), 0, id="berwald"),
        *(pytest.param("validate", CONFIGS / f"{name}.json", (), code, id=f"validate-{name}")
          for name, code in [("abelian_r3", 0), ("heisenberg", 2), ("su2", 0), ("su2_u1", 0)]),
        *(pytest.param(command, CONFIGS / f"{name}.json", (), 0, id=f"{command}-{name}")
          for command in ["curvature", "scan"] for name in ["su2", "su2_u1", "abelian_r3"]),
        *(pytest.param(command, CONFIGS / "heisenberg.json", ("--force",), 0,
                       id=f"{command}-heisenberg") for command in ["curvature", "scan"]),
        pytest.param("curvature", GOLDEN / "input_s2_r_coupled.json", ("--force",), 0,
                     id="curvature-s2_r_coupled"),
        *(pytest.param("berwald", CONFIGS / f"{name}.json", (), 0, id=f"berwald-{name}")
          for name in ["heisenberg", "su2_u1"]),
    ])
    def test_default_table(self, capsys, command, path, extra, code):
        got = replay(capsys, command, str(path), *extra)
        name = path.stem.removeprefix("input_")
        assert got[:2] == (code, (GOLDEN / f"{command}_{name}.txt").read_text())

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg", "su2_u1"])
    def test_berwald(self, capsys, name):
        got = replay(capsys, "berwald", str(CONFIGS / f"{name}.json"), "--output", "json")
        assert got[:2] == (0, (GOLDEN / f"berwald_{name}.json").read_text())


@pytest.mark.parametrize("command, extra, option, message", [
    pytest.param("scan", ["--fd-step", "-3"], None, "unrecognized", id="scan--fd-step"),
    pytest.param("validate", ["--convention", "paper-verbatim"], None, "unrecognized",
                 id="validate--convention"),
    pytest.param("validate", ["--method", "general"], None, "unrecognized",
                 id="validate--method"),
    pytest.param("validate", ["--samples", "5"], None, "unrecognized", id="validate--samples"),
    pytest.param("validate", ["--seed", "3"], None, "unrecognized", id="validate--seed"),
    pytest.param("validate", ["--force"], None, "unrecognized", id="validate--force"),
    pytest.param("curvature", ["--samples", "5"], None, "unrecognized",
                 id="curvature--samples"),
    pytest.param("curvature", ["--seed", "3"], None, "unrecognized", id="curvature--seed"),
    pytest.param("berwald", ["--convention", "paper-verbatim"], None, "unrecognized",
                 id="berwald--convention"),
    pytest.param("berwald", ["--method", "general"], None, "unrecognized",
                 id="berwald--method"),
    pytest.param("scan", [], {"fd_step": 1e-5}, "unknown option", id="options.fd_step"),
    pytest.param("validate", [], {"tolerances": {}}, "unknown option",
                 id="options.tolerances"),
])
def test_removed_fd_step_option_exits_1(capsys, tmp_path, command, extra, option, message):
    path = CONFIGS / "su2.json"
    if option is not None:
        doc = json.loads(path.read_text())
        doc["options"].update(option)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
    try:
        code = main([command, str(path), *extra])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert message in capsys.readouterr().err


class _ReadRecorder:
    """Stands in for parsed arguments and records which ones are read."""

    def __init__(self, values: dict):
        self._values, self.read = values, set()

    def __getattr__(self, name):
        self.read.add(name)
        return self._values[name]


def test_each_subcommand_accepts_only_the_flags_its_command_reads(capsys):
    # su2_plus_r passes every gate and is Berwald admissible, so each
    # command runs the branch that reads the most arguments.
    path = str(CONFIGS / "su2_plus_r.json")
    config = parse_config(path)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted, read = {}, {}
    for name, parser in subparsers.choices.items():
        accepted[name] = {s for a in parser._actions for s in a.option_strings
                          if s not in ("-h", "--help")}
        args = _ReadRecorder(vars(parser.parse_args([path])))
        assert _subcommands()[name][0](config, args) == 0
        read[name] = {"--" + dest for dest in args.read - {"command"}}
    assert accepted == read
    assert accepted == {
        "validate": {"--output"},
        "curvature": {"--output", "--convention", "--method", "--force"},
        "scan": {"--output", "--convention", "--method", "--samples", "--seed", "--force"},
        "berwald": {"--output", "--samples", "--seed", "--force"},
    }


SU2_PLUS_R = str(CONFIGS / "su2_plus_r.json")
SUBCOMMANDS = ("validate", "curvature", "scan", "berwald")
# Usage and help, bad commands, flags a subcommand does not read, bad
# values, arguments the subcommand's parser leaves over (which the full
# parser reports), and one real run per subcommand and format.
PARSER_ARGVS = [
    [], ["-h"], ["--", "validate", SU2_PLUS_R], ["frobnicate", SU2_PLUS_R],
    *([command, "--help"] for command in SUBCOMMANDS),
    ["validate"], ["validate", SU2_PLUS_R, "--method", "general"],
    ["berwald", SU2_PLUS_R, "--convention", "paper-verbatim"],
    ["curvature", SU2_PLUS_R, "--method", "frobnicate"],
    ["scan", SU2_PLUS_R, "--output", "xml"], ["scan", SU2_PLUS_R, "--samples", "0"],
    ["scan", SU2_PLUS_R, "--seed", "x"],
    *([command, SU2_PLUS_R, "--output", output]
      for command in SUBCOMMANDS for output in ("json", "table")),
    *([command, SU2_PLUS_R, "--frobnicate"] for command in SUBCOMMANDS),
    ["validate", SU2_PLUS_R, "extra.json"], ["scan", SU2_PLUS_R, "--out", "json"],
    ["curvature", SU2_PLUS_R, "--samples=5"], ["scan", SU2_PLUS_R, "--samples=5"],
    ["curvature", "--", SU2_PLUS_R], ["curvature", "-h", SU2_PLUS_R], ["curvature"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(
    a.replace(SU2_PLUS_R, "su2_plus_r.json") for a in argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    got = outcome()
    monkeypatch.setattr(flagcurv.cli, "_parse_args",
                        lambda argv: build_parser().parse_args(argv))
    assert got == outcome()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_main_builds_the_arguments_of_its_own_subcommand_only(monkeypatch, capsys,
                                                              command):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    flagcurv.cli._subcommand_parser.cache_clear()
    assert main([command, SU2_PLUS_R, "--output", "json"]) == 0
    (parser,) = built  # one ArgumentParser, not the full parser's five
    assert parser.prog == f"flagcurv {command}"
    assert parser.get_default("command") == command
    assert main([command, SU2_PLUS_R, "--output", "json"]) == 0
    assert built == [parser]  # the next call reuses it


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_patched_command_runs_after_its_parser_is_kept(monkeypatch, capsys, command):
    # the kept parser names the command; main looks the function up per call
    assert main([command, SU2_PLUS_R, "--output", "json"]) == 0
    calls = []
    monkeypatch.setattr(flagcurv.cli, f"cmd_{command}",
                        lambda config, args: calls.append(args.command) or 7)
    assert main([command, SU2_PLUS_R, "--output", "json"]) == 7
    assert calls == [command]


def test_main_reads_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["flagcurv", "validate", SU2_PLUS_R, "--output", "json"])
    assert main() == 0
    assert capsys.readouterr().out == (GOLDEN / "validate_su2_plus_r.json").read_text()


@pytest.mark.parametrize("argv", [["validate", SU2_PLUS_R, "--output", "json"], ["-h"],
                                  ["curvature", SU2_PLUS_R, "--frobnicate"]],
                         ids=["validate", "-h", "unrecognized"])
def test_module_entry_point_prints_what_main_prints(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    code, out = outcome()
    assert outcome() == (code, out)  # a second call in the process prints the same
    src = str(Path(flagcurv.__file__).resolve().parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "flagcurv.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)
    if argv[0] == "validate":
        assert (code, out.out) == (0, (GOLDEN / "validate_su2_plus_r.json").read_text())


def test_numeric_error_exits_4(monkeypatch, capsys):
    def fail(config, args):
        raise NumericError("K overflowed")

    monkeypatch.setattr(flagcurv.cli, "cmd_curvature", fail)
    got = run(capsys, "curvature", str(CONFIGS / "su2.json"))
    assert got == (4, "", "numeric error: K overflowed\n")


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 1


@pytest.mark.parametrize("name", ["abelian_r3", "heisenberg", "su2", "su2_plus_r", "su2_u1"])
def test_curvature_prints_no_negative_zero(capsys, name):
    code, out, _ = run(capsys, "curvature", str(CONFIGS / f"{name}.json"),
                       "--output", "json", "--force")
    assert code == 0

    def floats(obj):
        if isinstance(obj, dict):
            return [x for v in obj.values() for x in floats(v)]
        if isinstance(obj, list):
            return [x for v in obj for x in floats(v)]
        return [obj] if isinstance(obj, float) else []

    assert all(math.copysign(1.0, x) > 0 for x in floats(json.loads(out)) if x == 0.0)
    code, out, _ = run(capsys, "curvature", str(CONFIGS / f"{name}.json"), "--force")
    assert code == 0 and not {"-0", "-0.0"} & {t.strip("[],") for t in out.split()}


def test_ryyy_prints_rounding_noise_as_zero():
    rep = lambda ryyy, uryy: SimpleNamespace(
        contractions=SimpleNamespace(RYYY=ryyy, URYY=uryy))
    assert _ryyy(rep(-4e-17, 0.25)) == 0.0
    assert _ryyy(rep(1e-12, -0.5)) == 0.0
    assert _ryyy(rep(9e-12, 10.0)) == 0.0
    assert _ryyy(rep(2e-11, 10.0)) == 2e-11
    assert _ryyy(rep(-0.02, 0.6)) == -0.02


def _round_floats(obj):
    """Every float at 12 significant digits, and null for a non-finite one."""
    if isinstance(obj, float):
        return float(fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emitted(doc: dict) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        emit_json(doc)
    return buffer.getvalue()


def _emitted_reference(doc: dict) -> str:
    """json's indented encoder after rounding every float."""
    return json.dumps(_round_floats({"schema_version": SCHEMA_VERSION, **doc}),
                      indent=2, sort_keys=True) + "\n"


JSON_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(
    ["", "é", "κ", "\U0001d4a6", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028"]))
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.1234567890125,
     9.9999999999995, 1.00000000000049e-5, 123456789012.5, 999999999999.5]))
JSON_LEAVES = st.one_of(
    JSON_FLOATS, st.integers(), st.sampled_from([2**63, -(2**100), 10**400]),
    st.booleans(), st.none(), JSON_KEYS,
    st.sampled_from([np.float64(0.1 + 0.2), np.float64(-0.0)]),
)
JSON_DOCS = st.dictionaries(JSON_KEYS, st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=20,
), max_size=5)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCS)
def test_emit_json_prints_the_bytes_of_the_indented_encoder(doc):
    assert _emitted(doc) == _emitted_reference(doc)


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset(), np.float32(0.5), np.int64(3), np.bool_(True), object(),
    [1.0, {"a": (2, {3})}], {"nested": np.arange(2)},
], ids=["set", "frozenset", "float32", "int64", "bool_", "object", "deep-set", "ndarray"])
def test_emit_json_refuses_what_the_encoder_refuses(value):
    with pytest.raises(TypeError):
        _emitted_reference({"value": value})
    with pytest.raises(TypeError):
        _emitted({"value": value})

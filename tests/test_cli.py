import argparse
import json
import math
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

import flagcurv
from flagcurv.cli import _ryyy, build_parser, main
from flagcurv.config import build_problem, config_from_dict, parse_config, structure_tensor
from flagcurv.errors import InputError
from flagcurv.flagcurvature import hypotheses
from test_kernel import _count
from conftest import heisenberg_tensor, sphere_tensor, su2_tensor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestConfigNumbers:
    def test_the_document_is_accepted_as_written(self, capsys, tmp_path):
        assert run(capsys, "validate", TestGate.write(tmp_path, NUMERIC_DOC))[0] == 0

    @pytest.mark.parametrize("field", NUMERIC_FIELDS, ids=lambda f: "/".join(map(str, f)))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True],
                             ids=["NaN", "Infinity", "-Infinity", "true"])
    def test_non_finite_or_boolean_refused(self, capsys, tmp_path, field, bad):
        doc = json.loads(json.dumps(NUMERIC_DOC))
        *parents, last = field
        target = doc
        for key in parents:
            target = target[key]
        target[last] = bad
        path = TestGate.write(tmp_path, doc)
        assert run(capsys, "validate", path)[:2] == (1, "")
        with pytest.raises(InputError):
            parse_config(path)

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

    def test_homogeneous_not_checked(self, capsys):
        code, out, _ = run(capsys, "berwald", str(CONFIGS / "su2_u1.json"),
                           "--output", "json")
        assert code == 0
        assert json.loads(out)["status"] == "not checked"

    def test_homogeneous_not_checked_table(self, capsys):
        code, out, _ = run(capsys, "berwald", str(CONFIGS / "su2_u1.json"),
                           "--output", "table")
        assert code == 0
        assert "not checked" in out


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

    # forced, berwald reports "not checked" for any h_dim > 0
    @pytest.mark.parametrize("command, forced", [
        ("curvature", 3), ("scan", 3), ("berwald", 0),
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


@pytest.mark.parametrize("command", ["berwald", "validate"])
def test_command_computes_the_derived_subalgebra_once(monkeypatch, capsys, command):
    derived = _count(monkeypatch, flagcurv.algebra, "derived_subalgebra")
    assert main([command, str(CONFIGS / "su2_plus_r.json"), "--output", "json"]) == 0
    assert len(derived) == 1


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
    """stdout and exit code match bytes recorded from an earlier release."""

    @pytest.mark.parametrize("name, code", [
        ("abelian_r3", 0), ("heisenberg", 2), ("su2", 0),
        ("su2_plus_r", 0), ("su2_u1", 0),
    ])
    def test_validate(self, capsys, name, code):
        got = run(capsys, "validate", str(CONFIGS / f"{name}.json"),
                  "--output", "json")
        assert got[:2] == (code, (GOLDEN / f"validate_{name}.json").read_text())

    # Each fails a hypothesis check with a nonzero defect: jacobi (1),
    # both reductive rows (1), g0_bi_invariance (2), ad_h_invariance (0.3)
    # and naturally_reductive (2) between them.
    @pytest.mark.parametrize("name", ["not_jacobi", "not_reductive", "s2_r_coupled"])
    def test_validate_failing_input(self, capsys, name):
        got = run(capsys, "validate", str(GOLDEN / f"input_{name}.json"),
                  "--output", "json")
        assert got[:2] == (2, (GOLDEN / f"validate_{name}.json").read_text())

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg"])
    def test_forced_curvature(self, capsys, name):
        got = run(capsys, "curvature", str(CONFIGS / f"{name}.json"),
                  "--output", "json", "--force")
        assert got[:2] == (0, (GOLDEN / f"curvature_{name}.json").read_text())

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg"])
    def test_forced_scan(self, capsys, name):
        got = run(capsys, "scan", str(CONFIGS / f"{name}.json"),
                  "--output", "json", "--force")
        assert got[:2] == (0, (GOLDEN / f"scan_{name}.json").read_text())

    @pytest.mark.parametrize("command", ["curvature", "scan"])
    @pytest.mark.parametrize("name", ["su2", "su2_u1", "abelian_r3"])
    def test_default_json(self, capsys, command, name):
        got = run(capsys, command, str(CONFIGS / f"{name}.json"), "--output", "json")
        assert got[:2] == (0, (GOLDEN / f"{command}_{name}.json").read_text())

    def test_default_curvature_table(self, capsys):
        got = run(capsys, "curvature", str(CONFIGS / "su2_plus_r.json"))
        assert got[:2] == (0, (GOLDEN / "curvature_su2_plus_r.txt").read_text())

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg", "su2_u1"])
    def test_berwald(self, capsys, name):
        got = run(capsys, "berwald", str(CONFIGS / f"{name}.json"), "--output", "json")
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
        assert args.func(config, args) == 0
        read[name] = {"--" + dest for dest in args.read - {"func"}}
    assert accepted == read
    assert accepted == {
        "validate": {"--output"},
        "curvature": {"--output", "--convention", "--method", "--force"},
        "scan": {"--output", "--convention", "--method", "--samples", "--seed", "--force"},
        "berwald": {"--output", "--samples", "--seed", "--force"},
    }


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

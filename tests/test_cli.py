import json
from pathlib import Path

import numpy as np
import pytest

from flagcurv.cli import main
from flagcurv.config import config_from_dict, parse_config
from flagcurv.errors import InputError

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

    def test_roundtrip(self):
        cfg = parse_config(CONFIGS / "su2_u1.json")
        assert cfg.m_dim == 2
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_all_shipped_configs_parse(self):
        for path in sorted(CONFIGS.glob("*.json")):
            cfg = parse_config(path)
            assert cfg.dim >= 1


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
        # X = e1/2 is not berwald-admissible, but the curvature command
        # only gates on the Finsler condition, which holds; it must run.
        code, out, _ = run(capsys, "curvature", str(CONFIGS / "heisenberg.json"))
        assert code == 0


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

    @pytest.mark.parametrize("name", ["su2_plus_r", "heisenberg"])
    def test_forced_curvature(self, capsys, name):
        got = run(capsys, "curvature", str(CONFIGS / f"{name}.json"),
                  "--output", "json", "--force")
        assert got[:2] == (0, (GOLDEN / f"curvature_{name}.json").read_text())


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 1

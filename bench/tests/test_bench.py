"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import flagcurv  # noqa: E402
import problems  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import AuditWorkload, ScanWorkload  # noqa: E402


@pytest.mark.parametrize("workload", sorted(problems.LADDERS))
def test_generator_is_seeded(workload):
    a, b = problems.generate(workload, 7), problems.generate(workload, 7)
    assert [json.dumps(p.to_config()) for p in a] == [json.dumps(p.to_config()) for p in b]
    c = problems.generate(workload, 8)
    assert [json.dumps(p.to_config()) for p in a] != [json.dumps(p.to_config()) for p in c]


@pytest.mark.parametrize("workload", sorted(problems.LADDERS))
def test_generated_problems_are_valid(workload):
    for p in problems.generate(workload, 3):
        assert flagcurv.jacobi_defect(flagcurv.LieAlgebraSpec(p.dim, p.c)) == 0.0
        ref = Reference(p.c, p.h_dim, p.phi, p.X)
        assert ref.norm_X <= problems.X_NORM_RANGE[1] + 1e-12
        assert ref.drift_parallel == (p.family != "heisenberg")


def test_reference_matches_library_on_admissible_problems():
    rng = np.random.default_rng(0)
    for p in problems.generate("audit", 5):
        if p.family == "heisenberg":
            continue
        geom, d, _ = flagcurv.build_problem(flagcurv.config_from_dict(p.to_config()))
        ref = Reference(p.c, p.h_dim, p.phi, p.X)
        y, u = rng.standard_normal((2, p.m_dim))
        k = flagcurv.flag_curvature(geom, d, flagcurv.Flag(Y=y, U=u)).K
        assert k == pytest.approx(ref.K(y, u)[0], rel=1e-12, abs=1e-12)


def test_reference_fails_a_sign_flipped_scan(tmp_path):
    wl = ScanWorkload("scan-group", 1, tmp_path)
    s = wl.run(0)
    assert wl.check(0, s)[0].status == "ok"
    flipped = flagcurv.ScanSummary(**{**vars(s), "min_K": -s.max_K, "max_K": -s.min_K,
                                      "mean_K": -s.mean_K})
    assert wl.check(0, flipped)[0].status == "failed"


def test_reference_fails_a_sign_flipped_curvature(tmp_path):
    wl = AuditWorkload("audit", 1, tmp_path)
    runs, oracles = wl.run(0)
    assert wl.check(0, (runs, oracles))[0].status == "ok"
    flipped = []
    for argv, code, stdout in runs:
        if argv[0] == "curvature" and code == 0:
            doc = json.loads(stdout)
            for f in doc["flags"]:
                f["K"] = -f["K"]
            stdout = json.dumps(doc)
        flipped.append((argv, code, stdout))
    op = wl.check(0, (flipped, oracles))[0]
    assert op.status == "failed" and "K off the reference" in op.errors[0]


def test_heisenberg_is_a_known_defect_not_a_failure(tmp_path):
    wl = AuditWorkload("audit", 1, tmp_path)
    index = next(i for i, p in enumerate(wl.problems) if p.family == "heisenberg")
    op = wl.check(index, wl.run(index))[0]
    assert op.status == "known-defect"
    assert len(op.defects) == 1 and "curvature general" in op.defects[0]


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.x", 1.5, 2.0, 1, 0),
        Span("a.y", 3.0, 3.5, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.x", 5.0, 9.0, 4, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 0.5, 0.5, 0.0, 4.0])


@pytest.mark.parametrize("workload, expected", [
    ("scan-group", {"algebra.bracket": 26, "riemann.koszul_connection": 1,
                    "metrics.orthonormalize_flag": 2, "finsler.validate_finsler": 1,
                    "riemann.nat_reductive_R": 0}),
    ("scan-reductive", {"metrics.check_naturally_reductive": 1,
                        "riemann.nat_reductive_R": 1, "riemann.koszul_connection": 0,
                        "metrics.orthonormalize_flag": 2, "finsler.validate_finsler": 1}),
])
def test_wrapper_counts_on_a_tiny_scan(tmp_path, workload, expected):
    wl = ScanWorkload(workload, 2, tmp_path)
    original = flagcurv.algebra.bracket
    tracer = Tracer()
    tracer.install()
    try:
        assert flagcurv.flagcurvature.bracket is not original  # rebound by name
        tracer.op = 0
        flagcurv.scan_flags(*wl.built[0][:2], n_samples=20, seed=0, method=wl.method)
    finally:
        tracer.uninstall()
    assert flagcurv.algebra.bracket is original and flagcurv.flagcurvature.bracket is original
    counts = {name: sum(s.name == name for s in tracer.spans) for name in expected}
    assert counts == {name: 20 * n for name, n in expected.items()}
    roots = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in roots] == ["flagcurvature.scan_flags"]

"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each criterion is exercised at its stated tolerance and announces
``AC-n: PASS`` or ``AC-n: FAIL`` on the live terminal (capture is
suspended for the announcement), in addition to the usual pytest verdict.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from flagcurv import (
    FinslerData,
    InnerProduct,
    denominator_identity,
    F_eval,
    flag_curvature,
    flag_curvature_biinvariant,
    g_Y_closed,
    g_Y_fd,
    koszul_connection,
    curvature_oracle,
    make_geometry,
    numerator_identity_check,
    obstruction_report,
    orthonormalize_flag,
    parallel_obstruction_space,
    ad_skew_check,
    scan_flags,
    sectional_along_X_sign,
)
from flagcurv.cli import main
from flagcurv.metrics import Flag

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
E3 = np.eye(3)
E4 = np.eye(4)
METHODS = ("general", "naturally-reductive", "bi-invariant")


@contextmanager
def criterion(capfd, label):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"{label}: FAIL")
        raise
    with capfd.disabled():
        print(f"{label}: PASS")


def random_config(rng):
    n = int(rng.integers(2, 7))
    A = rng.normal(size=(n, n))
    g = InnerProduct(A @ A.T + n * np.eye(n))
    X = rng.normal(size=n)
    X = X / g.norm(X) * rng.uniform(0.0, 0.8)
    return FinslerData(g=g, X=X)


def test_ac01_biinvariant_sphere(capfd, su2):
    with criterion(capfd, "AC-1"):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        flag = Flag(Y=E3[0], U=E3[1])
        for method in METHODS:
            rep = flag_curvature(geom, d, flag, method=method)
            assert abs(rep.K - 0.25) <= 1e-10, (method, rep.K)
        summary = scan_flags(geom, d, n_samples=1000, seed=0)
        assert summary.max_K - summary.min_K <= 1e-9


def test_ac02_naturally_reductive_sphere(capfd, su2_u1):
    with criterion(capfd, "AC-2"):
        geom = make_geometry(su2_u1, h_dim=1)
        d = FinslerData(g=geom.inner, X=np.zeros(2))
        rep = flag_curvature(
            geom, d, Flag(Y=np.array([1.0, 0.0]), U=np.array([0.0, 1.0])),
            method="naturally-reductive",
        )
        assert abs(rep.K - 1.0) <= 1e-10
        summary = scan_flags(geom, d, n_samples=200, seed=1,
                             method="naturally-reductive")
        assert abs(summary.min_K - 1.0) <= 1e-10
        assert abs(summary.max_K - 1.0) <= 1e-10


def test_ac03_drift_case(capfd, su2_plus_r):
    with criterion(capfd, "AC-3"):
        geom = make_geometry(su2_plus_r)
        g = geom.inner
        d = FinslerData(g=g, X=0.5 * E4[3])
        flag = Flag(Y=E4[0], U=(E4[1] + E4[3]) / np.sqrt(2))
        assert g.dot(d.X, flag.Y) == 0.0
        assert g.dot(d.X, flag.U) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))

        ks = []
        for method in METHODS:
            rep = flag_curvature(geom, d, flag, method=method)
            ks.append(rep.K)
            assert abs(rep.contractions.XRYY) <= 1e-12
        assert all(abs(k - 0.1) <= 1e-9 for k in ks)
        assert max(ks) - min(ks) <= 1e-9

        general = flag_curvature(geom, d, flag, method="general")
        assert general.contractions.URYY == pytest.approx(0.125, abs=1e-12)
        assert general.denominator == pytest.approx(1.25, abs=1e-12)
        corollary = flag_curvature_biinvariant(su2_plus_r, g, d.X, flag)
        assert corollary.numerator == pytest.approx(0.5, abs=1e-12)
        assert corollary.denominator == pytest.approx(5.0, abs=1e-12)


def test_ac04_fundamental_tensor_oracle(capfd):
    with criterion(capfd, "AC-4"):
        rng = np.random.default_rng(42)
        t0 = time.perf_counter()
        for _ in range(100):
            d = random_config(rng)
            n = d.g.dim
            Y, u, v = rng.normal(size=(3, n))
            closed = g_Y_closed(d, Y, u, v)
            fd = g_Y_fd(d, Y, u, v, step=1e-5)
            assert abs(closed - fd) / max(1.0, abs(fd)) <= 1e-6
            assert abs(g_Y_closed(d, Y, Y, Y) - F_eval(d, Y) ** 2) <= 1e-8 * max(
                1.0, F_eval(d, Y) ** 2
            )
        assert time.perf_counter() - t0 <= 5.0


def test_ac05_denominator_identity(capfd):
    with criterion(capfd, "AC-5"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = random_config(rng)
            n = d.g.dim
            flag = orthonormalize_flag(d.g, rng.normal(size=n), rng.normal(size=n))
            assert denominator_identity(d, flag).defect <= 1e-9


def test_ac06_numerator_identity(capfd, su2, su2_plus_r):
    with criterion(capfd, "AC-6"):
        rng = np.random.default_rng(7)
        cases = [
            (su2, np.zeros(3)),
            (su2_plus_r, 0.5 * E4[3]),
        ]
        for _ in range(5):
            X = rng.normal(size=4)
            cases.append((su2_plus_r, 0.7 * X / np.linalg.norm(X)))
        for L, X in cases:
            g = InnerProduct(np.eye(L.dim))
            conn = koszul_connection(L, g)
            d = FinslerData(g=g, X=X)
            for _ in range(10):
                flag = orthonormalize_flag(
                    g, rng.normal(size=L.dim), rng.normal(size=L.dim)
                )
                Ruyy = curvature_oracle(conn, L, flag.U, flag.Y, flag.Y)
                assert abs(g.dot(Ruyy, flag.Y)) <= 1e-10
                rep = numerator_identity_check(d, flag, Ruyy)
                assert rep.defect <= 1e-9


def test_ac07_transcription_audit(capfd, su2):
    with criterion(capfd, "AC-7"):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        flag = Flag(Y=E3[0], U=E3[1])
        verbatim = flag_curvature(geom, d, flag, convention="paper-verbatim")
        aligned = flag_curvature(geom, d, flag, convention="oracle-aligned")
        assert verbatim.contractions.URYY == pytest.approx(-0.25, abs=1e-12)
        assert verbatim.oracle_URYY == pytest.approx(0.25, abs=1e-12)
        assert verbatim.sign_mismatch is True
        assert aligned.sign_mismatch is False
        assert verbatim.K == pytest.approx(-aligned.K, abs=1e-12)


def test_ac08_berwald_obstructions(capfd, su2, heisenberg, su2_plus_r):
    with criterion(capfd, "AC-8"):
        I3, I4 = InnerProduct(np.eye(3)), InnerProduct(np.eye(4))
        rng = np.random.default_rng(11)

        for _ in range(10):
            X = rng.normal(size=3)
            rep = obstruction_report(make_geometry(su2), X)
            assert rep.berwald_admissible is False
            assert rep.parallel_space.shape[0] == 0

        space = parallel_obstruction_space(heisenberg, I3)
        assert space.shape[0] == 2
        assert np.max(np.abs(space[:, 2])) <= 1e-12
        for _ in range(10):
            coeffs = rng.normal(size=2)
            X = coeffs @ space
            assert not ad_skew_check(heisenberg, I3, X).ok
            assert not obstruction_report(make_geometry(heisenberg), X).berwald_admissible

        rep = obstruction_report(make_geometry(su2_plus_r), 0.5 * E4[3])
        assert rep.berwald_admissible is True
        assert rep.nabla_X_norm <= 1e-10


def test_ac09_flat_along_drift(capfd, su2_plus_r):
    with criterion(capfd, "AC-9"):
        rep = sectional_along_X_sign(
            make_geometry(su2_plus_r), 0.5 * E4[3],
            n_samples=1000, seed=0,
        )
        assert abs(rep.min_K) <= 1e-10
        assert abs(rep.max_K) <= 1e-10


def test_ac10_scan_determinism(capfd):
    with criterion(capfd, "AC-10"):
        args = ["scan", str(CONFIGS / "su2_plus_r.json"),
                "--samples", "250", "--seed", "17", "--output", "json"]
        assert main(list(args)) == 0
        out1 = capfd.readouterr().out
        assert main(list(args)) == 0
        out2 = capfd.readouterr().out
        assert out1 == out2
        json.loads(out1)  # well-formed

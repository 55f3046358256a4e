import copy

import numpy as np
import pytest

from flagcurv import (
    FinslerData,
    FlagError,
    InnerProduct,
    InputError,
    LieAlgebraSpec,
    PreconditionError,
    curvature_oracle,
    flag_curvature,
    flag_curvature_biinvariant,
    koszul_connection,
    make_geometry,
    numerator_identity_check,
    obstruction_report,
    orthonormalize_flag,
    puttmann_URYY,
    sample_flag,
    scan_flags,
    sectional,
    sectional_along_X_sign,
)
from flagcurv.metrics import Flag
from test_kernel import ref_puttmann

E3 = np.eye(3)
E4 = np.eye(4)


def _xryy_oracle(geom, X, Y, U):
    """<X, R(U,Y)Y> from the Levi-Civita connection."""
    r = curvature_oracle(geom.connection, geom.algebra, U, Y, Y)
    return geom.inner.dot(X, r)


class TestPuttmannContractions:
    # K does not read <X,R(U,Y)Y>, zero for a parallel X; its printed closed
    # form is the tests' transcription ref_puttmann, checked against the oracle.
    def test_xryy_verbatim_hand_value(self, su2):
        # su(2), phi = I, X = e2/2, Y = e1, U = e2: terms 3-4 vanish,
        # 1/4<4[U,Y],[Y,X]> + 3/4<[Y,U],[Y,X]> = -1/2 + 3/8
        geom = make_geometry(su2)
        v = ref_puttmann(geom, 0.5 * E3[1], E3[0], E3[1], "paper-verbatim")[0]
        assert v == pytest.approx(-0.125)
        assert _xryy_oracle(geom, 0.5 * E3[1], E3[0], E3[1]) == pytest.approx(-v)

    def test_xryy_oracle_aligned_sign_flip(self, su2):
        geom = make_geometry(su2)
        v = ref_puttmann(geom, 0.5 * E3[1], E3[0], E3[1], "oracle-aligned")[0]
        assert v == pytest.approx(0.125)
        assert _xryy_oracle(geom, 0.5 * E3[1], E3[0], E3[1]) == pytest.approx(v)

    def test_xryy_zero_drift(self, su2):
        geom = make_geometry(su2)
        for conv in ("paper-verbatim", "oracle-aligned"):
            assert ref_puttmann(geom, np.zeros(3), E3[0], E3[1],
                                conv)[0] == pytest.approx(0.0)
        assert _xryy_oracle(geom, np.zeros(3), E3[0], E3[1]) == 0.0

    def test_uryy_verbatim_hand_value(self, su2):
        geom = make_geometry(su2)
        v = puttmann_URYY(geom, E3[0], E3[1], convention="paper-verbatim")
        assert v == pytest.approx(-0.25)

    def test_uryy_oracle_aligned(self, su2):
        geom = make_geometry(su2)
        assert puttmann_URYY(geom, E3[0], E3[1]) == pytest.approx(0.25)

    def test_uryy_abelian(self, abelian3):
        geom = make_geometry(abelian3)
        for conv in ("paper-verbatim", "oracle-aligned"):
            assert puttmann_URYY(geom, E3[0], E3[1],
                                 convention=conv) == pytest.approx(0.0)

    def test_contractions_match_koszul_oracle_random_phi(self, su2_double):
        # oracle-aligned closed forms equal the Koszul contractions for
        # arbitrary metric endomorphisms on a compact-type algebra
        rng = np.random.default_rng(0)
        n = su2_double.dim
        for _ in range(15):
            A = rng.normal(size=(n, n))
            phi = A @ A.T + n * np.eye(n)
            geom = make_geometry(su2_double, phi=phi)
            g = geom.inner
            conn = koszul_connection(su2_double, g)
            flag = orthonormalize_flag(g, rng.normal(size=n), rng.normal(size=n))
            x = rng.normal(size=n)
            r = curvature_oracle(conn, su2_double, flag.U, flag.Y, flag.Y)
            assert puttmann_URYY(geom, flag.Y, flag.U) == pytest.approx(
                g.dot(r, flag.U), abs=1e-10
            )
            assert ref_puttmann(geom, x, flag.Y, flag.U,
                                "oracle-aligned")[0] == pytest.approx(g.dot(x, r), abs=1e-10)


class TestFlagCurvature:
    def test_su2_round_sphere_all_methods(self, su2):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        flag = Flag(Y=E3[0], U=E3[1])
        for method in ("general", "naturally-reductive", "bi-invariant"):
            rep = flag_curvature(geom, d, flag, method=method)
            assert rep.K == pytest.approx(0.25, abs=1e-10)

    def test_su2_u1_unit_sphere(self, su2_u1):
        geom = make_geometry(su2_u1, h_dim=1)
        d = FinslerData(g=geom.inner, X=np.zeros(2))
        flag = Flag(Y=np.array([1.0, 0.0]), U=np.array([0.0, 1.0]))
        for method in ("general", "naturally-reductive"):
            rep = flag_curvature(geom, d, flag, method=method)
            assert rep.K == pytest.approx(1.0, abs=1e-10)

    def test_drift_case_all_methods(self, su2_plus_r):
        geom = make_geometry(su2_plus_r)
        d = FinslerData(g=geom.inner, X=0.5 * E4[3])
        flag = Flag(Y=E4[0], U=(E4[1] + E4[3]) / np.sqrt(2))
        ks = []
        for method in ("general", "naturally-reductive", "bi-invariant"):
            rep = flag_curvature(geom, d, flag, method=method)
            ks.append(rep.K)
            assert rep.contractions.XRYY == pytest.approx(0.0, abs=1e-12)
            assert abs(rep.contractions.RYYY) <= 1e-10
        assert all(k == pytest.approx(0.1, abs=1e-9) for k in ks)

    def test_riemannian_reduction_random(self, su2, su2_double):
        # needs an ad-invariant base form, so stick to compact-type algebras
        rng = np.random.default_rng(1)
        for L in (su2, su2_double):
            n = L.dim
            for _ in range(10):
                A = rng.normal(size=(n, n))
                s = A @ A.T + n * np.eye(n)
                geom = make_geometry(L, phi=0.5 * (s + s.T))
                g = geom.inner
                conn = koszul_connection(L, g)
                d = FinslerData(g=g, X=np.zeros(n))
                flag = orthonormalize_flag(g, rng.normal(size=n), rng.normal(size=n))
                rep = flag_curvature(geom, d, flag, method="general")
                assert rep.K == pytest.approx(
                    sectional(L, g, conn, flag.Y, flag.U), abs=1e-9
                )

    def test_invariant_under_U_negation(self, su2_plus_r):
        geom = make_geometry(su2_plus_r)
        rng = np.random.default_rng(2)
        X = rng.normal(size=4)
        X = X / geom.inner.norm(X) * 0.6
        d = FinslerData(g=geom.inner, X=X)
        for _ in range(10):
            flag = orthonormalize_flag(
                geom.inner, rng.normal(size=4), rng.normal(size=4)
            )
            k1 = flag_curvature(geom, d, flag).K
            k2 = flag_curvature(geom, d, Flag(Y=flag.Y, U=-flag.U)).K
            assert k1 == pytest.approx(k2, rel=1e-9, abs=1e-12)

    def test_denominator_positive(self, su2_plus_r):
        geom = make_geometry(su2_plus_r)
        rng = np.random.default_rng(3)
        X = rng.normal(size=4)
        X = X / geom.inner.norm(X) * 0.9
        d = FinslerData(g=geom.inner, X=X)
        floor = (1 - 0.9) ** 4 * (1 - 0.9**2)
        for _ in range(50):
            flag = orthonormalize_flag(
                geom.inner, rng.normal(size=4), rng.normal(size=4)
            )
            rep = flag_curvature(geom, d, flag)
            assert rep.denominator >= floor - 1e-12

    def test_paper_verbatim_is_exact_negative(self, su2):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        flag = Flag(Y=E3[0], U=E3[1])
        aligned = flag_curvature(geom, d, flag, convention="oracle-aligned")
        verbatim = flag_curvature(geom, d, flag, convention="paper-verbatim")
        assert verbatim.K == pytest.approx(-aligned.K)
        assert verbatim.sign_mismatch is True
        assert aligned.sign_mismatch is False

    def test_invalid_drift_rejected(self, su2):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.array([1.5, 0.0, 0.0]))
        with pytest.raises(PreconditionError):
            flag_curvature(geom, d, Flag(Y=E3[0], U=E3[1]))

    @pytest.mark.parametrize("g", [2.0 * np.eye(3), np.eye(2)])
    def test_metric_of_another_geometry_refused(self, su2, g):
        d = FinslerData(g=InnerProduct(g), X=np.zeros(len(g)))
        with pytest.raises(InputError, match="^FinslerData metric does not match"):
            flag_curvature(make_geometry(su2), d, Flag(Y=E3[0], U=E3[1]))

    def test_biinvariant_method_needs_biinvariant_metric(self, heisenberg):
        geom = make_geometry(heisenberg)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        with pytest.raises(PreconditionError):
            flag_curvature(geom, d, Flag(Y=E3[0], U=E3[1]), method="bi-invariant")


class TestBiinvariantCorollary:
    def test_metric_on_a_proper_subspace_refused(self, su2_plus_r):
        with pytest.raises(PreconditionError, match="needs trivial isotropy"):
            flag_curvature_biinvariant(su2_plus_r, InnerProduct(np.eye(3)), np.zeros(3),
                                       Flag(Y=E3[0], U=E3[1]))

    @pytest.mark.parametrize("norm", [1.0, 1.5])
    def test_drift_outside_the_finsler_domain_rejected(self, su2_plus_r, norm):
        g = InnerProduct(np.eye(4))
        with pytest.raises(PreconditionError, match="Finsler condition"):
            flag_curvature_biinvariant(su2_plus_r, g, norm * E4[3],
                                       Flag(Y=E4[0], U=E4[1]))

    def test_drift_orthogonal_flag(self, su2_plus_r):
        g = InnerProduct(np.eye(4))
        rep = flag_curvature_biinvariant(
            su2_plus_r, g, 0.5 * E4[3], Flag(Y=E4[0], U=E4[1])
        )
        assert rep.K == pytest.approx(0.25)
        assert rep.denominator == pytest.approx(4.0)

    def test_drift_mixed_flag(self, su2_plus_r):
        g = InnerProduct(np.eye(4))
        U = (E4[1] + E4[3]) / np.sqrt(2)
        rep = flag_curvature_biinvariant(su2_plus_r, g, 0.5 * E4[3], Flag(Y=E4[0], U=U))
        assert rep.K == pytest.approx(0.1)
        assert rep.numerator == pytest.approx(0.5)
        assert rep.denominator == pytest.approx(5.0)

    def test_abelian_zero(self, abelian3):
        g = InnerProduct(np.eye(3))
        rep = flag_curvature_biinvariant(
            abelian3, g, 0.5 * E3[0], Flag(Y=E3[1], U=E3[2])
        )
        assert rep.K == 0.0


class TestNumeratorIdentity:
    def test_riemannian_reduction(self, su2):
        geom = make_geometry(su2)
        g = geom.inner
        d = FinslerData(g=g, X=np.zeros(3))
        conn = koszul_connection(su2, g)
        flag = Flag(Y=E3[0], U=E3[1])
        r = curvature_oracle(conn, su2, flag.U, flag.Y, flag.Y)
        rep = numerator_identity_check(d, flag, r)
        assert rep.lhs == pytest.approx(g.dot(r, flag.U))
        assert rep.defect < 1e-12

    def test_drift_configuration(self, su2_plus_r):
        geom = make_geometry(su2_plus_r)
        g = geom.inner
        d = FinslerData(g=g, X=0.5 * E4[3])
        conn = koszul_connection(su2_plus_r, g)
        flag = Flag(Y=E4[0], U=(E4[1] + E4[3]) / np.sqrt(2))
        r = curvature_oracle(conn, su2_plus_r, flag.U, flag.Y, flag.Y)
        assert numerator_identity_check(d, flag, r).defect < 1e-9
        assert numerator_identity_check(d, flag, r, gy_source="fd").defect < 1e-5

    def test_random_left_invariant(self, su2, heisenberg):
        rng = np.random.default_rng(4)
        for L in (su2, heisenberg):
            for _ in range(10):
                A = rng.normal(size=(3, 3))
                s = A @ A.T + 3 * np.eye(3)
                geom = make_geometry(L, phi=0.5 * (s + s.T))
                g = geom.inner
                X = rng.normal(size=3)
                X = X / g.norm(X) * rng.uniform(0, 0.8)
                d = FinslerData(g=g, X=X)
                conn = koszul_connection(L, g)
                flag = orthonormalize_flag(g, rng.normal(size=3), rng.normal(size=3))
                r = curvature_oracle(conn, L, flag.U, flag.Y, flag.Y)
                assert numerator_identity_check(d, flag, r).defect < 1e-9

    def test_non_orthonormal_flag_rejected(self, su2_plus_r):
        # the expansion holds for a g-orthonormal flag only: on this flag its
        # two sides differ by 0.00526
        g = InnerProduct(np.eye(4))
        d = FinslerData(g=g, X=0.5 * E4[3])
        Y, U = np.random.default_rng(0).normal(size=(2, 4))
        r = curvature_oracle(koszul_connection(su2_plus_r, g), su2_plus_r, U, Y, Y)
        for source in ("closed", "fd"):
            with pytest.raises(PreconditionError, match="not g-orthonormal"):
                numerator_identity_check(d, Flag(Y=Y, U=U), r, gy_source=source)


    def test_unknown_gy_source_refused(self, su2):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        with pytest.raises(InputError, match="^gy_source must be 'closed' or 'fd'"):
            numerator_identity_check(d, Flag(Y=E3[0], U=E3[1]), E3[2], gy_source="exact")


class TestScan:
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_refused(self, su2, n_samples):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        with pytest.raises(InputError, match="^n_samples must be positive$"):
            scan_flags(geom, d, n_samples=n_samples, seed=0)

    @pytest.mark.parametrize("h_dim", [0, 3], ids=["m_dim=1", "h_dim=dim"])
    def test_no_flags_without_two_dimensions(self, su2, h_dim):
        # a dim-1 algebra leaves m_dim = 1; su(2) with h_dim = 3 leaves 0
        L = su2 if h_dim else LieAlgebraSpec(1, np.zeros((1, 1, 1)))
        geom = make_geometry(L, h_dim=h_dim)
        d = FinslerData(g=geom.inner, X=np.zeros(geom.m_dim))
        flag = Flag(Y=np.ones(geom.m_dim), U=np.ones(geom.m_dim))
        for call in (
            lambda: scan_flags(geom, d, n_samples=5, seed=0),
            lambda: flag_curvature(geom, d, flag),
            lambda: sample_flag(geom.inner, np.random.default_rng(0)),
        ):
            with pytest.raises(FlagError, match="^flags need m_dim >= 2$"):
                call()

    def test_abelian_flat(self, abelian3):
        geom = make_geometry(abelian3)
        d = FinslerData(g=geom.inner, X=0.5 * E3[0])
        s = scan_flags(geom, d, n_samples=200, seed=0)
        assert s.min_K == pytest.approx(0.0, abs=1e-12)
        assert s.max_K == pytest.approx(0.0, abs=1e-12)

    def test_su2_constant_curvature(self, su2):
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        s = scan_flags(geom, d, n_samples=1000, seed=7)
        assert s.max_K - s.min_K < 1e-9
        assert s.mean_K == pytest.approx(0.25, abs=1e-9)

    def test_constant_curvature_ties_report_first_flag(self, su2, su2_u1):
        # K is constant up to rounding, so every flag ties with the extremes
        geom = make_geometry(su2)
        d = FinslerData(g=geom.inner, X=np.zeros(3))
        s = scan_flags(geom, d, n_samples=1000, seed=7)
        assert s.argmin_index == s.argmax_index == 0
        geom = make_geometry(su2_u1, h_dim=1)
        d = FinslerData(g=geom.inner, X=np.zeros(2))
        s = scan_flags(geom, d, n_samples=500, seed=5, method="naturally-reductive")
        assert s.argmin_index == s.argmax_index == 0

    def test_su2_u1_constant(self, su2_u1):
        geom = make_geometry(su2_u1, h_dim=1)
        d = FinslerData(g=geom.inner, X=np.zeros(2))
        s = scan_flags(geom, d, n_samples=100, seed=1, method="naturally-reductive")
        assert s.min_K == pytest.approx(1.0, abs=1e-9)
        assert s.max_K == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, su2_plus_r):
        geom = make_geometry(su2_plus_r)
        d = FinslerData(g=geom.inner, X=0.5 * E4[3])
        a = scan_flags(geom, d, n_samples=50, seed=42)
        b = scan_flags(geom, d, n_samples=50, seed=42)
        assert a.min_K == b.min_K and a.max_K == b.max_K and a.mean_K == b.mean_K
        assert np.array_equal(a.argmin_flag.Y, b.argmin_flag.Y)

    def test_dependent_draw_is_resampled(self):
        # the first (y, u) pair is parallel, so sample_flag draws again
        class Draws:
            def __init__(self, rows):
                self.rows, self.count = rows, 0

            def standard_normal(self, size):
                self.count += 1
                return self.rows[self.count - 1][:size]

        g = InnerProduct(np.diag([1.0, 2.0, 3.0]))
        rows = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]),
                np.array([0.5, -1.0, 0.2]), np.array([0.3, 0.4, -1.5])]
        rng = Draws(rows)
        flag = sample_flag(g, rng)
        want = orthonormalize_flag(g, g.inv_sqrt @ rows[2], g.inv_sqrt @ rows[3])
        assert rng.count == 4
        assert np.array_equal(flag.Y, want.Y) and np.array_equal(flag.U, want.U)


def test_array_holders_compare_by_identity(su2_plus_r):
    # a generated __eq__ compares the fields as a tuple, which raises on arrays
    geom = make_geometry(su2_plus_r)
    d = FinslerData(g=geom.inner, X=0.5 * E4[3])
    summary = scan_flags(geom, d, n_samples=5, seed=0)
    holders = [geom.algebra, geom, geom.inner, d, summary.argmin_flag, geom.connection,
               obstruction_report(geom, d.X),
               sectional_along_X_sign(geom, d.X, n_samples=5, seed=0), summary]
    assert len({type(obj) for obj in holders}) == len(holders)
    for obj in holders:
        twin = copy.copy(obj)
        assert obj == obj and obj != twin
        assert hash(obj) == hash(obj) and len({obj, twin}) == 2

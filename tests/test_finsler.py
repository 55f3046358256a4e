import numpy as np
import pytest

from flagcurv import (
    FinslerData,
    F_eval,
    InnerProduct,
    InputError,
    NumericError,
    PreconditionError,
    denominator_identity,
    g_Y_closed,
    g_Y_fd,
    g_Y_matrix,
    orthonormalize_flag,
    validate_finsler,
)
from flagcurv.metrics import Flag

E3 = np.eye(3)
E4 = np.eye(4)


def printed_blocks(d, Y, u, v):
    """The paper's four printed blocks of the g_Y(u, v) expansion, unsymmetrized."""
    g = d.g
    gYY = g.dot(Y, Y)
    r = np.sqrt(gYY)
    gXY = g.dot(d.X, Y)
    gXU = g.dot(d.X, u)
    gXV = g.dot(d.X, v)
    gYU = g.dot(Y, u)
    gYV = g.dot(Y, v)
    gUV = g.dot(u, v)
    A = r + gXY
    t1 = 4.0 * A**3 / gYY**2.5 * (gXV * gYU - gYV * gXU)
    t2 = (
        2.0 * A**2 / gYY
        * (
            gUV
            + gXU * gXV
            - gXY * gYV * gYU / gYY**1.5
            + (gXU * gYV + gXY * gUV + gXV * gYU) / r
        )
    )
    t3 = A**4 / gYY**3 * (4.0 * gYU * gYV - gUV * gYY)
    t4 = (
        4.0 * A**2 / gYY
        * (gYV / r + gXV)
        * (gYU / r + gXU - 2.0 * gYU / r - 2.0 * gXY * gYU / gYY)
    )
    return t1, t2, t3, t4


def random_data(rng, n, max_norm=0.8):
    A = rng.normal(size=(n, n))
    g = InnerProduct(A @ A.T + n * np.eye(n))
    X = rng.normal(size=n)
    X = X / g.norm(X) * rng.uniform(0.0, max_norm)
    return FinslerData(g=g, X=X)


class TestValidate:
    def test_interior(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=0.5 * E3[1])
        rep = validate_finsler(d)
        assert rep.ok
        assert rep.norm_X == pytest.approx(0.5)

    def test_boundary_rejected(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=E3[1])
        assert not validate_finsler(d).ok

    def test_stretched_metric_norm(self):
        d = FinslerData(g=InnerProduct(np.diag([1.0, 4.0])), X=np.array([0.0, 0.4]))
        rep = validate_finsler(d)
        assert rep.norm_X == pytest.approx(0.8)
        assert rep.ok


class TestFEval:
    def test_riemannian_reduction(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        assert F_eval(d, np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)

    def test_drift_along_y(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=0.5 * E3[1])
        assert F_eval(d, E3[1]) == pytest.approx(2.25)

    def test_one_homogeneous(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=0.5 * E3[1])
        assert F_eval(d, 2.0 * E3[1]) == pytest.approx(4.5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=3)
            lam = rng.uniform(0.1, 5.0)
            assert F_eval(d, lam * y) == pytest.approx(lam * F_eval(d, y), rel=1e-12)

    def test_zero_rejected(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        with pytest.raises(InputError):
            F_eval(d, np.zeros(3))


class TestFundamentalTensor:
    def test_riemannian_case_reduces_to_g(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 3))
        g = InnerProduct(A @ A.T + 3 * np.eye(3))
        d = FinslerData(g=g, X=np.zeros(3))
        for _ in range(10):
            Y, u, v = rng.normal(size=(3, 3))
            assert g_Y_closed(d, Y, u, v) == pytest.approx(g.dot(u, v), rel=1e-10)

    def test_fd_riemannian(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        assert g_Y_fd(d, E3[0], E3[1], E3[1]) == pytest.approx(1.0, abs=1e-6)

    def test_closed_matches_fd_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = random_data(rng, n)
            Y, u, v = rng.normal(size=(3, n))
            c = g_Y_closed(d, Y, u, v)
            f = g_Y_fd(d, Y, u, v, step=1e-5)
            assert abs(c - f) / max(1.0, abs(f)) < 1e-6

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(4)
        d = random_data(rng, 4)
        for _ in range(10):
            Y, u, v, w = rng.normal(size=(4, 4))
            a, b = rng.normal(size=2)
            assert g_Y_closed(d, Y, u, v) == pytest.approx(
                g_Y_closed(d, Y, v, u), rel=1e-12, abs=1e-12
            )
            assert g_Y_closed(d, Y, a * u + b * w, v) == pytest.approx(
                a * g_Y_closed(d, Y, u, v) + b * g_Y_closed(d, Y, w, v),
                rel=1e-9, abs=1e-9,
            )

    def test_zero_homogeneous_in_Y(self):
        rng = np.random.default_rng(5)
        d = random_data(rng, 3)
        Y, u, v = rng.normal(size=(3, 3))
        for lam in (0.5, 2.0, 7.0):
            assert g_Y_closed(d, lam * Y, u, v) == pytest.approx(
                g_Y_closed(d, Y, u, v), rel=1e-10
            )

    def test_positive_definite_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = random_data(rng, n)
            Y = rng.normal(size=n)
            m = g_Y_matrix(d, Y)
            assert np.allclose(m, m.T, atol=1e-10)
            assert np.linalg.eigvalsh(m)[0] > 0

    def test_euler_identities(self):
        # g_Y(Y, Y) = F(Y)^2 and g_Y(Y, v) = F(Y) dF(Y)[v]
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            d = random_data(rng, n)
            Y, v = rng.normal(size=(2, n))
            assert g_Y_closed(d, Y, Y, Y) == pytest.approx(
                F_eval(d, Y) ** 2, rel=1e-10
            )
            h = 1e-6
            dF = (F_eval(d, Y + h * v) - F_eval(d, Y - h * v)) / (2 * h)
            assert g_Y_closed(d, Y, Y, v) == pytest.approx(
                F_eval(d, Y) * dF, rel=1e-6, abs=1e-6
            )

    def test_drift_example_from_direct_norm(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=0.5 * E3[1])
        assert g_Y_closed(d, E3[1], E3[1], E3[1]) == pytest.approx(1.5**4)

    def test_zero_Y_rejected(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        with pytest.raises(InputError):
            g_Y_closed(d, np.zeros(3), E3[0], E3[1])
        with pytest.raises(InputError):
            g_Y_fd(d, np.zeros(3), E3[0], E3[1])

    def test_bad_step_rejected(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        with pytest.raises(NumericError):
            g_Y_fd(d, E3[0], E3[1], E3[1], step=-1.0)


class TestPrintedBlocks:
    """The paper's printed expansion of g_Y against the (alpha, beta) formula."""

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            d = random_data(rng, n, max_norm=0.98)
            Y, u, v = rng.normal(size=(3, n))
            Y = Y * 10 ** rng.uniform(-2, 2)
            G = g_Y_matrix(d, Y)
            # |g_Y(u, v)| <= scale by Cauchy-Schwarz
            yield d, Y, u, v, G, np.sqrt((u @ G @ u) * (v @ G @ v))

    def test_symmetrized_sum_is_the_formula(self):
        for d, Y, u, v, _, scale in self.cases(9):
            sym = 0.5 * (sum(printed_blocks(d, Y, u, v))
                         + sum(printed_blocks(d, Y, v, u)))
            assert abs(sym - g_Y_closed(d, Y, u, v)) <= 1e-12 * scale

    def test_raw_sum_differs_by_an_antisymmetric_term(self):
        largest = 0.0
        for d, Y, u, v, G, scale in self.cases(10):
            r_uv = sum(printed_blocks(d, Y, u, v)) - u @ G @ v
            r_vu = sum(printed_blocks(d, Y, v, u)) - v @ G @ u
            assert abs(r_uv + r_vu) <= 1e-12 * scale
            largest = max(largest, abs(r_uv) / scale)
        assert largest > 1e-3  # the artifact is there, not identically zero


class TestDeterminant:
    """det g_Y = (1+s)^(3n) (1-s)^(n-2) (1 + 2|X|^2 - 3s^2) det g, s = <X,Y>/|Y|."""

    @staticmethod
    def expected_log_ratio(d, Y):
        n = d.g.dim
        s = d.g.dot(d.X, Y) / d.g.norm(Y)
        return (3 * n * np.log1p(s) + (n - 2) * np.log1p(-s)
                + np.log(1.0 + 2.0 * d.norm_X**2 - 3.0 * s * s))

    @pytest.mark.parametrize("norm_X, cond, scale_Y", [
        pytest.param(None, None, 1.0, id="interior"),
        pytest.param(0.999, None, 1.0, id="near-boundary"),
        pytest.param(None, 1e8, 1.0, id="ill-conditioned"),
        pytest.param(None, None, 1e-3, id="short-Y"),
        pytest.param(None, None, 1e3, id="long-Y"),
    ])
    def test_determinant(self, norm_X, cond, scale_Y):
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for _ in range(100):
            n = int(rng.integers(2, 9))
            if cond is None:
                A = rng.normal(size=(n, n))
                g = InnerProduct(A @ A.T + n * np.eye(n))
            else:
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                g = InnerProduct((Q * np.logspace(0, -np.log10(cond), n)) @ Q.T)
            X = rng.normal(size=n)
            X = X / g.norm(X) * (rng.uniform(0.0, 0.999) if norm_X is None else norm_X)
            d = FinslerData(g=g, X=X)
            Y = scale_Y * rng.normal(size=n)
            G = g_Y_matrix(d, Y)
            assert np.linalg.eigvalsh(G)[0] > 0
            rel = abs(np.expm1(np.linalg.slogdet(G)[1] - np.linalg.slogdet(g.g)[1]
                               - self.expected_log_ratio(d, Y)))
            # rounding the entries moves a determinant by about n eps cond
            assert rel <= 64 * n * eps * (np.linalg.cond(G) + np.linalg.cond(g.g))

    def test_two_dimensions_is_the_denominator_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = random_data(rng, 2, max_norm=0.999)
            flag = orthonormalize_flag(d.g, *rng.normal(size=(2, 2)))
            # in a g-orthonormal basis det g = 1 and |X|^2 = <X,Y>^2 + <X,U>^2
            rep = denominator_identity(d, flag)
            assert np.exp(self.expected_log_ratio(d, flag.Y)) == pytest.approx(
                rep.rhs, rel=1e-12
            )
            assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


class TestDenominatorIdentity:
    def test_riemannian_unity(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        rep = denominator_identity(d, Flag(Y=E3[0], U=E3[1]))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)

    def test_central_drift_orthogonal_flag(self):
        g = InnerProduct(np.eye(4))
        d = FinslerData(g=g, X=0.5 * E4[3])
        rep = denominator_identity(d, Flag(Y=E4[0], U=E4[1]))
        assert rep.rhs == pytest.approx(1.0)
        assert rep.defect < 1e-9

    def test_central_drift_mixed_flag(self):
        g = InnerProduct(np.eye(4))
        d = FinslerData(g=g, X=0.5 * E4[3])
        U = (E4[1] + E4[3]) / np.sqrt(2)
        rep = denominator_identity(d, Flag(Y=E4[0], U=U))
        assert rep.rhs == pytest.approx(1.25)
        assert rep.defect < 1e-9

    def test_random_flags(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = random_data(rng, n)
            flag = orthonormalize_flag(d.g, rng.normal(size=n), rng.normal(size=n))
            assert denominator_identity(d, flag).defect < 1e-9

    def test_non_orthonormal_rejected(self):
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        with pytest.raises(PreconditionError):
            denominator_identity(d, Flag(Y=2.0 * E3[0], U=E3[1]))

    def test_flag_of_the_wrong_length_rejected(self):
        # the lengths are checked before any product uses them
        d = FinslerData(g=InnerProduct(np.eye(3)), X=np.zeros(3))
        with pytest.raises(InputError, match="^flag vectors must have length 3$"):
            denominator_identity(d, Flag(Y=E3[0], U=np.array([0.0, 1.0])))

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcurv import (
    FlagError,
    HomogeneousGeometry,
    InnerProduct,
    InputError,
    LieAlgebraSpec,
    ValidationError,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
    make_geometry,
    orthonormalize_flag,
)
from flagcurv.metrics import _skew_check
from test_algebra import structure_tensors


def abelian(n):
    return LieAlgebraSpec(n, np.zeros((n, n, n)))


def make_metric(g0, phi, h_dim=0):
    return make_geometry(abelian(len(g0)), h_dim, g0=g0, phi=phi).inner


class TestInnerFromPhi:
    def test_identity(self):
        g = make_metric(np.eye(3), np.eye(3))
        assert np.allclose(g.g, np.eye(3))

    def test_diagonal_phi(self):
        g = make_metric(np.eye(2), np.diag([1.0, 4.0]))
        assert np.allclose(g.g, np.diag([1.0, 4.0]))

    def test_scaled_g0(self):
        g = make_metric(2 * np.eye(3), np.eye(3))
        assert np.allclose(g.g, 2 * np.eye(3))

    def test_non_self_adjoint_phi_rejected(self):
        with pytest.raises(ValidationError):
            make_metric(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_positive_phi_rejected(self):
        with pytest.raises(ValidationError):
            make_metric(np.eye(2), np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("name", ["pair", "phi_full", "inner", "reductive"])
    def test_derived_matrices_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            HomogeneousGeometry(abelian(2), 0, np.eye(2), np.eye(2), **{name: np.eye(2)})

    def test_spd_output_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 6)
            A = rng.normal(size=(n, n))
            g0 = A @ A.T + n * np.eye(n)
            g0 = 0.5 * (g0 + g0.T)
            B = rng.normal(size=(n, n))
            s = B @ B.T + n * np.eye(n)
            # phi self-adjoint w.r.t. g0: phi = g0^{-1} s with s symmetric SPD
            phi = np.linalg.solve(g0, 0.5 * (s + s.T))
            g = make_metric(g0, phi)
            assert np.allclose(g.g, g.g.T)
            assert np.linalg.eigvalsh(g.g)[0] > 0


class TestBiInvariance:
    def test_su2_identity(self, su2):
        assert check_bi_invariance(su2, np.eye(3)).ok

    def test_su2_stretched(self, su2):
        rep = check_bi_invariance(su2, np.diag([1.0, 1.0, 4.0]))
        assert not rep.ok
        assert rep.max_defect == pytest.approx(3.0)

    def test_abelian_any_form(self, abelian3):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 3))
        assert check_bi_invariance(abelian3, A @ A.T + np.eye(3)).ok

    def test_identity_form_iff_totally_antisymmetric(self, heisenberg):
        # heisenberg's tensor with indices lowered by I is not totally
        # antisymmetric, so g0 = I cannot be bi-invariant
        assert not check_bi_invariance(heisenberg, np.eye(3)).ok

    def test_form_of_the_wrong_shape_refused(self, su2):
        with pytest.raises(InputError, match="^g0 shape does not match algebra dimension$"):
            check_bi_invariance(su2, np.eye(2))

    def test_nonsymmetric_form_refused(self, su2):
        # the skew check reads <x,[z,y]>_0 off <[z,y],x>_0, so g0 = g0^T
        g0 = np.eye(3)
        g0[0, 1] = 0.5
        with pytest.raises(InputError, match="symmetric"):
            check_bi_invariance(su2, g0)


class TestAdHInvariance:
    def test_su2_u1_round(self, su2_u1):
        rep = check_ad_h_invariance(su2_u1, InnerProduct(np.eye(2)))
        assert rep.ok

    def test_su2_u1_stretched(self, su2_u1):
        rep = check_ad_h_invariance(su2_u1, InnerProduct(np.diag([1.0, 4.0])))
        assert not rep.ok
        assert rep.max_defect == pytest.approx(3.0)

    def test_trivial_h_vacuous(self, su2):
        rep = check_ad_h_invariance(su2, InnerProduct(np.diag([1.0, 2.0, 3.0])))
        assert rep.ok
        assert rep.max_defect == 0.0


class TestNaturallyReductive:
    def test_su2_biinvariant(self, su2):
        assert check_naturally_reductive(su2, InnerProduct(np.eye(3))).ok

    def test_su2_u1(self, su2_u1):
        assert check_naturally_reductive(su2_u1, InnerProduct(np.eye(2))).ok

    def test_su2_stretched_fails(self, su2):
        rep = check_naturally_reductive(
            su2, InnerProduct(np.diag([1.0, 1.0, 4.0]))
        )
        assert not rep.ok
        assert rep.max_defect == pytest.approx(3.0)


class TestOrthonormalizeFlag:
    def test_already_orthonormal(self):
        g = InnerProduct(np.eye(3))
        flag = orthonormalize_flag(g, np.eye(3)[0], np.eye(3)[1])
        assert np.allclose(flag.Y, np.eye(3)[0])
        assert np.allclose(flag.U, np.eye(3)[1])

    def test_gram_schmidt_by_hand(self):
        g = InnerProduct(np.eye(2))
        flag = orthonormalize_flag(g, np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert np.allclose(flag.Y, [1.0, 0.0])
        assert np.allclose(flag.U, [0.0, 1.0])

    def test_non_euclidean_norm(self):
        g = InnerProduct(np.diag([1.0, 4.0]))
        flag = orthonormalize_flag(g, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(flag.Y, [0.0, 0.5])

    @pytest.mark.parametrize("y, u", [(np.eye(3)[0], np.eye(2)[1]), (np.eye(2)[0], np.eye(3)[1])])
    def test_vectors_of_the_wrong_length_refused(self, y, u):
        with pytest.raises(InputError, match="^flag vectors must have length 3$"):
            orthonormalize_flag(InnerProduct(np.eye(3)), y, u)

    def test_degenerate_flag_raises(self):
        g = InnerProduct(np.eye(3))
        with pytest.raises(FlagError):
            orthonormalize_flag(g, np.eye(3)[0], 2.0 * np.eye(3)[0])

    def test_projection_property_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = rng.integers(2, 6)
            A = rng.normal(size=(n, n))
            g = InnerProduct(A @ A.T + n * np.eye(n))
            flag = orthonormalize_flag(g, rng.normal(size=n), rng.normal(size=n))
            again = orthonormalize_flag(g, flag.Y, flag.U)
            assert np.allclose(again.Y, flag.Y, atol=1e-12)
            assert np.allclose(again.U, flag.U, atol=1e-12)
            assert g.dot(flag.Y, flag.Y) == pytest.approx(1.0, abs=1e-12)
            assert g.dot(flag.U, flag.U) == pytest.approx(1.0, abs=1e-12)
            assert g.dot(flag.Y, flag.U) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.integers(-100, 100),
       st.integers(-150, 150), st.integers(-150, 150), st.sampled_from([0.0, 1e-7, 1e-4, 1.0]))
def test_dependence_verdict_does_not_depend_on_the_scale(n, seed, s, a, b, tilt):
    """Scaling g by 10^s, y by 10^a and u by 10^b keeps the verdict, and
    scales the flag by 10^(-s/2).  u = 3y + tilt w with w g-orthogonal to y
    and as long: the pair's sin^2 is tilt^2 / (9 + tilt^2), dependent below
    TOL_DEP = 1e-12, so at tilt 0 and 1e-7."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    g = A @ A.T + n * np.eye(n)
    y, w = rng.normal(size=(2, n))
    w -= (y @ g @ w) / (y @ g @ y) * y
    u = 3.0 * y + tilt * np.sqrt((y @ g @ y) / (w @ g @ w)) * w
    scaled = InnerProduct(10.0**s * g), 10.0**a * y, 10.0**b * u
    if tilt < 1e-6:
        for call in ((InnerProduct(g), y, u), scaled):
            with pytest.raises(FlagError, match="linearly dependent"):
                orthonormalize_flag(*call)
        return
    flag, got = orthonormalize_flag(InnerProduct(g), y, u), orthonormalize_flag(*scaled)
    unit = 10.0 ** (s / 2)
    assert np.allclose(unit * got.Y, flag.Y, rtol=0, atol=1e-12)
    # U is read off the tilt, so it carries a rounding error of about eps / tilt
    assert np.allclose(unit * got.U, flag.U, rtol=0, atol=1e-12 / tilt)


@pytest.mark.parametrize("s", [1e150, 1e200, 1e-100, 1e-170, 5e-324])
def test_orthogonal_pairs_at_extreme_scales_are_independent(s):
    # |y|^2 |u|^2 overflows or underflows; the flag is read on rescaled vectors
    e = np.eye(3)
    flag = orthonormalize_flag(InnerProduct(e), s * e[0], s * e[1])
    assert np.array_equal(flag.Y, e[0]) and np.array_equal(flag.U, e[1])
    with pytest.raises(FlagError, match="linearly dependent"):
        orthonormalize_flag(InnerProduct(e), s * e[0], 3 * s * e[0])


@pytest.mark.parametrize("t", [1e160, 1e200])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1e-100, 1e100), (1e-150, 1e-150), (1e150, 1e150)])
def test_pairs_of_a_metric_of_wide_range_are_independent(t, a, b):
    # g = diag(t, 1/t, 1): |e2|^2 |e1|^2 = 1 is read as it is; the other pairs'
    # product leaves the float range at t = 1e200, and they are rescaled
    e, g = np.eye(3), InnerProduct(np.diag([t, 1 / t, 1.0]))
    flag = orthonormalize_flag(g, a * e[1], b * e[0])
    assert np.allclose(flag.Y, np.sqrt(t) * e[1], rtol=1e-15, atol=0)
    assert np.allclose(flag.U, e[0] / np.sqrt(t), rtol=1e-15, atol=0)
    with pytest.raises(FlagError, match="linearly dependent"):
        orthonormalize_flag(g, a * e[1], 3 * a * e[1])


def test_g0_must_be_symmetric():
    with pytest.raises(ValidationError):
        make_geometry(abelian(2), g0=np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_g0_is_checked_against_the_algebra_first(su2_plus_r):
    # phi defaults to the identity on m of the algebra, so a wrong g0 is named
    with pytest.raises(InputError, match=r"^g0 must be 4x4 \(form on the algebra\), got \(3, 3\)$"):
        make_geometry(su2_plus_r, g0=np.eye(3))


def test_phi_must_be_a_metric_on_m(su2_plus_r):
    with pytest.raises(InputError, match=r"^phi must be 3x3 \(metric on m\), got \(4, 4\)$"):
        make_geometry(su2_plus_r, h_dim=1, phi=np.eye(4))


def test_g0_must_be_positive_definite():
    with pytest.raises(ValidationError):
        make_geometry(abelian(2), g0=np.diag([1.0, -1.0]))


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
ABELIAN3 = abelian(3)


@NON_FINITE
def test_g0_must_be_finite(bad):
    with pytest.raises(InputError, match="^g0 must be finite$"):
        make_geometry(ABELIAN3, g0=np.diag([bad, 1.0, 1.0]))


@NON_FINITE
def test_phi_must_be_finite(bad):
    with pytest.raises(InputError, match="^phi must be finite$"):
        make_geometry(ABELIAN3, phi=np.diag([bad, 1.0, 1.0]))


@NON_FINITE
def test_metric_must_be_finite(bad):
    with pytest.raises(InputError, match="^metric must be finite$"):
        InnerProduct(np.diag([bad, 1.0]))


@pytest.mark.parametrize("g, error, message", [
    (np.ones((2, 3)), InputError, r"^metric must be square, got shape \(2, 3\)$"),
    (np.ones(2), InputError, r"^metric must be square, got shape \(2,\)$"),
    ([[1.0, 0.5], [0.0, 1.0]], ValidationError, r"^metric is not symmetric \(defect 0.5\)$"),
    (np.diag([1.0, -2.0]), ValidationError,
     r"^metric is not positive-definite \(min eigenvalue -2\)$"),
])
def test_malformed_metric_refused(g, error, message):
    with pytest.raises(error, match=message):
        InnerProduct(g)


def test_large_metric_entries_stay_finite():
    # a symmetric metric is kept as given; within the symmetry tolerance the
    # symmetrization sums halves, so 1e308 does not overflow to inf
    assert InnerProduct(np.diag([1e308, 1.0])).g[0, 0] == 1e308
    g = InnerProduct(np.array([[1e308, 1e-300], [0.0, 1.0]])).g
    assert g[0, 0] == 1e308 and np.array_equal(g, g.T)


def test_geometry_checks_g0_phi_once(monkeypatch):
    # one eigvalsh for g0 and one for g0 phi, which is then the inner product
    # as it is: InnerProduct does not check it a second time
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    g0, phi = 2.0 * np.eye(3), np.diag([1.0, 2.0, 3.0])
    geom = make_geometry(abelian(3), g0=g0, phi=phi)
    assert len(calls) == 2
    assert np.array_equal(geom.inner.g, g0 @ phi) and not geom.inner.g.flags.writeable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("y, u", [
    ([np.nan, 0.0], [0.0, 1.0]),
    ([1.0, 0.0], [0.0, -np.inf]),
])
def test_flag_vectors_must_be_finite(y, u):
    with pytest.raises(InputError, match="^flag vectors must be finite"):
        orthonormalize_flag(InnerProduct(np.eye(2)), np.array(y), np.array(u))


def skew_check_reference(c, g):
    """max |<[z,x],y> + <x,[z,y]>| as two einsum contractions."""
    d = np.einsum("zxa,ay->zxy", c, g) + np.einsum("zya,xa->zxy", c, g)
    return float(np.max(np.abs(d))) if d.size else 0.0


@settings(max_examples=40, deadline=None)
@given(structure_tensors(), st.integers(0, 2**32 - 1))
def test_skew_check_matches_einsum_formula(case, seed):
    c, integral = case
    n = len(c)
    rng = np.random.default_rng(seed)
    if integral:
        A = rng.integers(-2, 3, size=(n, n)).astype(float)
        g = A @ A.T + np.eye(n)
    else:
        A = rng.normal(size=(n, n))
        g = A @ A.T / n + np.eye(n)
        g = 0.5 * (g + g.T)
    h = int(rng.integers(0, n))
    # the whole algebra (bi-invariance) and ad(h) on m, as the checks slice c
    for sub, gm in ((c, g), (c[:h, h:, h:], g[h:, h:])):
        got, want = _skew_check(sub, gm).max_defect, skew_check_reference(sub, gm)
        if integral:
            assert got == want
        else:
            scale = max(1.0, float(np.max(np.abs(c))) * float(np.max(np.abs(g))))
            assert abs(got - want) <= 1e-12 * scale

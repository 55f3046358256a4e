import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcurv import (
    InputError,
    LieAlgebraSpec,
    bracket,
    check_reductive,
    derived_subalgebra,
    jacobi_defect,
)
from flagcurv.algebra import TOL_HYPOTHESIS
from conftest import (
    change_basis,
    direct_sum,
    heisenberg_tensor,
    so_tensor,
    sphere_tensor,
    su2_tensor,
)

E3 = np.eye(3)


def test_bracket_abelian_is_zero(abelian3):
    assert np.array_equal(bracket(abelian3, E3[0], E3[1]), np.zeros(3))


def test_bracket_su2_basis(su2):
    assert np.allclose(bracket(su2, E3[0], E3[1]), E3[2])


def test_bracket_bilinear_expansion(su2):
    # [2e1 + e2, e3] = 2[e1,e3] + [e2,e3] = -2e2 + e1
    got = bracket(su2, 2 * E3[0] + E3[1], E3[2])
    assert np.allclose(got, np.array([1.0, -2.0, 0.0]))


def test_bracket_dimension_mismatch(su2):
    with pytest.raises(InputError):
        bracket(su2, np.ones(4), np.ones(3))


def test_bracket_bilinearity_random(su2, heisenberg):
    rng = np.random.default_rng(0)
    for L in (su2, heisenberg):
        for _ in range(25):
            a, b = rng.normal(size=2)
            x, y, z = rng.normal(size=(3, 3))
            lhs = bracket(L, a * x + b * y, z)
            rhs = a * bracket(L, x, z) + b * bracket(L, y, z)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_bracket_antisymmetry_exact(su2):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, y = rng.normal(size=(2, 3))
        assert np.array_equal(bracket(su2, x, y), -bracket(su2, y, x))


def test_antisymmetrization_warns():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # mirror entry missing
    with pytest.warns(UserWarning):
        L = LieAlgebraSpec(2, c)
    assert L.c[0, 1, 0] == 0.5
    assert L.c[1, 0, 0] == -0.5


def test_jacobi_abelian(abelian3):
    assert jacobi_defect(abelian3) == 0.0


def test_jacobi_su2(su2):
    assert jacobi_defect(su2) == 0.0


def test_jacobi_broken_tensor():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 0] = 1.0
    c[2, 0, 0] = -1.0
    defect = jacobi_defect(LieAlgebraSpec(3, c))
    assert defect == pytest.approx(1.0)


def test_jacobi_keeps_an_overflowed_defect():
    # the broken tensor above at scale 1e160: its Jacobiator (1e320)
    # overflows to inf and NaN, and the check must fail, not read 0
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2], c[0, 2, 0], c[2, 0, 0] = 1e160, -1e160, 1e160, -1e160
    defect = jacobi_defect(LieAlgebraSpec(3, c))
    assert not defect <= TOL_HYPOTHESIS


@pytest.mark.parametrize("dim, shape, message", [
    (0, (0, 0, 0), r"^dimension must be positive, got 0$"),
    (2, (3, 3, 3), r"^structure tensor shape \(3, 3, 3\) does not match dim 2$"),
    (3, (3, 3), r"^structure tensor shape \(3, 3\) does not match dim 3$"),
])
def test_malformed_algebra_refused(dim, shape, message):
    with pytest.raises(InputError, match=message):
        LieAlgebraSpec(dim, np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_structure_constants_refused(bad):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = bad, -bad
    with pytest.raises(InputError, match="structure constants must be finite"):
        LieAlgebraSpec(3, c)


def test_jacobi_invariant_under_basis_permutation(su2):
    perm = [2, 0, 1]
    c = su2.c[np.ix_(perm, perm, perm)]
    assert jacobi_defect(LieAlgebraSpec(3, c)) == pytest.approx(
        jacobi_defect(su2), abs=1e-14
    )


def jacobi_defect_reference(L):
    """The cyclic sum as three dense n^4 contractions."""
    c = L.c
    J = (
        np.einsum("jka,iam->ijkm", c, c)
        + np.einsum("kia,jam->ijkm", c, c)
        + np.einsum("ija,kam->ijkm", c, c)
    )
    return float(np.max(np.abs(J))) if J.size else 0.0


MAX_SUM_DIM = 30
SUMMANDS = (
    [np.zeros((1, 1, 1)), su2_tensor()]
    + [so_tensor(n) for n in range(3, 9)]
    + [heisenberg_tensor(k) for k in (1, 2, 3)]
    + [sphere_tensor(n) for n in range(2, 8)]
)


@st.composite
def structure_tensors(draw):
    """(c, integral): a direct sum of known algebras, possibly disturbed."""
    blocks, dim = [], 0
    while not blocks or draw(st.booleans()):
        fits = [t for t in SUMMANDS if dim + len(t) <= MAX_SUM_DIM]
        if not fits:
            break
        blocks.append(draw(st.sampled_from(fits)))
        dim += len(blocks[-1])
    c = direct_sum(*blocks)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    change = draw(st.sampled_from(["none", "integer", "rotate", "perturb"]))
    if change == "integer":
        p = rng.integers(-2, 3, size=c.shape) * (rng.random(c.shape) < 0.05)
        c = c + p - p.swapaxes(0, 1)
    elif change == "rotate":
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        c = change_basis(c, Q)
    elif change == "perturb":
        c = c + draw(st.floats(1e-6, 1.0)) * rng.normal(size=c.shape)
    if change in ("rotate", "perturb"):
        c = 0.5 * (c - c.swapaxes(0, 1))
    return c, change in ("none", "integer")


@settings(max_examples=60, deadline=None)
@given(structure_tensors())
def test_jacobi_matches_reference(case):
    c, integral = case
    L = LieAlgebraSpec(len(c), c)
    got, want = jacobi_defect(L), jacobi_defect_reference(L)
    if integral:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, float(np.max(np.abs(c))) ** 2)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_jacobi_zero_tensor(dim):
    assert jacobi_defect(LieAlgebraSpec(dim, np.zeros((dim, dim, dim)))) == 0.0


def test_jacobi_memory_stays_below_one_n4_array():
    # so(8) in its standard basis (168 nonzero brackets) and in a random
    # orthonormal one, where all 378 pairs i < j have a nonzero bracket
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(28, 28)))
    dense = change_basis(so_tensor(8), Q)
    for c in (so_tensor(8), 0.5 * (dense - dense.swapaxes(0, 1))):
        L = LieAlgebraSpec(28, c)  # one dense n^4 array is 4.9 MB
        jacobi_defect(L)
        tracemalloc.start()
        try:
            jacobi_defect(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    assert len(L._bracket_table[0]) == 28 * 27 // 2
    assert jacobi_defect(L) <= 1e-12


def test_derived_subalgebra_su2_full(su2):
    assert derived_subalgebra(su2).shape[0] == 3


def test_derived_subalgebra_heisenberg(heisenberg):
    basis = derived_subalgebra(heisenberg)
    assert basis.shape[0] == 1
    assert np.allclose(np.abs(basis[0]), E3[2])


def test_derived_subalgebra_abelian(abelian3):
    assert derived_subalgebra(abelian3).shape[0] == 0


def test_project_su2_u1(su2_u1):
    # adapted basis (e3, e1, e2): [f2, f3] = f1 lies in h
    assert np.allclose(bracket(su2_u1, E3[1], E3[2]), E3[0])


def test_check_reductive_su2_u1(su2_u1):
    rep = check_reductive(su2_u1, 1)
    assert rep.subalgebra_ok and rep.ad_invariant_ok
    assert rep.max_defect == 0.0


def test_check_reductive_trivial_h(su2):
    rep = check_reductive(su2, 0)
    assert rep.subalgebra_ok and rep.ad_invariant_ok


def test_check_reductive_rotated_one_dim_isotropy_still_passes(su2):
    # any 1-dim isotropy in su(2) is reductive: ad(f1) rotates its g0-plane
    s = 1 / np.sqrt(2)
    T = np.array([[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]])
    c = change_basis(su2_tensor(), T)
    L = LieAlgebraSpec(3, c)
    assert jacobi_defect(L) < 1e-12
    rep = check_reductive(L, 1)
    assert rep.subalgebra_ok and rep.ad_invariant_ok


def test_check_reductive_ad_invariance_fails():
    # affine line: [e1, e2] = e1; h = span{e1} is a subalgebra but
    # [h, m] leaks back into h.
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = -1.0
    L = LieAlgebraSpec(2, c)
    rep = check_reductive(L, 1)
    assert rep.subalgebra_ok
    assert not rep.ad_invariant_ok
    assert rep.max_defect == pytest.approx(1.0)


def test_check_reductive_subalgebra_fails(su2):
    rep = check_reductive(su2, 2)
    assert not rep.subalgebra_ok  # [e1, e2] = e3 escapes h
    assert rep.max_defect == pytest.approx(1.0)

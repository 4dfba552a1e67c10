import tracemalloc

import numpy as np
import pytest

from prointerp.commutant import (
    SubspaceBasis,
    _arnoldi,
    bicommutant_basis,
    commutant_basis,
    m_max,
    membership,
)
from prointerp.matrix_kit import DEFAULT_TOL, rank_nullspace_pinv


def in_span(x, space):
    return membership(x, space).is_member


def test_commutant_of_distinct_diagonal_is_diagonal():
    space = commutant_basis(np.diag([1.0, 2.0]))
    assert space.dim == 2
    for b in space.basis:
        np.testing.assert_allclose(b, np.diag(np.diag(b)), atol=1e-12)


def test_commutant_of_rotation_contains_rotations():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    space = commutant_basis(j)
    assert space.dim == 2
    assert in_span(np.eye(2), space)
    assert in_span(j, space)
    assert not in_span(np.diag([1.0, 0.0]), space)


def test_commutant_basis_is_orthonormal_and_commutes():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    space = commutant_basis(a)
    v = space.stacked_vecs()
    np.testing.assert_allclose(v.T @ v, np.eye(space.dim), atol=1e-12)
    for k in space.basis:
        np.testing.assert_allclose(a @ k, k @ a, atol=1e-10)


def test_bicommutant_of_jordan_block():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    space = bicommutant_basis(a)
    assert space.dim == 2
    assert in_span(np.eye(2), space)
    assert in_span(a, space)
    assert not in_span(a.T, space)
    e21 = np.zeros((2, 2))
    e21[1, 0] = 1.0
    assert not in_span(e21, space)


def test_bicommutant_shrinks_commutant_on_repeated_eigenvalues():
    a = np.diag([1.0, 2.0, 2.0])
    assert commutant_basis(a).dim == 5  # 1 + gl(2): 1 + 4
    space = bicommutant_basis(a)
    assert space.dim == 2
    # bicommutant elements must commute with everything in the commutant
    for k in commutant_basis(a).basis:
        for x in space.basis:
            np.testing.assert_allclose(x @ k, k @ x, atol=1e-10)


@pytest.mark.parametrize("a,expected", [
    (np.diag([1.0, 2.0, 3.0]), 3),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), 2),
    (np.eye(2), 1),
    (np.array([[2.0]]), 1),
])
def test_m_max_known_values(a, expected):
    assert m_max(a) == expected


def test_m_max_is_minimal_polynomial_degree():
    # Jordan structure with blocks J2(1), J1(1), J1(3): only the largest block
    # per eigenvalue counts, so the degree is 2 + 1 = 3.
    j = np.zeros((4, 4))
    j[0, 0] = j[1, 1] = j[2, 2] = 1.0
    j[0, 1] = 1.0
    j[3, 3] = 3.0
    rng = np.random.default_rng(1)
    t = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    a = t @ j @ np.linalg.inv(t)
    assert m_max(a) == 3

    # two equal 2x2 Jordan blocks: degree 2
    j2 = np.array([[2.0, 1.0, 0, 0], [0, 2.0, 0, 0], [0, 0, 2.0, 1.0], [0, 0, 0, 2.0]])
    a2 = t @ j2 @ np.linalg.inv(t)
    assert m_max(a2) == 2


def test_bicommutant_contains_identity_and_generator():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n))
        space = bicommutant_basis(a)
        assert in_span(np.eye(n), space)
        assert in_span(a, space)
        assert in_span(a @ a, space)


def test_membership_coordinates_in_explicit_basis():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    space = SubspaceBasis(2, (np.eye(2), a))
    result = membership(3 * np.eye(2) - 2 * a, space)
    assert result.is_member
    np.testing.assert_allclose(result.coords, [3.0, -2.0], atol=1e-12)
    assert result.residual < 1e-12


def test_membership_rejects_outside_matrix():
    space = SubspaceBasis(2, (np.eye(2),))
    bad = np.array([[1.0, 5.0], [0.0, 1.0]])
    result = membership(bad, space)
    assert not result.is_member
    assert result.coords is None
    assert result.residual == pytest.approx(5.0, rel=1e-12)  # ||5 E12||, the off-span part


def test_membership_zero_dimensional_space():
    empty = SubspaceBasis(2, ())
    assert membership(np.zeros((2, 2)), empty).is_member
    assert not membership(np.eye(2), empty).is_member


def test_subspace_basis_validates_shapes():
    with pytest.raises(ValueError):
        SubspaceBasis(2, (np.zeros((3, 3)),))
    with pytest.raises(ValueError):  # ragged
        SubspaceBasis(2, (np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):  # a vector, not a matrix
        SubspaceBasis(2, (np.ones(4),))
    with pytest.raises(ValueError):
        SubspaceBasis(2, (np.eye(2), np.full((2, 2), np.nan)))
    assert SubspaceBasis(2, ()).dim == 0
    space = SubspaceBasis(2, [[[1, 0], [0, 1]]])
    assert space.basis[0].dtype == float and space.basis[0].shape == (2, 2)


def test_subspace_basis_rejects_complex_entries():
    # a cast to float would drop the imaginary parts: 1j I would become the
    # zero matrix, and membership and c1_diagnostic would run on that
    with pytest.raises(ValueError, match="must be real"):
        SubspaceBasis(2, (1j * np.eye(2),))
    with pytest.raises(ValueError, match="must be real"):
        SubspaceBasis(2, (np.eye(2), np.eye(2) + 0j))


def stacked_bicommutant(a):
    """{A}'' by its definition: the joint nullspace of X -> X K - K X over a
    commutant basis, as orthonormal vec columns.  Reference only: the
    stacked operator has (dim {A}') n^2 rows."""
    n = a.shape[0]
    eye = np.eye(n)
    ops = [np.kron(eye, k) - np.kron(k.T, eye) for k in commutant_basis(a).basis]
    _, null, _ = rank_nullspace_pinv(np.vstack(ops))
    return null


def direct_sum(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def jordan(lam, size):
    return lam * np.eye(size) + np.eye(size, k=1)


def similar(d, seed):
    rng = np.random.default_rng(seed)
    n = d.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q @ np.diag(rng.uniform(1.0, 2.0, n))
    return t @ d @ np.linalg.inv(t)


ROTATION = np.array([[1.0, -2.0], [2.0, 1.0]])  # eigenvalues 1 +- 2i

DOUBLE_COMMUTANT_CASES = [
    ("jordan-3-2", similar(direct_sum(jordan(1.0, 3), jordan(2.0, 2)), 0), 5),
    ("jordan-6", similar(jordan(0.7, 6), 1), 6),
    ("derogatory", similar(direct_sum(jordan(1.0, 2), np.diag([1.0, 3.0])), 2), 3),
    ("clustered-3x2", similar(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), 3), 3),
    ("clustered-2x3", similar(np.diag([0.5, 0.5, 0.5, 2.0, 2.0, 2.0]), 4), 2),
    ("complex-pair", similar(direct_sum(ROTATION, np.array([[3.0]])), 5), 3),
    ("complex-pair-twice", similar(direct_sum(ROTATION, ROTATION), 6), 2),
    ("zero", np.zeros((4, 4)), 1),
    ("scalar", -2.5 * np.eye(5), 1),
    ("generic", np.random.default_rng(7).standard_normal((6, 6)), 6),
]


@pytest.mark.parametrize(
    "a,expected",
    [case[1:] for case in DOUBLE_COMMUTANT_CASES],
    ids=[case[0] for case in DOUBLE_COMMUTANT_CASES],
)
def test_power_basis_is_the_double_commutant(a, expected):
    space = bicommutant_basis(a)
    v = space.stacked_vecs()
    n = a.shape[0]
    np.testing.assert_allclose(v.T @ v, np.eye(space.dim), atol=1e-12)
    np.testing.assert_allclose(space.basis[0], np.eye(n) / np.sqrt(n), atol=1e-15)
    null = stacked_bicommutant(a)
    assert space.dim == null.shape[1] == expected
    assert np.linalg.norm(v @ v.T - null @ null.T) <= 1e-8


def test_bicommutant_basis_memory_stays_small_at_n20():
    # The stacked commutant operator at n = 20 would be 40000 x 400 (122 MiB)
    # with a full SVD U of 11.9 GiB; the power basis holds at most n matrices.
    a = np.random.default_rng(8).standard_normal((20, 20))
    tracemalloc.start()
    try:
        space = bicommutant_basis(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 20
    assert peak < 2**20


def reference_power_basis(a, tol=DEFAULT_TOL):
    """The power-basis loop without H, one Gram-Schmidt pass against a
    freshly stacked basis per power: the reference :func:`_arnoldi` must
    match bit for bit."""
    n = a.shape[0]
    basis = [np.eye(n) / np.sqrt(n)]
    for _ in range(n - 1):
        aq = a @ basis[-1]
        q = np.array(basis).reshape(len(basis), n * n)
        w = aq.reshape(n * n)
        for _ in range(2):
            w = w - (q @ w) @ q
        norm = np.linalg.norm(w)
        if norm <= tol.rank_rel * np.linalg.norm(aq):
            break
        basis.append((w / norm).reshape(n, n))
    return np.array(basis)


ARNOLDI_CASES = {
    "distinct": similar(np.diag([0.6, 1.1, 1.7, 2.4, 3.0]), 10),
    "clustered": similar(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), 11),
    "J3(1)+J1(1)": direct_sum(jordan(1.0, 3), jordan(1.0, 1)),
    "J4(1)+J2(2)": similar(direct_sum(jordan(1.0, 4), jordan(2.0, 2)), 13),
    "complex-pair": similar(direct_sum(ROTATION, ROTATION, np.array([[3.0]])), 14),
    "scalar": -2.5 * np.eye(5),
}


@pytest.mark.parametrize("a", list(ARNOLDI_CASES.values()), ids=list(ARNOLDI_CASES))
def test_arnoldi_hessenberg_matrix_is_a_on_the_power_basis(a):
    q, h = _arnoldi(a, DEFAULT_TOL)
    d = len(q)
    assert h.shape == (d, d)
    assert not np.tril(h, -2).any()
    for k in range(d):  # the last column too, also when d = n
        gap = a @ q[k] - np.tensordot(h[:, k], q, axes=1)
        assert np.linalg.norm(gap) <= 1e-13 * np.linalg.norm(a)
    # the formula the solver used to build A_d from
    flat = q.reshape(d, -1)
    old = flat @ (a @ q).reshape(d, -1).T
    assert np.linalg.norm(h - old) <= 1e-13 * np.linalg.norm(old)
    assert np.array_equal(np.array(bicommutant_basis(a).basis), reference_power_basis(a))
    assert np.array_equal(q, reference_power_basis(a))

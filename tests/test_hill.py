import numpy as np
import pytest

from prointerp.commutant import SubspaceBasis, bicommutant_basis, membership
from prointerp.errors import NotStarLinearError
from prointerp.hill import (
    HillRepresentation,
    apply_hill,
    block_span,
    c1_diagnostic,
    choi,
    coefficient_stack,
    is_completely_positive,
    minimal_hill,
    positivity_sample_test,
)
from prointerp.lyapunov import LinearMatrixMap, lab_map
from prointerp.matrix_kit import DEFAULT_TOL, kron, vec


def identity_map(n):
    return LinearMatrixMap(n, np.eye(n * n))


def transpose_map(n):
    return LinearMatrixMap.from_function(n, lambda x: x.T)


def trace_map(n):
    return LinearMatrixMap.from_function(n, lambda x: np.trace(x) * np.eye(n))


def random_star_linear(n, m, seed):
    """L(V) = sum_kl H_kl C_k V C_l^T with random symmetric H and random C_k."""
    rng = np.random.default_rng(seed)
    cs = [rng.standard_normal((n, n)) for _ in range(m)]
    g = rng.standard_normal((m, m))
    h = g + g.T

    def fn(v):
        out = np.zeros((n, n))
        for k in range(m):
            for l in range(m):
                out += h[k, l] * cs[k] @ v @ cs[l].T
        return out

    return LinearMatrixMap.from_function(n, fn)


def choi_rank(lmap):
    s = np.linalg.svd(choi(lmap).matrix, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0


def test_choi_of_identity_map():
    cm = choi(identity_map(2))
    expected = np.outer(vec(np.eye(2)), vec(np.eye(2)))
    np.testing.assert_allclose(cm.matrix, expected, atol=1e-14)
    assert choi_rank(identity_map(2)) == 1


def test_choi_of_trace_map_is_identity():
    np.testing.assert_allclose(choi(trace_map(2)).matrix, np.eye(4), atol=1e-14)


def test_choi_blocks_are_images_of_matrix_units():
    a = np.diag([1.0, 2.0])
    b = np.diag([2.0, 3.0])
    lab = lab_map(a, b)
    cm = choi(lab).matrix
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1.0
            np.testing.assert_allclose(
                cm[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], lab.apply(e), atol=1e-12
            )
    # for this diagonal pair the nonzero entries form the embedded Pick matrix
    assert cm[0, 0] == pytest.approx(2.0)
    assert cm[0, 3] == pytest.approx(5.0 / 3.0)
    assert cm[3, 0] == pytest.approx(5.0 / 3.0)
    assert cm[3, 3] == pytest.approx(1.5)


def test_blocking_convention_rank_agreement():
    # The anti-drift oracle for the block partition: the block-span dimension
    # must equal the Choi rank, pinned first on the identity map and then on
    # random *-linear maps.
    assert block_span(identity_map(2)).dim == 1 == choi_rank(identity_map(2))
    for seed in range(3):
        lmap = random_star_linear(3, 4, seed)
        assert block_span(lmap).dim == choi_rank(lmap)


def test_block_span_of_identity_is_spanned_by_identity():
    span = block_span(identity_map(2))
    assert span.dim == 1
    np.testing.assert_allclose(abs(span.basis[0]), np.eye(2) / np.sqrt(2), atol=1e-12)


def test_block_span_of_zero_map():
    assert block_span(LinearMatrixMap(2, np.zeros((4, 4)))).dim == 0


def test_block_span_of_diagonal_pair():
    lab = lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    span = block_span(lab)
    assert span.dim == 2
    assert membership(np.diag([1.0, 0.0]), span).is_member
    assert membership(np.diag([0.0, 1.0]), span).is_member


def test_block_span_lies_in_bicommutant_of_transposed_base():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[2.0, 1.0], [0.0, 2.0]])
    span = block_span(lab_map(a, b))
    target = bicommutant_basis(a.T)
    for x in span.basis:
        assert membership(x, target).is_member


def test_minimal_hill_identity_map():
    rep = minimal_hill(identity_map(2))
    assert rep.m == 1
    np.testing.assert_allclose(abs(rep.coefficients[0]), np.eye(2) / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(rep.hill_matrix, [[2.0]], atol=1e-12)


def test_minimal_hill_diagonal_pair_is_congruent_to_pick_matrix():
    lab = lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    rep = minimal_hill(lab)
    assert rep.m == 2
    # coefficients are diagonal; with C_k = sum_i G_ik E_ii the Hill matrix
    # transforms as G H G^T back to the entrywise Pick matrix of the pair
    g = np.column_stack([np.diag(c) for c in rep.coefficients])
    pick = np.array([[2.0, 5.0 / 3.0], [5.0 / 3.0, 1.5]])
    np.testing.assert_allclose(g @ rep.hill_matrix @ g.T, pick, atol=1e-10)
    w = np.linalg.eigvalsh(rep.hill_matrix)
    assert (w > 0).all()  # inertia (2, 0, 0), matching the Pick matrix


def test_minimal_hill_reconstructs_on_corpus():
    maps = [
        identity_map(2),
        identity_map(3),
        transpose_map(2),
        trace_map(3),
        lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0])),
        lab_map(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 1.0], [0.0, 2.0]])),
        random_star_linear(2, 3, 0),
        random_star_linear(3, 5, 1),
    ]
    rng = np.random.default_rng(9)
    for lmap in maps:
        rep = minimal_hill(lmap)
        np.testing.assert_allclose(rep.hill_matrix, rep.hill_matrix.T, atol=1e-10)
        for _ in range(5):
            v = rng.standard_normal((lmap.n, lmap.n))
            np.testing.assert_allclose(apply_hill(rep, v), lmap.apply(v), atol=1e-9)


def test_hill_matrix_against_stacked_coefficient_form():
    # the two evaluation routes must agree: sum_kl H_kl C_k V C_l^T versus
    # stack^T (H kron V) stack
    lmap = random_star_linear(3, 4, 5)
    rep = minimal_hill(lmap)
    stack = coefficient_stack(rep.coefficients)
    rng = np.random.default_rng(10)
    for _ in range(5):
        v = rng.standard_normal((3, 3))
        via_stack = stack.T @ kron(rep.hill_matrix, v) @ stack
        np.testing.assert_allclose(via_stack, lmap.apply(v), atol=1e-9)


@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_apply_hill_matches_double_sum(m):
    rng = np.random.default_rng(12 + m)
    n = 3
    cs = tuple(rng.standard_normal((n, n)) for _ in range(m))
    g = rng.standard_normal((m, m))
    h = g + g.T
    v = rng.standard_normal((n, n))
    reference = np.zeros((n, n))
    for k in range(m):
        for l in range(m):
            reference += h[k, l] * (cs[k] @ v @ cs[l].T)
    out = apply_hill(HillRepresentation(n, m, cs, h), v)
    assert out.shape == (n, n)
    np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12)


def test_minimal_hill_transpose_map_indefinite():
    rep = minimal_hill(transpose_map(2))
    assert rep.m == 4
    w = np.linalg.eigvalsh(rep.hill_matrix)
    assert np.sum(w > 0) == 3 and np.sum(w < 0) == 1  # same inertia as the swap matrix


def test_minimal_hill_conjugation_map():
    d = np.diag([1.0, 2.0])
    lmap = LinearMatrixMap.from_function(2, lambda x: d @ x @ d.T)
    rep = minimal_hill(lmap)
    assert rep.m == 1
    np.testing.assert_allclose(abs(rep.coefficients[0]), d / np.linalg.norm(d), atol=1e-12)
    np.testing.assert_allclose(rep.hill_matrix, [[np.linalg.norm(d) ** 2]], atol=1e-10)


def test_minimal_hill_rejects_non_star_linear():
    # X -> N X with N not symmetric: Choi blocks are N E_ij, not symmetric
    n_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    lmap = LinearMatrixMap.from_function(2, lambda x: n_mat @ x)
    with pytest.raises(NotStarLinearError):
        minimal_hill(lmap)


@pytest.mark.parametrize("factory,expected", [
    (lambda: identity_map(2), True),
    (lambda: trace_map(2), True),
    (lambda: lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0])), True),
    (lambda: lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 1.0])), True),   # PSD rank 1
    (lambda: lab_map(np.diag([1.0, 2.0]), np.diag([1.0, 3.0])), False),  # indefinite
    (lambda: transpose_map(2), False),
    (lambda: LinearMatrixMap.from_function(2, lambda x: x + x.T), False),
])
def test_is_completely_positive(factory, expected):
    assert is_completely_positive(factory()) is expected


def test_cp_verdict_matches_hill_matrix_definiteness():
    # dual route: Choi PSD versus minimal Hill matrix PSD
    for factory in (
        lambda: identity_map(3),
        lambda: transpose_map(2),
        lambda: lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0])),
        lambda: lab_map(np.diag([1.0, 2.0]), np.diag([1.0, 3.0])),
        lambda: random_star_linear(2, 2, 3),
    ):
        lmap = factory()
        rep = minimal_hill(lmap)
        w = np.linalg.eigvalsh(rep.hill_matrix) if rep.m else np.zeros(0)
        h_psd = bool(w.size == 0 or w[0] >= -1e-9 * (abs(w).max() + 1))
        assert is_completely_positive(lmap) == h_psd


def test_positivity_sampling_clean_on_cp_maps():
    for lmap in (identity_map(2), trace_map(2),
                 lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))):
        for seed in (0, 1):
            assert not positivity_sample_test(lmap, trials=500, seed=seed).violated


def test_positivity_sampling_finds_entrywise_violation():
    lab = lab_map(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
    result = positivity_sample_test(lab, trials=1000, seed=0)
    assert result.violated
    # confirm the witness through the map itself, not the Choi matrix
    z, x = result.z, result.x
    val = x @ lab.apply(np.outer(z, z)) @ x
    assert val == pytest.approx(result.value, rel=1e-9)
    assert val < 0
    # the sign-pattern probes catch this one deterministically
    assert result.trials <= 4 + 4


def test_positivity_sampling_is_one_sided_on_transpose_map():
    # x^T (z z^T)^T x = (z . x)^2 >= 0, so sampling stays clean even though
    # the transpose map is not completely positive
    result = positivity_sample_test(transpose_map(2), trials=2000, seed=0)
    assert not result.violated
    assert not is_completely_positive(transpose_map(2))


def upper_toeplitz_span():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    return SubspaceBasis(2, (np.eye(2), e12))


def test_c1_witness_for_upper_toeplitz():
    result = c1_diagnostic(upper_toeplitz_span(), trials=100, seed=0)
    assert result.found
    np.testing.assert_array_equal(result.witness, [0.0, 1.0])  # e2 works, e1 does not


def test_c1_witness_for_diagonal_span():
    space = SubspaceBasis(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    result = c1_diagnostic(space, trials=100, seed=0)
    assert result.found
    np.testing.assert_array_equal(result.witness, [1.0, 1.0])
    # and the witness genuinely certifies independence
    m = np.column_stack([x @ result.witness for x in space.basis])
    assert np.linalg.matrix_rank(m) == 2


def test_c1_inconclusive_when_no_witness_exists():
    # {E11 v, E12 v} = {v1 e1, v2 e1} can never be independent
    e11 = np.diag([1.0, 0.0])
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    result = c1_diagnostic(SubspaceBasis(2, (e11, e12)), trials=500, seed=0)
    assert not result.found
    assert result.trials == 500


def test_c1_inconclusive_when_dimension_exceeds_n():
    span = block_span(transpose_map(2))
    assert span.dim == 4
    result = c1_diagnostic(span, trials=100, seed=0)
    assert not result.found and result.trials == 0


def test_c1_witness_for_bicommutant_spans():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n))
        assert c1_diagnostic(bicommutant_basis(a), trials=100, seed=0).found


def choi_block_loop(lmap):
    """Assemble the Choi matrix block by block: block (i, j) is L(E_ij)."""
    n = lmap.n
    out = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            block = lmap.matricization[:, j * n + i].reshape(n, n, order="F")
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_choi_matches_block_loop(n):
    rng = np.random.default_rng(n)
    lmap = LinearMatrixMap(n, rng.standard_normal((n * n, n * n)))
    np.testing.assert_array_equal(choi(lmap).matrix, choi_block_loop(lmap))


def reference_positivity_test(lmap, trials, seed):
    """The per-probe loop: coordinate pairs, sign-pattern pairs, then random
    unit vectors from the (seed, t) streams.  Returns (trials, z, x, value)."""
    n = lmap.n
    cm = choi_block_loop(lmap)
    threshold = -DEFAULT_TOL.psd_rel * (1.0 + np.linalg.norm(cm))
    eye = np.eye(n)
    patterns = []
    for bits in range(2 ** (n - 1)):
        v = np.ones(n)
        for k in range(n - 1):
            if bits >> k & 1:
                v[k + 1] = -1.0
        patterns.append(v)
    probes = [(eye[i], eye[j]) for i in range(n) for j in range(n)]
    probes += [(zs, xs) for zs in patterns for xs in patterns]
    for t in range(trials):
        if t < len(probes):
            z, x = probes[t]
        else:
            rng = np.random.default_rng([seed, t])
            z = rng.standard_normal(n)
            x = rng.standard_normal(n)
            z /= np.linalg.norm(z)
            x /= np.linalg.norm(x)
        w = np.kron(z, x)
        q = float(w @ cm @ w)
        if q < threshold:
            return t + 1, z, x, q
    return trials, None, None, None


def map_from_choi(cm, n):
    """The map whose Choi matrix is ``cm`` (the rearrangement is an involution)."""
    return LinearMatrixMap(n, cm.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n))


def rank_one_dent(c):
    """Choi matrix I - c w w^T with w = z0 kron x0 for unit z0, x0 off every
    structured probe: slightly past c = 1 only probes close to (z0, x0) see a
    negative value, so the structured probes pass and a random probe fails."""
    z0 = np.array([np.cos(0.3), np.sin(0.3)])
    x0 = np.array([np.cos(1.1), np.sin(1.1)])
    w = np.kron(z0, x0)
    return map_from_choi(np.eye(4) - c * np.outer(w, w), 2)


def third_coordinate_dent():
    """A 4 x 4 map whose only negative probe is the third, (e_0, e_2)."""
    return map_from_choi(np.diag(np.where(np.arange(16) == 2, -1.0, 1.0)), 4)


# The first violation lies among the structured probes (8 of them at n = 2,
# 16 + 64 at n = 4) or among the random ones, across several chunks.
@pytest.mark.parametrize("lmap,trials,seed,count", [
    (lab_map(np.diag([1.0, 2.0]), np.diag([1.0, 3.0])), 1000, 0, 6),
    (rank_one_dent(1.2), 1000, 0, 13),
    (rank_one_dent(1.02), 1000, 0, 103),
    (rank_one_dent(1.2), 1, 0, 1),
    (third_coordinate_dent(), 3, 0, 3),
    (third_coordinate_dent(), 2, 0, 2),
    (transpose_map(2), 2000, 1, 2000),
])
def test_positivity_matches_per_probe_loop(lmap, trials, seed, count):
    ref_count, z, x, value = reference_positivity_test(lmap, trials, seed)
    assert ref_count == count
    result = positivity_sample_test(lmap, trials=trials, seed=seed)
    assert result.trials == count
    assert result.violated == (z is not None)
    if z is not None:
        np.testing.assert_array_equal(result.z, z)
        np.testing.assert_array_equal(result.x, x)
        norm = np.linalg.norm(choi(lmap).matrix)
        assert abs(result.value - value) <= 1e-12 * (1.0 + norm)
        assert result.z.base is None and result.x.base is None


def feasible_lab_map(spectrum, seed):
    """L_{A,B} for A = T diag(spectrum) T^{-1} and B = f(A) with f positive
    real odd of state dimension 2."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    t = rng.standard_normal((n, n)) + 2 * np.eye(n)
    lam = np.asarray(spectrum, dtype=float)
    f_lam = lam / (lam**2 + 0.8**2) + 0.6 * lam / (lam**2 + 2.2**2)
    t_inv = np.linalg.inv(t)
    return lab_map(t @ np.diag(lam) @ t_inv, t @ np.diag(f_lam) @ t_inv)


HILL_CORPUS = [
    pytest.param(lambda: identity_map(2), id="identity-2"),
    pytest.param(lambda: identity_map(3), id="identity-3"),
    pytest.param(lambda: transpose_map(2), id="transpose-2"),
    pytest.param(lambda: trace_map(3), id="trace-3"),
    pytest.param(lambda: lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0])), id="diagonal-pair"),
    pytest.param(lambda: lab_map(np.diag([1.0, 2.0]), np.diag([1.0, 3.0])), id="indefinite-pair"),
    pytest.param(
        lambda: lab_map(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 1.0], [0.0, 2.0]])),
        id="jordan-pair",
    ),
    pytest.param(lambda: random_star_linear(2, 3, 0), id="random-2-3"),
    pytest.param(lambda: random_star_linear(3, 5, 1), id="random-3-5"),
    pytest.param(lambda: random_star_linear(3, 4, 5), id="random-3-4"),
    pytest.param(lambda: feasible_lab_map([0.6, 1.1, 1.7, 2.4], 2), id="distinct-4"),
    pytest.param(lambda: feasible_lab_map([0.7, 0.7, 0.7, 1.9, 1.9, 1.9], 3), id="clustered-6"),
    pytest.param(lambda: LinearMatrixMap(2, np.zeros((4, 4))), id="zero"),
]


def reference_hill(lmap, tol=DEFAULT_TOL):
    """The route through the block loop: an orthonormal basis of the span of
    the vectorized n x n blocks of the matricization from their SVD, then
    the Choi matrix compressed onto it with pseudoinverses.  Returns the
    n^2 x m basis and the Hill matrix."""
    n = lmap.n
    mat = lmap.matricization
    cols = np.column_stack([
        vec(mat[i * n : (i + 1) * n, j * n : (j + 1) * n]) for i in range(n) for j in range(n)
    ])
    u, s, _ = np.linalg.svd(cols)
    rank = int(np.sum(s > tol.rank_rel * s[0]))
    basis = u[:, :rank]
    pinv = np.linalg.pinv(basis)
    hill_t = pinv @ choi(lmap).matrix @ pinv.T
    return basis, 0.5 * (hill_t + hill_t.T)


def projector(vecs):
    return vecs @ vecs.T


@pytest.mark.parametrize("factory", HILL_CORPUS)
def test_minimal_hill_matches_block_loop_route(factory):
    lmap = factory()
    basis, hill = reference_hill(lmap)
    rep = minimal_hill(lmap)
    assert rep.m == basis.shape[1]
    h = rep.hill_matrix
    np.testing.assert_array_equal(h, np.diag(np.diag(h)))
    w_ref = np.linalg.eigvalsh(hill) if rep.m else np.zeros(0)
    scale = 1.0 + (np.abs(w_ref).max() if rep.m else 0.0)
    np.testing.assert_allclose(np.sort(np.diag(h)), w_ref, rtol=0, atol=1e-10 * scale)
    stacked = SubspaceBasis(lmap.n, rep.coefficients).stacked_vecs()
    np.testing.assert_allclose(projector(stacked), projector(basis), rtol=0, atol=1e-8)
    span = block_span(lmap)
    assert span.dim == basis.shape[1]
    np.testing.assert_allclose(projector(span.stacked_vecs()), projector(basis), rtol=0, atol=1e-8)


def test_minimal_hill_makes_one_eigendecomposition(monkeypatch):
    lmap = feasible_lab_map([0.7, 0.7, 0.7, 1.9, 1.9, 1.9], 3)
    calls = {"svd": 0, "pinv": 0, "eigh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    rep = minimal_hill(lmap)
    assert rep.m == 2
    assert calls == {"svd": 0, "pinv": 0, "eigh": 1}

import tracemalloc

import numpy as np
import pytest

from prointerp.errors import NotLyapunovRegularError
from prointerp.lyapunov import (
    LinearMatrixMap,
    is_lyapunov_regular,
    lab_map,
    lyap_map,
    lyap_order_sample_test,
    sample_lyapunov_solution,
    solve_lyapunov,
)
from prointerp.matrix_kit import DEFAULT_TOL, psd_scale, unvec, vec


def test_lyap_map_matches_direct_formula():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        y = rng.standard_normal((n, n))
        lm = lyap_map(y)
        for _ in range(3):
            x = rng.standard_normal((n, n))
            np.testing.assert_allclose(lm.apply(x), x @ y + y.T @ x, atol=1e-12)


def test_lyap_map_diagonal_matricization():
    # For A = diag(a), (L_A X)_ij = (a_i + a_j) x_ij, so the matricization is
    # diagonal with weights a_i + a_j in column-stacked order.
    lm = lyap_map(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(lm.matricization, np.diag([2.0, 3.0, 3.0, 4.0]), atol=1e-14)


def test_from_function_agrees_with_matricization():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((3, 3))
    direct = lyap_map(y)
    rebuilt = LinearMatrixMap.from_function(3, lambda x: x @ y + y.T @ x)
    np.testing.assert_allclose(rebuilt.matricization, direct.matricization, atol=1e-12)


def test_linear_matrix_map_validates_shapes():
    with pytest.raises(ValueError):
        LinearMatrixMap(2, np.zeros((3, 4)))
    lm = lyap_map(np.eye(2))
    with pytest.raises(ValueError):
        lm.apply(np.zeros((3, 3)))


@pytest.mark.parametrize("a,expected", [
    (np.diag([1.0, 2.0]), True),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), True),        # repeated eigenvalue 1, sums 2
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), False),      # eigenvalues +-i sum to 0
    (np.diag([1.0, -1.0]), False),                     # 1 + (-1) = 0
    (np.zeros((2, 2)), False),
    (np.array([[1.0, 2.0], [-2.0, 1.0]]), True),       # 1 +- 2i, all sums nonzero
])
def test_is_lyapunov_regular(a, expected):
    assert is_lyapunov_regular(a) is expected


def test_regularity_matches_lyap_map_invertibility():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((3, 3)) for _ in range(5)]
    mats += [np.diag([1.0, -1.0, 2.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])]
    for a in mats:
        s = np.linalg.svd(lyap_map(a).matricization, compute_uv=False)
        invertible = s[-1] > 1e-9 * s[0]
        assert is_lyapunov_regular(a) == invertible


def test_lab_map_diagonal_oracle():
    # entrywise weights (b_i + b_j) / (a_i + a_j): (2, 5/3, 5/3, 3/2)
    lm = lab_map(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    np.testing.assert_allclose(
        lm.matricization, np.diag([2.0, 5.0 / 3.0, 5.0 / 3.0, 1.5]), atol=1e-12
    )


def test_lab_map_scalar():
    lm = lab_map(np.array([[2.0]]), np.array([[3.0]]))
    np.testing.assert_allclose(lm.matricization, [[1.5]], atol=1e-14)


def test_lab_map_composition_property():
    # L_{A,B}(L_A(X)) = L_B(X) on a nondiagonalizable base point
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[2.0, 1.0], [0.0, 2.0]])
    lab = lab_map(a, b)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            lab.apply(x @ a + a.T @ x), x @ b + b.T @ x, atol=1e-12
        )


def test_lab_maps_commute_for_shared_diagonal_base():
    a = np.diag([1.0, 2.0, 4.0])
    b = np.diag([2.0, 3.0, 1.0])
    c = np.diag([5.0, 1.0, 2.0])
    mb = lab_map(a, b).matricization
    mc = lab_map(a, c).matricization
    np.testing.assert_allclose(mb @ mc, mc @ mb, atol=1e-12)


def test_lab_map_requires_regularity():
    with pytest.raises(NotLyapunovRegularError):
        lab_map(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))


def test_solve_lyapunov_diagonal_oracle():
    # h_ij = q_ij / (a_i + a_j); for Q = I that is diag(1/2, 1/4)
    h = solve_lyapunov(np.diag([1.0, 2.0]), np.eye(2))
    np.testing.assert_allclose(h, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_lyapunov_random_residual():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    q = rng.standard_normal((4, 4))
    q = q + q.T
    h = solve_lyapunov(a, q)
    np.testing.assert_allclose(h @ a + a.T @ h, q, atol=1e-10)
    np.testing.assert_allclose(h, h.T, atol=1e-12)


def test_solve_lyapunov_symmetrises_a_non_symmetric_q():
    # H A + A^T H = Q has sym(H) as the solution for sym(Q), so both calls
    # return the same H.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    q = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(solve_lyapunov(a, q), solve_lyapunov(a, 0.5 * (q + q.T)))


def test_solve_lyapunov_rejects_a_right_hand_side_of_another_shape():
    for q in (np.eye(3), np.ones((1, 4)), np.eye(1)):
        with pytest.raises(ValueError):
            solve_lyapunov(np.diag([1.0, 2.0]), q)


# J_3(1) + [2] under a random similarity: defective, but Lyapunov regular.
_JORDAN = np.diag([1.0, 1.0, 1.0, 2.0]) + np.diag([1.0, 1.0, 0.0], 1)
_T = np.random.default_rng(3).standard_normal((4, 4))
JORDAN_A = _T @ _JORDAN @ np.linalg.inv(_T)
JORDAN_B = JORDAN_A + 0.03 * _T @ np.diag([0.0, 0.0, 0.0, 1.0]) @ np.linalg.inv(_T)


def test_solve_lyapunov_on_defective_base_point():
    assert is_lyapunov_regular(JORDAN_A)
    rng = np.random.default_rng(6)
    q = rng.standard_normal((4, 4))
    q = q + q.T
    h = solve_lyapunov(JORDAN_A, q)
    assert np.array_equal(h, h.T)
    assert np.linalg.norm(h @ JORDAN_A + JORDAN_A.T @ h - q) <= 1e-10
    # the full n^2 x n^2 system gives the same H
    full = unvec(np.linalg.solve(lyap_map(JORDAN_A).matricization, vec(q)), 4, 4)
    assert np.linalg.norm(h - full) <= 1e-12 * np.linalg.norm(full)


def test_sample_lyapunov_solution_lands_in_cone():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    for seed in range(5):
        h = sample_lyapunov_solution(a, seed)
        k = h @ a + a.T @ h
        w = np.linalg.eigvalsh(0.5 * (k + k.T))
        assert w[0] >= -DEFAULT_TOL.psd_rel * psd_scale(k)
    # same seed, same draw
    np.testing.assert_array_equal(
        sample_lyapunov_solution(a, 11), sample_lyapunov_solution(a, 11)
    )


def test_order_test_accepts_comparable_pair():
    result = lyap_order_sample_test(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]), trials=1000, seed=0)
    assert not result.violated
    assert result.witness is None and result.trial_index is None


def test_order_test_reflexive():
    a = np.diag([1.0, 2.0])
    assert not lyap_order_sample_test(a, a, trials=200, seed=0).violated


def test_order_test_finds_violation():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 3.0])
    result = lyap_order_sample_test(a, b, trials=1000, seed=0)
    assert result.violated
    h = result.witness
    # the witness is genuinely in the constraint cone of A but not of B
    ka = h @ a + a.T @ h
    kb = h @ b + b.T @ h
    assert np.linalg.eigvalsh(0.5 * (ka + ka.T))[0] >= -DEFAULT_TOL.psd_rel * psd_scale(ka)
    assert np.linalg.eigvalsh(0.5 * (kb + kb.T))[0] < -DEFAULT_TOL.psd_rel * psd_scale(kb)


def test_order_test_verdict_independent_of_threads():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 3.0])
    seq = lyap_order_sample_test(a, b, trials=400, seed=7, threads=1)
    par = lyap_order_sample_test(a, b, trials=400, seed=7, threads=4)
    assert seq.violated == par.violated
    assert seq.trial_index == par.trial_index
    np.testing.assert_array_equal(seq.witness, par.witness)


def test_order_test_requires_regular_base():
    with pytest.raises(NotLyapunovRegularError):
        lyap_order_sample_test(np.diag([1.0, -1.0]), np.eye(2), trials=10)


def reference_order_test(a, b, trials, seed):
    """The per-trial loop: one sample_lyapunov_solution and one check each."""
    for t in range(trials):
        h = sample_lyapunov_solution(a, [seed, t])
        k = h @ b + b.T @ h
        k = 0.5 * (k + k.T)
        if np.linalg.eigvalsh(k)[0] < -DEFAULT_TOL.psd_rel * psd_scale(k):
            return t, h
    return None, None


NONNORMAL_A = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 0.3], [0.2, 0.0, 3.0]])
NEAR_B = NONNORMAL_A + 0.03 * np.diag([0.0, 0.0, 1.0])


# Seeds chosen so the first violation falls at the given trial: inside the
# first chunks of 1, 2 and 4 trials, on their boundaries, and past 60.
@pytest.mark.parametrize("seed,first", [(37, 0), (38, 1), (34, 2), (17, 3), (21, 6), (3, 66)])
def test_order_test_matches_per_trial_loop(seed, first):
    index, h_ref = reference_order_test(NONNORMAL_A, NEAR_B, 200, seed)
    assert index == first
    result = lyap_order_sample_test(NONNORMAL_A, NEAR_B, trials=200, seed=seed)
    assert result.violated and result.trial_index == first and result.trials == 200
    assert np.linalg.norm(result.witness - h_ref) <= 1e-12 * np.linalg.norm(h_ref)
    assert result.witness.base is None


def test_order_test_clear_run_matches_per_trial_loop():
    a = np.diag([1.0, 2.0])
    b = np.diag([2.0, 3.0])
    assert reference_order_test(a, b, 300, 5) == (None, None)
    result = lyap_order_sample_test(a, b, trials=300, seed=5)
    assert not result.violated and result.witness is None and result.trials == 300


def test_order_test_single_trial():
    index, _ = reference_order_test(NONNORMAL_A, NEAR_B, 1, 37)
    assert index == 0
    assert lyap_order_sample_test(NONNORMAL_A, NEAR_B, trials=1, seed=37).trial_index == 0
    assert not lyap_order_sample_test(NONNORMAL_A, NEAR_B, trials=1, seed=38).violated


def test_order_test_factors_l_a_once_per_chunk(monkeypatch):
    # Trials are solved in chunks of 1, 2, 4, ...; a per-trial solve would
    # make 100 calls here.
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = q @ np.diag(np.linspace(1.0, 3.0, 8)) @ q.T
    result = lyap_order_sample_test(a, 2.0 * a, trials=100, seed=0)
    assert not result.violated
    assert 0 < len(calls) <= int(np.ceil(np.log2(101))) + 1


@pytest.mark.parametrize("seed,first", [(0, 2), (3, 23)])
def test_order_test_on_defective_base_point_matches_per_trial_loop(seed, first):
    index, h_ref = reference_order_test(JORDAN_A, JORDAN_B, 200, seed)
    assert index == first
    result = lyap_order_sample_test(JORDAN_A, JORDAN_B, trials=200, seed=seed)
    assert result.violated and result.trial_index == first
    assert np.linalg.norm(result.witness - h_ref) <= 1e-12 * np.linalg.norm(h_ref)


def test_order_test_memory_stays_below_the_full_l_a(monkeypatch):
    # The n^2 x n^2 L_A alone is 1.22 MiB at n = 20; the p x p system on
    # symmetric H, p = 210, is 0.34 MiB.
    def forbidden(*args, **kwargs):
        raise AssertionError("lyap_map called")

    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = q @ np.diag(np.linspace(1.0, 3.0, 20)) @ q.T
    lyap_order_sample_test(a, 2.0 * a, trials=100, seed=0)
    monkeypatch.setattr("prointerp.lyapunov.lyap_map", forbidden)
    tracemalloc.start()
    try:
        result = lyap_order_sample_test(a, 2.0 * a, trials=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.violated
    assert peak < 2 * 2**20

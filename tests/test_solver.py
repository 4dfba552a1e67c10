import json

import numpy as np
import pytest

from prointerp.errors import (
    NotInBicommutantError,
    NotLyapunovRegularError,
    NotPositiveDefiniteError,
    NotStarLinearError,
    RankMismatchError,
    ResidualTooLargeError,
)
from prointerp.hill import coefficient_stack
from prointerp.matrix_kit import kron
from prointerp.pro import eval_matrix
from prointerp.solver import (
    PencilPair,
    build_pencils,
    extract_realization,
    hill_pick,
    perturb_free_block,
    range_structure,
    solve,
    solve_skew,
    standard_collection,
)

A_DIAG = np.diag([1.0, 2.0])
B_FEASIBLE = np.diag([2.0, 3.0])
A_JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
B_JORDAN = np.array([[2.0, 1.0], [0.0, 2.0]])


def pencils_for(a, b, collection=None):
    h, c, m, _ = hill_pick(a, b)
    if collection is None:
        collection = standard_collection(a.shape[0])
    return h, c, build_pencils(a, b, h, c, collection)


def test_standard_collection_is_matrix_units():
    coll = standard_collection(2)
    assert len(coll) == 4
    total = sum(coll)
    np.testing.assert_array_equal(total, np.ones((2, 2)))
    for e in coll:
        assert e.sum() == 1.0 and e.max() == 1.0


def test_hill_pick_diagonal_pair():
    h, c, m, mm = hill_pick(A_DIAG, B_FEASIBLE)
    assert (m, mm) == (2, 2)
    assert len(c) == 2
    assert h.shape == (2, 2)
    w = np.linalg.eigvalsh(h)
    assert (w > 0).all()


def test_hill_pick_preconditions():
    with pytest.raises(NotLyapunovRegularError):
        hill_pick(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
    with pytest.raises(NotInBicommutantError):
        hill_pick(A_DIAG, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_scalar_pencil_chain():
    # worked n = 1 example: A = [2], B = [3] gives H = [3/2], C_1 = [c] with
    # |c| = 1, P = [sqrt(3/2)], and for R = I the pencils
    # L = (1, c sqrt(3/2)), M = (3, -2 c sqrt(3/2)); the skew solve then
    # yields S = [[0, s], [-s, 0]] with |s| = sqrt(6) and residual 0.
    a = np.array([[2.0]])
    b = np.array([[3.0]])
    h, c, pencils = pencils_for(a, b)
    np.testing.assert_allclose(h, [[1.5]], atol=1e-12)
    assert abs(abs(c[0][0, 0]) - 1.0) < 1e-12
    (l_i,) = [l for l, r in zip(pencils.l_pencils, pencils.collection) if r[0, 0] == 1.0]
    (m_i,) = [m for m, r in zip(pencils.m_pencils, pencils.collection) if r[0, 0] == 1.0]
    assert l_i[0, 0] == pytest.approx(1.0)
    assert abs(l_i[1, 0]) == pytest.approx(np.sqrt(1.5))
    assert m_i[0, 0] == pytest.approx(3.0)
    # second block of M is -2 times the second block of L, whatever the sign
    assert m_i[1, 0] == pytest.approx(-2.0 * l_i[1, 0])

    s, residual = solve_skew(pencils)
    assert residual < 1e-12
    assert abs(s[0, 1]) == pytest.approx(np.sqrt(6.0))
    np.testing.assert_allclose(s, -s.T, atol=0)

    f = extract_realization(s)
    assert f.m == 1
    np.testing.assert_allclose(f.state_matrix, [[0.0]], atol=1e-12)
    assert eval_matrix(f, a)[0, 0] == pytest.approx(3.0)


def test_build_pencils_requires_positive_definite_hill_matrix():
    h, c, m, _ = hill_pick(A_DIAG, np.diag([1.0, 3.0]))  # indefinite Pick data
    with pytest.raises(NotPositiveDefiniteError):
        build_pencils(A_DIAG, np.diag([1.0, 3.0]), h, c, standard_collection(2))


@pytest.mark.parametrize("a,b", [(A_DIAG, B_FEASIBLE), (A_JORDAN, B_JORDAN)])
def test_lyapunov_interchange_identity(a, b):
    # B^T X - stack^T (H kron A^T X) stack = stack^T (H kron X A) stack - X B,
    # the identity that pins down both the stack layout and H's orientation
    h, c, m, _ = hill_pick(a, b)
    stack = coefficient_stack(c)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(a.shape)
        lhs = b.T @ x - stack.T @ kron(h, a.T @ x) @ stack
        rhs = stack.T @ kron(h, x @ a) @ stack - x @ b
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("a,b", [(A_DIAG, B_FEASIBLE), (A_JORDAN, B_JORDAN)])
def test_skew_interchange_identity(a, b):
    # M_{R'}^T L_R = -L_{R'}^T M_R for any probes R, R'
    rng = np.random.default_rng(1)
    probes = [rng.standard_normal(a.shape) for _ in range(6)]
    h, c, pencils = pencils_for(a, b, collection=probes)
    for i in range(len(probes)):
        for j in range(len(probes)):
            lhs = pencils.m_pencils[i].T @ pencils.l_pencils[j]
            rhs = -pencils.l_pencils[i].T @ pencils.m_pencils[j]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_pencil_range_has_tensor_structure():
    for a, b in ((A_DIAG, B_FEASIBLE), (A_JORDAN, B_JORDAN)):
        _, _, pencils = pencils_for(a, b)
        structure = range_structure(pencils)
        n = pencils.n
        assert structure.dim_range % n == 0
        assert structure.kron_defect < 1e-9
        u = structure.u_tilde
        assert structure.dim_range == n * u.shape[1]
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)


def test_kernel_of_stacked_pencils_annihilates_targets():
    # in the full-rank case every nullspace direction of the stacked L is
    # also a nullspace direction of the stacked M
    rng = np.random.default_rng(2)
    h, c, _ = pencils_for(A_DIAG, B_FEASIBLE)
    for trial in range(20):
        probes = [rng.standard_normal((2, 2)) for _ in range(rng.integers(1, 5))]
        pencils = build_pencils(A_DIAG, B_FEASIBLE, h, c, probes)
        ls, ms = pencils.stacked_l(), pencils.stacked_m()
        _, sv, vt = np.linalg.svd(ls)
        null = vt[np.sum(sv > 1e-9 * sv[0]):].T
        if null.shape[1]:
            assert np.linalg.norm(ms @ null) <= 1e-8 * (1.0 + np.linalg.norm(ms))


def test_solve_skew_residual_gate():
    h, c, pencils = pencils_for(A_DIAG, B_FEASIBLE)
    bad = PencilPair(
        pencils.n,
        pencils.m,
        pencils.collection,
        pencils.l_pencils,
        tuple(m + 0.05 for m in pencils.m_pencils),  # inconsistent targets
    )
    with pytest.raises(ResidualTooLargeError):
        solve_skew(bad)


def test_extract_realization_edge_cases():
    f = extract_realization(np.zeros((1, 1)))
    assert f.m == 0 and f.ell.size == 0
    with pytest.raises(ValueError):
        extract_realization(np.array([[0.0, 1.0], [1.0, 0.0]]))  # symmetric, not skew


def test_perturbing_free_block_preserves_solution():
    a, b = A_DIAG, B_FEASIBLE
    _, _, pencils = pencils_for(a, b)
    s, _ = solve_skew(pencils)
    for seed in range(3):
        s2 = perturb_free_block(s, pencils, seed=seed)
        np.testing.assert_allclose(s2, -s2.T, atol=1e-12)
        eye = np.eye(pencils.n)
        for l, m in zip(pencils.l_pencils, pencils.m_pencils):
            np.testing.assert_allclose(kron(s2, eye) @ l, m, atol=1e-9)
        g = extract_realization(s2)
        np.testing.assert_allclose(eval_matrix(g, a), b, atol=1e-9)


def test_solve_statuses_on_reference_instances():
    assert solve(A_DIAG, B_FEASIBLE).status == "solved"
    assert solve(A_DIAG, np.diag([1.0, 3.0])).status == "infeasible"
    assert solve(A_DIAG, np.diag([2.0, 1.0])).status == "not_suboptimal"
    assert solve(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)).status == "not_regular"
    assert solve(A_DIAG, np.array([[1.0, 1.0], [0.0, 1.0]])).status == "not_in_bicommutant"


def test_solve_report_fields_by_status():
    solved = solve(A_JORDAN, B_JORDAN)
    assert solved.status == "solved"
    assert solved.m == solved.m_max == 2
    assert solved.realization is not None
    assert solved.interp_residual <= 1e-8 * (1 + np.linalg.norm(B_JORDAN))
    assert solved.skew_residual < 1e-8

    infeasible = solve(A_DIAG, np.diag([1.0, 3.0]))
    assert infeasible.realization is None
    assert infeasible.hill_pick is not None
    assert np.linalg.eigvalsh(infeasible.hill_pick)[0] < -1e-9

    blocked = solve(A_DIAG, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert blocked.hill_pick is None and blocked.m is None
    assert blocked.m_max == 2  # the bicommutant itself was still computable


@pytest.mark.parametrize("error", [RankMismatchError])
def test_hill_extraction_failure(perturbed_apply_hill, error):
    report = solve(A_JORDAN, B_JORDAN)
    assert report.status == "numerical_failure"
    assert report.m_max == 2 and report.m is None and report.hill_pick is None
    assert report.diagnostics.startswith("Hill extraction failed")
    with pytest.raises(error, match="^Hill extraction failed: Hill representation does not reproduce the map"):
        hill_pick(A_JORDAN, B_JORDAN)


def test_solve_scalar_sign_cases():
    assert solve(np.array([[2.0]]), np.array([[3.0]])).status == "solved"
    assert solve(np.array([[-2.0]]), np.array([[-3.0]])).status == "solved"
    assert solve(np.array([[2.0]]), np.array([[-3.0]])).status == "infeasible"
    assert solve(np.array([[2.0]]), np.array([[0.0]])).status == "not_suboptimal"


def test_solve_rejects_degenerate_input():
    # solve and hill_pick share the input check and its message
    empty, wide, cplx = np.zeros((0, 0)), np.ones((2, 3)), np.diag([1.0 + 1.0j, 2.0])
    for a, b in [(empty, empty), (np.eye(2), np.eye(3)), (wide, wide), (cplx, np.eye(2)), (np.eye(2), cplx)]:
        messages = set()
        for call in (solve, hill_pick):
            with pytest.raises(ValueError) as info:
                call(a, b)
            messages.add(str(info.value))
        assert len(messages) == 1, messages


def test_solve_report_json_is_deterministic():
    first = json.dumps(solve(A_DIAG, B_FEASIBLE).to_json())
    second = json.dumps(solve(A_DIAG, B_FEASIBLE).to_json())
    assert first == second
    parsed = json.loads(first)
    assert parsed["status"] == "solved"
    assert parsed["hill_pick"]["rows"] == 2
    assert parsed["realization"]["m"] == 2


def test_solve_round_trip_on_random_instance():
    # sample f positive real odd, evaluate at a random diagonalizable point,
    # and recover an interpolant for the induced pair
    rng = np.random.default_rng(5)
    n = 3
    g = rng.standard_normal((n, n))
    f_true_m = g - g.T
    ell = rng.standard_normal(n)
    d = np.diag([0.6, 1.1, 2.4])
    t = rng.standard_normal((n, n)) + 2 * np.eye(n)
    a = t @ d @ np.linalg.inv(t)
    from prointerp.pro import ProRealization

    b = eval_matrix(ProRealization.from_state_space(ell, f_true_m), a)
    report = solve(a, b)
    assert report.status == "solved"
    np.testing.assert_allclose(eval_matrix(report.realization, a), b, atol=1e-8)


def clustered_pair(n, seed):
    """k = 4 eigenvalues each repeated n/4 times, so m_max = 4, and B = f(A)
    for f(z) = sum_j rho_j^2 z / (z^2 + w_j^2) of state dimension 4: the
    Hill size is m = 4 = m_max and the pair is feasible by construction."""
    rng = np.random.default_rng(seed)
    lam = np.repeat([0.6, 1.2, 1.9, 2.7], n // 4)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q @ np.diag(rng.uniform(1.0, 2.0, n))
    t_inv = np.linalg.inv(t)
    w, rho2 = np.array([0.8, 2.2]), np.array([1.0, 0.6])
    f_lam = (rho2 * lam[:, None] / (lam[:, None] ** 2 + w**2)).sum(axis=1)
    return t @ np.diag(lam) @ t_inv, t @ np.diag(f_lam) @ t_inv


def test_solve_clustered_sixteen_by_four():
    a, b = clustered_pair(16, seed=16)
    report = solve(a, b)
    assert report.status == "solved"
    assert report.m == report.m_max == 4
    gate = 1e-8 * (1 + np.linalg.norm(b))
    assert report.interp_residual <= gate
    assert np.linalg.norm(eval_matrix(report.realization, a) - b) <= gate


def test_solve_runs_the_hill_stage_on_the_cyclic_core(full_size_hill_calls):
    # n = 40 with m_max = 4: the Hill-Pick matrix is 4 x 4 and the pencil
    # system is posed in d = 4 coordinates, so no n^2 x n^2 array (19.5 MiB
    # at n = 40) is allocated, and L_{A,B}, its Choi matrix and minimal_hill
    # are not used
    import tracemalloc

    a, b = clustered_pair(40, seed=40)
    tracemalloc.start()
    try:
        report = solve(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == "solved" and report.m == report.m_max == 4
    gate = 1e-8 * (1 + np.linalg.norm(b))
    assert report.interp_residual <= gate
    assert np.linalg.norm(eval_matrix(report.realization, a) - b) <= gate
    assert peak < 4 * 2**20
    assert full_size_hill_calls == []


def test_hill_pick_runs_on_the_cyclic_core(full_size_hill_calls, tmp_path, capsys):
    # hill_pick and `prointerp hill` share solve's Hill stage at d = 4 and
    # only lift its eigenvectors to 40 x 40 coefficients: no n^2 x n^2
    # array is built
    import tracemalloc

    from prointerp.cli import main
    from prointerp.matrix_kit import matrix_to_json

    a, b = clustered_pair(40, seed=40)
    tracemalloc.start()
    try:
        h, c, m, mm = hill_pick(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert m == mm == 4 and len(c) == 4 and c[0].shape == (40, 40)

    paths = []
    for name, x in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(matrix_to_json(x)))
        paths.append(str(path))
    assert main(["hill", *paths, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == out["m_max"] == 4
    assert full_size_hill_calls == []


def feasible_distinct_pair(n, seed):
    """A = T diag(spectrum) T^{-1} and B = f(A) for a random positive real
    odd f with n states, so the pair is feasible by construction."""
    from prointerp.pro import ProRealization

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    t = rng.standard_normal((n, n)) + 2 * np.eye(n)
    a = t @ np.diag(np.linspace(0.6, 2.4, n)) @ np.linalg.inv(t)
    f = ProRealization.from_state_space(rng.standard_normal(n), g - g.T)
    return a, eval_matrix(f, a)


FEASIBLE_PAIRS = [(A_DIAG, B_FEASIBLE), (A_JORDAN, B_JORDAN), feasible_distinct_pair(4, 3)]


@pytest.mark.parametrize("a,b", FEASIBLE_PAIRS)
def test_pencils_of_any_probe_are_the_identity_pencils_left_multiplied(a, b):
    # L_R = (I_{m+1} kron R) L_I and M_R = (I_{m+1} kron R) M_I, so every
    # probe poses the equations of R = I again
    n = a.shape[0]
    rng = np.random.default_rng(4)
    probes = [rng.standard_normal((n, n)) for _ in range(3)]
    _, _, pencils = pencils_for(a, b, collection=[np.eye(n)] + probes)
    l_i, m_i = pencils.l_pencils[0], pencils.m_pencils[0]
    lift = np.eye(pencils.m + 1)
    for r, l_r, m_r in zip(probes, pencils.l_pencils[1:], pencils.m_pencils[1:]):
        np.testing.assert_allclose(l_r, kron(lift, r) @ l_i, rtol=0, atol=1e-12 * (1 + np.linalg.norm(l_r)))
        np.testing.assert_allclose(m_r, kron(lift, r) @ m_i, rtol=0, atol=1e-12 * (1 + np.linalg.norm(m_r)))


@pytest.mark.parametrize("a,b", FEASIBLE_PAIRS)
def test_identity_probe_gives_the_matrix_unit_solution(a, b):
    n = a.shape[0]
    _, _, units = pencils_for(a, b)
    _, _, single = pencils_for(a, b, collection=[np.eye(n)])
    s_units, _ = solve_skew(units)
    s_single, _ = solve_skew(single)
    assert np.linalg.norm(s_single - s_units) <= 1e-10 * np.linalg.norm(s_units)


def lstsq_skew(pencils):
    """Reference: the design-matrix route, one dense lstsq over the strict
    lower triangle of S, each column the residual of one skew pair."""
    n, mp1 = pencils.n, pencils.m + 1
    ls, ms = pencils.stacked_l(), pencils.stacked_m()
    pairs = [(p, q) for p in range(mp1) for q in range(p)]
    design = np.zeros((ls.size, len(pairs)))
    for col, (p, q) in enumerate(pairs):
        contrib = np.zeros_like(ms)
        contrib[p * n : (p + 1) * n] = ls[q * n : (q + 1) * n]
        contrib[q * n : (q + 1) * n] = -ls[p * n : (p + 1) * n]
        design[:, col] = contrib.reshape(-1)
    x, *_ = np.linalg.lstsq(design, ms.reshape(-1), rcond=None)
    s = np.zeros((mp1, mp1))
    for val, (p, q) in zip(x, pairs):
        s[p, q] = val
        s[q, p] = -val
    return s, float(np.linalg.norm(design @ x - ms.reshape(-1)))


def assert_matches_lstsq(pencils):
    s, residual = solve_skew(pencils)
    s_ref, residual_ref = lstsq_skew(pencils)
    np.testing.assert_array_equal(s, -s.T)
    assert np.linalg.norm(s - s_ref) <= 1e-10 * np.linalg.norm(s_ref)
    assert abs(residual - residual_ref) <= 1e-12 * (1.0 + np.linalg.norm(pencils.stacked_m()))
    return s


def random_collections(n, seed):
    rng = np.random.default_rng(seed)
    return [[rng.standard_normal((n, n)) for _ in range(k)] for k in (2, 3, 5)]


@pytest.mark.parametrize("a,b", FEASIBLE_PAIRS)
def test_solve_skew_matches_lstsq_on_feasible_pairs(a, b):
    n = a.shape[0]
    collections = [[np.eye(n)], standard_collection(n)] + random_collections(n, 8)
    for collection in collections:
        _, _, pencils = pencils_for(a, b, collection=collection)
        assert_matches_lstsq(pencils)


def test_solve_skew_matches_lstsq_on_the_wide_scalar_pencil():
    # n = 1: the stacked L has one row and m + 1 = 2 columns
    _, _, pencils = pencils_for(np.array([[2.0]]), np.array([[3.0]]))
    assert pencils.stacked_l().size == 2
    assert_matches_lstsq(pencils)


def test_solve_skew_matches_lstsq_on_rank_deficient_pencils():
    # the matrix-unit pencils of the free-block tests have a numerically
    # zero singular value; the hand-built pencil has two exact null
    # directions, where the minimum-norm choice decides S
    _, _, pencils = pencils_for(A_DIAG, B_FEASIBLE)
    sv = np.linalg.svd(pencils.stacked_l().reshape(pencils.m + 1, -1), compute_uv=False)
    assert sv[-1] < 1e-12 * sv[0]
    assert_matches_lstsq(pencils)

    rng = np.random.default_rng(9)
    n, m = 3, 4
    lmat = rng.standard_normal((2 * n * n, 2)) @ rng.standard_normal((2, m + 1))
    g = rng.standard_normal((m + 1, m + 1))
    mmat = lmat @ (g - g.T).T
    stacked_l = lmat.T.reshape((m + 1) * n, 2 * n)
    stacked_m = mmat.T.reshape((m + 1) * n, 2 * n)
    pencils = PencilPair(
        n, m, (np.eye(n), np.eye(n)),
        (stacked_l[:, :n], stacked_l[:, n:]), (stacked_m[:, :n], stacked_m[:, n:]),
    )
    s = assert_matches_lstsq(pencils)
    assert np.linalg.norm(s) < np.linalg.norm(g - g.T)


def test_m_zero_hill_data_builds_pencils():
    a = np.diag([1.0, 2.0])
    h, c, m, _ = hill_pick(a, np.zeros((2, 2)))
    assert m == 0 and h.shape == (0, 0)
    pencils = build_pencils(a, np.zeros((2, 2)), h, c, [np.eye(2)])
    assert pencils.stacked_l().shape == (2, 2)
    s, residual = solve_skew(pencils)
    np.testing.assert_array_equal(s, [[0.0]])
    assert residual == 0.0
    assert_matches_lstsq(pencils)


def test_solve_skew_makes_no_lstsq_call(monkeypatch):
    _, _, pencils = pencils_for(*FEASIBLE_PAIRS[2])
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    solve_skew(pencils)
    assert len(calls) == 0


def test_solve_checks_regularity_once(monkeypatch):
    import prointerp.lyapunov as lyapunov_module
    import prointerp.pro as pro_module
    import prointerp.solver as solver_module

    a, b = feasible_distinct_pair(4, 3)  # evaluates f(A), so before counting
    calls = []
    real = lyapunov_module.is_lyapunov_regular

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (lyapunov_module, pro_module, solver_module):
        monkeypatch.setattr(module, "is_lyapunov_regular", counting)
    assert solve(a, b).status == "solved"
    assert len(calls) == 1


def jordan_sum(*blocks):
    """Direct sum of Jordan blocks J_k(lam), given as (lam, k) pairs."""
    n = sum(k for _, k in blocks)
    out = np.zeros((n, n))
    i = 0
    for lam, k in blocks:
        out[i : i + k, i : i + k] = lam * np.eye(k) + np.eye(k, k=1)
        i += k
    return out


DEROGATORY = {
    "J2(1)+J1(1)+J1(2)": jordan_sum((1.0, 2), (1.0, 1), (2.0, 1)),
    "J3(1)+J1(1)": jordan_sum((1.0, 3), (1.0, 1)),
    "J4(1)+J2(2)": jordan_sum((1.0, 4), (2.0, 2)),
    "diag(1,1,2,2,3,3)": np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
}


def derogatory_targets(a, seed):
    """f(A) and -f(A) for an f with m_max states (solved, infeasible), f(A)
    for a 2-state f (not_suboptimal), and a perturbed f(A) off {A}''."""
    from prointerp.commutant import m_max
    from prointerp.pro import ProRealization

    rng = np.random.default_rng(seed)

    def f_of_a(states):
        g = rng.standard_normal((states, states))
        return eval_matrix(ProRealization.from_state_space(rng.standard_normal(states), g - g.T), a)

    b = f_of_a(m_max(a))
    off = b + 1e-3 * np.linalg.norm(b) * rng.standard_normal(b.shape)
    return {"f": b, "minus_f": -b, "two_state_f": f_of_a(2), "off": off}


def similarities(n, seed):
    """A random orthogonal Q and a general T = U diag(s) V^T, s in [1, 10]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([[1.0, 10.0], rng.uniform(1.0, 10.0, n - 2)])
    return {"orthogonal": q, "general": u @ np.diag(s) @ v.T}


def assert_one_hill_pick(report, a, b, seed):
    """The report's H is hill_pick's, and hill_pick's lifted (H, C_k)
    reproduce L_{A,B} at full size on random V."""
    from prointerp.hill import HillRepresentation, apply_hill
    from prointerp.lyapunov import lab_map

    h, c, m, _ = hill_pick(a, b)
    assert np.array_equal(report.hill_pick, h)
    rep = HillRepresentation(a.shape[0], m, c, h)
    lmap = lab_map(a, b)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(a.shape)
        want = lmap.apply(v)
        assert np.linalg.norm(apply_hill(rep, v) - want) <= 1e-12 * (1.0 + np.linalg.norm(want))


@pytest.mark.parametrize("name", list(DEROGATORY))
def test_verdicts_are_similarity_invariant_on_derogatory_a(name):
    # solve runs the Hill stage on the d x d cyclic core of A; status, m and
    # m_max must not see the similarity, hill_pick must report the same H,
    # and its coefficients, lifted to full size, must represent L_{A,B}
    a = DEROGATORY[name]
    statuses = set()
    for i, (label, b) in enumerate(derogatory_targets(a, seed=5).items()):
        base = solve(a, b)
        statuses.add(base.status)
        for kind, t in similarities(a.shape[0], seed=i).items():
            t_inv = np.linalg.inv(t)
            assert np.linalg.cond(t) <= 10.0 + 1e-9
            moved = solve(t @ a @ t_inv, t @ b @ t_inv)
            assert (moved.status, moved.m, moved.m_max) == (base.status, base.m, base.m_max), (label, kind)
            if moved.hill_pick is not None:
                assert_one_hill_pick(moved, t @ a @ t_inv, t @ b @ t_inv, seed=i)
        if base.hill_pick is not None:
            assert_one_hill_pick(base, a, b, seed=i)
    assert statuses == {"solved", "infeasible", "not_suboptimal", "not_in_bicommutant"}


def reference_stage(a, b, tol):
    """The Hill stage's Pick data (A_d, c, w, V) on the reference formulas:
    c by least-squares membership against the power basis,
    A_d[j, k] = <Q_j, A Q_k>_F, and (w, V) from the full-size minimal Hill
    representation of L_{A,B} from its Choi matrix, v_jk = <Q_j, C_k^T>_F."""
    from prointerp.commutant import SubspaceBasis, bicommutant_basis, membership
    from prointerp.hill import minimal_hill
    from prointerp.lyapunov import is_lyapunov_regular, lab_map

    if not is_lyapunov_regular(a, tol):
        return NotLyapunovRegularError("not regular"), None, None
    n = a.shape[0]
    q = np.array(bicommutant_basis(a, tol).basis)
    mem = membership(b, SubspaceBasis(n, q), tol)
    if not mem.is_member:
        return NotInBicommutantError(f"residual {mem.residual:.6e}"), q, None
    flat = q.reshape(len(q), -1)
    try:
        rep = minimal_hill(lab_map(a, b, tol), tol)
    except (NotStarLinearError, RankMismatchError) as exc:
        return exc, q, None
    v = flat @ np.array([c.T for c in rep.coefficients]).reshape(rep.m, n * n).T
    return None, q, (flat @ (a @ q).reshape(len(q), -1).T, mem.coords, np.diag(rep.hill_matrix), v)


def stage_pairs():
    """Pairs in {A}'' (feasible, infeasible, derogatory A) and off it."""
    a, b = clustered_pair(16, seed=16)
    jordan_a = jordan_sum((1.0, 3), (1.0, 1))
    jordan_b = derogatory_targets(jordan_a, seed=3)
    return [
        (A_DIAG, B_FEASIBLE), (A_DIAG, np.diag([1.0, 3.0])), (a, b), (a, -b),
        (jordan_a, jordan_b["f"]), (jordan_a, jordan_b["two_state_f"]),
        (A_DIAG, np.array([[1.0, 1.0], [0.0, 1.0]])), (jordan_a, jordan_b["off"]),
        (a, b + 1e-6 * np.eye(16, k=1)),
    ]


def test_hill_stage_reads_a_d_and_membership_off_the_arnoldi_pass():
    import re

    from prointerp.commutant import bicommutant_basis, membership
    from prointerp.matrix_kit import DEFAULT_TOL
    from prointerp.solver import _hill_stage

    verdicts = []
    for a, b in stage_pairs():
        err, q, pick = _hill_stage(a, b, DEFAULT_TOL)
        space = bicommutant_basis(a)
        assert np.array_equal(q, np.array(space.basis))
        mem = membership(b, space)
        verdicts.append(mem.is_member)
        # the projection residual the stage gates on, against least squares
        flat = q.reshape(len(q), -1)
        residual = np.linalg.norm(b.reshape(-1) - (flat @ b.reshape(-1)) @ flat)
        assert abs(residual - mem.residual) <= 1e-12 * (1.0 + np.linalg.norm(b))
        if not mem.is_member:
            assert isinstance(err, NotInBicommutantError) and pick is None
            reported = float(re.search(r"residual (\S+)", str(err)).group(1))
            assert reported == pytest.approx(mem.residual, rel=1e-6)
            continue
        assert err is None
        old = flat @ (a @ q).reshape(len(q), -1).T
        assert np.linalg.norm(pick[0] - old) <= 1e-13 * np.linalg.norm(old)
        assert np.linalg.norm(pick[1] - mem.coords) <= 1e-12 * (1.0 + np.linalg.norm(b))
    assert verdicts.count(False) == 3


def spy_on(monkeypatch, calls, *targets):
    """Replace each (module, name) by a wrapper that records the name in
    ``calls`` and then calls the original."""
    for module, name in targets:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


def test_solve_makes_no_lstsq_or_membership_call(monkeypatch):
    import prointerp.commutant as commutant_module

    pairs = stage_pairs()
    calls = []
    spy_on(monkeypatch, calls, (np.linalg, "lstsq"), (commutant_module, "membership"))
    statuses = {solve(a, b).status for a, b in pairs}
    assert statuses == {"solved", "infeasible", "not_suboptimal", "not_in_bicommutant"}
    assert calls == []


def test_solve_builds_no_full_size_pencils(monkeypatch):
    # solve poses the R = I system in coordinates on the power basis, from
    # the Pick data: no n x n coefficients, no Kronecker pencil, and no second
    # factorization of the already diagonal H
    import prointerp.matrix_kit as matrix_kit_module
    import prointerp.solver as solver_module

    calls = []
    spy_on(
        monkeypatch, calls, (solver_module, "build_pencils"), (solver_module, "solve_skew"),
        (solver_module, "psd_factor"), (matrix_kit_module, "psd_factor"),
    )
    statuses = {solve(a, b).status for a, b in stage_pairs() + [(A_JORDAN, B_JORDAN)]}
    assert statuses == {"solved", "infeasible", "not_suboptimal", "not_in_bicommutant"}
    assert calls == []


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("delta", [10.0**-k for k in range(2, 9)])
def test_near_derogatory_verdicts_match_the_reference_stage(monkeypatch, n, delta):
    # eigenvalues 1, 1 + delta, 2, 3, each n / 4 times, and B = f(A) for a
    # 4-state f: the Arnoldi subdiagonal of H is tiny at small delta.  Where
    # the power basis has the true degree 4, status, m and m_max must stay
    # those of the reference formulas; where it overcounts the degree
    # (8 at n = 8, delta <= 1e-7), the representation check must trip
    import prointerp.solver as solver_module
    from prointerp.pro import ProRealization

    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q @ np.diag(rng.uniform(1.0, 2.0, n))
    a = t @ np.diag(np.repeat([1.0, 1.0 + delta, 2.0, 3.0], n // 4)) @ np.linalg.inv(t)
    g = rng.standard_normal((4, 4))
    b = eval_matrix(ProRealization.from_state_space(rng.standard_normal(4), g - g.T), a)
    report = solve(a, b)
    monkeypatch.setattr(solver_module, "_hill_stage", reference_stage)
    reference = solve(a, b)
    if reference.m_max == 4:
        assert (report.status, report.m, report.m_max) == (reference.status, reference.m, reference.m_max)
    else:
        assert (n, reference.m_max) == (8, 8) and delta <= 1e-7
        assert report.status == "numerical_failure" and report.m_max == 8
        assert report.diagnostics.startswith("Hill extraction failed: Hill representation does not reproduce the map")


def benchmark_instances(monkeypatch, kind, seed):
    """The seeded solve instances of the benchmark's generator
    ``perfbench/instances.py``, which imports nothing from prointerp."""
    import importlib
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    return getattr(importlib.import_module("instances"), f"{kind}_instances")(seed)


def test_clustered_seed_36_pair_that_clears_the_rank_cut_at_full_size_is_solved(monkeypatch):
    # a (12, 6) pair, feasible by construction, whose 6th Choi eigenvalue is
    # 1.015e-9 of the largest at full size but fell under the 1e-9 cut on
    # the core's 36 x 36 Choi matrix; the Hill-Pick matrix gives the full-size one
    inst = benchmark_instances(monkeypatch, "clustered", 36)[2]
    assert (inst.n, inst.state_dim, inst.label) == (12, 6, "feasible")
    report = solve(inst.a, inst.b)
    assert (report.status, report.m, report.m_max) == ("solved", 6, 6)
    assert report.interp_residual <= 1e-8 * (1 + np.linalg.norm(inst.b))


@pytest.mark.parametrize("kind", ["distinct", "clustered"])
def test_hill_pick_is_the_nonzero_full_size_choi_spectrum(monkeypatch, kind):
    # H is the nonzero spectrum of the n^2 x n^2 Choi matrix of L_{A,B}, and
    # the lifted C_k are orthonormal and represent L_{A,B} up to the
    # eigenvalues under the rank cut: with orthonormal C_k, each dropped
    # term w_k C_k V C_k^T has norm at most |w_k| ||V||_F
    from prointerp.errors import ProinterpError
    from prointerp.hill import HillRepresentation, apply_hill, choi
    from prointerp.lyapunov import lab_map
    from prointerp.matrix_kit import DEFAULT_TOL, _above_rank_cut

    checked = 0
    for inst in benchmark_instances(monkeypatch, kind, 3):
        try:
            h, c, m, _ = hill_pick(inst.a, inst.b)
        except ProinterpError:
            continue
        lmap = lab_map(inst.a, inst.b)
        cm = choi(lmap)
        w = np.linalg.eigvalsh(0.5 * (cm + cm.T))
        keep = _above_rank_cut(w, DEFAULT_TOL)
        kept, dropped = w[keep], np.abs(w[~keep]).sum()
        assert kept.size == m
        assert np.abs(np.diag(h) - kept).max(initial=0.0) <= 1e-12 * np.abs(w).max()
        stack = np.array(c).reshape(m, -1)
        assert np.abs(stack @ stack.T - np.eye(m)).max(initial=0.0) <= 1e-12
        rep = HillRepresentation(inst.n, m, c, h)
        rng = np.random.default_rng(inst.iid)
        for _ in range(3):
            v = rng.standard_normal((inst.n, inst.n))
            want = lmap.apply(v)
            gate = 1e-12 * (1.0 + np.linalg.norm(want)) + dropped * np.linalg.norm(v)
            assert np.linalg.norm(apply_hill(rep, v) - want) <= gate
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("kind", ["distinct", "clustered"])
def test_solve_matches_the_full_size_identity_pencils(monkeypatch, kind):
    # the Q-coordinate system solve poses has the S and the residual of the
    # full-size R = I pencils built on hill_pick's lifted coefficients,
    # because the power basis is orthonormal and I = sqrt(n) Q_0
    checked = 0
    for inst in benchmark_instances(monkeypatch, kind, 3):
        report = solve(inst.a, inst.b)
        if report.status != "solved":
            continue
        h, c, _, _ = hill_pick(inst.a, inst.b)
        s_full, residual_full = solve_skew(build_pencils(inst.a, inst.b, h, c, [np.eye(inst.n)]))
        got, want = (np.concatenate([f.ell, f.state_matrix.ravel()]) for f in (report.realization, extract_realization(s_full)))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert abs(report.skew_residual - residual_full) <= 1e-12 * (1.0 + np.linalg.norm(inst.b))
        checked += 1
    assert checked >= 10

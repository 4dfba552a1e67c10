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


@pytest.mark.parametrize("error", [RankMismatchError, NotStarLinearError])
def test_hill_extraction_failure(monkeypatch, error):
    def fail(lmap, tol):
        raise error("injected")

    monkeypatch.setattr("prointerp.solver.minimal_hill", fail)
    report = solve(A_JORDAN, B_JORDAN)
    assert report.status == "numerical_failure"
    assert report.m_max == 2 and report.m is None and report.hill_pick is None
    assert report.diagnostics.startswith("Hill extraction failed")
    with pytest.raises(error, match="^Hill extraction failed: injected$"):
        hill_pick(A_JORDAN, B_JORDAN)


def test_solve_scalar_sign_cases():
    assert solve(np.array([[2.0]]), np.array([[3.0]])).status == "solved"
    assert solve(np.array([[-2.0]]), np.array([[-3.0]])).status == "solved"
    assert solve(np.array([[2.0]]), np.array([[-3.0]])).status == "infeasible"
    assert solve(np.array([[2.0]]), np.array([[0.0]])).status == "not_suboptimal"


def test_solve_rejects_degenerate_input():
    with pytest.raises(ValueError):
        solve(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(ValueError):
        solve(np.eye(2), np.eye(3))


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


def test_solve_clustered_sixteen_by_four():
    # k = 4 eigenvalues each repeated four times: n = 16 but m_max = 4.
    # f(z) = sum_j rho_j^2 z / (z^2 + w_j^2) has state dimension 4, so the
    # Hill size is m = 4 = m_max and the pair is feasible by construction.
    rng = np.random.default_rng(16)
    lam = np.repeat([0.6, 1.2, 1.9, 2.7], 4)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    t = q @ np.diag(rng.uniform(1.0, 2.0, 16))
    t_inv = np.linalg.inv(t)
    w, rho2 = np.array([0.8, 2.2]), np.array([1.0, 0.6])
    f_lam = (rho2 * lam[:, None] / (lam[:, None] ** 2 + w**2)).sum(axis=1)
    a = t @ np.diag(lam) @ t_inv
    b = t @ np.diag(f_lam) @ t_inv
    report = solve(a, b)
    assert report.status == "solved"
    assert report.m == report.m_max == 4
    gate = 1e-8 * (1 + np.linalg.norm(b))
    assert report.interp_residual <= gate
    assert np.linalg.norm(eval_matrix(report.realization, a) - b) <= gate


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


def test_solve_builds_pencils_on_one_probe(monkeypatch):
    import prointerp.solver as solver_module

    sizes = []
    build = solver_module.build_pencils

    def recording_build(a, b, hill_matrix, coefficients, collection, *rest, **kwargs):
        sizes.append(len(collection))
        return build(a, b, hill_matrix, coefficients, collection, *rest, **kwargs)

    monkeypatch.setattr(solver_module, "build_pencils", recording_build)
    a, b = feasible_distinct_pair(4, 3)
    assert solve(a, b).status == "solved"
    assert solve(A_JORDAN, B_JORDAN).status == "solved"
    assert sizes == [1, 1]


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

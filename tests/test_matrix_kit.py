import json

import numpy as np
import pytest

from prointerp.errors import NotPositiveDefiniteError, NotSymmetricError
from prointerp.matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    _first_hit,
    eigenvalues,
    format_matrix_text,
    kron,
    load_matrix,
    loads_matrix,
    matrix_from_json,
    matrix_to_json,
    parse_matrix_text,
    psd_factor,
    psd_scale,
    rank_nullspace_pinv,
    unvec,
    vec,
)


def test_vec_is_column_stacking():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(x), [1.0, 3.0, 2.0, 4.0])


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (4, 1), (5, 5)])
def test_vec_unvec_round_trip(rows, cols):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((rows, cols))
    assert np.array_equal(unvec(vec(x), rows, cols), x)
    v = rng.standard_normal(rows * cols)
    assert np.array_equal(vec(unvec(v, rows, cols)), v)


def test_unvec_size_mismatch():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 2)


def test_kron_vec_identity():
    # vec(B X A^T) = (A kron B) vec(X), the pairing everything else relies on
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 5))
        x = rng.standard_normal((5, 4))
        lhs = vec(b @ x @ a.T)
        rhs = kron(a, b) @ vec(x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_eigenvalues_sorted_complex():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lam = eigenvalues(a)
    np.testing.assert_allclose(lam, [-1j, 1j], atol=1e-12)


def test_rank_nullspace_pinv_on_known_rank():
    rng = np.random.default_rng(2)
    left = rng.standard_normal((7, 3))
    right = rng.standard_normal((3, 5))
    x = left @ right  # rank 3 by construction
    rank, null, pinv = rank_nullspace_pinv(x)
    assert rank == 3
    assert null.shape == (5, 2)
    np.testing.assert_allclose(x @ null, 0, atol=1e-10)
    np.testing.assert_allclose(null.T @ null, np.eye(2), atol=1e-12)
    # Moore-Penrose identities
    np.testing.assert_allclose(x @ pinv @ x, x, atol=1e-9)
    np.testing.assert_allclose(pinv @ x @ pinv, pinv, atol=1e-9)


def test_rank_nullspace_pinv_on_tall_matrix():
    # A full SVD would carry a 20000 x 20000 U (3.2 GB); the thin one must
    # give the same rank, nullspace projector and pseudoinverse.
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((20000, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    s = np.array([4.0, 3.0, 2.0, 1.0])
    x = (u * s) @ v.T  # rank 4 by construction
    rank, null, pinv = rank_nullspace_pinv(x)
    assert rank == 4
    assert null.shape == (10, 6)
    np.testing.assert_allclose(null @ null.T, np.eye(10) - v @ v.T, atol=1e-12)
    np.testing.assert_allclose(pinv, (v / s) @ u.T, atol=1e-12)


def test_rank_nullspace_pinv_zero_matrix():
    rank, null, pinv = rank_nullspace_pinv(np.zeros((3, 4)))
    assert rank == 0
    assert null.shape == (4, 4)
    assert np.all(pinv == 0) and pinv.shape == (4, 3)


def test_rank_plus_nullity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows = rng.integers(1, 7)
        cols = rng.integers(1, 7)
        inner = rng.integers(1, 7)
        x = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
        rank, null, _ = rank_nullspace_pinv(x)
        assert rank + null.shape[1] == cols


def test_psd_factor_reconstructs():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5))
    h = g @ g.T + np.eye(5)
    p = psd_factor(h)
    np.testing.assert_allclose(p.T @ p, h, atol=1e-10)


def test_psd_factor_accepts_feasible_pick_matrix():
    # det = 2*3/2 - (5/3)^2 = 2/9 > 0 and trace > 0, so PD
    h = np.array([[2.0, 5.0 / 3.0], [5.0 / 3.0, 1.5]])
    p = psd_factor(h)
    np.testing.assert_allclose(p.T @ p, h, atol=1e-12)


def test_psd_factor_rejects_indefinite_pick_matrix():
    # det = 3/2 - 16/9 = -5/18 < 0, so one eigenvalue is negative
    h = np.array([[1.0, 4.0 / 3.0], [4.0 / 3.0, 1.5]])
    with pytest.raises(NotPositiveDefiniteError):
        psd_factor(h)


def test_psd_factor_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        psd_factor(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_psd_factor_floor_is_relative_to_trace_scale():
    # smallest eigenvalue sits right at psd_rel * (|trace|/m + 1): must fail
    tol = DEFAULT_TOL
    big = 3.0
    floor = tol.psd_rel * psd_scale(np.diag([big, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        psd_factor(np.diag([big, floor]))
    psd_factor(np.diag([big, 10 * floor]))  # comfortably above: fine


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(residual_abs=-1e-8)
    for field in ("rank_rel", "psd_rel", "residual_abs", "regular_rel"):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(**{field: float("inf")})


def test_matrix_json_round_trip():
    x = np.array([[1.5, -2.0, 0.0], [0.25, 1e-30, 3.0]])
    obj = matrix_to_json(x)
    assert obj["rows"] == 2 and obj["cols"] == 3
    np.testing.assert_array_equal(matrix_from_json(obj), x)
    # through actual JSON text, exactly
    np.testing.assert_array_equal(loads_matrix(json.dumps(obj)), x)
    # an integral float is accepted as a size
    np.testing.assert_array_equal(matrix_from_json({**obj, "rows": 2.0}), x)


@pytest.mark.parametrize("broken", [
    {"rows": 2, "cols": 2},
    {"rows": 2, "cols": 2, "data": [[1.0, 2.0]]},
    {"rows": 1, "cols": 3, "data": [[1.0, 2.0]]},
    [1, 2, 3],
    {"rows": 1, "cols": 1, "data": 5},
    {"rows": 1, "cols": 1, "data": [5]},
    {"rows": 1.7, "cols": 1, "data": [[5.0]]},
    {"rows": "1", "cols": 1, "data": [[5.0]]},
    {"rows": 1, "cols": True, "data": [[5.0]]},
    {"rows": 1, "cols": 1, "data": [[True]]},
    {"rows": 1, "cols": 1, "data": [["1"]]},
    {"rows": 1, "cols": 1, "data": [[[1]]]},
    {"rows": 1, "cols": 1, "data": [[None]]},
    {"rows": 1, "cols": 1, "data": [[10**400]]},  # a JSON integer no float can hold
])
def test_matrix_from_json_rejects_malformed(broken):
    with pytest.raises(ValueError):
        matrix_from_json(broken)


def test_parse_matrix_text():
    x = parse_matrix_text("1 2 3\n4 5 6\n")
    np.testing.assert_array_equal(x, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        parse_matrix_text("1 2\n3\n")
    with pytest.raises(ValueError):
        parse_matrix_text("1 two\n")
    with pytest.raises(ValueError):
        parse_matrix_text("   \n")


def test_format_matrix_text_round_trips_exactly():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(parse_matrix_text(format_matrix_text(x)), x)


def test_load_matrix_detects_format(tmp_path):
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    jpath = tmp_path / "m.json"
    jpath.write_text(json.dumps(matrix_to_json(x)))
    tpath = tmp_path / "m.txt"
    tpath.write_text("  \n 1 2\n3 4\n")  # leading whitespace must not confuse detection
    np.testing.assert_array_equal(load_matrix(jpath), x)
    np.testing.assert_array_equal(load_matrix(tpath), x)


def test_psd_scale_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((5, 3, 3))
    np.testing.assert_array_equal(psd_scale(stack), [psd_scale(h) for h in stack])


def test_psd_scale_of_one_matrix_and_of_an_empty_one():
    assert psd_scale(np.array([[1.0, 2.0], [3.0, -7.0]])) == 4.0  # |1 - 7| / 2 + 1
    assert psd_scale(np.zeros((0, 0))) == 1.0


def chunk_bounds(total, width):
    """The (start, stop) of each chunk that ``_first_hit`` stacks from
    ``total`` probes, none of which is marked."""
    bounds = []

    def never(rows):
        start = bounds[-1][1] if bounds else 0
        bounds.append((start, start + len(rows)))
        return np.zeros(len(rows), dtype=bool), rows

    assert _first_hit(range(total), never, width) == (None, None, None)
    return bounds


def test_growing_chunks_double_until_the_element_cap():
    assert chunk_bounds(0, 4) == []
    assert chunk_bounds(10, 4) == [(0, 1), (1, 3), (3, 7), (7, 10)]
    sizes = [stop - start for start, stop in chunk_bounds(10**6, 1 << 18)]
    assert sizes[:2] == [1, 2] and set(sizes[2:-1]) == {4}
    assert sum(sizes) == 10**6

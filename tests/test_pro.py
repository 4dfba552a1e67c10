import json

import numpy as np
import pytest

from prointerp.errors import NotLyapunovRegularError, PoleHitError
from prointerp.pro import (
    SKEW_REL,
    ProRealization,
    eval_matrix,
    eval_scalar,
    pro_diagnostics,
    realization_checks,
)


def planar_rotation(mu):
    return np.array([[0.0, mu], [-mu, 0.0]])


def rational_18z():
    # ell (zI - M)^{-1} ell^T with ell = (3, 3), M = planar rotation by sqrt(8)
    # evaluates to (|ell|^2 z) / (z^2 + 8) = 18 z / (z^2 + 8)
    return ProRealization.from_state_space([3.0, 3.0], planar_rotation(np.sqrt(8.0)))


def test_state_matrix_round_trip():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    m = g - g.T
    f = ProRealization.from_state_space(rng.standard_normal(4), m)
    np.testing.assert_allclose(f.state_matrix, m, atol=1e-15)
    np.testing.assert_allclose(f.state_matrix, -f.state_matrix.T, atol=0)  # exact


def test_from_state_space_rejects_tampered_matrix():
    m = planar_rotation(1.0)
    m[0, 1] += 1e-3
    with pytest.raises(ValueError):
        ProRealization.from_state_space([1.0, 1.0], m)


def test_one_skew_gate_for_realizations_and_skew_matrices():
    # from_state_space and extract_realization accept and reject on the same
    # band SKEW_REL * (1 + ||.||_F) of the symmetric part
    from prointerp.solver import extract_realization

    m = planar_rotation(1.0)
    gauge = SKEW_REL * (1.0 + np.linalg.norm(m))
    s = np.zeros((3, 3))
    for factor, accepted in ((0.5, True), (2.0, False)):
        tampered = m.copy()
        tampered[0, 1] += factor * gauge
        s[1:, 1:] = -tampered
        if accepted:
            ProRealization.from_state_space([1.0, 1.0], tampered)
            extract_realization(s)
        else:
            with pytest.raises(ValueError):
                ProRealization.from_state_space([1.0, 1.0], tampered)
            with pytest.raises(ValueError):
                extract_realization(s)


def test_lower_triangle_length_validation():
    with pytest.raises(ValueError):
        ProRealization([1.0, 2.0], [0.5, 0.5])  # needs exactly 1 entry for m = 2
    # complex entries are rejected, not cut to their real parts
    with pytest.raises(ValueError):
        ProRealization(np.array([1.0 + 1.0j, 2.0]), [0.5])
    with pytest.raises(ValueError):
        ProRealization([1.0, 2.0], np.array([0.5 + 0j]))


def test_realization_owns_its_arrays():
    # later writes to the caller's arrays do not reach a frozen realization,
    # and a solved report does not keep the skew S that ell was read from alive
    from prointerp.solver import solve

    ell, low = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.25, 0.125])
    f = ProRealization(ell, low)
    before = f.state_matrix.copy()
    ell[0], low[0] = 99.0, 99.0
    np.testing.assert_array_equal(f.ell, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(f.state_matrix, before)
    report = solve(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    assert report.status == "solved"
    assert report.realization.ell.base is None
    assert report.realization.m_lower.base is None


def test_json_round_trip():
    f = rational_18z()
    obj = f.to_json()
    assert set(obj) == {"m", "ell", "M_lower"}
    assert obj["m"] == 2 and len(obj["M_lower"]) == 1
    g = ProRealization.from_json(json.loads(json.dumps(obj)))
    np.testing.assert_array_equal(g.ell, f.ell)
    np.testing.assert_array_equal(g.m_lower, f.m_lower)


@pytest.mark.parametrize("broken", [
    {"m": 2, "ell": [1.0, 2.0]},
    {"m": 3, "ell": [1.0, 2.0], "M_lower": [0.0, 0.0, 0.0]},
    {"m": 2, "ell": [1.0, 2.0], "M_lower": [0.0, 0.0]},
    "nope",
    {"m": [1], "ell": [1.0], "M_lower": []},
    {"m": 2, "ell": [1.0, 2.0], "M_lower": {"x": 1}},
    {"m": 1.7, "ell": [1.0], "M_lower": []},
    {"m": True, "ell": [1.0], "M_lower": []},
    {"m": "1", "ell": [1.0], "M_lower": []},
    {"m": 2, "ell": ["1", True], "M_lower": [0.0]},
    {"m": 1, "ell": [[1.0]], "M_lower": []},
    {"m": 2, "ell": [1.0, 2.0], "M_lower": [[0.5]]},
    {"m": 2, "ell": [1.0, 2.0], "M_lower": [10**400]},  # a JSON integer no float can hold
])
def test_from_json_rejects_malformed(broken):
    with pytest.raises(ValueError):
        ProRealization.from_json(broken)


def test_eval_scalar_simple_pole_at_origin():
    f = ProRealization.from_state_space([np.sqrt(6.0)], np.zeros((1, 1)))  # 6/z
    assert eval_scalar(f, 2.0) == pytest.approx(3.0)
    assert eval_scalar(f, -3.0) == pytest.approx(-2.0)
    with pytest.raises(PoleHitError):
        eval_scalar(f, 0.0)


def test_eval_scalar_against_closed_form():
    f = rational_18z()
    for z in (1.0, 2.0, 0.5, -1.0, 1.0 + 1.0j):
        expected = 18.0 * z / (z**2 + 8.0)
        assert eval_scalar(f, z) == pytest.approx(expected, rel=1e-12)


def test_eval_scalar_near_pole_raises():
    f = rational_18z()
    with pytest.raises(PoleHitError):
        eval_scalar(f, 1j * np.sqrt(8.0) + 1e-12)


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)])
def test_eval_scalar_rejects_non_finite_points(z):
    # as eval_matrix does through as_matrix: nan read nan+0j, inf a pole hit
    with pytest.raises(ValueError, match="must be finite"):
        eval_scalar(rational_18z(), z)


def test_eval_scalar_oddness_symmetry():
    # f(-conj(z)) = -conj(f(z)) for real rational odd functions
    rng = np.random.default_rng(1)
    g = rng.standard_normal((5, 5))
    f = ProRealization.from_state_space(rng.standard_normal(5), g - g.T)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = eval_scalar(f, -np.conj(z))
        rhs = -np.conj(eval_scalar(f, z))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_eval_scalar_matches_partial_fractions():
    # independent evaluation route through the eigendecomposition of M
    rng = np.random.default_rng(2)
    g = rng.standard_normal((5, 5))
    m = g - g.T
    ell = rng.standard_normal(5)
    f = ProRealization.from_state_space(ell, m)
    lam, v = np.linalg.eig(m)
    weights = (ell @ v) * (np.linalg.inv(v) @ ell)
    for t in (0.7, 1.3, 4.0, -2.1):
        expected = np.sum(weights / (t - lam))
        assert eval_scalar(f, t) == pytest.approx(complex(expected), rel=1e-9)


def test_eval_scalar_zero_function():
    f = ProRealization(np.zeros(0), np.zeros(0))
    assert f.m == 0
    assert eval_scalar(f, 1.23) == 0


def test_eval_scalar_and_eval_matrix_share_one_resolvent():
    # eval_scalar is ell (z I - M)^{-1} ell^T, and at a 1 x 1 point eval_matrix
    # is the same resolvent, to the last bit
    rng = np.random.default_rng(1)
    g = rng.standard_normal((5, 5))
    for f in (
        rational_18z(),
        ProRealization.from_state_space([np.sqrt(6.0)], np.zeros((1, 1))),
        ProRealization.from_state_space(rng.standard_normal(5), g - g.T),
    ):
        for z in (0.5, 2.0, -3.0, 1.0 + 1.0j, -0.25 + 4.0j):
            expected = f.ell @ np.linalg.solve(z * np.eye(f.m) - f.state_matrix, f.ell.astype(complex))
            assert abs(eval_scalar(f, z) - expected) <= 1e-14 * abs(expected)
        for t in (0.5, 2.0, -3.0):
            assert eval_matrix(f, [[t]])[0, 0] == eval_scalar(f, t)


def test_eval_matrix_diagonal_point():
    f = rational_18z()
    a = np.diag([1.0, 2.0])
    np.testing.assert_allclose(eval_matrix(f, a), np.diag([2.0, 3.0]), atol=1e-12)


def test_eval_matrix_jordan_point_picks_up_derivative():
    # f = 8z/(z^2+3): f(1) = 2 and f'(z) = 8(3 - z^2)/(z^2+3)^2 gives f'(1) = 1,
    # so on a 2x2 Jordan block f(J) = [[f(1), f'(1)], [0, f(1)]]
    f = ProRealization.from_state_space([2.0, 2.0], planar_rotation(np.sqrt(3.0)))
    j = np.array([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(eval_matrix(f, j), [[2.0, 1.0], [0.0, 2.0]], atol=1e-12)


def test_eval_matrix_consistent_with_scalar_calculus():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    f = ProRealization.from_state_space(rng.standard_normal(4), g - g.T)
    d = np.diag([0.5, 1.0, 2.5])
    t = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    a = t @ d @ np.linalg.inv(t)
    expected = t @ np.diag([eval_scalar(f, x).real for x in np.diag(d)]) @ np.linalg.inv(t)
    np.testing.assert_allclose(eval_matrix(f, a), expected, atol=1e-9)
    # matrix functional calculus commutes with the point
    fa = eval_matrix(f, a)
    np.testing.assert_allclose(fa @ a, a @ fa, atol=1e-9)


def test_eval_matrix_zero_function():
    f = ProRealization(np.zeros(0), np.zeros(0))
    np.testing.assert_array_equal(eval_matrix(f, np.diag([1.0, 2.0])), np.zeros((2, 2)))


def test_eval_matrix_rejects_irregular_point():
    f = rational_18z()
    with pytest.raises(NotLyapunovRegularError):
        eval_matrix(f, np.diag([1.0, -1.0]))


def test_diagnostics_pass_for_skew_realizations():
    rng = np.random.default_rng(4)
    for m in (1, 2, 5):
        g = rng.standard_normal((m, m))
        f = ProRealization.from_state_space(rng.standard_normal(m), g - g.T)
        report = pro_diagnostics(f, samples=50, seed=0)
        assert report.pro_ok
        assert report.poles_imaginary and report.odd_on_samples and report.nonnegative_on_samples
        assert not report.is_zero


def test_diagnostics_flag_zero_function():
    report = pro_diagnostics(ProRealization(np.zeros(2), np.zeros(1)), samples=20, seed=0)
    assert report.is_zero and report.pro_ok


def test_diagnostics_catch_tampered_diagonal():
    # a diagonal tamper pushes eigenvalues off the imaginary axis
    m = planar_rotation(1.0)
    m[0, 0] += 0.5
    report = realization_checks([1.0, 1.0], m, samples=20, seed=0)
    assert not report.poles_imaginary
    assert not report.pro_ok
    assert report.max_real_part > 1e-3


def test_diagnostics_catch_tampered_off_diagonal():
    # this tamper keeps the spectrum on the axis (+- i sqrt(1/2)) but breaks
    # the odd symmetry, which the sampled check picks up
    m = planar_rotation(1.0)
    m[1, 0] = -0.5
    report = realization_checks([1.0, 1.0], m, samples=20, seed=0)
    assert report.poles_imaginary
    assert not report.odd_on_samples
    assert not report.pro_ok

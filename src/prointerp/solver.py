"""End-to-end construction of interpolating positive real odd functions.

Given a Lyapunov regular A and a B in its bicommutant, the pipeline takes a
minimal Hill representation (C_1..C_m, H) of L_{A,B} = L_B o L_A^{-1},
gates on m = m_max (the bicommutant dimension) and on H being positive
definite, factors H = P^T P, assembles for a probe matrix R the pencil pair

    L_R = [ R ; (P kron R) C ],    M_R = [ R B ; -(P kron R A) C ],

with C the stacked coefficient matrix, and solves (S kron I_n) L_R = M_R for
a skew-symmetric S.  Since L_R = (I_{m+1} kron R) L_I and likewise for M_R,
every probe poses the equations of R = I again, left-multiplied by R, so
:func:`solve` uses the single probe R = I.  Reading ell and M off the first
row and the trailing block of S yields f(z) = ell (z I - M)^{-1} ell^T with
f(A) = B.  The skew least squares splits, in the right singular basis of
the pencil, into one 2 x 1 problem per entry pair of S, each solved in
closed form (:func:`solve_skew`).

The Hill representation comes from a d x d Lyapunov equation, d = m_max.
One Arnoldi pass gives the orthonormal power basis Q_j = q_j(A) of
{A}'' = R[A] (Q_0 = I / sqrt(n)), A_d = H, the matrix of X -> A X on it, and
the coordinates c of B = g(A), g = sum_j c_j q_j, whose projection decides
membership.  p(s, t) = sum_jk p_jk q_j(s) q_k(t) acts on matrices as
X -> sum_jk p_jk Q_j^T X Q_k: s + t as L_A, g(s) + g(t) as L_B, products as
compositions and the minimal polynomial mu of A as zero.  Hence if

    g(s) + g(t) = Gamma(s, t) (s + t)   mod (mu(s), mu(t)),

Gamma(s, t) = n sum_jk Gamma_jk q_j(s) q_k(t), then L_{A,B}(V) =
sum_jk n Gamma_jk Q_j^T V Q_k.  As s and t act on coefficients as A_d, and
1 = sqrt(n) q_0, Gamma A_d^T + A_d Gamma = e_0 beta^T + beta e_0^T with
beta = c / sqrt(n).  The Q_j^T are orthonormal, so n Gamma = V diag(w) V^T
has the nonzero Choi spectrum of L_{A,B}, and C_k = sum_j v_jk Q_j^T,
H = diag(w) is a minimal Hill representation.  At distinct eigenvalues,
Gamma(lambda_i, lambda_j) = (g(lambda_i) + g(lambda_j)) / (lambda_i + lambda_j)
is the classical Pick matrix.

:func:`solve` runs the regularity and membership gates and the f(A) check at
full size on A and B, and poses the R = I system in coordinates on Q (Ball,
Gohberg & Rodman, Interpolation of Rational Matrix Functions, 1990).  Its
blocks I = sqrt(n) Q_0, G_k = sqrt(w_k) sum_j v_jk Q_j, B = sum_j c_j Q_j and
A G_k have the coordinates sqrt(n) e_0, g = V diag(sqrt(w)), c and, up to the
Arnoldi remainder, A_d g; as Q is orthonormal, the d x (m+1) system
[sqrt(n) e_0 | g] S^T = [c | -A_d g] has the S of the full-size one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .commutant import _arnoldi
from .errors import (
    NotInBicommutantError,
    NotLyapunovRegularError,
    RankMismatchError,
    ResidualTooLargeError,
    SingularPencilError,
)
from .hill import HillRepresentation, _check_hill, coefficient_stack
from .lyapunov import _solve_symmetric, _symmetric_lyap_matrix, is_lyapunov_regular
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    _above_rank_cut,
    _square,
    as_matrix,
    kron,
    matrix_to_json,
    psd_factor,
    psd_scale,
    rank_nullspace_pinv,
)
from .pro import SKEW_REL, ProRealization, _eval_pencil

__all__ = [
    "STATUSES",
    "PencilPair",
    "SolveReport",
    "standard_collection",
    "hill_pick",
    "build_pencils",
    "solve_skew",
    "extract_realization",
    "RangeStructure",
    "range_structure",
    "perturb_free_block",
    "solve",
]

STATUSES = (
    "solved",
    "infeasible",
    "not_suboptimal",
    "not_regular",
    "not_in_bicommutant",
    "numerical_failure",
)

_GATE_STATUS = {NotLyapunovRegularError: "not_regular", NotInBicommutantError: "not_in_bicommutant"}


def standard_collection(n: int):
    """The matrix units E_ij in column-major order; their pencils always
    span the full constraint range.

    :func:`solve` does not need them (the probe R = I poses the same
    equations); :func:`range_structure` and :func:`perturb_free_block`
    read the range of the pencils built on this collection.
    """
    out = []
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            out.append(e)
    return out


def _hill_stage(a, b, tol: Tolerances):
    """The Hill stage :func:`solve` and :func:`hill_pick` share, on checked
    input: regularity at full size, one Arnoldi pass (Q, A_d = H), the
    coordinates c of B on Q with membership by the projection residual, and
    n Gamma = V diag(w) V^T (module docstring) under the rank cut.  The core
    representation C_k = sum_j v_jk P_j^T is built only to be checked: the
    P_j = q_j(A_d) come from the Arnoldi recurrence, whose divisors are tiny
    on nearly derogatory A, so it is checked on seeded X as
    L_{A_d,B_d}(X A_d + A_d^T X) = X B_d + B_d^T X, B_d[j, k] = <Q_j, B Q_k>_F.

    Returns (error, q, pick): the first failure's exception or None, Q (None
    if regularity fails), and the Pick data (A_d, c, w, V), w ascending, or None.
    """
    if not is_lyapunov_regular(a, tol):
        return NotLyapunovRegularError("base point has an eigenvalue pair summing to zero at tolerance"), None, None
    q, a_d = _arnoldi(a, tol)
    d, n = a_d.shape[0], a.shape[0]
    flat = q.reshape(d, -1)
    c = flat @ b.reshape(-1)
    residual = float(np.linalg.norm(b.reshape(-1) - c @ flat))
    if residual > tol.residual_abs * (1.0 + np.linalg.norm(b)):
        return NotInBicommutantError(f"target is not in the bicommutant: residual {residual:.6e}"), q, None
    e0_beta = np.outer(np.eye(d)[0], c / np.sqrt(n))
    gamma = _solve_symmetric(_symmetric_lyap_matrix(a_d.T), (e0_beta + e0_beta.T)[None])[0]
    w, v = np.linalg.eigh(n * gamma)
    keep = _above_rank_cut(w, tol)
    w, v = w[keep], v[:, keep]
    b_d = flat @ (b @ q).reshape(d, -1).T
    p = [np.eye(d) / np.sqrt(n)]
    for k in range(d - 1):  # A_d P_k = sum_{j <= k+1} H_jk P_j, solved for P_{k+1}
        p.append((a_d @ p[k] - np.tensordot(a_d[: k + 1, k], p, axes=1)) / a_d[k + 1, k])
    rep = HillRepresentation(d, w.size, tuple(np.tensordot(v.T, p, axes=1).transpose(0, 2, 1)), np.diag(w))
    try:
        _check_hill(rep, lambda x: (x @ a_d + a_d.T @ x, x @ b_d + b_d.T @ x), tol)
    except RankMismatchError as exc:
        return RankMismatchError(f"Hill extraction failed: {exc}"), q, None
    return None, q, (a_d, c, w, v)


def hill_pick(a, b, tol: Tolerances = DEFAULT_TOL):
    """Hill-Pick data of the pair (A, B): the matrix H whose definiteness
    decides feasibility, the coefficients C_k, and the sizes (m, m_max).

    H, the one :func:`solve` reports, is the diagonal of the nonzero Choi
    eigenvalues of L_{A,B}; the n x n C_k are orthonormal (module docstring).

    Raises :func:`solve`'s ValueError, or its first failing gate's
    NotLyapunovRegularError, NotInBicommutantError or RankMismatchError.
    """
    a, b = _square("interpolation data", a, b)
    err, q, pick = _hill_stage(a, b, tol)
    if err is not None:
        raise err
    _, _, w, v = pick
    return np.diag(w), tuple(np.tensordot(v.T, q, axes=1).transpose(0, 2, 1)), w.size, len(q)


@dataclass(frozen=True)
class PencilPair:
    """The pencil matrices L_R, M_R for each probe R in a collection."""

    n: int
    m: int
    collection: tuple
    l_pencils: tuple
    m_pencils: tuple

    def stacked_l(self) -> np.ndarray:
        return np.hstack(self.l_pencils)

    def stacked_m(self) -> np.ndarray:
        return np.hstack(self.m_pencils)


def build_pencils(a, b, hill_matrix, coefficients, collection, tol: Tolerances = DEFAULT_TOL) -> PencilPair:
    """Assemble L_R and M_R for every R in the collection.

    H must be positive definite; its factor H = P^T P enters both pencils.
    """
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0]
    p = psd_factor(hill_matrix, tol)
    m = p.shape[0]
    stack = coefficient_stack(coefficients) if len(coefficients) else np.zeros((0, n))
    if stack.shape != (m * n, n):
        raise ValueError(
            f"coefficient stack has shape {stack.shape}, expected {(m * n, n)}"
        )
    ls, ms = [], []
    for r in collection:
        r = as_matrix(r)
        if r.shape != (n, n):
            raise ValueError("probe matrices must match the base point size")
        ls.append(np.vstack([r, kron(p, r) @ stack]))
        ms.append(np.vstack([r @ b, -(kron(p, r @ a) @ stack)]))
    return PencilPair(n, m, tuple(np.asarray(r) for r in collection), tuple(ls), tuple(ms))


def solve_skew(pencils: PencilPair, tol: Tolerances = DEFAULT_TOL):
    """Least-squares solve of (S kron I_n) L_R = M_R over skew-symmetric S.

    With Lmat, Mmat the matrices whose column q is block q of the stacked
    L_R, M_R flattened, the defect is Lmat S^T - Mmat.  With Lmat =
    U diag(s) V^T, D = U^T Mmat V and S^T = V Y V^T, each pair i < j is a
    2 x 1 least-squares problem: Y_ij = (s_i D_ij - s_j D_ji) / (s_i^2 + s_j^2).
    A pair whose sqrt(s_i^2 + s_j^2) is at most eps * max(m(m+1)/2, Lmat.size)
    times the largest gets the minimum-norm value 0, the cut lstsq applies.

    Returns (S, residual) where residual is the Frobenius norm of the stacked
    defect; raises ResidualTooLargeError when it exceeds
    residual_abs * (1 + ||M_R stack||_F).
    """
    mp1 = pencils.m + 1
    return _skew_lstsq(pencils.stacked_l().reshape(mp1, -1).T, pencils.stacked_m().reshape(mp1, -1).T, tol)


def _skew_lstsq(lmat, mmat, tol: Tolerances):
    """:func:`solve_skew` on the matrices Lmat, Mmat it defines."""
    mp1 = lmat.shape[1]
    # V must be square: a wide Lmat takes the full factors, zero-padding Sigma
    u, sv, vt = np.linalg.svd(lmat, full_matrices=lmat.shape[0] < mp1)
    sig = np.pad(sv, (0, mp1 - sv.size))
    sd = sig[:, None] * np.pad(u.T @ mmat @ vt.T, ((0, mp1 - sv.size), (0, 0)))
    den = sig[:, None] ** 2 + sig**2
    cut = np.finfo(float).eps * max(lmat.size, mp1 * (mp1 - 1) // 2) * np.linalg.norm(sig[:2])
    y = np.divide(sd - sd.T, den, out=np.zeros_like(den), where=np.sqrt(den) > cut)
    s = vt.T @ y.T @ vt
    s = 0.5 * (s - s.T)  # V Y^T V^T is skew up to rounding; make it exact
    residual = float(np.linalg.norm(lmat @ s.T - mmat))
    gate = tol.residual_abs * (1.0 + np.linalg.norm(mmat))
    if residual > gate:
        raise ResidualTooLargeError(
            f"skew pencil system left residual {residual:.3e} above gate {gate:.3e}"
        )
    return s, residual


def extract_realization(s) -> ProRealization:
    """Split S = [[0, ell], [-ell^T, -M]] into the realization (ell, M)."""
    s = _square("skew matrix S", s)
    defect = np.linalg.norm(s + s.T)
    if defect > SKEW_REL * (1.0 + np.linalg.norm(s)):
        raise ValueError(f"matrix is not skew-symmetric: ||S + S^T||_F = {defect:.3e}")
    ell = s[0, 1:]
    return ProRealization.from_state_space(ell, -s[1:, 1:])


@dataclass(frozen=True)
class RangeStructure:
    """The pencil range written as (reduced subspace) kron R^n."""

    dim_range: int
    u_tilde: np.ndarray
    kron_defect: float


def range_structure(pencils: PencilPair, tol: Tolerances = DEFAULT_TOL) -> RangeStructure:
    """Factor the column space of the stacked L_R as U~ kron R^n.

    The orthogonal projector onto the range is compared against
    pi kron I_n, where pi is the blockwise partial trace of that projector;
    kron_defect reports the Frobenius gap, which vanishes exactly when the
    range has the advertised tensor form.
    """
    n, m = pencils.n, pencils.m
    mp1 = m + 1
    ls = pencils.stacked_l()
    u, sv, _ = np.linalg.svd(ls, full_matrices=False)
    rank = int(_above_rank_cut(sv, tol).sum())
    q = u[:, :rank]
    proj = q @ q.T
    pi = np.einsum("pjrj->pr", proj.reshape(mp1, n, mp1, n)) / n
    defect = float(np.linalg.norm(proj - kron(pi, np.eye(n))))
    w, vects = np.linalg.eigh(pi)
    u_tilde = vects[:, w > 0.5]
    return RangeStructure(rank, u_tilde, defect)


def perturb_free_block(s, pencils: PencilPair, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Add a random skew block supported on the complement of the pencil range.

    The constraint (S kron I) L_R = M_R only pins S on the reduced range
    factor, so any skew perturbation living entirely on its orthogonal
    complement produces another exact solution; this helper materializes that
    freedom for testing.
    """
    s = as_matrix(s)
    structure = range_structure(pencils, tol)
    _, q2, _ = rank_nullspace_pinv(structure.u_tilde.T, tol)
    d2 = q2.shape[1]
    if d2 == 0:
        return s.copy()
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d2, d2))
    return s + q2 @ (g - g.T) @ q2.T


@dataclass(frozen=True)
class SolveReport:
    """Full outcome of :func:`solve`, serializable to the documented JSON;
    ``skew_residual`` is that of the full-size R = I pencils (module docstring)."""

    status: str
    hill_pick: Optional[np.ndarray]
    m: Optional[int]
    m_max: Optional[int]
    realization: Optional[ProRealization]
    interp_residual: Optional[float]
    skew_residual: Optional[float]
    diagnostics: str

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "hill_pick": None if self.hill_pick is None else matrix_to_json(self.hill_pick),
            "m": None if self.m is None else int(self.m),
            "m_max": None if self.m_max is None else int(self.m_max),
            "realization": None if self.realization is None else self.realization.to_json(),
            "interp_residual": self.interp_residual,
            "skew_residual": self.skew_residual,
            "diagnostics": self.diagnostics,
        }


def solve(a, b, tol: Tolerances = DEFAULT_TOL) -> SolveReport:
    """Decide and, in the full-rank case, construct f positive real odd with
    f(A) = B.

    Gates run cheapest first and each failure maps to a status rather than an
    exception: not_regular, not_in_bicommutant, not_suboptimal (the minimal
    Hill size m falls short of the bicommutant dimension m_max, so the
    definiteness certificate does not apply), infeasible (H has a genuinely
    negative eigenvalue: no interpolant exists), and numerical_failure for
    borderline or inconsistent numerics.  Success returns status "solved"
    with a realization satisfying ||f(A) - B||_F <= residual_abs (1 + ||B||_F),
    checked at full size on the original A and B.
    """
    a, b = _square("interpolation data", a, b)
    err, q, pick = _hill_stage(a, b, tol)
    mm = None if q is None else len(q)
    if err is not None:
        status = _GATE_STATUS.get(type(err), "numerical_failure")
        return SolveReport(status, None, None, mm, None, None, None, str(err))

    a_d, c, w, v = pick
    h, m = np.diag(w), w.size  # m <= mm: w is cut from the mm eigenvalues of n Gamma
    min_eig, max_eig = (float(w[0]), float(w[-1])) if m else (0.0, 0.0)
    floor = tol.psd_rel * psd_scale(h)
    notes = [f"hill eigenvalue range [{min_eig:.6e}, {max_eig:.6e}]"]

    if m < mm:
        return SolveReport(
            "not_suboptimal", h, m, mm, None, None, None,
            f"minimal Hill size {m} < bicommutant dimension {mm}; "
            "definiteness of the Hill-Pick matrix is not decisive here; " + notes[0],
        )
    if min_eig < -floor:
        return SolveReport(
            "infeasible", h, m, mm, None, None, None,
            f"Hill-Pick matrix has negative eigenvalue {min_eig:.6e}; no interpolant exists; " + notes[0],
        )
    if min_eig <= floor:
        return SolveReport(
            "numerical_failure", h, m, mm, None, None, None,
            f"Hill-Pick matrix is on the positivity boundary (min eigenvalue {min_eig:.6e}); " + notes[0],
        )

    lmat = np.column_stack([np.sqrt(len(a)) * np.eye(mm)[0], v * np.sqrt(w)])  # w > floor > 0 here
    try:
        s, skew_residual = _skew_lstsq(lmat, np.column_stack([c, -a_d @ lmat[:, 1:]]), tol)
        f = extract_realization(s)
        fa = _eval_pencil(f.ell, f.state_matrix, a)  # the original A, which passed the regularity gate
    except (ResidualTooLargeError, SingularPencilError, np.linalg.LinAlgError) as exc:
        return SolveReport(
            "numerical_failure", h, m, mm, None, None, None,
            f"pencil stage failed: {exc}; " + notes[0],
        )

    interp_residual = float(np.linalg.norm(fa - b))
    notes.append(f"skew system residual {skew_residual:.6e}")
    notes.append(f"interpolation residual {interp_residual:.6e}")
    if interp_residual > tol.residual_abs * (1.0 + np.linalg.norm(b)):
        return SolveReport(
            "numerical_failure", h, m, mm, f, interp_residual, skew_residual,
            "constructed realization does not interpolate; " + "; ".join(notes),
        )
    return SolveReport(
        "solved", h, m, mm, f, interp_residual, skew_residual, "; ".join(notes)
    )

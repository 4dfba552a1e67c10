"""End-to-end construction of interpolating positive real odd functions.

Given a Lyapunov regular A and a B in its bicommutant, the pipeline is:
form the quotient Lyapunov map L_{A,B}, take a minimal Hill representation
(C_1..C_m, H), gate on m = m_max (the bicommutant dimension) and on H being
positive definite, factor H = P^T P, assemble for a probe matrix R the
pencil pair

    L_R = [ R ; (P kron R) C ],    M_R = [ R B ; -(P kron R A) C ],

with C the stacked coefficient matrix, and solve (S kron I_n) L_R = M_R for
a skew-symmetric S.  Since L_R = (I_{m+1} kron R) L_I and likewise for M_R,
every probe poses the equations of R = I again, left-multiplied by R, so
:func:`solve` uses the single probe R = I.  Reading ell and M off the first
row and the trailing block of S yields f(z) = ell (z I - M)^{-1} ell^T with
f(A) = B.  The skew least squares splits, in the right singular basis of
the pencil, into one 2 x 1 problem per entry pair of S, each solved in
closed form (:func:`solve_skew`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .commutant import bicommutant_basis, membership
from .errors import (
    NotInBicommutantError,
    NotLyapunovRegularError,
    NotPositiveDefiniteError,
    NotStarLinearError,
    RankMismatchError,
    ResidualTooLargeError,
    SingularPencilError,
)
from .hill import coefficient_stack, minimal_hill
from .lyapunov import _quotient_map, is_lyapunov_regular
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
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
    """The gates in front of the Hill-Pick matrix, cheapest first: Lyapunov
    regularity, membership in {A}'', L_{A,B}, minimal Hill.  Returns (error,
    m_max, rep): the first failing gate's exception or None, with the
    products computed up to that gate and None for the rest.
    """
    a, b = as_matrix(a), as_matrix(b)
    if not is_lyapunov_regular(a, tol):
        err = NotLyapunovRegularError("base point has an eigenvalue pair summing to zero at tolerance")
        return err, None, None
    bic = bicommutant_basis(a, tol)
    mem = membership(b, bic, tol)
    if not mem.is_member:
        err = NotInBicommutantError(f"target is not in the bicommutant: residual {mem.residual:.6e}")
        return err, bic.dim, None
    try:
        return None, bic.dim, minimal_hill(_quotient_map(a, b), tol)
    except (NotStarLinearError, RankMismatchError) as exc:
        return type(exc)(f"Hill extraction failed: {exc}"), bic.dim, None


def hill_pick(a, b, tol: Tolerances = DEFAULT_TOL):
    """Hill-Pick data of the pair (A, B): the matrix H whose definiteness
    decides feasibility, the coefficients C_k, and the sizes (m, m_max).

    Raises the exception of the first gate of :func:`solve` that fails:
    NotLyapunovRegularError, NotInBicommutantError, or the NotStarLinearError
    or RankMismatchError of a failed Hill extraction.
    """
    err, mm, rep = _hill_stage(a, b, tol)
    if err is not None:
        raise err
    return rep.hill_matrix, rep.coefficients, rep.m, mm


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
    lmat = pencils.stacked_l().reshape(mp1, -1).T
    mmat = pencils.stacked_m().reshape(mp1, -1).T
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
    s = as_matrix(s)
    if s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError("expected a nonempty square skew matrix")
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
    cutoff = tol.rank_rel * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
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
    """Full outcome of :func:`solve`, serializable to the documented JSON."""

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
    with a realization satisfying ||f(A) - B||_F <= residual_abs (1 + ||B||_F).
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("solve needs two square matrices of the same size")
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrices are not meaningful interpolation data")

    err, mm, rep = _hill_stage(a, b, tol)
    if err is not None:
        status = _GATE_STATUS.get(type(err), "numerical_failure")
        return SolveReport(status, None, None, mm, None, None, None, str(err))

    h, m = rep.hill_matrix, rep.m
    if m > mm:
        return SolveReport(
            "numerical_failure", h, m, mm, None, None, None,
            f"Hill size {m} exceeds bicommutant dimension {mm}; rank decisions are inconsistent",
        )
    eigs = np.diag(h)  # minimal_hill returns H diagonal, eigenvalues ascending
    min_eig, max_eig = (float(eigs[0]), float(eigs[-1])) if m else (0.0, 0.0)
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

    try:
        pencils = build_pencils(a, b, h, rep.coefficients, [np.eye(n)], tol)
        s, skew_residual = solve_skew(pencils, tol)
        f = extract_realization(s)
        fa = _eval_pencil(f, a)  # A passed the regularity gate in _hill_stage
    except (NotPositiveDefiniteError, ResidualTooLargeError, SingularPencilError, np.linalg.LinAlgError) as exc:
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

"""Choi matrices, block spans, and minimal Hill representations.

A *-linear map L on n x n matrices can be written as
L(V) = sum_{k,l} H_kl C_k V C_l^T with H symmetric; this is a Hill
representation, and it is minimal exactly when the number of coefficient
matrices equals the rank of the Choi matrix of L.  The vectorized blocks
of the matricization of L are the columns of the Choi matrix in another
order, so the coefficients can be any basis of the Choi column space.
:func:`minimal_hill` takes the eigenvectors of the symmetric Choi matrix
for its nonzero eigenvalues, which makes H the diagonal matrix of those
eigenvalues.  Complete positivity of L is positive semidefiniteness of the
Choi matrix, equivalently of H for a minimal representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .commutant import SubspaceBasis
from .errors import NotStarLinearError, RankMismatchError
from .lyapunov import LinearMatrixMap
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    growing_chunks,
    psd_scale,
    symmetry_defect,
    unvec,
)

__all__ = [
    "ChoiMatrix",
    "HillRepresentation",
    "choi",
    "block_span",
    "minimal_hill",
    "apply_hill",
    "coefficient_stack",
    "is_completely_positive",
    "PositivityTestResult",
    "positivity_sample_test",
    "C1Result",
    "c1_diagnostic",
]


@dataclass(frozen=True)
class ChoiMatrix:
    """The n^2 x n^2 Choi matrix of a linear map, block (i,j) = L(E_ij)."""

    n: int
    matrix: np.ndarray

    def is_symmetric(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return symmetry_defect(self.matrix) <= tol.residual_abs * (
            1.0 + np.linalg.norm(self.matrix)
        )


@dataclass(frozen=True)
class HillRepresentation:
    """Coefficients (C_1..C_m, H) of L(V) = sum_kl H_kl C_k V C_l^T."""

    n: int
    m: int
    coefficients: tuple
    hill_matrix: np.ndarray


def choi(lmap: LinearMatrixMap) -> ChoiMatrix:
    """Rearrange the matricization of ``lmap`` into its Choi matrix.

    Entry (a, b) of block (i, j) is entry (b n + a, j n + i) of the
    matricization, since column j n + i holds vec(L(E_ij)); with the
    matricization viewed as M[b, a, j, i] that is one axis permutation.
    """
    n = lmap.n
    m4 = lmap.matricization.reshape(n, n, n, n)
    return ChoiMatrix(n, m4.transpose(3, 1, 2, 0).reshape(n * n, n * n))


def block_span(lmap: LinearMatrixMap, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of the n x n blocks of the matricization.

    The vectorized blocks are the columns of the Choi matrix permuted, so
    this is the column space of the Choi matrix: the basis elements are
    unvecs of its leading left singular vectors, orthonormal in the vec
    inner product, and their number is its SVD rank.
    """
    n = lmap.n
    u, s, _ = np.linalg.svd(choi(lmap).matrix)
    cutoff = tol.rank_rel * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return SubspaceBasis(n, tuple(unvec(u[:, k], n, n) for k in range(rank)))


def apply_hill(rep: HillRepresentation, v: np.ndarray) -> np.ndarray:
    """Evaluate sum_kl H_kl C_k V C_l^T as stack^T (H kron V) stack.

    ``stack`` is :func:`coefficient_stack` of the coefficients.  Block k of
    (H kron V) stack is sum_l H_kl V C_l^T, so it is formed from the m
    products V C_l^T without building the mn x mn Kronecker product.
    """
    v = as_matrix(v)
    n, m = rep.n, rep.m
    if m == 0:
        return np.zeros((n, n))
    stack = coefficient_stack(rep.coefficients)
    v_c = v @ stack.reshape(m, n, n)  # block l is V C_l^T
    return stack.T @ np.tensordot(rep.hill_matrix, v_c, axes=1).reshape(m * n, n)


def coefficient_stack(coefficients) -> np.ndarray:
    """Stack C_1^T, ..., C_m^T vertically into the mn x n matrix used by the
    pencil construction, so that stack^T (H kron V) stack = sum_kl H_kl C_k V C_l^T."""
    mats = [as_matrix(c) for c in coefficients]
    if not mats:
        n = 0
        return np.zeros((0, n))
    return np.vstack([c.T for c in mats])


def minimal_hill(lmap: LinearMatrixMap, tol: Tolerances = DEFAULT_TOL) -> HillRepresentation:
    """Compute a minimal Hill representation of a *-linear map.

    One eigendecomposition of the symmetric Choi matrix gives everything:
    the eigenvectors of the eigenvalues above ``rank_rel`` times the largest
    in magnitude are the vectorized coefficients C_k, orthonormal and
    spanning the Choi column space, and the Hill matrix H is the diagonal
    matrix of those eigenvalues.  The number of coefficients is therefore
    the Choi rank by construction.  The representation is checked against
    the map on random inputs before being returned.

    Raises
    ------
    NotStarLinearError
        if the Choi matrix is not symmetric, i.e. the map is not *-linear.
    RankMismatchError
        if the representation does not reproduce the map.
    """
    n = lmap.n
    cmat = choi(lmap)
    if not cmat.is_symmetric(tol):
        raise NotStarLinearError(
            f"Choi matrix is not symmetric (defect {symmetry_defect(cmat.matrix):.3e}); "
            "the map is not *-linear"
        )
    w, vecs = np.linalg.eigh(0.5 * (cmat.matrix + cmat.matrix.T))
    keep = np.flatnonzero(np.abs(w) > tol.rank_rel * np.abs(w).max(initial=0.0))
    coefficients = tuple(unvec(vecs[:, k], n, n) for k in keep)
    rep = HillRepresentation(n, keep.size, coefficients, np.diag(w[keep]))
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal((n, n))
        lhs = lmap.apply(v)
        rhs = apply_hill(rep, v)
        if np.linalg.norm(lhs - rhs) > tol.residual_abs * (1.0 + np.linalg.norm(lhs)):
            raise RankMismatchError(
                "Hill representation does not reproduce the map on random inputs"
            )
    return rep


def is_completely_positive(lmap: LinearMatrixMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the Choi matrix of the (*-linear) map is PSD at tolerance."""
    cmat = choi(lmap)
    if not cmat.is_symmetric(tol):
        raise NotStarLinearError("Choi matrix is not symmetric; the map is not *-linear")
    sym = 0.5 * (cmat.matrix + cmat.matrix.T)
    w = np.linalg.eigvalsh(sym)
    return bool(w[0] >= -tol.psd_rel * psd_scale(sym))


@dataclass(frozen=True)
class PositivityTestResult:
    """Outcome of the rank-one positivity sampling test."""

    violated: bool
    z: Optional[np.ndarray]
    x: Optional[np.ndarray]
    value: Optional[float]
    trials: int


def _sign_patterns(bits: np.ndarray, n: int) -> np.ndarray:
    """Rows (1, s_1, ..., s_{n-1}) with s_k = -1 where bit k-1 of ``bits`` is set."""
    flips = (bits[:, None] >> np.arange(n - 1)) & 1
    return np.hstack([np.ones((bits.size, 1)), 1.0 - 2.0 * flips])


def _probes(n: int, seed, start: int, stop: int):
    """Probes ``start .. stop-1`` of the positivity test as stacked (z, x) rows.

    The sequence is every coordinate pair (e_i, e_j) in row-major order, then
    every pair of sign patterns, then random unit vectors: probe ``t`` of
    that last part draws z and x from an RNG stream derived from
    ``(seed, t)`` and normalises each on its own.
    """
    n_coord = n * n
    n_struct = n_coord + 4 ** (n - 1)
    # Probe indices stay below 2**62, so capping the pattern count there
    # leaves every quotient and remainder below unchanged.
    n_pat = 1 << min(n - 1, 62)
    zs, xs = [], []

    idx = np.arange(start, min(stop, n_coord))
    if idx.size:
        eye = np.eye(n)
        zs.append(eye[idx // n])
        xs.append(eye[idx % n])

    idx = np.arange(max(start, n_coord), min(stop, n_struct)) - n_coord
    if idx.size:
        zs.append(_sign_patterns(idx // n_pat, n))
        xs.append(_sign_patterns(idx % n_pat, n))

    first = max(start, n_struct)
    if first < stop:
        z, x = np.empty((stop - first, n)), np.empty((stop - first, n))
        for row, t in enumerate(range(first, stop)):
            rng = np.random.default_rng([seed, t])
            z[row] = rng.standard_normal(n)
            x[row] = rng.standard_normal(n)
            z[row] /= np.linalg.norm(z[row])
            x[row] /= np.linalg.norm(x[row])
        zs.append(z)
        xs.append(x)
    return np.vstack(zs), np.vstack(xs)


def positivity_sample_test(
    lmap: LinearMatrixMap,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> PositivityTestResult:
    """Search for z, x with x^T L(z z^T) x < 0.

    Positivity of L is equivalent to (z kron x)^T Choi(L) (z kron x) >= 0
    for all z, x, so each probe evaluates that quadratic form.  Structured
    probes come first (all coordinate pairs, then all sign-pattern pairs),
    followed by random unit vectors; probe ``t`` among those draws from an
    RNG stream derived from ``(seed, t)``, so the verdict and the witness
    depend only on ``(seed, trials)``.  The ``trials`` probes run in chunks
    of 1, 2, 4, ... (:func:`~prointerp.matrix_kit.growing_chunks`), each
    evaluated as one batch of quadratic forms; the first violating probe is
    reported.  Finding no violation is one-sided evidence: positive maps
    that are not completely positive will pass this test.
    """
    n = lmap.n
    cm = choi(lmap).matrix
    threshold = -tol.psd_rel * (1.0 + np.linalg.norm(cm))
    for start, stop in growing_chunks(trials, n * n):
        z, x = _probes(n, seed, start, stop)
        w = (z[:, :, None] * x[:, None, :]).reshape(-1, n * n)  # rows z kron x
        q = ((w @ cm) * w).sum(axis=1)
        hits = np.flatnonzero(q < threshold)
        if hits.size:
            i = int(hits[0])
            return PositivityTestResult(True, z[i].copy(), x[i].copy(), float(q[i]), start + i + 1)
    return PositivityTestResult(False, None, None, None, trials)


@dataclass(frozen=True)
class C1Result:
    """Witness search outcome for joint injectivity of a matrix family."""

    found: bool
    witness: Optional[np.ndarray]
    trials: int


def c1_diagnostic(
    space: SubspaceBasis,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> C1Result:
    """Look for a vector v making {X v : X in basis} linearly independent.

    Such a witness certifies that the stacked evaluation map of the subspace
    has full row rank, the hypothesis under which positivity and complete
    positivity coincide for maps whose block span is this subspace.  No
    witness can exist when dim exceeds n, and failure to find one is
    inconclusive otherwise.  Probes are the coordinate vectors, then the
    all-ones vector, then random unit vectors seeded per trial.
    """
    n, k = space.n, space.dim
    if k > n:
        return C1Result(False, None, 0)
    if k == 0:
        return C1Result(True, np.eye(n)[0] if n else np.zeros(0), 1)

    def full_rank(v):
        m = np.column_stack([x @ v for x in space.basis])
        s = np.linalg.svd(m, compute_uv=False)
        return s.size and s[-1] > tol.rank_rel * s[0]

    probes = [np.eye(n)[i] for i in range(n)]
    probes.append(np.ones(n))
    count = 0
    for v in probes:
        if count >= trials:
            break
        count += 1
        if full_rank(v):
            return C1Result(True, v, count)
    t = count
    while t < trials:
        rng = np.random.default_rng([seed, t])
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        t += 1
        if full_rank(v):
            return C1Result(True, v, t)
    return C1Result(False, None, trials)

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
from itertools import count, islice, product
from typing import Optional

import numpy as np

from .commutant import SubspaceBasis
from .errors import NotStarLinearError, RankMismatchError
from .lyapunov import LinearMatrixMap
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    _above_rank_cut,
    _first_hit,
    _need_draws,
    as_matrix,
    psd_scale,
    symmetry_defect,
    unvec,
)

__all__ = [
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
class HillRepresentation:
    """Coefficients (C_1..C_m, H) of L(V) = sum_kl H_kl C_k V C_l^T."""

    n: int
    m: int
    coefficients: tuple
    hill_matrix: np.ndarray


def choi(lmap: LinearMatrixMap) -> np.ndarray:
    """Rearrange the matricization of ``lmap`` into its n^2 x n^2 Choi
    matrix, whose block (i, j) is L(E_ij).

    Entry (a, b) of block (i, j) is entry (b n + a, j n + i) of the
    matricization, since column j n + i holds vec(L(E_ij)); with the
    matricization viewed as M[b, a, j, i] that is one axis permutation.
    """
    n = lmap.n
    m4 = lmap.matricization.reshape(n, n, n, n)
    return m4.transpose(3, 1, 2, 0).reshape(n * n, n * n)


def _symmetric_choi(lmap: LinearMatrixMap, tol: Tolerances) -> np.ndarray:
    """The symmetrised Choi matrix; NotStarLinearError if its symmetry defect
    exceeds ``residual_abs * (1 + ||Choi||_F)``, i.e. the map is not *-linear."""
    cm = choi(lmap)
    defect = symmetry_defect(cm)
    if defect > tol.residual_abs * (1.0 + np.linalg.norm(cm)):
        raise NotStarLinearError(
            f"Choi matrix is not symmetric (defect {defect:.3e}); the map is not *-linear"
        )
    return 0.5 * (cm + cm.T)


def block_span(lmap: LinearMatrixMap, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of the n x n blocks of the matricization.

    The vectorized blocks are the columns of the Choi matrix permuted, so
    this is the column space of the Choi matrix: the basis elements are
    unvecs of its leading left singular vectors, orthonormal in the vec
    inner product, and their number is its SVD rank.
    """
    n = lmap.n
    u, s, _ = np.linalg.svd(choi(lmap))
    rank = int(_above_rank_cut(s, tol).sum())
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
        return np.zeros((0, 0))
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
    w, vecs = np.linalg.eigh(_symmetric_choi(lmap, tol))
    keep = np.flatnonzero(_above_rank_cut(w, tol))
    coefficients = tuple(unvec(vecs[:, k], n, n) for k in keep)
    rep = HillRepresentation(n, keep.size, coefficients, np.diag(w[keep]))
    _check_hill(rep, lambda v: (v, lmap.apply(v)), tol)
    return rep


def _check_hill(rep: HillRepresentation, probe, tol: Tolerances) -> None:
    """RankMismatchError unless ``rep`` reproduces its map L on 20 seeded
    inputs, at ``residual_abs``; ``probe`` maps a random X to (V, L(V))."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        v, lhs = probe(rng.standard_normal((rep.n, rep.n)))
        if np.linalg.norm(lhs - apply_hill(rep, v)) > tol.residual_abs * (1.0 + np.linalg.norm(lhs)):
            raise RankMismatchError("Hill representation does not reproduce the map on random inputs")


def is_completely_positive(lmap: LinearMatrixMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the Choi matrix of the (*-linear) map is PSD at tolerance."""
    if lmap.n < 1:
        raise ValueError("is_completely_positive needs n >= 1")
    sym = _symmetric_choi(lmap, tol)
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


def _probes(n: int, seed):
    """The probes of the positivity test as (z, x) pairs: every coordinate
    pair (e_i, e_j) in row-major order, then every pair of sign patterns
    (1, s_1, ..., s_{n-1}), pattern k with s_j = -1 where bit j-1 of k is
    set, then random unit vectors without end: probe ``t`` of that last part
    draws z and x from an RNG stream derived from ``(seed, t)`` and
    normalises each on its own."""

    def patterns():
        for k in range(1 << (n - 1)):
            yield np.hstack([1.0, 1.0 - 2.0 * ((k >> np.arange(n - 1)) & 1)])

    yield from product(np.eye(n), repeat=2)
    yield from ((z, x) for z in patterns() for x in patterns())
    for t in count(n * n + 4 ** (n - 1)):
        rng = np.random.default_rng([seed, t])
        z, x = rng.standard_normal(n), rng.standard_normal(n)
        yield z / np.linalg.norm(z), x / np.linalg.norm(x)


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
    depend only on ``(seed, trials)``.  The ``trials`` probes run through
    the first-hit search (:func:`~prointerp.matrix_kit._first_hit`), each
    chunk one batch of quadratic forms; the first violating probe is
    reported.  Finding no violation is one-sided evidence: positive maps
    that are not completely positive will pass this test.

    Before any probe, the smallest eigenvalue of the symmetrised Choi matrix
    is read off: every probe w = z kron x has ||w||^2 <= n^2 (equality for
    the sign patterns, 1 for the others), so every probe value is at least
    n^2 min(lambda_min, 0).  When that bound, less a rounding margin, clears
    the violation threshold, no probe can fire, and the clear result is
    returned without building a probe or an RNG.  The result is identical
    to the one the probes would give.  Completely positive maps, whose Choi
    matrix is PSD (Choi 1975), take this path while the margin stays below
    the threshold: up to n = 16 at the default ``psd_rel``.
    """
    _need_draws(trials)
    n = lmap.n
    if n < 1:
        raise ValueError("positivity_sample_test needs n >= 1")
    cm = choi(lmap)
    norm = np.linalg.norm(cm)
    threshold = -tol.psd_rel * (1.0 + norm)
    lam_min = np.linalg.eigvalsh(0.5 * (cm + cm.T))[0]
    # The margin bounds the rounding in eigvalsh and in each probe's q.
    margin = 64.0 * np.finfo(float).eps * n**4 * (1.0 + norm)
    if n * n * min(lam_min, 0.0) - margin >= threshold:
        return PositivityTestResult(False, None, None, None, trials)
    return _probe_search(cm, n, trials, seed, threshold)


def _probe_search(cm: np.ndarray, n: int, trials: int, seed, threshold: float) -> PositivityTestResult:
    """Run the probes of :func:`positivity_sample_test` against the Choi
    matrix ``cm`` and report the first with q < ``threshold``."""

    def values(zx):
        w = (zx[:, 0, :, None] * zx[:, 1, None, :]).reshape(-1, n * n)  # rows z kron x
        q = ((w @ cm) * w).sum(axis=1)
        return q < threshold, q

    t, zx, q = _first_hit(islice(_probes(n, seed), trials), values, n * n)
    if t is None:
        return PositivityTestResult(False, None, None, None, trials)
    return PositivityTestResult(True, zx[0].copy(), zx[1].copy(), float(q), t + 1)


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
    all-ones vector, then random unit vectors seeded per trial, run through
    the first-hit search (:func:`~prointerp.matrix_kit._first_hit`) with
    one stacked SVD per chunk.
    """
    _need_draws(trials)
    n, k = space.n, space.dim
    if k > n:
        return C1Result(False, None, 0)
    if k == 0:
        return C1Result(True, np.eye(n)[0] if n else np.zeros(0), 1)
    basis = np.array(space.basis)

    def full_rank(v):
        s = np.linalg.svd((basis @ v.T).T, compute_uv=False)  # matrix t: [X_1 v_t, ..., X_k v_t]
        return s[:, -1] > tol.rank_rel * s[:, 0], s

    def probes():
        yield from [*np.eye(n), np.ones(n)]
        for t in count(n + 1):
            v = np.random.default_rng([seed, t]).standard_normal(n)
            yield v / np.linalg.norm(v)

    t, v, _ = _first_hit(islice(probes(), trials), full_rank, n * k)
    if t is None:
        return C1Result(False, None, trials)
    return C1Result(True, v.copy(), t + 1)

"""Commutants, bicommutants, and membership in matrix subspaces.

The commutant of A is computed as the nullspace of the matricized
commutation operator X -> A X - X A.  For a single real matrix the
bicommutant {A}'' is the unital algebra R[A] generated by A (the double
commutant theorem), and its dimension is the degree of the minimal
polynomial.  It is therefore built as the Krylov power basis of A, the span
of I, A, A^2, ..., with Arnoldi orthonormalisation in the vec (Frobenius)
inner product, and never as the nullspace of a stacked operator.  That one
Arnoldi pass also gives the Hessenberg matrix H of X -> A X on the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix_kit import DEFAULT_TOL, Tolerances, _square, as_matrix, kron, rank_nullspace_pinv, unvec, vec

__all__ = [
    "SubspaceBasis",
    "commutant_basis",
    "bicommutant_basis",
    "m_max",
    "MembershipResult",
    "membership",
]


@dataclass(frozen=True)
class SubspaceBasis:
    """A linearly independent list of n x n matrices spanning a subspace."""

    n: int
    basis: tuple

    def __post_init__(self):
        shape = (len(self.basis), self.n, self.n)
        stack = np.asarray(self.basis) if shape[0] else np.zeros(shape)  # ValueError if ragged
        if np.iscomplexobj(stack):
            raise ValueError("basis matrices must be real, got complex entries")
        stack = stack.astype(float, copy=False)
        if stack.shape != shape or not np.all(np.isfinite(stack)):
            raise ValueError(f"basis must be {shape[0]} finite matrices of shape {shape[1:]}")
        object.__setattr__(self, "basis", tuple(stack))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stacked_vecs(self) -> np.ndarray:
        """The n^2 x dim matrix whose columns are vec of the basis elements."""
        if not self.basis:
            return np.zeros((self.n * self.n, 0))
        return np.column_stack([vec(b) for b in self.basis])


def _commutation_operator(k: np.ndarray) -> np.ndarray:
    """Matricization of X -> K X - X K."""
    n = k.shape[0]
    eye = np.eye(n)
    return kron(eye, k) - kron(k.T, eye)


def commutant_basis(a, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis (in the vec inner product) of {X : A X = X A}."""
    a = _square("commutant_basis input", a)
    n = a.shape[0]
    _, null, _ = rank_nullspace_pinv(_commutation_operator(a), tol)
    return SubspaceBasis(n, tuple(unvec(null[:, j], n, n) for j in range(null.shape[1])))


def _arnoldi(a: np.ndarray, tol: Tolerances):
    """The power basis of {A}'' and the matrix of X -> A X on it.

    Arnoldi in the vec inner product: q_0 = I / sqrt(n), and each A q_k is
    orthogonalised twice against q_0..q_k.  The basis stops at the first
    remainder w with ||w||_F <= rank_rel * ||A q_k||_F, that is, at the
    first power of A that depends on the lower ones, so its length d is the
    degree of the minimal polynomial; by Cayley-Hamilton d <= n.

    Returns the d x n x n stack Q and the d x d upper Hessenberg H with
    A Q_k = sum_j H_jk Q_j up to the dropped remainder: both passes'
    coefficients, ||w||_F below the diagonal, and a last column also when d = n.
    """
    n = a.shape[0]
    q = [np.eye(n).reshape(n * n) / np.sqrt(n)]
    h = np.zeros((n, n))
    for k in range(n):
        flat = np.array(q)
        aq = (a @ q[k].reshape(n, n)).reshape(n * n)
        w = aq
        for _ in range(2):
            c = flat @ w
            w = w - c @ flat
            h[: k + 1, k] += c
        norm = np.linalg.norm(w)
        if k == n - 1 or norm <= tol.rank_rel * np.linalg.norm(aq):
            break
        h[k + 1, k] = norm
        q.append(w / norm)
    return flat.reshape(k + 1, n, n), h[: k + 1, : k + 1].copy()  # a view would pin all n x n


def bicommutant_basis(a, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of {A}'' = R[A], the Krylov power basis of ``a``
    (see :func:`_arnoldi`): it starts with I / sqrt(n) and its length is the
    degree of the minimal polynomial."""
    a = _square("bicommutant_basis input", a)
    return SubspaceBasis(a.shape[0], _arnoldi(a, tol)[0])


def m_max(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of {A}'', the degree of the minimal polynomial of ``a``:
    the length of the power basis from :func:`bicommutant_basis`."""
    return bicommutant_basis(a, tol).dim


@dataclass(frozen=True)
class MembershipResult:
    """Least-squares membership verdict for a matrix against a subspace."""

    is_member: bool
    coords: Optional[np.ndarray]
    residual: float


def membership(b, space: SubspaceBasis, tol: Tolerances = DEFAULT_TOL) -> MembershipResult:
    """Decide whether ``b`` lies in ``space`` up to the residual gate.

    The coordinates are the least-squares coefficients of vec(b) against the
    stacked basis vectors; membership requires the residual to stay below
    residual_abs * (1 + ||b||_F).
    """
    b = as_matrix(b)
    if b.shape != (space.n, space.n):
        raise ValueError(f"matrix has shape {b.shape}, expected {(space.n, space.n)}")
    target = vec(b)
    v = space.stacked_vecs()
    coords, *_ = np.linalg.lstsq(v, target, rcond=None)
    residual = float(np.linalg.norm(v @ coords - target))
    if residual <= tol.residual_abs * (1.0 + np.linalg.norm(b)):
        return MembershipResult(True, coords, residual)
    return MembershipResult(False, None, residual)

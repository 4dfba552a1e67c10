"""Commutants, bicommutants, and membership in matrix subspaces.

The commutant of A is computed as the nullspace of the matricized
commutation operator X -> A X - X A.  For a single real matrix the
bicommutant {A}'' is the unital algebra R[A] generated by A (the double
commutant theorem), and its dimension is the degree of the minimal
polynomial.  It is therefore built as the Krylov power basis of A, the span
of I, A, A^2, ..., with Arnoldi orthonormalisation in the vec (Frobenius)
inner product, and never as the nullspace of a stacked operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix_kit import DEFAULT_TOL, Tolerances, as_matrix, kron, rank_nullspace_pinv, unvec, vec

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
        mats = tuple(as_matrix(b) for b in self.basis)
        for b in mats:
            if b.shape != (self.n, self.n):
                raise ValueError(f"basis element has shape {b.shape}, expected square of size {self.n}")
        object.__setattr__(self, "basis", mats)

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


def _square(a, name: str) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"{name} needs a nonempty square matrix")
    return a


def commutant_basis(a, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis (in the vec inner product) of {X : A X = X A}."""
    a = _square(a, "commutant_basis")
    n = a.shape[0]
    _, null, _ = rank_nullspace_pinv(_commutation_operator(a), tol)
    return SubspaceBasis(n, tuple(unvec(null[:, j], n, n) for j in range(null.shape[1])))


def bicommutant_basis(a, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of {A}'' = R[A], the Krylov power basis of ``a``.

    Arnoldi in the vec inner product: q_0 = I / sqrt(n), and each A q_k is
    orthogonalised twice against q_0..q_k.  The basis stops at the first
    remainder w with ||w||_F <= rank_rel * ||A q_k||_F, that is, at the
    first power of A that depends on the lower ones, so the basis starts
    with I / sqrt(n) and its length is the degree of the minimal
    polynomial.  By Cayley-Hamilton it has at most n elements.
    """
    a = _square(a, "bicommutant_basis")
    n = a.shape[0]
    basis = [np.eye(n) / np.sqrt(n)]
    for _ in range(n - 1):
        aq = a @ basis[-1]
        q = np.array(basis).reshape(len(basis), n * n)
        w = aq.reshape(n * n)
        for _ in range(2):
            w = w - (q @ w) @ q
        norm = np.linalg.norm(w)
        if norm <= tol.rank_rel * np.linalg.norm(aq):
            break
        basis.append((w / norm).reshape(n, n))
    return SubspaceBasis(n, tuple(basis))


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

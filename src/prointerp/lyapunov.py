"""Lyapunov maps, Lyapunov regularity, and the sampled Lyapunov order test.

The central object is the map L_Y(X) = X Y + Y^T X acting on n x n real
matrices.  Y is called Lyapunov regular when no two eigenvalues of Y sum to
zero (lambda_i + conj(lambda_j) != 0), which is exactly invertibility of
L_Y.  For a regular A the quotient map L_{A,B} = L_B o L_A^{-1} carries the
Lyapunov order: A <= B in the Lyapunov order iff L_{A,B} maps the positive
semidefinite cone into itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotLyapunovRegularError
from .matrix_kit import DEFAULT_TOL, Tolerances, _first_hit, _need_draws, _square, as_matrix, kron, psd_scale, unvec, vec

__all__ = [
    "LinearMatrixMap",
    "lyap_map",
    "is_lyapunov_regular",
    "lab_map",
    "solve_lyapunov",
    "sample_lyapunov_solution",
    "OrderTestResult",
    "lyap_order_sample_test",
]


@dataclass(frozen=True)
class LinearMatrixMap:
    """A linear map on n x n real matrices, stored as its n^2 x n^2
    matricization with respect to column-stacking vec."""

    n: int
    matricization: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matricization)
        if m.shape != (self.n * self.n, self.n * self.n):
            raise ValueError(
                f"matricization has shape {m.shape}, expected {(self.n**2, self.n**2)}"
            )
        object.__setattr__(self, "matricization", m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != (self.n, self.n):
            raise ValueError(f"operand has shape {x.shape}, expected {(self.n, self.n)}")
        return unvec(self.matricization @ vec(x), self.n, self.n)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[np.ndarray], np.ndarray]):
        """Matricize ``fn`` by evaluating it on the matrix units E_ij."""
        mat = np.zeros((n * n, n * n))
        for j in range(n):
            for i in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                mat[:, j * n + i] = vec(as_matrix(fn(e)))
        return cls(n, mat)


def lyap_map(y) -> LinearMatrixMap:
    """The Lyapunov map L_Y(X) = X Y + Y^T X as a :class:`LinearMatrixMap`."""
    y = as_matrix(y)
    if y.shape[0] != y.shape[1]:
        raise ValueError("lyap_map needs a square matrix")
    n = y.shape[0]
    eye = np.eye(n)
    return LinearMatrixMap(n, kron(y.T, eye) + kron(eye, y.T))


def is_lyapunov_regular(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether no two eigenvalues of ``a`` sum to zero, at tolerance.

    The test is min_{i,j} |lambda_i + conj(lambda_j)| > regular_rel * max |lambda|,
    so the zero matrix and any matrix with purely imaginary eigenvalue pairs
    are rejected.
    """
    a = _square("is_lyapunov_regular input", a)
    lam = np.linalg.eigvals(a)
    sums = np.abs(lam[:, None] + np.conj(lam[None, :]))
    return bool(sums.min() > tol.regular_rel * np.abs(lam).max())


def lab_map(a, b, tol: Tolerances = DEFAULT_TOL) -> LinearMatrixMap:
    """The quotient map L_{A,B} = L_B o L_A^{-1} for Lyapunov regular ``a``.

    Raises NotLyapunovRegularError when ``a`` fails the regularity test.
    """
    a, b = _square("lab_map input", a, b)
    if not is_lyapunov_regular(a, tol):
        raise NotLyapunovRegularError("base point is not Lyapunov regular")
    la = lyap_map(a).matricization
    lb = lyap_map(b).matricization
    # L_B L_A^{-1} without forming the inverse: solve L_A^T Z = L_B^T.
    return LinearMatrixMap(a.shape[0], np.linalg.solve(la.T, lb.T).T)


def _symmetric_lyap_matrix(a: np.ndarray) -> np.ndarray:
    """L_A restricted to symmetric matrices, as a p x p matrix, p = n(n+1)/2.

    Unknowns and equations are the entries (i, j), i <= j, in
    ``np.triu_indices`` order: column (k, l) holds the upper triangle of
    L_A(S_kl), with S_kl = E_kl + E_lk for k < l and S_kk = E_kk.  For
    symmetric S, L_A(S) = S A + (S A)^T, and S_kl A has row A[l] at k and
    row A[k] at l, so adding S A into the slot of (min(i, j), max(i, j))
    gives (S A)[i, j] + (S A)[j, i] off the diagonal; diagonal slots get
    one term and are doubled.  L_A is invertible on symmetric matrices
    whenever ``a`` is Lyapunov regular.
    """
    n = a.shape[0]
    k, l = np.triu_indices(n)
    slot = np.empty((n, n), dtype=np.intp)
    slot[k, l] = slot[l, k] = np.arange(k.size)
    cols = np.arange(k.size)[:, None]
    lsym = np.zeros((k.size, k.size))
    lsym[slot[k], cols] = a[l]
    off = k < l
    lsym[slot[l[off]], cols[off]] += a[k[off]]
    lsym[slot[np.arange(n), np.arange(n)]] *= 2.0
    return lsym


def _solve_symmetric(lsym: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The stack of H_c with L_A(H_c) = Q_c for a stack ``q`` of symmetric
    Q_c, given ``lsym`` from :func:`_symmetric_lyap_matrix`.  Only the upper
    triangles of the Q_c are read, and each H_c is filled from both
    triangles of one solution vector, so it is exactly symmetric."""
    n = q.shape[-1]
    rows, cols = np.triu_indices(n)
    x = np.linalg.solve(lsym, q[:, rows, cols].T).T
    h = np.empty(q.shape)
    h[:, rows, cols] = x
    h[:, cols, rows] = x
    return h


def solve_lyapunov(a, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve H A + A^T H = sym(Q) = (Q + Q^T)/2 for Lyapunov regular ``a``.

    The system is posed on symmetric H, in the n(n+1)/2 unknowns H[i, j],
    i <= j, one equation per entry of the upper triangle of sym(Q); the
    n^2 x n^2 matricization of L_A is never formed.  Since L_A commutes
    with transposition, this H is also the symmetric part of the solution
    of H A + A^T H = Q, and it is exactly symmetric.
    """
    a, q = as_matrix(a), as_matrix(q)
    if q.shape != a.shape:
        raise ValueError(f"right-hand side has shape {q.shape}, expected {a.shape}")
    if not is_lyapunov_regular(a, tol):
        raise NotLyapunovRegularError("base point is not Lyapunov regular")
    return _solve_symmetric(_symmetric_lyap_matrix(a), 0.5 * (q + q.T)[None])[0]


def sample_lyapunov_solution(a, seed, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Draw G ~ N(0,1), set Q = G G^T, and return the H with H A + A^T H = Q.

    Every H in the solution cone arises this way up to closure, so sampling H
    like this explores the constraint set of the Lyapunov order.
    """
    a = as_matrix(a)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(a.shape)
    return solve_lyapunov(a, g @ g.T, tol)


@dataclass(frozen=True)
class OrderTestResult:
    """Outcome of the randomized one-sided Lyapunov order test."""

    violated: bool
    witness: Optional[np.ndarray]
    trial_index: Optional[int]
    trials: int


def lyap_order_sample_test(
    a,
    b,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    threads: int = 1,
) -> OrderTestResult:
    """Search for H with H A + A^T H >= 0 but H B + B^T H not >= 0.

    A witness H disproves A <= B in the Lyapunov order; finding none is
    one-sided evidence only.  Trial ``t`` is
    ``sample_lyapunov_solution(a, [seed, t])``: it draws from an RNG stream
    derived from ``(seed, t)`` alone, so the verdict depends only on
    ``(seed, trials)`` and the reported witness is the one with the smallest
    trial index.

    Every sampled H is symmetric, so the trials solve L_A on symmetric
    matrices: a p x p system, p = n(n+1)/2, in the unknowns H[i, j],
    i <= j, built once per call; the n^2 x n^2 L_A is never formed.  The
    trials run through :func:`~prointerp.matrix_kit._first_hit` in chunks of
    1, 2, 4, ...: each chunk solves the upper triangles of its G G^T in one
    call and checks the stacked K = H B + B^T H with one batched eigenvalue
    call.  A witness at trial 0 therefore costs one solve, and a clear run
    about log2(trials).
    ``threads`` has no effect; it is kept only because the benchmark's
    ``perfbench/run.py`` passes ``threads=1``.
    """
    _need_draws(trials)
    a, b = _square("order test data", a, b)
    if not is_lyapunov_regular(a, tol):
        raise NotLyapunovRegularError("base point is not Lyapunov regular")

    n = a.shape[0]
    lsym = _symmetric_lyap_matrix(a)

    def outside_b_cone(q):
        h = _solve_symmetric(lsym, q)
        k = h @ b + b.T @ h
        k = 0.5 * (k + k.transpose(0, 2, 1))
        return np.linalg.eigvalsh(k)[:, 0] < -tol.psd_rel * psd_scale(k), h

    draws = (np.random.default_rng([seed, t]).standard_normal((n, n)) for t in range(trials))
    t, _, h = _first_hit((g @ g.T for g in draws), outside_b_cone, n * n)
    if t is None:
        return OrderTestResult(False, None, None, trials)
    return OrderTestResult(True, h.copy(), t, trials)

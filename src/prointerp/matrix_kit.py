"""Dense linear algebra substrate shared by the whole package.

Conventions used everywhere: matrices are real 2-D float64 arrays,
vectorization stacks columns (Fortran order), and Kronecker products pair
with vec through vec(B X A^T) = (A kron B) vec(X).  Rank decisions are
made once, here, from singular values against a single relative cutoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NotSymmetricError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "vec",
    "unvec",
    "kron",
    "eigenvalues",
    "rank_nullspace_pinv",
    "psd_scale",
    "psd_factor",
    "symmetry_defect",
    "matrix_to_json",
    "matrix_from_json",
    "parse_matrix_text",
    "format_matrix_text",
    "loads_matrix",
    "load_matrix",
    "growing_chunks",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric gates used by every rank / positivity / residual decision.

    rank_rel      relative singular-value cutoff for rank decisions
    psd_rel       relative eigenvalue floor for positive (semi)definiteness
    residual_abs  absolute residual gate, scaled by (1 + data norm)
    regular_rel   relative floor for Lyapunov regularity of eigenvalue sums
    """

    rank_rel: float = 1e-9
    psd_rel: float = 1e-9
    residual_abs: float = 1e-8
    regular_rel: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "psd_rel", "residual_abs", "regular_rel"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"tolerance {name} must be finite and positive, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def vec(x: np.ndarray) -> np.ndarray:
    """Stack the columns of ``x`` into a single vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``rows x cols`` matrix."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape {v.size} entries into {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, paired with :func:`vec` by vec(BXA^T) = (A kron B) vec(X)."""
    return np.kron(a, b)


def eigenvalues(x: np.ndarray) -> np.ndarray:
    """Full complex spectrum of a square matrix, sorted by (real, imag)."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("eigenvalues need a square matrix")
    return np.sort_complex(np.linalg.eigvals(x)) if x.size else np.zeros(0, complex)


def rank_nullspace_pinv(x, tol: Tolerances = DEFAULT_TOL):
    """SVD-based rank, orthonormal nullspace, and pseudoinverse of ``x``.

    Singular values at or below ``tol.rank_rel`` times the largest one are
    treated as zero; the same cut is used for all three outputs, so
    rank + nullspace dimension always equals the column count.

    Returns
    -------
    rank : int
    nullspace : (cols, cols - rank) array with orthonormal columns
    pinv : (cols, rows) array
    """
    x = as_matrix(x)
    rows, cols = x.shape
    if x.size == 0:
        return 0, np.eye(cols), np.zeros((cols, rows))
    # The nullspace needs all of V^T, which a thin SVD already gives for
    # tall input; only wide input needs the full (square) factors.
    u, s, vt = np.linalg.svd(x, full_matrices=rows < cols)
    cutoff = tol.rank_rel * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    nullspace = vt[rank:].T
    if rank:
        pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    else:
        pinv = np.zeros((cols, rows))
    return rank, nullspace, pinv


_CHUNK_ELEMENTS = 1 << 20  # 8 MiB of float64 per batched array


def growing_chunks(total: int, width: int):
    """Split ``range(total)`` into ``(start, stop)`` chunks of 1, 2, 4, ... items.

    Sampling tests evaluate their trials chunk by chunk and stop at the first
    violation, so a violation at trial 0 costs one item of work and a clear
    run about log2(total) batched calls.  Chunk growth stops once a chunk
    holds ``_CHUNK_ELEMENTS`` floats at ``width`` floats per item, which
    bounds the memory of a batch.
    """
    cap = max(1, _CHUNK_ELEMENTS // max(1, width))
    start, size = 0, 1
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start, size = stop, min(2 * size, cap)


def psd_scale(h: np.ndarray):
    """Trace-based scale ``|trace|/m + 1`` used by eigenvalue floors.

    A stack of m x m matrices gets one scale per matrix; a 0 x 0 matrix
    gets 1.
    """
    h = np.asarray(h)
    return np.abs(np.trace(h, axis1=-2, axis2=-1)) / max(h.shape[-1], 1) + 1.0


def symmetry_defect(h: np.ndarray) -> float:
    """Frobenius norm ``||H - H^T||_F``, twice that of the antisymmetric part."""
    h = np.asarray(h)
    return float(np.linalg.norm(h - h.T))


def psd_factor(h, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Factor a symmetric positive definite ``H`` as ``H = P^T P``.

    The factor is built from a symmetric eigendecomposition,
    ``P = diag(sqrt(w)) Q^T``, rather than a Cholesky factorization, so the
    failure report can name the offending eigenvalue.

    Raises
    ------
    NotSymmetricError
        if ``||H - H^T||_F`` exceeds ``residual_abs * (1 + ||H||_F)``.
    NotPositiveDefiniteError
        if some eigenvalue does not exceed ``psd_rel * (|trace|/m + 1)``.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("psd_factor needs a square matrix")
    if h.size == 0:
        return np.zeros((0, 0))
    if symmetry_defect(h) > tol.residual_abs * (1.0 + np.linalg.norm(h)):
        raise NotSymmetricError(
            f"matrix is not symmetric: ||H - H^T||_F = {symmetry_defect(h):.3e}"
        )
    hs = 0.5 * (h + h.T)
    w, q = np.linalg.eigh(hs)
    floor = tol.psd_rel * psd_scale(hs)
    if w[0] <= floor:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:.6e} is at or below the floor {floor:.3e}"
        )
    return (np.sqrt(w)[:, None] * q.T)


# ---------------------------------------------------------------------------
# matrix file formats
#
# JSON form: {"rows": r, "cols": c, "data": [[row 0], [row 1], ...]}
# Text form: one whitespace-separated row per line.
# The two are told apart by the first non-whitespace byte ('{' means JSON).
# ---------------------------------------------------------------------------


def matrix_to_json(x: np.ndarray) -> dict:
    """Represent a matrix as the documented JSON object."""
    x = as_matrix(x)
    return {"rows": int(x.shape[0]), "cols": int(x.shape[1]), "data": x.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the documented JSON object back into a matrix."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    missing = {"rows", "cols", "data"} - obj.keys()
    if missing:
        raise ValueError(f"matrix JSON is missing keys: {sorted(missing)}")
    rows, cols = int(obj["rows"]), int(obj["cols"])
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be nonnegative")
    data = obj["data"]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("data shape does not match rows/cols")
    return np.asarray(data, dtype=float).reshape(rows, cols)


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse a plain-text matrix, one whitespace-separated row per line."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in matrix text")
    try:
        return np.asarray([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ValueError(f"bad numeric entry in matrix text: {exc}") from None


def format_matrix_text(x: np.ndarray) -> str:
    """Render a matrix in the plain-text format (17 significant digits)."""
    x = as_matrix(x)
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in x)


def loads_matrix(text: str) -> np.ndarray:
    """Parse a matrix from a string, auto-detecting JSON versus plain text."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty matrix input")
    if stripped[0] == "{":
        return matrix_from_json(json.loads(text))
    return parse_matrix_text(text)


def load_matrix(path) -> np.ndarray:
    """Read a matrix file in either supported format."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())

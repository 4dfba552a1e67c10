"""Lossless state-space realizations of positive real odd functions.

The functions handled here have the form f(z) = ell (z I_m - M)^{-1} ell^T
with M skew-symmetric and ell a real row vector.  Every such f is rational,
odd (f(-conj(z)) = -conj(f(z))), nonnegative on the positive real axis, and
has all poles and zeros on the imaginary axis; the skewness of M is what
guarantees all of this, so the type stores only the strict lower triangle
of M and rebuilds the skew matrix on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotLyapunovRegularError, PoleHitError, SingularPencilError
from .lyapunov import is_lyapunov_regular
from .matrix_kit import DEFAULT_TOL, Tolerances, as_matrix, kron

__all__ = [
    "ProRealization",
    "eval_scalar",
    "eval_matrix",
    "ProDiagnostics",
    "realization_checks",
    "pro_diagnostics",
]

SKEW_REL = 1e-9  # skew-symmetric means ||M + M^T||_F <= SKEW_REL (1 + ||M||_F)


def _strict_lower(m: np.ndarray) -> np.ndarray:
    """Row-major strict lower triangle of a square matrix."""
    idx = np.tril_indices(m.shape[0], k=-1)
    return m[idx]


def _from_strict_lower(values: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((m, m))
    out[np.tril_indices(m, k=-1)] = values
    return out - out.T


@dataclass(frozen=True)
class ProRealization:
    """A pair (ell, M) with M skew-symmetric, encoding
    f(z) = ell (z I - M)^{-1} ell^T.

    ``m_lower`` holds the strict lower triangle of M in row-major order, so
    M + M^T = 0 holds exactly by construction.
    """

    ell: np.ndarray
    m_lower: np.ndarray

    def __post_init__(self):
        ell = np.atleast_1d(np.asarray(self.ell, dtype=float)).reshape(-1)
        low = np.atleast_1d(np.asarray(self.m_lower, dtype=float)).reshape(-1)
        m = ell.size
        if low.size != m * (m - 1) // 2:
            raise ValueError(
                f"M_lower has {low.size} entries, expected {m * (m - 1) // 2} for state dimension {m}"
            )
        if (ell.size and not np.all(np.isfinite(ell))) or (
            low.size and not np.all(np.isfinite(low))
        ):
            raise ValueError("realization entries must be finite")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m_lower", low)

    @property
    def m(self) -> int:
        return self.ell.size

    @property
    def state_matrix(self) -> np.ndarray:
        """The skew-symmetric M, rebuilt from its strict lower triangle."""
        return _from_strict_lower(self.m_lower, self.m)

    @classmethod
    def from_state_space(cls, ell, m_matrix):
        """Build a realization from (ell, M), verifying M is skew-symmetric.

        The symmetric part of M must vanish to within
        ``SKEW_REL * (1 + ||M||_F)``; within that band it is discarded, so
        the stored matrix is exactly skew.
        """
        mm = as_matrix(m_matrix) if np.size(m_matrix) else np.zeros((0, 0))
        if mm.shape[0] != mm.shape[1]:
            raise ValueError("state matrix must be square")
        defect = np.linalg.norm(mm + mm.T)
        if defect > SKEW_REL * (1.0 + np.linalg.norm(mm)):
            raise ValueError(
                f"state matrix is not skew-symmetric: ||M + M^T||_F = {defect:.3e}"
            )
        return cls(np.asarray(ell, dtype=float).reshape(-1), _strict_lower(0.5 * (mm - mm.T)))

    def poles(self) -> np.ndarray:
        """Eigenvalues of M (all purely imaginary), candidate poles of f."""
        if self.m == 0:
            return np.zeros(0, dtype=complex)
        return np.sort_complex(np.linalg.eigvals(self.state_matrix))

    def to_json(self) -> dict:
        return {
            "m": int(self.m),
            "ell": [float(v) for v in self.ell],
            "M_lower": [float(v) for v in self.m_lower],
        }

    @classmethod
    def from_json(cls, obj) -> "ProRealization":
        if not isinstance(obj, dict):
            raise ValueError("realization JSON must be an object")
        missing = {"m", "ell", "M_lower"} - obj.keys()
        if missing:
            raise ValueError(f"realization JSON is missing keys: {sorted(missing)}")
        m = int(obj["m"])
        ell = np.asarray(obj["ell"], dtype=float).reshape(-1)
        if ell.size != m:
            raise ValueError(f"ell has {ell.size} entries, expected m = {m}")
        return cls(ell, np.asarray(obj["M_lower"], dtype=float).reshape(-1))


def eval_scalar(f: ProRealization, z, tol: Tolerances = DEFAULT_TOL) -> complex:
    """Evaluate f at a scalar point by solving (z I - M) x = ell^T.

    Raises PoleHitError when z is within residual_abs * (1 + |z|) of an
    eigenvalue of M.
    """
    z = complex(z)
    if f.m == 0:
        return 0.0 + 0.0j
    gaps = np.abs(z - f.poles())
    if gaps.min() <= tol.residual_abs * (1.0 + abs(z)):
        raise PoleHitError(f"evaluation point {z} is within {gaps.min():.3e} of a pole")
    mm = f.state_matrix
    x = np.linalg.solve(z * np.eye(f.m) - mm, f.ell.astype(complex))
    return complex(f.ell @ x)


def eval_matrix(f: ProRealization, a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate f at a Lyapunov regular matrix point.

    Uses f(A) = (ell kron I) (I_m kron A - M kron I_n)^{-1} (ell^T kron I);
    the pencil is invertible because the spectrum of A avoids the imaginary
    axis (Lyapunov regularity) while the spectrum of M lies on it.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or n == 0:
        raise ValueError("matrix point must be square and nonempty")
    if not is_lyapunov_regular(a, tol):
        raise NotLyapunovRegularError("matrix point is not Lyapunov regular")
    return _eval_pencil(f, a)


def _eval_pencil(f: ProRealization, a: np.ndarray) -> np.ndarray:
    """f(A) through the Kronecker pencil, for a nonempty square array ``a``
    the caller has already found Lyapunov regular.  The zero function
    (m = 0) gives an empty pencil and exact zeros."""
    eye = np.eye(a.shape[0])
    pencil = kron(np.eye(f.m), a) - kron(f.state_matrix, eye)
    rhs = kron(f.ell.reshape(-1, 1), eye)
    try:
        x = np.linalg.solve(pencil, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularPencilError(f"evaluation pencil is singular: {exc}") from None
    return kron(f.ell.reshape(1, -1), eye) @ x


@dataclass(frozen=True)
class ProDiagnostics:
    """Structural and sampled checks that a realization behaves like a
    positive real odd function."""

    poles_imaginary: bool
    odd_on_samples: bool
    nonnegative_on_samples: bool
    is_zero: bool
    max_real_part: float
    worst_odd_defect: float
    min_sampled_value: float

    @property
    def pro_ok(self) -> bool:
        return self.poles_imaginary and self.odd_on_samples and self.nonnegative_on_samples


def realization_checks(
    ell,
    m_matrix,
    samples: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> ProDiagnostics:
    """Run the diagnostics on raw (ell, M) arrays without assuming skewness.

    For a genuinely skew M all three checks are theorems, so any failure
    here signals corrupted data rather than an unlucky sample.
    """
    ell = np.asarray(ell, dtype=float).reshape(-1)
    mm = as_matrix(m_matrix) if np.size(m_matrix) else np.zeros((0, 0))
    m = ell.size
    if mm.shape != (m, m):
        raise ValueError(f"state matrix has shape {mm.shape}, expected {(m, m)}")

    is_zero = bool(m == 0 or not np.any(ell))
    if m == 0:
        return ProDiagnostics(True, True, True, True, 0.0, 0.0, 0.0)

    lam = np.linalg.eigvals(mm)
    max_re = float(np.abs(lam.real).max())
    poles_ok = max_re <= tol.residual_abs * (1.0 + np.abs(lam).max())

    def value(z):
        return complex(ell @ np.linalg.solve(z * np.eye(m) - mm.astype(complex), ell))

    rng = np.random.default_rng(seed)
    worst_odd = 0.0
    min_val = np.inf
    odd_ok = True
    nonneg_ok = True
    drawn = 0
    while drawn < samples:
        t = rng.uniform(0.0, 100.0)
        if t <= 1e-6 or np.abs(t - lam).min() <= tol.residual_abs * (1.0 + t):
            continue
        drawn += 1
        ft = value(complex(t))
        gauge = 1.0 + abs(ft)
        odd_defect = abs(value(complex(-t)) + ft) / gauge
        worst_odd = max(worst_odd, odd_defect)
        if odd_defect > 1e-10:
            odd_ok = False
        min_val = min(min_val, ft.real)
        if ft.real < -1e-10 * gauge or abs(ft.imag) > 1e-10 * gauge:
            nonneg_ok = False
    return ProDiagnostics(
        poles_ok, odd_ok, nonneg_ok, is_zero, max_re, worst_odd, float(min_val)
    )


def pro_diagnostics(
    f: ProRealization,
    samples: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> ProDiagnostics:
    """Diagnostics for a stored realization; see :func:`realization_checks`."""
    return realization_checks(f.ell, f.state_matrix, samples, seed, tol)

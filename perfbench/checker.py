"""Independent checks of the program's answers, with numpy alone.

A ``solved`` realization (ell, M) is re-evaluated from a spectral
decomposition of the skew M: iM is Hermitian, so iM = V diag(mu) V^* and
M = V diag(-i mu) V^*, which gives

    f(A) = sum_k |ell v_k|^2 (A + i mu_k I)^{-1}.

This route shares no code with the program's Kronecker-pencil evaluation.
Order and positivity witnesses are re-verified against their definitions.
"""

from __future__ import annotations

import numpy as np

from instances import (
    CP_PAIR,
    FEASIBLE,
    NEGATIVE_LABELS,
    VIOLATED_PAIR,
)

# The program's documented promise for ``solved``:
# ||f(A) - B||_F <= 1e-8 (1 + ||B||_F).
RESIDUAL_GATE = 1e-8
SKEW_GATE = 1e-12
PSD_REL = 1e-9


def realization_residual(ell, m_matrix, a, b):
    """Return (relative residual ||f(A) - B||_F / (1 + ||B||_F), reason).

    ``reason`` is empty when (ell, M) is a well-formed realization and says
    what is wrong otherwise.
    """
    ell = np.asarray(ell, dtype=float).reshape(-1)
    mm = np.asarray(m_matrix, dtype=float).reshape(ell.size, ell.size)
    if not (np.all(np.isfinite(ell)) and np.all(np.isfinite(mm))):
        return np.inf, "realization has non-finite entries"
    if np.linalg.norm(mm + mm.T) > SKEW_GATE * (1.0 + np.linalg.norm(mm)):
        return np.inf, "state matrix is not skew-symmetric"
    n = a.shape[0]
    fa = np.zeros((n, n), dtype=complex)
    if ell.size:
        mu, v = np.linalg.eigh(1j * mm)
        weights = np.abs(ell @ v) ** 2
        eye = np.eye(n)
        for wk, muk in zip(weights, mu):
            fa += wk * np.linalg.inv(a + 1j * muk * eye)
    res = np.linalg.norm(fa.real - b) / (1.0 + np.linalg.norm(b))
    if np.linalg.norm(fa.imag) > RESIDUAL_GATE * (1.0 + np.linalg.norm(b)):
        return np.inf, "f(A) is not real"
    return float(res), ""


def _min_eig_rel(k):
    k = 0.5 * (k + k.T)
    w = np.linalg.eigvalsh(k)
    return w[0] / (1.0 + np.abs(w).max())


def order_witness_holds(h, a, b) -> bool:
    """H is a witness against A <= B when H A + A^T H >= 0 while
    H B + B^T H has a clearly negative eigenvalue."""
    h = np.asarray(h, dtype=float)
    if h.shape != a.shape or not np.all(np.isfinite(h)):
        return False
    return bool(_min_eig_rel(h @ a + a.T @ h) >= -PSD_REL and _min_eig_rel(h @ b + b.T @ h) < -PSD_REL)


def positivity_witness_holds(z, x, lmap) -> bool:
    """(z, x) is a witness against positivity when x^T L(z z^T) x < 0."""
    z = np.asarray(z, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    n = z.size
    if x.size != n or lmap.shape != (n * n, n * n):
        return False
    image = (lmap @ np.outer(z, z).reshape(-1, order="F")).reshape(n, n, order="F")
    q = x @ image @ x
    return bool(q < -PSD_REL * (1.0 + np.linalg.norm(lmap)) * (z @ z) * (x @ x))


def judge_solve(inst, report):
    """Return (ok, solved, residual) for one ``solve`` answer.

    A wrong answer is: ``solved`` on data with a negative label, ``solved``
    with a realization that fails the f(A) check, or ``infeasible`` on
    feasible data.  Other statuses on feasible data count as unsolved, not
    wrong.
    """
    status = report.status
    if status == "solved":
        if inst.label in NEGATIVE_LABELS:
            return False, False, None
        f = report.realization
        residual, reason = realization_residual(f.ell, f.state_matrix, inst.a, inst.b)
        return not reason and residual <= RESIDUAL_GATE, True, residual
    if status == "infeasible" and inst.label == FEASIBLE:
        return False, False, None
    return True, False, None


def judge_order(inst, result):
    """Return (ok, no_witness) for one Lyapunov order test answer."""
    if result.violated:
        ok = inst.label == VIOLATED_PAIR and order_witness_holds(result.witness, inst.a, inst.b)
        return ok, False
    return inst.label == CP_PAIR, True


def judge_positivity(inst, result):
    """Return (ok, no_witness) for one positivity test answer."""
    if result.violated:
        ok = inst.label == VIOLATED_PAIR and positivity_witness_holds(result.z, result.x, inst.lmap)
        return ok, False
    return inst.label == CP_PAIR, True

"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports prointerp: every target is formed from the
benchmark's own closed form of f, so a change to the program cannot change
its inputs.  Each instance carries its ground-truth label and its sizes.

The interpolant is f(z) = ell (z I - M)^{-1} ell^T with M skew.  Written in
an orthonormal frame Q where M = Q D Q^T and D is block diagonal with 2x2
blocks [[0, w_j], [-w_j, 0]] (plus one zero for odd state dimension), and
r = Q^T ell, it is

    f(z) = sum_j rho_j^2 z / (z^2 + w_j^2)  +  r_0^2 / z,

with rho_j the norm of r on block j.  B = f(A) = T diag(f(lambda_i)) T^{-1}
for A = T diag(lambda) T^{-1}.

The frequencies w_j sit on a jittered geometric grid over the eigenvalue
range and every rho_j is at least 0.5, so each f has m genuine,
well-separated poles.  With plain Gaussian (ell, M) some draws carry a
near-zero residue, and whether the n = 6 instances solve then flips from
draw to draw; the controlled draw keeps the verdict at each n the same for
every seed, while the Pick-conditioning ceiling at n >= 7 still shows on
every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Ground-truth labels.
FEASIBLE = "feasible"            # B = f(A) for a known positive real odd f
INFEASIBLE = "infeasible"        # -f(A): the Hill matrix is negated
OFF_ALGEBRA = "off_algebra"      # random B outside {A}''
NON_REGULAR = "non_regular"      # A has an eigenvalue pair +-lambda
CP_PAIR = "cp_pair"              # L_{A,B} completely positive: no witness exists
VIOLATED_PAIR = "violated_pair"  # L_{A,-B}: a witness exists

NEGATIVE_LABELS = frozenset({INFEASIBLE, OFF_ALGEBRA, NON_REGULAR, VIOLATED_PAIR})
POSITIVE_LABELS = frozenset({FEASIBLE, CP_PAIR})

LAMBDA_LO, LAMBDA_HI = 0.5, 3.0

# Workload shapes.  Sizes per workload are fixed; the seed only moves the
# draws, so every seed runs the same mix of sizes.
DISTINCT_N = tuple(range(2, 10))
DISTINCT_DRAWS = 2                 # base points A per n, three targets each
NON_REGULAR_N = (3, 5, 7)
# (n, k): k clusters of n/k repeated eigenvalues.  (12, 2), (12, 4),
# (16, 4) and (20, 4) are left out: at the seed one call of each takes
# 6 to 42 s single-threaded, or more memory than a shared host can spare.
CLUSTERED_HEAVY = ((10, 2), (12, 3), (12, 6))
CLUSTERED_LIGHT = ((6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5))
# Draws per light class: f(A) and -f(A) targets.  The counts put the
# medians of all calls and of the rejections inside the (8, 4) class,
# not between two classes whose times differ threefold.
CLUSTERED_FEASIBLE_DRAWS = {(8, 4): 6}
CLUSTERED_DRAWS = 3
CLUSTERED_NON_REGULAR = ((12, 3),) * 3
ORDER_CP_N = (8, 11, 14, 17, 20)
ORDER_VIOLATED_N = (20, 20, 20)
ORDER_STATE_DIM = 4
ORDER_TRIALS = 100
POSITIVITY_CP_N = (2, 3, 4, 5, 6)
POSITIVITY_VIOLATED_N = (6,)
POSITIVITY_TRIALS = 2000


@dataclass
class Instance:
    """One benchmark input with its ground truth.

    ``op`` is the public call it feeds: "solve", "order" (Lyapunov order
    sampling test on (a, b)) or "positivity" (positivity sampling test on
    the matricization ``lmap`` of L_{A,B}).
    """

    iid: int
    op: str
    label: str
    n: int
    a: np.ndarray
    b: np.ndarray
    size_class: tuple
    state_dim: Optional[int] = None      # m of the generating f
    multiplicities: tuple = ()           # eigenvalue multiplicities of A
    ell: Optional[np.ndarray] = None     # generating realization, if any
    m_matrix: Optional[np.ndarray] = None
    lmap: Optional[np.ndarray] = None
    trials: int = 0


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _well_conditioned(rng, n):
    """T = U diag(s) V^T with s in [1, 2], so cond(T) <= 2."""
    return _orthogonal(rng, n) @ np.diag(rng.uniform(1.0, 2.0, n)) @ _orthogonal(rng, n).T


def _spectrum(rng, k):
    """k distinct positive eigenvalues: a jittered grid on [0.5, 3]."""
    grid = np.linspace(LAMBDA_LO, LAMBDA_HI, k)
    step = (LAMBDA_HI - LAMBDA_LO) / max(k - 1, 1)
    return grid + rng.uniform(-0.1, 0.1, k) * step


@dataclass(frozen=True)
class Interpolant:
    """f(z) = sum_j rho2_j z / (z^2 + w_j^2) + r0_2 / z and its (ell, M)."""

    w: np.ndarray
    rho2: np.ndarray
    r0_2: float
    ell: np.ndarray
    m_matrix: np.ndarray

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for w, rho2 in zip(self.w, self.rho2):
            out += rho2 * z / (z * z + w * w)
        if self.r0_2:
            out += self.r0_2 / z
        return out


def random_interpolant(rng, m: int) -> Interpolant:
    """A positive real odd f of state dimension m with controlled poles."""
    p = m // 2
    if p:
        ratio = LAMBDA_HI / LAMBDA_LO
        w = np.geomspace(LAMBDA_LO, LAMBDA_HI, p)
        w = w * np.exp(rng.uniform(-0.1, 0.1, p) * np.log(ratio) / max(p - 1, 1))
    else:
        w = np.zeros(0)
    rho = rng.uniform(0.5, 1.5, p)
    theta = rng.uniform(0.0, 2.0 * np.pi, p)
    r = np.zeros(m)
    d = np.zeros((m, m))
    for j in range(p):
        r[2 * j], r[2 * j + 1] = rho[j] * np.cos(theta[j]), rho[j] * np.sin(theta[j])
        d[2 * j, 2 * j + 1], d[2 * j + 1, 2 * j] = w[j], -w[j]
    r0_2 = 0.0
    if m % 2:
        r[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        r0_2 = float(r[-1] ** 2)
    q = _orthogonal(rng, m)
    return Interpolant(w, rho**2, r0_2, q @ r, q @ d @ q.T)


def _similar(t, t_inv, diag):
    return t @ np.diag(diag) @ t_inv


def lab_matricization(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-stacking matricization of L_{A,B} = L_B o L_A^{-1}, where
    L_Y(X) = X Y + Y^T X has matricization kron(Y^T, I) + kron(I, Y^T)."""
    n = a.shape[0]
    eye = np.eye(n)
    la = np.kron(a.T, eye) + np.kron(eye, a.T)
    lb = np.kron(b.T, eye) + np.kron(eye, b.T)
    return np.linalg.solve(la.T, lb.T).T


class _Builder:
    def __init__(self):
        self.items = []

    def add(self, **kw):
        inst = Instance(iid=len(self.items), **kw)
        self.items.append(inst)
        return inst


def _distinct_pair(rng, n, m):
    lam = _spectrum(rng, n)
    t = _well_conditioned(rng, n)
    t_inv = np.linalg.inv(t)
    f = random_interpolant(rng, m)
    return lam, t, t_inv, f


def distinct_instances(seed: int):
    """Distinct spectra, n = 2..9: each A gets f(A), -f(A) and an
    off-algebra B; a few non-regular A are added."""
    out = _Builder()
    for n in DISTINCT_N:
        for d in range(DISTINCT_DRAWS):
            rng = np.random.default_rng([seed, 1, n, d])
            lam, t, t_inv, f = _distinct_pair(rng, n, n)
            a = _similar(t, t_inv, lam)
            b = _similar(t, t_inv, f(lam))
            sizes = dict(n=n, size_class=("solve", n), state_dim=n, multiplicities=(1,) * n)
            out.add(op="solve", label=FEASIBLE, a=a, b=b, ell=f.ell, m_matrix=f.m_matrix, **sizes)
            out.add(op="solve", label=INFEASIBLE, a=a, b=-b, **sizes)
            off = rng.standard_normal((n, n)) * (np.linalg.norm(b) / n)
            out.add(op="solve", label=OFF_ALGEBRA, a=a, b=off, **sizes)
    for n in NON_REGULAR_N:
        rng = np.random.default_rng([seed, 2, n])
        lam, t, t_inv, f = _distinct_pair(rng, n, n)
        lam[1] = -lam[0]
        out.add(
            op="solve", label=NON_REGULAR, n=n, size_class=("solve", n), state_dim=n,
            multiplicities=(1,) * n, a=_similar(t, t_inv, lam), b=_similar(t, t_inv, f(lam)),
        )
    return out.items


def clustered_instances(seed: int):
    """k distinct eigenvalues each repeated n/k times, B = f(A) with a state
    dimension of k.  The light classes also get -f(A), and a few non-regular
    A are added, so the early exits are timed too."""
    out = _Builder()
    classes = [(c, 1, False) for c in CLUSTERED_HEAVY] + [
        (c, CLUSTERED_FEASIBLE_DRAWS.get(c, CLUSTERED_DRAWS), True) for c in CLUSTERED_LIGHT
    ]
    for (n, k), draws, negate in classes:
        for d in range(draws):
            rng = np.random.default_rng([seed, 3, n, k, d])
            lam = np.repeat(_spectrum(rng, k), n // k)
            t = _well_conditioned(rng, n)
            t_inv = np.linalg.inv(t)
            f = random_interpolant(rng, k)
            a, b = _similar(t, t_inv, lam), _similar(t, t_inv, f(lam))
            sizes = dict(n=n, size_class=("solve", n, k), state_dim=k, multiplicities=(n // k,) * k)
            out.add(op="solve", label=FEASIBLE, a=a, b=b, ell=f.ell, m_matrix=f.m_matrix, **sizes)
            if negate and d < CLUSTERED_DRAWS:
                out.add(op="solve", label=INFEASIBLE, a=a, b=-b, **sizes)
    for d, (n, k) in enumerate(CLUSTERED_NON_REGULAR):
        rng = np.random.default_rng([seed, 5, n, k, d])
        values = _spectrum(rng, k)
        values[1] = -values[0]
        lam = np.repeat(values, n // k)
        t = _well_conditioned(rng, n)
        t_inv = np.linalg.inv(t)
        out.add(
            op="solve", label=NON_REGULAR, n=n, size_class=("solve", n, k), state_dim=k,
            multiplicities=(n // k,) * k, a=_similar(t, t_inv, lam),
            b=_similar(t, t_inv, random_interpolant(rng, k)(lam)),
        )
    return out.items


def sampling_instances(seed: int):
    """Order tests on distinct pairs n = 8..20 and positivity tests on
    L_{A,B} for n = 2..6; CP pairs run every trial, -B pairs stop at once.
    Most -B pairs are order tests at n = 20, so the median rejection is a
    few milliseconds of work rather than a sub-millisecond call."""
    out = _Builder()

    def pair(kind, n, m, d):
        rng = np.random.default_rng([seed, 4, kind, n, d])
        lam, t, t_inv, f = _distinct_pair(rng, n, m)
        return _similar(t, t_inv, lam), _similar(t, t_inv, f(lam))

    for label, sizes in ((CP_PAIR, ORDER_CP_N), (VIOLATED_PAIR, ORDER_VIOLATED_N)):
        for d, n in enumerate(sizes):
            a, b = pair(0, n, ORDER_STATE_DIM, d)
            out.add(
                op="order", label=label, n=n, size_class=("order", n),
                state_dim=ORDER_STATE_DIM, multiplicities=(1,) * n,
                a=a, b=-b if label == VIOLATED_PAIR else b, trials=ORDER_TRIALS,
            )
    for label, sizes in ((CP_PAIR, POSITIVITY_CP_N), (VIOLATED_PAIR, POSITIVITY_VIOLATED_N)):
        for d, n in enumerate(sizes):
            a, b = pair(1, n, n, d)
            b = -b if label == VIOLATED_PAIR else b
            out.add(
                op="positivity", label=label, n=n, size_class=("positivity", n),
                state_dim=n, multiplicities=(1,) * n,
                a=a, b=b, lmap=lab_matricization(a, b), trials=POSITIVITY_TRIALS,
            )
    return out.items


WORKLOADS = {
    "distinct": distinct_instances,
    "clustered": clustered_instances,
    "sampling": sampling_instances,
}

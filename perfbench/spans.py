"""Spans recorded from the benchmark's side of each layer boundary.

The traced run replays ``solve`` as the public stage calls it makes, each
inside a span, and wraps each sampling test call in one span.  A span holds
its name, start, end, parent span and instance id; in the tracemalloc
replay it also holds the peak reached inside it.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from prointerp import (
    DEFAULT_TOL,
    bicommutant_basis,
    build_pencils,
    eval_matrix,
    extract_realization,
    is_lyapunov_regular,
    lab_map,
    membership,
    minimal_hill,
    solve_skew,
    standard_collection,
)
from prointerp.errors import (
    NotPositiveDefiniteError,
    NotStarLinearError,
    RankMismatchError,
    ResidualTooLargeError,
    SingularPencilError,
)
from prointerp.matrix_kit import psd_scale

MIB = 2.0**20
ROOT = "solver.solve"
STAGES = (
    "lyapunov.is_lyapunov_regular",
    "commutant.bicommutant_basis",
    "commutant.membership",
    "lyapunov.lab_map",
    "hill.minimal_hill",
    "solver.build_pencils",
    "solver.solve_skew",
    "solver.extract_realization",
    "pro.eval_matrix",
)
ORDER = "lyapunov.lyap_order_sample_test"
POSITIVITY = "hill.positivity_sample_test"


class Tracer:
    """In-memory span recorder.

    With ``memory=True`` each span also records the tracemalloc peak reached
    inside it, above the traced memory at its start; tracemalloc must then be
    running.  Timed spans are recorded without it, because tracemalloc slows
    every Python-level allocation and would shift the time shares.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, iid, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
               "instance": iid, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.memory:
                rec["peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
            self._open.pop()

    def self_times(self):
        """Span duration minus the time its children cover, per span id."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


def design_mib(n, m):
    """Bytes of the skew least-squares design matrix, (m+1)n*n^3 by m(m+1)/2."""
    return (m + 1) * n * n**3 * (m * (m + 1) // 2) * 8 / MIB


def stacked_op_mib(n, multiplicities):
    """The stacked commutant operator (sum k_i^2) n^2 by n^2 plus its full U."""
    rows = sum(k * k for k in multiplicities) * n * n
    return (rows * n * n + rows * rows) * 8 / MIB


def replay_solve(tracer, inst, tol=DEFAULT_TOL):
    """Run the stages of ``solve`` one public call at a time; return the status.

    The gates between stages follow ``solve`` so the replayed status can be
    compared with the status ``solve`` itself returns.  The root span keeps
    the status and whether the Hill stage was reached.
    """
    with tracer.span(ROOT, inst.iid) as root:
        root["status"] = _stages(tracer, inst, root, tol)
    return root["status"]


def _stages(tracer, inst, root, tol):
    a, b, n, iid = inst.a, inst.b, inst.n, inst.iid
    with tracer.span(STAGES[0], iid):
        regular = is_lyapunov_regular(a, tol)
    if not regular:
        return "not_regular"
    with tracer.span(STAGES[1], iid, stacked_op_mib=stacked_op_mib(n, inst.multiplicities)):
        bic = bicommutant_basis(a, tol)
    with tracer.span(STAGES[2], iid):
        mem = membership(b, bic, tol)
    if not mem.is_member:
        return "not_in_bicommutant"
    try:
        with tracer.span(STAGES[3], iid):
            lmap = lab_map(a, b, tol)
        with tracer.span(STAGES[4], iid):
            rep = minimal_hill(lmap, tol)
    except (NotStarLinearError, RankMismatchError):
        return "numerical_failure"
    root["reached_hill"] = True
    h, m, mm = rep.hill_matrix, rep.m, bic.dim
    if m > mm:
        return "numerical_failure"
    min_eig = float(np.linalg.eigvalsh(0.5 * (h + h.T))[0]) if m else 0.0
    floor = tol.psd_rel * psd_scale(h)
    if m < mm:
        return "not_suboptimal"
    if min_eig < -floor:
        return "infeasible"
    if min_eig <= floor:
        return "numerical_failure"
    try:
        collection = standard_collection(n)
        with tracer.span(STAGES[5], iid):
            pencils = build_pencils(a, b, h, rep.coefficients, collection, tol)
        with tracer.span(STAGES[6], iid, design_mib=design_mib(n, m)) as rec:
            s, rec["residual"] = solve_skew(pencils, tol)
        with tracer.span(STAGES[7], iid):
            f = extract_realization(s)
        with tracer.span(STAGES[8], iid, pencil_dim=f.m * n):
            fa = eval_matrix(f, a, tol)
    except (NotPositiveDefiniteError, ResidualTooLargeError, SingularPencilError, np.linalg.LinAlgError):
        return "numerical_failure"
    if np.linalg.norm(fa - b) > tol.residual_abs * (1.0 + np.linalg.norm(b)):
        return "numerical_failure"
    return "solved"


def traced_call(tracer, inst, call, work):
    """One sampling test call inside a span that records the work it did."""
    name = ORDER if inst.op == "order" else POSITIVITY
    with tracer.span(name, inst.iid) as rec:
        result = call(inst)
    rec["work"] = work(inst, result)
    return result


def _by_name(tracer):
    out = {}
    for s in tracer.spans:
        out.setdefault(s["name"], []).append(s)
    return out


def layer_metrics(timed, memory):
    """Per-layer metrics from the timed spans and the tracemalloc spans.

    Returns (metrics, times, notes): both map name to (value, unit); notes
    give the base of each ratio.  A layer the workload never crosses reports
    0.  ``times`` holds the metrics in seconds; they are printed but not
    declared in BENCHMARK.json, because on every workload some layer is
    never crossed and its time would read exactly 0 on every run.
    """
    own = timed.self_times()
    by_name = _by_name(timed)
    peaks = _by_name(memory)
    roots = [s for s in timed.spans if s["parent"] is None]
    base = sum(s["end"] - s["start"] for s in roots)
    out, notes = {}, {}

    def total(name):
        return sum((own[s["id"]] for s in by_name.get(name, ())), 0.0)

    def peak(name, key="peak_mib"):
        return max((s[key] for s in (peaks if key == "peak_mib" else by_name).get(name, ())), default=0)

    for name in STAGES:
        out[f"{name}.self_s"] = (total(name), "s")
        out[f"{name}.calls"] = (len(by_name.get(name, ())), "count")
    for name in ("commutant.bicommutant_basis", "hill.minimal_hill"):
        out[f"{name}.share"] = (total(name) / base if base else 0.0, "fraction")
        out[f"{name}.peak_mib"] = (peak(name), "MiB")
    notes["share"] = f"self time over traced call time {base:.6f} s"
    out["commutant.stacked_op_mib"] = (peak(STAGES[1], "stacked_op_mib"), "MiB")
    out["solver.solve_skew.peak_mib"] = (peak(STAGES[6]), "MiB")
    out["solver.solve_skew.design_mib"] = (peak(STAGES[6], "design_mib"), "MiB")
    residuals = [s["residual"] for s in by_name.get(STAGES[6], ()) if "residual" in s]
    worst = max(residuals, default=0.0)
    out["solver.solve_skew.residual_max_log10"] = (math.log10(worst) if worst > 0 else 0.0, "log10")
    reached = sum(1 for s in by_name.get(ROOT, ()) if s.get("reached_hill"))
    solved = sum(1 for s in by_name.get(ROOT, ()) if s.get("status") == "solved")
    out["solver.hill_to_solved"] = (solved / reached if reached else 0.0, "fraction")
    notes["solver.hill_to_solved"] = f"{solved} solved of {reached} that reach the Hill stage"
    out["pro.eval_matrix.pencil_dim_max"] = (peak(STAGES[8], "pencil_dim"), "count")
    for name, unit_name, per in ((ORDER, "trials", "s_per_trial"), (POSITIVITY, "probes", "s_per_probe")):
        spans = by_name.get(name, ())
        work = sum(s["work"] for s in spans)
        out[f"{name}.{per}"] = (total(name) / work if work else 0.0, "s")
        out[f"{name}.{unit_name}"] = (work, "count")
        out[f"{name}.calls"] = (len(spans), "count")
    times = {k: v for k, v in out.items() if v[1] == "s"}
    return {k: v for k, v in out.items() if k not in times}, times, notes

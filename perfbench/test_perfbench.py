"""Tests of the benchmark itself: generator labels, the independent checker,
and the printed metrics.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checker  # noqa: E402
import instances as gen  # noqa: E402


def choi_eigs(lmat, n):
    """Eigenvalues of the Choi matrix, block (i, j) = L(E_ij)."""
    c = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            c[i * n:(i + 1) * n, j * n:(j + 1) * n] = lmat[:, j * n + i].reshape(n, n, order="F")
    w = np.linalg.eigvalsh(0.5 * (c + c.T))
    return w / np.abs(w).max()


def power_residual(a, b):
    """Relative distance of B from span{I, A, ..., A^(n-1)} = {A}''."""
    n = a.shape[0]
    powers = [np.eye(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ a)
    q, _ = np.linalg.qr(np.column_stack([p.reshape(-1) for p in powers]))
    v = b.reshape(-1)
    return np.linalg.norm(v - q @ (q.T @ v)) / np.linalg.norm(v)


ALL = [(w, inst) for w, make in gen.WORKLOADS.items() for inst in make(3)]


@pytest.mark.parametrize("workload,inst", ALL, ids=[f"{w}-{i.iid}-{i.label}" for w, i in ALL])
def test_generator_label_holds(workload, inst):
    n = inst.n
    assert inst.a.shape == inst.b.shape == (n, n)
    assert sum(inst.multiplicities) == n
    lam = np.linalg.eigvals(inst.a)
    pair_sums = np.abs(lam[:, None] + lam[None, :])
    if inst.label == gen.NON_REGULAR:
        assert pair_sums.min() < 1e-8
        return
    assert pair_sums.min() > 0.1
    values = np.sort(lam.real)
    assert 1 + np.sum(np.diff(values) > 1e-6) == len(inst.multiplicities)
    lmat = inst.lmap if inst.lmap is not None else gen.lab_matricization(inst.a, inst.b)
    if inst.label == gen.FEASIBLE:
        residual, reason = checker.realization_residual(inst.ell, inst.m_matrix, inst.a, inst.b)
        assert reason == "" and residual < 1e-12
        assert inst.ell.size == inst.state_dim
    elif inst.label == gen.INFEASIBLE:
        assert choi_eigs(lmat, n)[0] < -1e-6
    elif inst.label == gen.OFF_ALGEBRA:
        assert power_residual(inst.a, inst.b) > 1e-3
    elif inst.label == gen.CP_PAIR:
        assert choi_eigs(lmat, n)[0] > -1e-9
    else:
        assert inst.label == gen.VIOLATED_PAIR
        assert choi_eigs(lmat, n)[0] < -1e-6


def test_generators_depend_only_on_seed():
    for make in (gen.distinct_instances, gen.sampling_instances):
        first, again, other = make(5), make(5), make(6)
        assert [i.label for i in first] == [i.label for i in other]
        assert all(np.array_equal(x.b, y.b) for x, y in zip(first, again))
        assert not any(np.array_equal(x.b, y.b) for x, y in zip(first, other))


def feasible():
    return next(i for i in gen.distinct_instances(4) if i.label == gen.FEASIBLE and i.n == 4)


def solved_report(ell, m_matrix):
    return SimpleNamespace(status="solved", realization=SimpleNamespace(ell=ell, state_matrix=m_matrix))


def test_checker_accepts_the_generating_realization():
    inst = feasible()
    ok, solved, residual = checker.judge_solve(inst, solved_report(inst.ell, inst.m_matrix))
    assert ok and solved and residual < 1e-12


def test_checker_rejects_perturbed_ell():
    inst = feasible()
    ell = inst.ell.copy()
    ell[0] += 1e-4
    ok, _, residual = checker.judge_solve(inst, solved_report(ell, inst.m_matrix))
    assert not ok and residual > checker.RESIDUAL_GATE


def test_checker_rejects_non_skew_state_matrix_and_wrong_verdicts():
    inst = feasible()
    m = inst.m_matrix + 1e-6 * np.eye(inst.state_dim)
    assert checker.realization_residual(inst.ell, m, inst.a, inst.b)[1]
    assert not checker.judge_solve(inst, SimpleNamespace(status="infeasible"))[0]
    assert checker.judge_solve(inst, SimpleNamespace(status="not_suboptimal"))[0]
    negated = next(i for i in gen.distinct_instances(4) if i.label == gen.INFEASIBLE)
    assert not checker.judge_solve(negated, solved_report(inst.ell, inst.m_matrix))[0]


def sampling(op, label):
    return next(i for i in gen.sampling_instances(2) if i.op == op and i.label == label)


def test_checker_rejects_fabricated_order_witness():
    from prointerp import lyap_order_sample_test

    cp = sampling("order", gen.CP_PAIR)
    g = np.random.default_rng(0).standard_normal((cp.n, cp.n))
    fake = SimpleNamespace(violated=True, witness=g + g.T, trial_index=0, trials=1)
    assert checker.judge_order(cp, fake) == (False, False)
    bad = sampling("order", gen.VIOLATED_PAIR)
    real = lyap_order_sample_test(bad.a, bad.b, trials=5, seed=0)
    assert real.violated and checker.judge_order(bad, real) == (True, False)
    assert checker.judge_order(bad, fake) == (False, False)
    missed = SimpleNamespace(violated=False, witness=None, trial_index=None, trials=5)
    assert checker.judge_order(bad, missed) == (False, True)


def test_checker_rejects_fabricated_positivity_witness():
    from prointerp import LinearMatrixMap, positivity_sample_test

    cp = sampling("positivity", gen.CP_PAIR)
    rng = np.random.default_rng(1)
    fake = SimpleNamespace(violated=True, z=rng.standard_normal(cp.n), x=rng.standard_normal(cp.n), trials=1)
    assert checker.judge_positivity(cp, fake) == (False, False)
    bad = sampling("positivity", gen.VIOLATED_PAIR)
    real = positivity_sample_test(LinearMatrixMap(bad.n, bad.lmap), trials=10, seed=0)
    assert real.violated and checker.judge_positivity(bad, real) == (True, False)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["distinct", "sampling"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and np.isfinite(value)
        printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [metric["name"]]]
        assert printed and printed[0][2] == metric["unit"], metric["name"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "distinct", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

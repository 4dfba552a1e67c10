"""prointerp benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One caller drives the public API in a closed loop: the
next call starts when the previous one returns.  Every answer is checked by
the benchmark's own checker.  The last line of standard output is one JSON
object; the lines before it print every metric by name and unit.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics: it replays one instance per size class under tracemalloc for the
stage peaks, then calls each instance once untraced and once replayed stage
by stage inside spans (see spans.py), and writes the spans to
perfbench/out/ when the run ends.

Workloads (see instances.py for the exact shapes):
  distinct   distinct spectra n = 2..9 with f(A), -f(A) and off-algebra
             targets plus a few non-regular A: every solver stage runs, the
             early exits run too, and the Pick-conditioning ceiling is in it.
  clustered  k repeated eigenvalues, n = 6..12: n is large and m_max small,
             so the bicommutant basis does almost all of the work.
  sampling   Lyapunov order and positivity sampling tests: bypasses solve,
             so a solver-side change should leave it unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# One BLAS thread for every run: the benchmark is a single caller, and a
# fixed thread count keeps runs comparable (two threads made clustered
# about 1.7x faster but roughly doubled its run-to-run spread).
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10

SETUP_CODE = """
import time
t0 = time.perf_counter()
import numpy as np
from prointerp import solve
status = solve(np.diag([1.0, 2.0]), np.diag([2.0, 3.0])).status
print(status, time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("distinct", "clustered", "sampling"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def child_env():
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_once():
    """Seconds a fresh process takes to import prointerp and solve the README pair."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up solve took over {SETUP_TIMEOUT_S} s") from None
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "solved":
        raise BenchError(f"set-up solve failed: {proc.stdout.strip()} {proc.stderr.strip()}")
    return float(fields[1])


def environment():
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "openblas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": sys.version.split()[0],
    }


class Caller:
    """Maps an instance to its public prointerp call."""

    def __init__(self, seed):
        import prointerp

        self.p = prointerp
        self.seed = seed

    def __call__(self, inst):
        p = self.p
        if inst.op == "solve":
            return p.solve(inst.a, inst.b)
        if inst.op == "order":
            return p.lyap_order_sample_test(inst.a, inst.b, trials=inst.trials, seed=self.seed, threads=1)
        return p.positivity_sample_test(p.LinearMatrixMap(inst.n, inst.lmap), trials=inst.trials, seed=self.seed)


def work_done(inst, result):
    """Trials (order) or probes (positivity) the call executed."""
    if inst.op == "order":
        return result.trial_index + 1 if result.violated else result.trials
    return result.trials


def verdict(inst, result):
    """A comparable summary of one answer."""
    if isinstance(result, Exception):
        return f"error:{type(result).__name__}"
    if inst.op == "solve":
        return result.status
    return f"violated@{result.trial_index if inst.op == 'order' else result.trials}" if result.violated else "clear"


def timed(call, inst):
    t0 = time.perf_counter()
    try:
        result = call(inst)
    except Exception as exc:  # a raising call is a failed call, not a crash of the run
        result = exc
    return time.perf_counter() - t0, result


def run_loop(instances, seconds, one_pass):
    """Whole passes over the instances until the time spent in calls is
    closest to ``seconds`` (at least one pass).  ``one_pass`` returns the
    seconds it spent in calls.  Returns (passes, seconds in calls)."""
    passes, busy = 0, 0.0
    while True:
        busy += one_pass(instances)
        passes += 1
        if busy + 0.5 * busy / passes >= seconds:
            return passes, busy


def warm_up_choice(instances):
    """One instance per size class, preferring a positive label so the
    deepest path runs."""
    from instances import POSITIVE_LABELS

    chosen = {}
    for inst in instances:
        if inst.size_class not in chosen or (
            inst.label in POSITIVE_LABELS and chosen[inst.size_class].label not in POSITIVE_LABELS
        ):
            chosen[inst.size_class] = inst
    return list(chosen.values())


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def judge(records):
    """Check every answer; return per-record (ok, positive_answer, residual)."""
    import checker

    out = []
    for inst, _, result in records:
        if isinstance(result, Exception):
            out.append((False, False, None))
        elif inst.op == "solve":
            out.append(checker.judge_solve(inst, result))
        elif inst.op == "order":
            out.append(checker.judge_order(inst, result) + (None,))
        else:
            out.append(checker.judge_positivity(inst, result) + (None,))
    return out


def end_to_end(records, judged):
    """End-to-end metrics: name -> (value, unit), plus printed-only metrics
    and report notes.

    ops_per_s is calls over the time spent in calls.  A positive answer is
    ``solved`` for solve and no witness for a sampling test, so on sampling
    solved_fraction and solved_n.max count CP pairs that come back clear.
    failed_fraction (0 when nothing fails, and the JSON already carries
    ``failed``) and residual.max_log10 (negative, and absent on sampling)
    are printed but not declared in BENCHMARK.json.
    """
    from instances import NEGATIVE_LABELS, POSITIVE_LABELS

    times = [dt for _, dt, _ in records]
    rejects = [dt for inst, dt, _ in records if inst.label in NEGATIVE_LABELS]
    tail_value, tail_pct = tail(times)
    positives = [(inst.n, j[1]) for (inst, _, _), j in zip(records, judged) if inst.label in POSITIVE_LABELS]
    solved_ns = {n for n, _ in positives} - {n for n, ok in positives if not ok}
    residuals = [j[2] for j in judged if j[2] is not None]
    failed = sum(1 for j in judged if not j[0])
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "reject_s.p50": (statistics.median(rejects) if rejects else 0.0, "s"),
        "solved_fraction": (sum(ok for _, ok in positives) / len(positives) if positives else 0.0, "fraction"),
        "solved_n.max": (max(solved_ns, default=0), "n"),
    }
    extra = {
        "failed_fraction": (failed / len(records), "fraction"),
        "residual.max_log10": (math.log10(max(residuals)) if residuals and max(residuals) > 0 else None, "log10"),
    }
    notes = {
        "op_s.tail": f"p{tail_pct:.2f}, {len(times)} samples, {min(TAIL_BEYOND, len(times) - 1)} beyond",
        "reject_s.p50": f"{len(rejects)} calls with a negative known answer",
        "solved_fraction": f"{sum(ok for _, ok in positives)} of {len(positives)} positive-by-construction calls",
    }
    return metrics, extra, notes, failed


def format_value(value):
    return "n/a" if value is None else repr(value)


def untraced_run(insts, call, seconds):
    """Time each public call.  The set-up samples are taken between calls,
    spread over the run, so that they meet the same machine conditions as
    the calls.  Returns (records, passes, seconds in calls, set-up samples)."""
    records, setups = [], []
    spent = [0.0]

    def one_pass(items):
        start = spent[0]
        for inst in items:
            if len(setups) < SETUP_RUNS and spent[0] * SETUP_RUNS >= len(setups) * seconds:
                setups.append(setup_once())
            dt, result = timed(call, inst)
            records.append((inst, dt, result))
            spent[0] += dt
        return spent[0] - start

    passes, busy = run_loop(insts, seconds, one_pass)
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once())
    return records, passes, busy, setups


def traced_run(insts, warm, call, seconds, span_file):
    """Per-layer run.  The warm-up replays each size class once under
    tracemalloc for the stage peaks.  Then, pass after pass, each instance is
    called once untraced and once replayed inside spans, and the two
    verdicts are compared.  The spans are written to ``span_file``.

    Returns (records, passes, measured seconds, metrics, printed-only
    metrics, notes).
    """
    import tracemalloc

    import spans

    memory = spans.Tracer(memory=True)
    tracemalloc.start()
    try:
        for inst in warm:
            try:
                replay(spans, memory, inst, call)
            except Exception:  # a failing replay shows up again, and is counted, in the timed passes
                pass
    finally:
        tracemalloc.stop()

    timed_spans = spans.Tracer()
    records = []
    totals = {"untraced": 0.0, "traced": 0.0, "mismatch": 0}

    def one_pass(items):
        start = totals["untraced"] + totals["traced"]
        for inst in items:
            dt, result = timed(call, inst)
            records.append((inst, dt, result))
            t0 = time.perf_counter()
            try:
                replayed = replay(spans, timed_spans, inst, call)
            except Exception as exc:
                replayed = f"error:{type(exc).__name__}"
            totals["traced"] += time.perf_counter() - t0
            totals["untraced"] += dt
            totals["mismatch"] += replayed != verdict(inst, result)
        return totals["untraced"] + totals["traced"] - start

    passes, busy = run_loop(insts, seconds, one_pass)
    metrics, times, notes = spans.layer_metrics(timed_spans, memory)
    untraced, traced = totals["untraced"], totals["traced"]
    metrics["trace.overhead_fraction"] = (traced / untraced - 1.0 if untraced else 0.0, "fraction")
    metrics["trace.status_mismatch"] = (totals["mismatch"], "count")
    notes["trace.overhead_fraction"] = f"replayed in spans {traced:.6f} s against untraced {untraced:.6f} s"
    os.makedirs(os.path.dirname(span_file), exist_ok=True)
    with open(span_file, "w") as fh:
        json.dump({"timed": timed_spans.spans, "memory": memory.spans}, fh)
    notes["spans"] = (f"{len(timed_spans.spans)} timed and {len(memory.spans)} tracemalloc spans"
                      f" written to {os.path.relpath(span_file, ROOT)}")
    return records, passes, busy, metrics, times, notes


def replay(spans, tracer, inst, call):
    """The traced form of one call; returns its verdict."""
    if inst.op == "solve":
        return spans.replay_solve(tracer, inst)
    return verdict(inst, spans.traced_call(tracer, inst, call, work_done))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prointerp", "__init__.py")):
        print(f"perfbench: no prointerp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update({v: BLAS_THREADS for v in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, SRC)
    import prointerp

    if not os.path.abspath(prointerp.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported prointerp from {prointerp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import instances

    env = environment()
    insts = instances.WORKLOADS[args.workload](args.seed)
    # One seeded order for every pass, so calls of one size class are
    # spread over the run instead of meeting the same machine noise.
    order = random.Random(args.seed).sample(range(len(insts)), len(insts))
    insts = [insts[i] for i in order]
    call = Caller(args.seed)
    warm = warm_up_choice(insts)

    if args.trace:
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        records, passes, busy, metrics, extra, notes = traced_run(insts, warm, call, args.seconds, span_file)
        failed = sum(1 for j in judge(records) if not j[0])
    else:
        for inst in warm:
            timed(call, inst)
        records, passes, busy, setups = untraced_run(insts, call, args.seconds)
        judged = judge(records)
        metrics, extra, notes, failed = end_to_end(records, judged)
        metrics["setup_s"] = (statistics.median(setups), "s")
        notes["setup_s"] = f"median of {len(setups)} fresh processes: " + ", ".join(f"{t:.4f}" for t in setups)
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")

    call_s = sum(dt for _, dt, _ in records)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# closed loop, 1 caller: calls={len(records)} passes={passes} instances/pass={len(insts)}"
          f" size_classes_warmed={len(warm)} measured_s={busy:.3f} untraced_call_s={call_s:.3f} failed={failed}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {format_value(value):>24s} {unit}{note}")
    for key in ("share", "spans"):
        if key in notes:
            print(f"# {key}: {notes[key]}")
    errors = sorted({verdict(i, r) for i, _, r in records if isinstance(r, Exception)})
    if errors:
        print("# errors: " + ", ".join(errors))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)

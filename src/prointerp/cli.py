"""Command line interface.

Subcommands::

    solve        decide/construct an interpolant for a pair (A, B)
    hill         Hill-Pick analysis only (m, m_max, eigenvalues, CP verdict)
    order        randomized one-sided Lyapunov order test
    eval         evaluate a stored realization at a matrix point
    verify       check f(A) = B for a stored realization
    bicommutant  print the power basis of {A}'' (from I/sqrt(n)) and m_max

Matrix files may be JSON ({"rows": .., "cols": .., "data": [[..]]}) or
whitespace-separated plain text; realizations are JSON objects with keys
"m", "ell", "M_lower".  Reports go to stdout (text by default, --json for
machine-readable form); errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .commutant import bicommutant_basis
from .errors import NotInBicommutantError, NotLyapunovRegularError, ProinterpError
from .hill import is_completely_positive
from .lyapunov import lab_map, lyap_order_sample_test
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    format_matrix_text,
    load_matrix,
    matrix_to_json,
)
from .pro import ProRealization, eval_matrix
from .solver import hill_pick, solve

_SOLVE_EXIT = {
    "solved": 0,
    "infeasible": 2,
    "not_suboptimal": 3,
    "not_regular": 4,
    "not_in_bicommutant": 4,
    "numerical_failure": 1,
}


def _add_common(parser):
    parser.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                        help="relative singular value cutoff for rank decisions")
    parser.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_rel,
                        help="relative eigenvalue floor for positivity checks")
    parser.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.residual_abs,
                        help="absolute residual gate, scaled by (1 + data norm)")
    parser.add_argument("--tol-regular", type=float, default=DEFAULT_TOL.regular_rel,
                        help="relative floor for Lyapunov regularity")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def _add_sampling(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for randomized trials")
    parser.add_argument("--trials", type=int, default=1000, help="number of randomized trials")


def _tolerances(args) -> Tolerances:
    return Tolerances(
        rank_rel=args.tol_rank,
        psd_rel=args.tol_psd,
        residual_abs=args.tol_residual,
        regular_rel=args.tol_regular,
    )


def _emit(args, obj: dict, text_lines):
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_realization(path) -> ProRealization:
    with open(path, "r", encoding="utf-8") as fh:
        return ProRealization.from_json(json.load(fh))


def cmd_solve(args) -> int:
    tol = _tolerances(args)
    report = solve(load_matrix(args.a), load_matrix(args.b), tol)
    lines = [f"status: {report.status}"]
    if report.m is not None:
        lines.append(f"m: {report.m}")
    if report.m_max is not None:
        lines.append(f"m_max: {report.m_max}")
    if report.hill_pick is not None:
        eigs = np.diag(report.hill_pick)  # H is diagonal, eigenvalues ascending
        lines.append("hill eigenvalues: " + " ".join(repr(float(v)) for v in eigs))
    if report.skew_residual is not None:
        lines.append(f"skew_residual: {report.skew_residual!r}")
    if report.interp_residual is not None:
        lines.append(f"interp_residual: {report.interp_residual!r}")
    if report.realization is not None:
        lines.append("realization: " + json.dumps(report.realization.to_json()))
    lines.append(f"diagnostics: {report.diagnostics}")
    _emit(args, report.to_json(), lines)
    return _SOLVE_EXIT[report.status]


def cmd_hill(args) -> int:
    tol = _tolerances(args)
    a, b = load_matrix(args.a), load_matrix(args.b)
    h, _, m, mm = hill_pick(a, b, tol)
    eigs = [float(v) for v in np.diag(h)]  # H is diagonal, eigenvalues ascending
    cp = is_completely_positive(lab_map(a, b, tol), tol)
    obj = {
        "m": m,
        "m_max": mm,
        "hill_pick": matrix_to_json(h),
        "hill_eigenvalues": eigs,
        "completely_positive": cp,
    }
    _emit(args, obj, [
        f"m: {m}",
        f"m_max: {mm}",
        "hill eigenvalues: " + " ".join(repr(v) for v in eigs),
        f"completely_positive: {str(cp).lower()}",
    ])
    return 0


def cmd_order(args) -> int:
    tol = _tolerances(args)
    result = lyap_order_sample_test(
        load_matrix(args.a), load_matrix(args.b),
        trials=args.trials, seed=args.seed, tol=tol, threads=args.threads,
    )
    obj = {
        "violated": result.violated,
        "trial_index": result.trial_index,
        "trials": result.trials,
        "witness": None if result.witness is None else matrix_to_json(result.witness),
    }
    lines = [f"verdict: {'violation' if result.violated else 'no_violation'}",
             f"trials: {result.trials}"]
    if result.violated:
        lines.append(f"trial_index: {result.trial_index}")
        lines.append("witness:")
        lines.append(format_matrix_text(result.witness))
    _emit(args, obj, lines)
    return 2 if result.violated else 0


def cmd_eval(args) -> int:
    tol = _tolerances(args)
    value = eval_matrix(_load_realization(args.f), load_matrix(args.a), tol)
    _emit(args, matrix_to_json(value), [format_matrix_text(value)])
    return 0


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    b = load_matrix(args.b)
    value = eval_matrix(_load_realization(args.f), load_matrix(args.a), tol)
    residual = float(np.linalg.norm(value - b))
    gate = tol.residual_abs * (1.0 + float(np.linalg.norm(b)))
    ok = residual <= gate
    _emit(args, {"residual": residual, "tolerance": gate, "ok": ok},
          [f"residual: {residual!r}", f"tolerance: {gate!r}", f"ok: {str(ok).lower()}"])
    return 0 if ok else 2


def cmd_bicommutant(args) -> int:
    tol = _tolerances(args)
    basis = bicommutant_basis(load_matrix(args.a), tol)
    obj = {
        "n": basis.n,
        "m_max": basis.dim,
        "basis": [matrix_to_json(x) for x in basis.basis],
    }
    lines = [f"m_max: {basis.dim}"]
    for k, x in enumerate(basis.basis):
        lines.append(f"basis[{k}]:")
        lines.append(format_matrix_text(x))
    _emit(args, obj, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prointerp",
        description="Positive real odd rational interpolation at matrix points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide/construct an interpolant for (A, B)")
    p.add_argument("a", help="base point matrix file")
    p.add_argument("b", help="target matrix file")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hill", help="Hill-Pick analysis of (A, B)")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(func=cmd_hill)

    p = sub.add_parser("order", help="randomized Lyapunov order test")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect (trials run batched in one thread)")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("eval", help="evaluate a realization at a matrix point")
    p.add_argument("f", help="realization JSON file")
    p.add_argument("a", help="matrix point file")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="check f(A) = B for a stored realization")
    p.add_argument("f", help="realization JSON file")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bicommutant", help="print a bicommutant basis")
    p.add_argument("a")
    _add_common(p)
    p.set_defaults(func=cmd_bicommutant)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotLyapunovRegularError, NotInBicommutantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ProinterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

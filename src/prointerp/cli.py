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

Each subcommand takes --json and only the --tol-* flags its code reads: all
four on solve and hill, --tol-psd and --tol-regular on order (with --seed and
--trials), --tol-regular on eval, --tol-residual and --tol-regular on verify,
and --tol-rank on bicommutant.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .commutant import bicommutant_basis
from .errors import NotInBicommutantError, NotLyapunovRegularError, ProinterpError
from .lyapunov import lyap_order_sample_test
from .matrix_kit import (
    DEFAULT_TOL,
    Tolerances,
    format_matrix_text,
    load_matrix,
    matrix_to_json,
    psd_scale,
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


_TOL_FLAGS = {
    "rank": ("rank_rel", "relative singular value cutoff for rank decisions"),
    "psd": ("psd_rel", "relative eigenvalue floor for positivity checks"),
    "residual": ("residual_abs", "absolute residual gate, scaled by (1 + data norm)"),
    "regular": ("regular_rel", "relative floor for Lyapunov regularity"),
}


def _add_common(parser, *tols):
    """Add --json and the --tol-* flags named in ``tols``."""
    for name in tols:
        field, text = _TOL_FLAGS[name]
        parser.add_argument(f"--tol-{name}", dest=field, type=float,
                            default=getattr(DEFAULT_TOL, field), help=text)
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def _tolerances(args) -> Tolerances:
    """The defaults, overridden by the --tol-* flags the subcommand takes."""
    return Tolerances(**{f: getattr(args, f) for f, _ in _TOL_FLAGS.values() if hasattr(args, f)})


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
    h, _, m, mm = hill_pick(load_matrix(args.a), load_matrix(args.b), tol)
    eigs = [float(v) for v in np.diag(h)]  # H is diagonal, eigenvalues ascending
    # A minimal Hill representation is CP exactly when H is PSD.
    cp = bool(min(eigs, default=0.0) >= -tol.psd_rel * psd_scale(h))
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
        trials=args.trials, seed=args.seed, tol=tol,
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
    _add_common(p, "rank", "psd", "residual", "regular")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hill", help="Hill-Pick analysis of (A, B)")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p, "rank", "psd", "residual", "regular")
    p.set_defaults(func=cmd_hill)

    p = sub.add_parser("order", help="randomized Lyapunov order test")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p, "psd", "regular")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for randomized trials")
    p.add_argument("--trials", type=int, default=1000, help="number of randomized trials")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("eval", help="evaluate a realization at a matrix point")
    p.add_argument("f", help="realization JSON file")
    p.add_argument("a", help="matrix point file")
    _add_common(p, "regular")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="check f(A) = B for a stored realization")
    p.add_argument("f", help="realization JSON file")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p, "residual", "regular")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bicommutant", help="print a bicommutant basis")
    p.add_argument("a")
    _add_common(p, "rank")
    p.set_defaults(func=cmd_bicommutant)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotLyapunovRegularError, NotInBicommutantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ProinterpError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Batch command-line front end.

One subcommand per library operation; matrix and vector inputs use the
plain-text format (comment lines starting with '#', dimension, then entries
row-major). Each report is one line of JSON on stdout, the only output
format; diagnostics go to stderr. Exit codes: 0 pass, 1 check failure,
2 input error (including a NaN or negative ``--tol``), 3 solver failure
(a Jacobi sweep or secular root bracket that did not converge). Codes 2 and 3
print one ``error:`` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import core, secular, squares, verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _read_matrix(path: str) -> core.SymmetricMatrix:
    with open(path) as fh:
        return core.parse_matrix(fh.read())


def _read_x(spec: str, n: int) -> np.ndarray:
    if spec == "ones":
        return np.ones(n)
    with open(spec) as fh:
        x = core.parse_vector(fh.read())
    if len(x) != n:
        raise core.MatrixFormatError(
            f"vector has length {len(x)}, matrix has dimension {n}")
    return x


def _spectrum_dict(spec: core.Spectrum) -> dict:
    return {
        "values": list(spec.values),
        "clusters": [list(c) for c in spec.clusters],
    }


def cmd_eig(args) -> int:
    basis = core.eigh(_read_matrix(args.matrix))
    payload = {
        "eigenvalues": _spectrum_dict(basis.spectrum),
        "vectors": [list(col) for col in basis.vectors.T],
    }
    print(json.dumps(payload))
    return EXIT_PASS


def cmd_deck(args) -> int:
    cards = core.deck(_read_matrix(args.matrix))
    payload = {"cards": [_spectrum_dict(c) for c in cards.card_spectra]}
    print(json.dumps(payload))
    return EXIT_PASS


def cmd_squares(args) -> int:
    table = squares.square_table(_read_matrix(args.matrix))
    print(table.to_json())
    for w in table.warnings:
        print(f"warning: {w.code} in column {w.index}: {w.value:.12g}",
              file=sys.stderr)
    return EXIT_FAIL if table.warnings else EXIT_PASS


def cmd_rank1(args) -> int:
    A = _read_matrix(args.matrix)
    x = _read_x(args.x, A.n)
    basis = core.eigh(A)
    result = secular.rank1_update(basis, x, args.t)
    warned = {w.index for w in result.warnings}
    eigenvalues = []
    for value, (kind, idx) in zip(result.values, result.origins):
        entry = {"value": value, "origin": f"{kind}({idx})"}
        if kind == "root" and idx in warned:
            entry["warning"] = "near-degenerate"
        eigenvalues.append(entry)
    payload = {
        "eigenvalues": eigenvalues,
        "vectors": [None if v is None else list(v) for v in result.vectors],
    }
    print(json.dumps(payload))
    return EXIT_PASS


def cmd_det_check(args) -> int:
    A = _read_matrix(args.matrix)
    x = _read_x(args.x, A.n)
    basis = core.eigh(A)
    report = secular.verify_det_identity(basis, x, args.t,
                                         probes=args.probes, seed=args.seed)
    passed = report.max_rel_dev <= args.tol
    payload = {
        "pass": passed,
        "tol": args.tol,
        "max_rel_dev": report.max_rel_dev,
        "probes": list(report.probes),
        "deviations": list(report.deviations),
    }
    print(json.dumps(payload))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_gm_verify(args) -> int:
    report = verify.verify_gm(_read_matrix(args.matrix_a),
                              _read_matrix(args.matrix_b),
                              tol=args.tol, multiset_deck=args.multiset_deck)
    print(json.dumps(report.to_dict()))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_t_samples(spec: str):
    try:
        count_s, lo_s, hi_s = spec.split(",")
        count, lo, hi = int(count_s), float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--t-samples expects count,lo,hi") from None
    if count < 1:
        raise argparse.ArgumentTypeError("sample count must be positive")
    # Uniform in the half-open interval (lo, hi].
    return tuple(lo + k * (hi - lo) / count for k in range(1, count + 1))


def cmd_tmain(args) -> int:
    t_samples = args.t_samples or verify.DEFAULT_T_SAMPLES
    records = verify.verify_theorem_main(_read_matrix(args.matrix_a),
                                         _read_matrix(args.matrix_b),
                                         t_samples)
    passed = all(r.passes(args.tol) for r in records)
    payload = {
        "pass": passed,
        "tol": args.tol,
        "conclusive": sum(r.conclusive for r in records),
        "samples": [r.to_dict() for r in records],
    }
    print(json.dumps(payload))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_probe_tau(args) -> int:
    probe = verify.probe_permutation_conjecture(
        _read_matrix(args.matrix_a), _read_matrix(args.matrix_b),
        args.index, tol=args.tol)
    print(json.dumps(probe.to_dict()))
    return EXIT_PASS if probe.found else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenrecon",
        description="Eigenvector reconstruction from vertex-deleted spectra "
                    "and secular rank-one updates.")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("eig", help="eigendecomposition of a matrix file")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("deck", help="spectra of all vertex-deleted submatrices")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_deck)

    p = sub.add_parser("squares",
                       help="squared eigenvector entries from the deck")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("rank1", help="eigen of A + t*x*x^T via secular roots")
    p.add_argument("matrix")
    p.add_argument("--x", required=True, help="vector file path, or 'ones'")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_rank1)

    p = sub.add_parser("det-check",
                       help="probe det(A+t*xx^T-lam*I) = det(A-lam*I)*P_t(lam)")
    p.add_argument("matrix")
    p.add_argument("--x", required=True, help="vector file path, or 'ones'")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_det_check)

    p = sub.add_parser("gm-verify",
                       help="pairwise spectra/deck/squares/projection checks")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--multiset-deck", action="store_true",
                   help="compare deck cards as an unordered collection")
    p.set_defaults(func=cmd_gm_verify)

    p = sub.add_parser("tmain",
                       help="lowest eigenpair of A+tJ vs B+tJ over t samples")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--t-samples", type=_parse_t_samples, default=None,
                   metavar="COUNT,LO,HI")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_tmain)

    p = sub.add_parser("probe-tau",
                       help="best coordinate permutation between simple eigenvectors")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--index", type=int, default=0,
                   help="0-based eigenvalue index, must be simple in both")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_probe_tau)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not getattr(args, "tol", 0.0) >= 0:  # also rejects NaN
            raise ValueError(f"tol must be nonnegative, got {args.tol}")
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (core.ConvergenceError, secular.BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

One subcommand per library operation; matrix and vector inputs use the
plain-text format (comment lines starting with '#', dimension, then entries
row-major). Each report is one line of standard JSON on stdout, the only
output format: a quantity that does not exist is null, never NaN or
Infinity. Diagnostics go to stderr. Exit codes: 0 pass, 1 check failure,
2 input error, 3 solver failure (a Jacobi sweep or secular root bracket that
did not converge). Codes 2 and 3 print one ``error:`` line on stderr and
nothing on stdout. The checks take no tolerance or sampling flags: every
threshold and probe point is derived from the input, and each report's
``tol`` key gives the threshold it applied. A handler imports the submodules
beyond ``core`` that it runs, so a process loads only what its subcommand
needs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import core

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
    return {"values": list(spec.values), "clusters": [list(c) for c in spec.clusters]}


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
    from . import squares

    table = squares.square_table(_read_matrix(args.matrix))
    print(table.to_json())
    for w in table.warnings:
        print(f"warning: {w.code} in column {w.index}: {w.value:.12g}",
              file=sys.stderr)
    return EXIT_FAIL if table.warnings else EXIT_PASS


def cmd_rank1(args) -> int:
    from . import secular

    A = _read_matrix(args.matrix)
    result = secular.rank1_update(core.eigh(A), _read_x(args.x, A.n), args.t)
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
    from . import secular

    A = _read_matrix(args.matrix)
    report = secular.verify_det_identity(A, _read_x(args.x, A.n), args.t)
    payload = {
        "pass": report.passed,
        "tol": secular.DET_TOL,
        "max_rel_dev": report.max_rel_dev,
        "probes": list(report.probes),
        "deviations": list(report.deviations),
    }
    print(json.dumps(payload))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_gm_verify(args) -> int:
    from . import verify

    report = verify.verify_gm(_read_matrix(args.matrix_a),
                              _read_matrix(args.matrix_b),
                              multiset_deck=args.multiset_deck)
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
    # Uniform in the half-open interval (lo, hi]. Where hi - lo or k * (hi -
    # lo) overflows, the same formula runs in a unit 2^s larger.
    def sample(k, s=0):
        lo_s, hi_s = math.ldexp(lo, -s), math.ldexp(hi, -s)
        return math.ldexp(lo_s + k * (hi_s - lo_s) / count, s)
    wide = count.bit_length() + 1
    return tuple(t if math.isfinite(t := sample(k)) else sample(k, wide)
                 for k in range(1, count + 1))


def cmd_tmain(args) -> int:
    from . import verify

    A, B = _read_matrix(args.matrix_a), _read_matrix(args.matrix_b)
    records = verify.verify_theorem_main(A, B, args.t_samples)
    tol = verify.value_tol(A, B)
    passed = all(r.passes(tol) for r in records)
    payload = {
        "pass": passed,
        "tol": tol,
        "conclusive": sum(r.conclusive for r in records),
        "samples": [r.to_dict() for r in records],
    }
    print(json.dumps(payload))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_probe_tau(args) -> int:
    from . import verify

    probe = verify.probe_permutation_conjecture(
        _read_matrix(args.matrix_a), _read_matrix(args.matrix_b), args.index)
    print(json.dumps(probe.to_dict()))
    return EXIT_PASS if probe.found else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenrecon",
        description="Eigenvector reconstruction from vertex-deleted spectra "
                    "and secular rank-one updates.")
    sub = parser.add_subparsers(required=True)

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)
        return p

    command("eig", cmd_eig, "eigendecomposition of a matrix file", "matrix")
    command("deck", cmd_deck, "spectra of all vertex-deleted submatrices", "matrix")
    command("squares", cmd_squares, "squared eigenvector entries from the deck",
            "matrix")
    for name, func, help in [
            ("rank1", cmd_rank1, "eigen of A + t*x*x^T via secular roots"),
            ("det-check", cmd_det_check,
             "probe det(A+t*xx^T-lam*I) = det(A-lam*I)*P_t(lam)")]:
        p = command(name, func, help, "matrix")
        p.add_argument("--x", required=True, help="vector file path, or 'ones'")
        p.add_argument("--t", type=float, required=True)
    command("gm-verify", cmd_gm_verify,
            "pairwise spectra/deck/squares/projection checks",
            "matrix_a", "matrix_b").add_argument(
        "--multiset-deck", action="store_true",
        help="compare deck cards as an unordered collection")
    command("tmain", cmd_tmain, "lowest eigenpair of A+tJ vs B+tJ over t samples",
            "matrix_a", "matrix_b").add_argument(
        "--t-samples", type=_parse_t_samples, default=None, metavar="COUNT,LO,HI")
    command("probe-tau", cmd_probe_tau,
            "best coordinate permutation between simple eigenvectors",
            "matrix_a", "matrix_b").add_argument(
        "--index", type=int, default=0,
        help="0-based eigenvalue index, must be simple in both")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (core.ConvergenceError, core.BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

One subcommand per library operation; matrix and vector inputs use the
plain-text format (comment lines starting with '#', dimension, then entries
row-major). JSON reports go to stdout, diagnostics to stderr. Exit codes:
0 pass, 1 check failure, 2 input error.
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


def _emit(payload: dict, fmt: str, render_text) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print(render_text(payload))


def _spectrum_dict(spec: core.Spectrum) -> dict:
    return {
        "values": list(spec.values),
        "clusters": [list(c) for c in spec.clusters],
    }


def _text_table(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
    )


def cmd_eig(args) -> int:
    basis = core.eigh(_read_matrix(args.matrix), args.cluster_tol)
    payload = {
        "eigenvalues": _spectrum_dict(basis.spectrum),
        "vectors": [list(col) for col in basis.vectors.T],
    }
    _emit(payload, args.format, lambda p: _text_table(
        [["eigenvalue"] + [f"v[{k}]" for k in range(basis.n)]] +
        [[f"{v:.12g}"] + [f"{c:.12g}" for c in vec]
         for v, vec in zip(p["eigenvalues"]["values"], p["vectors"])]))
    return EXIT_PASS


def cmd_deck(args) -> int:
    cards = core.deck(_read_matrix(args.matrix), args.cluster_tol)
    payload = {"cards": [_spectrum_dict(c) for c in cards.card_spectra]}
    _emit(payload, args.format, lambda p: "\n".join(
        f"card {m}: " + " ".join(f"{v:.12g}" for v in c["values"])
        for m, c in enumerate(p["cards"])))
    return EXIT_PASS


def cmd_squares(args) -> int:
    table = squares.square_table(_read_matrix(args.matrix), args.cluster_tol)
    payload = json.loads(table.to_json())
    _emit(payload, args.format, lambda p: _text_table(
        [[""] + [f"i={i}" for i in range(table.n)]] +
        [[f"m={m}"] + ["-" if v is None else f"{v:.12g}" for v in row]
         for m, row in enumerate(p["table"])]))
    for w in table.warnings:
        print(f"warning: {w.code} in column {w.index}: {w.value:.12g}",
              file=sys.stderr)
    return EXIT_FAIL if table.warnings else EXIT_PASS


def cmd_rank1(args) -> int:
    A = _read_matrix(args.matrix)
    x = _read_x(args.x, A.n)
    basis = core.eigh(A, args.cluster_tol)
    result = secular.rank1_update(basis, x, args.t,
                                  deflate_tol=args.deflate_tol)
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
    _emit(payload, args.format, lambda p: _text_table(
        [["value", "origin"]] +
        [[f"{e['value']:.12g}", e["origin"]] for e in p["eigenvalues"]]))
    return EXIT_PASS


def cmd_det_check(args) -> int:
    A = _read_matrix(args.matrix)
    x = _read_x(args.x, A.n)
    basis = core.eigh(A, args.cluster_tol)
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
    _emit(payload, args.format, lambda p:
          f"det identity max relative deviation {p['max_rel_dev']:.3e} "
          f"({'pass' if p['pass'] else 'FAIL'} at {p['tol']:.1e})")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_gm_verify(args) -> int:
    report = verify.verify_gm(_read_matrix(args.matrix_a),
                              _read_matrix(args.matrix_b),
                              tol=args.tol, multiset_deck=args.multiset_deck)
    payload = report.to_dict()
    _emit(payload, args.format, lambda p: "\n".join(
        [f"spectra: {'pass' if p['spectra_equal']['pass'] else 'FAIL'} "
         f"(max dev {p['spectra_equal']['max_dev']:.3e})",
         f"deck: {'pass' if p['deck']['pass'] else 'FAIL'}",
         f"squares: {'pass' if p['squares']['pass'] else 'FAIL'}",
         f"projections: {sum(q['pass'] for q in p['projections'])}"
         f"/{len(p['projections'])} pass",
         f"signs: {sum(q['pass'] for q in p['signs'])}"
         f"/{len(p['signs'])} pass",
         f"overall: {'pass' if p['pass'] else 'FAIL'}"]))
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
    _emit(payload, args.format, lambda p: "\n".join(
        [f"t={r['t']:+.6f}  dev={r['lambda_n_dev']:.3e}  "
         f"angle={r['angle']:.3e}  "
         f"{'ok' if r['conclusive'] else 'outside T'}"
         for r in p["samples"]] +
        [f"overall: {'pass' if p['pass'] else 'FAIL'} "
         f"({p['conclusive']} conclusive samples)"]))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_probe_tau(args) -> int:
    probe = verify.probe_permutation_conjecture(
        _read_matrix(args.matrix_a), _read_matrix(args.matrix_b),
        args.index, tol=args.tol)
    payload = probe.to_dict()
    _emit(payload, args.format, lambda p:
          (f"found tau={list(p['permutation'])} sign={p['sign']:+d} "
           f"distance={p['distance']:.3e}") if p["found"] else
          f"exhausted, min distance {p['min_distance']:.3e}")
    return EXIT_PASS if probe.found else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenrecon",
        description="Eigenvector reconstruction from vertex-deleted spectra "
                    "and secular rank-one updates.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--cluster-tol", type=float, default=None)

    p = sub.add_parser("eig", help="eigendecomposition of a matrix file")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("deck", help="spectra of all vertex-deleted submatrices")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_deck)

    p = sub.add_parser("squares",
                       help="squared eigenvector entries from the deck")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("rank1", help="eigen of A + t*x*x^T via secular roots")
    p.add_argument("matrix")
    p.add_argument("--x", required=True, help="vector file path, or 'ones'")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--deflate-tol", type=float, default=secular.DEFLATE_TOL)
    common(p)
    p.set_defaults(func=cmd_rank1)

    p = sub.add_parser("det-check",
                       help="probe det(A+t*xx^T-lam*I) = det(A-lam*I)*P_t(lam)")
    p.add_argument("matrix")
    p.add_argument("--x", required=True, help="vector file path, or 'ones'")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_det_check)

    p = sub.add_parser("gm-verify",
                       help="pairwise spectra/deck/squares/projection checks")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--multiset-deck", action="store_true",
                   help="compare deck cards as an unordered collection")
    common(p)
    p.set_defaults(func=cmd_gm_verify)

    p = sub.add_parser("tmain",
                       help="lowest eigenpair of A+tJ vs B+tJ over t samples")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--t-samples", type=_parse_t_samples, default=None,
                   metavar="COUNT,LO,HI")
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_tmain)

    p = sub.add_parser("probe-tau",
                       help="best coordinate permutation between simple eigenvectors")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--index", type=int, default=0,
                   help="0-based eigenvalue index, must be simple in both")
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_probe_tau)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (core.MatrixFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

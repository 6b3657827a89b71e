"""The four benchmark workloads: seeded inputs, one operation, one oracle.

Each workload builds its inputs from the seed alone, turns them into a fixed
cycle of items, and defines how one item is run (the timed part) and how its
output is checked (outside the timed part). Every oracle uses numpy.linalg,
which shares no code with the library's Jacobi solver.

Items flagged ``adversarial`` are the hostile or ill-conditioned inputs the
library is known to get wrong today. Their failures are counted like any
other, but only failures on the remaining items mark the run as incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from eigenrecon import cli, core, secular, squares, verify

RANK1_TS = (-3.0, -0.3, 0.3, 3.0)
# Tolerances of the acceptance suite: criterion 3 for eigenvalues (relative
# to the spread) and eigenvector residuals, criterion 1 for squared entries.
VALUE_TOL = 1e-9
RESIDUAL_TOL = 1e-8
SQUARES_TOL = 1e-8


@dataclass
class Item:
    """One operation's input; ``kind`` groups items for per-kind reports."""

    kind: str
    data: dict
    adversarial: bool = False


class Check(NamedTuple):
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # Fixed per workload, so that the tail compares across commits; each
    # leaves at least ten slower samples in a default-length run.
    tail_pct: int
    build: Callable[[np.random.Generator, Path], list[Item]]
    run: Callable[[Item], Any]
    check: Callable[[Item, Any], Check]
    digest: Callable[[Item, Any], bytes]
    # The traced run calls this instead of ``run``; it differs only for the
    # CLI, whose library calls can be traced only in this process.
    run_traced: Callable[[Item], Any] | None = None


# --- input generation -------------------------------------------------------


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (n, n))
    return (m + m.T) / 2.0


def simple_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric matrix whose eigenvalue gaps exceed 1e-6 * spread."""
    while True:
        a = random_symmetric(rng, n)
        vals = np.linalg.eigvalsh(a)
        if np.min(np.diff(vals)) >= 1e-6 * (vals[-1] - vals[0]):
            return a


def clustered_update(rng: np.random.Generator, n: int):
    """Matrix with eigenvalues paired 1e-7 apart and an update vector whose
    weights on the eigenvectors are graded over six decades."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    base = np.sort(rng.uniform(-1.0, 1.0, n // 2))
    lam = np.concatenate([base, base + 1e-7])
    a = q @ np.diag(lam) @ q.T
    weights = 10.0 ** (-6.0 * rng.permutation(n) / (n - 1))
    x = q @ (rng.choice([-1.0, 1.0], n) * np.sqrt(weights))
    return (a + a.T) / 2.0, x


def random_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        perm = rng.permutation(n)
        if np.any(perm != np.arange(n)):
            return perm


def _sym(a: np.ndarray) -> core.SymmetricMatrix:
    return core.SymmetricMatrix.from_array(a)


def _desc_eigh(a: np.ndarray):
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]


def _values_close(got, want, tol=VALUE_TOL) -> bool:
    got = np.sort(np.asarray(got, dtype=float))
    want = np.sort(np.asarray(want, dtype=float))
    spread = max(1.0, float(want[-1] - want[0]))
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= tol * spread


def residual_ratio(a: np.ndarray, x: np.ndarray, t: float, values, vectors) -> float:
    """Worst ||M v - mu v|| over emitted vectors, in units of the
    acceptance-suite bound 1e-8 * (n * max|A| + |t| * x.x)."""
    m = a + t * np.outer(x, x)
    bound = RESIDUAL_TOL * (len(a) * float(np.max(np.abs(a))) + abs(t) * float(x @ x))
    worst = 0.0
    for mu, v in zip(values, vectors):
        if v is not None:
            worst = max(worst, float(np.linalg.norm(m @ v - mu * v)) / bound)
    return worst


def squares_error(a: np.ndarray, table: np.ndarray) -> float:
    """Max deviation of a square table from numpy's squared eigenvectors,
    over its simple columns (the others are NaN or None)."""
    diff = np.asarray(table, dtype=float) - _desc_eigh(a)[1] ** 2
    return float(np.nanmax(np.abs(diff)))


def captured_diagnostics(captured) -> tuple[float, float]:
    """Worst squares error and secular residual ratio over the calls a
    tracer captured, as (name, args, result) triples."""
    sq_err, res_ratio = 0.0, 0.0
    for name, args, result in captured:
        if name == "squares.square_table":
            sq_err = max(sq_err, squares_error(args[0].entries, result.table))
        else:
            basis, x, t = args[0], np.asarray(args[1], dtype=float), args[2]
            v = basis.vectors
            a = (v * basis.spectrum.values) @ v.T
            res_ratio = max(res_ratio, residual_ratio(a, x, t, result.values, result.vectors))
    return sq_err, res_ratio


# --- reconstruct ------------------------------------------------------------

RECONSTRUCT_N = 12


def build_reconstruct(rng, workdir):
    return [Item("simple", {"a": simple_symmetric(rng, RECONSTRUCT_N)})
            for _ in range(16)]


def run_reconstruct(item):
    return squares.square_table(_sym(item.data["a"]))


def check_reconstruct(item, table):
    if table.simple != tuple(range(RECONSTRUCT_N)):
        return Check(False, f"simple columns {table.simple}")
    err = squares_error(item.data["a"], table.table)
    return Check(err <= SQUARES_TOL, f"max abs err {err:.3e}")


def digest_reconstruct(item, table):
    return table.table.tobytes()


# --- rank1_stream -----------------------------------------------------------

RANK1_N = 32


def build_rank1(rng, workdir):
    items = []
    for k in range(4):
        clustered = k == 3
        if clustered:
            a, x = clustered_update(rng, RANK1_N)
        else:
            a, x = random_symmetric(rng, RANK1_N), rng.uniform(-1.0, 1.0, RANK1_N)
        basis = core.eigh(_sym(a))
        for t in RANK1_TS:
            items.append(Item("clustered" if clustered else "uniform",
                              {"a": a, "x": x, "t": t, "basis": basis},
                              adversarial=clustered))
    return items


def run_rank1(item):
    d = item.data
    return secular.rank1_update(d["basis"], d["x"], d["t"])


def check_rank1(item, result):
    d = item.data
    a, x, t = d["a"], d["x"], d["t"]
    if not _values_close(result.values, np.linalg.eigvalsh(a + t * np.outer(x, x))):
        return Check(False, "eigenvalues differ from numpy")
    ratio = residual_ratio(a, x, t, result.values, result.vectors)
    return Check(ratio <= 1.0, f"residual {ratio:.3e}x bound")


def digest_rank1(item, result):
    parts = [result.values.tobytes()]
    parts += [v.tobytes() for v in result.vectors if v is not None]
    return b"".join(parts)


# --- pair_verify ------------------------------------------------------------

PAIR_N = 8


def build_pairs(rng, workdir):
    items = []
    for _ in range(3):
        a = simple_symmetric(rng, PAIR_N)
        perm = random_permutation(rng, PAIR_N)
        relabelled = a[np.ix_(perm, perm)]
        perturbed = a + 1e-6 * random_symmetric(rng, PAIR_N)
        items += [
            Item("reflexive", {"a": a, "b": a, "passes": True}),
            Item("relabelled", {"a": a, "b": relabelled, "passes": False}),
            Item("perturbed", {"a": a, "b": perturbed, "passes": False}),
        ]
    return items


def run_pair(item):
    return verify.verify_gm(_sym(item.data["a"]), _sym(item.data["b"]))


def check_pair(item, report):
    d = item.data
    spectra_equal = float(np.max(np.abs(
        np.linalg.eigvalsh(d["a"]) - np.linalg.eigvalsh(d["b"])))) <= report.tol
    if report.spectra_equal != spectra_equal:
        return Check(False, "spectra verdict differs from numpy")
    if report.passed != d["passes"]:
        return Check(False, f"verdict {report.passed}, expected {d['passes']}")
    return Check(True)


def digest_pair(item, report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


# --- cli_oneshot ------------------------------------------------------------

CLI_N = 8
PROBE_N = 7
EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int = 0


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(out: bytes):
    return json.loads(out, parse_constant=_reject_constant)


def build_cli(rng, workdir):
    a = simple_symmetric(rng, CLI_N)
    x = rng.uniform(-1.0, 1.0, CLI_N)
    a7 = simple_symmetric(rng, PROBE_N)
    perm = random_permutation(rng, PROBE_N)
    b7 = a7[np.ix_(perm, perm)]
    fa = _write(workdir / "a.txt", core.format_matrix(_sym(a)))
    fx = _write(workdir / "x.txt", core.format_vector(x))
    fa7 = _write(workdir / "a7.txt", core.format_matrix(_sym(a7)))
    fb7 = _write(workdir / "b7.txt", core.format_matrix(_sym(b7)))

    def hostile(name, entries):
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in entries)
        return _write(workdir / name, f"{CLI_N}\n{rows}\n")

    nan, inf, asym = a.copy(), a.copy(), a.copy()
    nan[2, 5] = nan[5, 2] = math.nan
    inf[2, 5] = inf[5, 2] = math.inf
    asym[0, 1] += 0.5
    truncated = core.format_matrix(_sym(a)).rsplit(" ", 3)[0] + "\n"

    t_rank1, t_det = -0.5, 0.5
    ops = [
        ("eig", ["eig", fa], EXIT_PASS, {"a": a}),
        ("deck", ["deck", fa], EXIT_PASS, {"a": a}),
        ("squares", ["squares", fa], EXIT_PASS, {"a": a}),
        ("rank1", ["rank1", fa, "--x", fx, "--t", str(t_rank1)], EXIT_PASS,
         {"a": a, "x": x, "t": t_rank1}),
        ("det-check", ["det-check", fa, "--x", fx, "--t", str(t_det)], EXIT_PASS, {}),
        ("gm-verify", ["gm-verify", fa, fa], EXIT_PASS, {}),
        ("tmain", ["tmain", fa, fa], EXIT_PASS, {}),
        ("probe-tau", ["probe-tau", fa7, fb7, "--index", "0"], EXIT_PASS,
         {"a": a7, "b": b7}),
    ]
    items = [Item(kind, {"argv": argv, "code": code, "workdir": workdir, **extra})
             for kind, argv, code, extra in ops]
    for kind, path in [("nan", hostile("nan.txt", nan)),
                       ("inf", hostile("inf.txt", inf)),
                       ("asymmetric", hostile("asym.txt", asym)),
                       ("truncated", _write(workdir / "trunc.txt", truncated))]:
        items.append(Item(kind, {"argv": ["eig", path], "code": EXIT_INPUT,
                                 "workdir": workdir}, adversarial=True))
    return items


def run_cli_process(item):
    """One ``python -m eigenrecon.cli`` process; rusage is read per child."""
    workdir = item.data["workdir"]
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "eigenrecon.cli", *item.data["argv"]],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def run_cli_in_process(item):
    """``cli.main`` on the same argv; an escaping exception stands for the
    traceback and exit code 1 a process would give."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(item.data["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else EXIT_FAIL
        except Exception:
            traceback.print_exc()
            code = EXIT_FAIL
    return CliRun(code, out.getvalue().encode(), err.getvalue().encode())


def _probe_ok(d, payload) -> bool:
    # Any permutation mapping p onto +u or -u within tolerance is right, not
    # only the lexicographically first one.
    if not payload["found"]:
        return False
    p = _desc_eigh(d["a"])[1][:, 0]
    u = _desc_eigh(d["b"])[1][:, 0]
    tp = p[np.asarray(payload["permutation"])]
    return min(np.linalg.norm(tp - u), np.linalg.norm(tp + u)) <= 1e-8


def check_cli(item, run):
    d = item.data
    if run.code != d["code"]:
        return Check(False, f"exit {run.code}, expected {d['code']}")
    if d["code"] == EXIT_INPUT:
        return Check(run.stdout == b"", "stdout not empty on input error")
    try:
        payload = strict_json(run.stdout)
    except ValueError as exc:
        return Check(False, f"stdout is not strict JSON: {exc}")
    kind = item.kind
    if kind == "eig":
        ok = _values_close(payload["eigenvalues"]["values"], np.linalg.eigvalsh(d["a"]))
    elif kind == "deck":
        ok = all(_values_close(card["values"],
                               np.linalg.eigvalsh(np.delete(np.delete(d["a"], m, 0), m, 1)))
                 for m, card in enumerate(payload["cards"])) \
            and len(payload["cards"]) == CLI_N
    elif kind == "squares":
        ok = squares_error(d["a"], payload["table"]) <= SQUARES_TOL
    elif kind == "rank1":
        want = np.linalg.eigvalsh(d["a"] + d["t"] * np.outer(d["x"], d["x"]))
        ok = _values_close([e["value"] for e in payload["eigenvalues"]], want)
    elif kind == "probe-tau":
        ok = _probe_ok(d, payload)
    else:
        ok = payload["pass"] is True
    return Check(ok, "" if ok else f"{kind} output disagrees with the oracle")


def digest_cli(item, run):
    return run.stdout


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {wl.name: wl for wl in [
    Workload("reconstruct", RECONSTRUCT_N, 90, build_reconstruct,
             run_reconstruct, check_reconstruct, digest_reconstruct),
    Workload("rank1_stream", RANK1_N, 90, build_rank1,
             run_rank1, check_rank1, digest_rank1),
    Workload("pair_verify", PAIR_N, 75, build_pairs,
             run_pair, check_pair, digest_pair),
    Workload("cli_oneshot", CLI_N, 80, build_cli,
             run_cli_process, check_cli, digest_cli, run_traced=run_cli_in_process),
]}


def setup(name: str, seed: int, workdir: Path) -> list[Item]:
    """Build a workload's inputs and run one warm-up operation."""
    wl = WORKLOADS[name]
    items = wl.build(np.random.default_rng(seed), workdir)
    wl.run(items[0])
    return items


def cycle_digest(wl: Workload, items: list[Item], outputs: list) -> str:
    h = hashlib.sha256()
    for item, out in zip(items, outputs):
        h.update(repr(out).encode() if isinstance(out, Exception) else wl.digest(item, out))
    return h.hexdigest()

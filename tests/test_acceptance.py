"""Acceptance suite: one test per exit criterion, one printed line each.

Every tolerance is pinned here; nothing is calibrated at runtime. Random
instances are seeded so reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest

from eigenrecon import core, secular, squares, verify
from oracles import char_poly_derivative_eval, char_poly_eval


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def seeded_symmetric(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


def seeded_simple_symmetric(rng, n):
    while True:
        A = seeded_symmetric(rng, n)
        vals = core.eigh(A).spectrum.values
        spread = max(float(vals[0] - vals[-1]), 1e-300)
        if n == 1 or np.min(-np.diff(vals)) >= 1e-6 * spread:
            return A


def test_criterion_1_squares_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for k in range(100):
        n = 2 + k % 11  # cycles n over 2..12
        A = seeded_simple_symmetric(rng, n)
        basis = core.eigh(A)
        table = squares.square_table_from_deck(core.deck(A))
        oracle = basis.vectors ** 2
        worst = max(worst, float(np.max(np.abs(table.table - oracle))))
    elapsed = time.time() - start
    report(1, "squares-from-deck oracle equivalence",
           worst <= 1e-8 and elapsed < 10.0,
           f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_p3_closed_form():
    P3 = core.SymmetricMatrix.from_array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    cell = squares.square_table(P3).cell(0, 0)
    report(2, "path-graph P3 closed form",
           abs(cell - 0.25) <= 1e-12, f"p_11^2 = {cell:.15f}")


def secular_instances(count=100):
    rng = np.random.default_rng(777)
    ts = [-3.0, -0.3, 0.3, 3.0]
    for k in range(count):
        n = 2 + k % 11
        A = seeded_symmetric(rng, n)
        x = rng.uniform(-1, 1, n)
        yield A, x, ts[k % 4]


def test_criterion_3_secular_spectrum_oracle():
    start = time.time()
    worst_val, worst_res = 0.0, 0.0
    for A, x, t in secular_instances():
        n = A.n
        basis = core.eigh(A)
        result = secular.rank1_update(basis, x, t)
        M = A.entries + t * np.outer(x, x)
        direct = core.eigh(core.SymmetricMatrix.from_array(M))
        spread = max(1.0, float(direct.spectrum.spread))
        dev = float(np.max(np.abs(np.sort(result.values)
                                  - np.sort(direct.spectrum.values))))
        worst_val = max(worst_val, dev / (1e-9 * spread))
        bound = 1e-8 * (n * float(np.max(np.abs(A.entries))) + abs(t) * float(x @ x))
        for val, v in zip(result.values, result.vectors):
            if v is not None:
                res = float(np.linalg.norm(M @ v - val * v))
                worst_res = max(worst_res, res / bound)
    elapsed = time.time() - start
    report(3, "secular spectrum and eigenvector oracle",
           worst_val <= 1.0 and worst_res <= 1.0 and elapsed < 10.0,
           f"value dev {worst_val:.2e}x tol, residual {worst_res:.2e}x bound, "
           f"{elapsed:.1f}s")


def test_criterion_4_interlacing():
    ok = True
    detail = ""
    for A, x, t in secular_instances():
        basis = core.eigh(A)
        sys = secular.build_secular(basis, x, t)
        if not sys.active:
            continue
        roots = secular.secular_roots(sys)
        poles = sys.active_poles
        pole_off = secular.POLE_OFFSET_SCALE * max(1.0, float(np.max(np.abs(poles))))
        seq = np.empty(2 * len(poles))
        if t < 0:
            seq[0::2], seq[1::2] = poles, roots
        else:
            seq[0::2], seq[1::2] = roots, poles
        margins = -np.diff(seq)
        if not np.all(margins > pole_off):
            ok = False
            detail = f"margin {np.min(margins):.2e} at t={t}"
            break
    report(4, "strict interlacing with margin above pole offset", ok, detail)


def test_criterion_5_det_identity():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for k in range(20):
        n = 2 + k % 11
        A = seeded_symmetric(rng, n)
        x = rng.uniform(-1, 1, n)
        t = float(rng.uniform(-2, 2))
        rep = secular.verify_det_identity(A, x, t)
        worst = max(worst, rep.max_rel_dev)
    report(5, "determinant factorization identity at probe points",
           worst <= 1e-9, f"max rel dev {worst:.2e}")


def test_criterion_6_2x2_closed_form():
    basis = core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]]))
    worst = 0.0
    for t in (-1.0, -0.5, 0.25, 2.0):
        result = secular.rank1_update(basis, np.ones(2), t)
        expected = np.sort([1 + 2 * t, -1.0])
        worst = max(worst, float(np.max(np.abs(np.sort(result.values) - expected))))
    report(6, "2x2 swap matrix plus t*J closed form",
           worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_7_deck_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(20):
        n = 2 + k % 9  # n <= 10
        A = seeded_symmetric(rng, n)
        spec = core.eigh(A).spectrum
        cards = core.deck(A)
        for _ in range(10):
            lam = float(rng.uniform(-3, 3))
            lhs = char_poly_derivative_eval(spec, lam)
            rhs = sum(char_poly_eval(c, lam) for c in cards.card_spectra)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    report(7, "char-poly derivative equals deck sum",
           worst <= 1e-8, f"max rel dev {worst:.2e}")


def test_criterion_8_gm_reflexivity_and_relabeling():
    rng = np.random.default_rng(555)
    ok = True
    for k in range(50):
        n = 2 + k % 6
        A = seeded_symmetric(rng, n)
        rep = verify.verify_gm(A, A)
        if not (rep.passed and rep.spectra_dev == 0.0
                and all(d == 0.0 for d in rep.deck_devs)
                and rep.squares.worst == 0.0):
            ok = False
            break
    P4 = np.zeros((4, 4))
    for i in range(3):
        P4[i, i + 1] = P4[i + 1, i] = 1.0
    rev = np.eye(4)[::-1]
    pair = verify.verify_gm(core.SymmetricMatrix.from_array(P4),
                            core.SymmetricMatrix.from_array(rev @ P4 @ rev.T))
    report(8, "verify_gm reflexivity and P4 reversal relabeling",
           ok and pair.passed)


def test_criterion_9_theorem_main_cross_path():
    rng = np.random.default_rng(4242)
    worst_val, worst_angle = 0.0, 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        A = seeded_symmetric(rng, n)
        spread = max(1.0, float(core.eigh(A).spectrum.spread))
        for rec in verify.verify_theorem_main(A, A):
            if not rec.conclusive or math.isnan(rec.secular_angle):
                continue
            worst_val = max(worst_val, rec.secular_value_dev / (1e-9 * spread))
            worst_angle = max(worst_angle, rec.secular_angle)
    report(9, "secular vs direct lowest eigenpair of A + tJ",
           worst_val <= 1.0 and worst_angle <= 1e-8,
           f"value dev {worst_val:.2e}x tol, angle {worst_angle:.2e} rad")


def test_criterion_10_permutation_probe():
    rng = np.random.default_rng(808)
    start = time.time()
    ok = True
    for k in range(20):
        n = 3 + k % 5  # n <= 7
        A = seeded_simple_symmetric(rng, n)
        perm = rng.permutation(n)
        B = core.SymmetricMatrix.from_array(
            A.entries[np.ix_(perm, perm)])
        i = int(rng.integers(0, n))
        probe = verify.probe_permutation_conjecture(A, B, i)
        if not probe.found:
            ok = False
            break
        # re-apply tau and confirm the distance criterion on fresh data
        p = core.eigh(A).vectors[:, i]
        u = core.eigh(B).vectors[:, i]
        tp = p[list(probe.permutation)]
        if min(np.linalg.norm(tp - u), np.linalg.norm(tp + u)) > 1e-8:
            ok = False
            break
    elapsed = time.time() - start
    report(10, "permutation probe soundness on relabeled pairs",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")

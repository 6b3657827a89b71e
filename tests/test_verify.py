import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from eigenrecon import core, secular, verify
from oracles import charpoly, reference_projections, reference_signs


def random_symmetric(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


def path_graph(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return core.SymmetricMatrix.from_array(a)


def ones_system(basis):
    """The all-ones secular system that ``verify_gm`` and ``verify_theorem_main`` read."""
    return secular.build_secular(basis, np.ones(basis.n))


class TestProjectionOfOnes:
    """The all-ones secular system: q = V^T 1, P_k 1 per cluster, and the
    main clusters (its active set) with their weights w_k = ||P_k 1||^2."""

    def test_swap_matrix_top(self):
        sys = ones_system(core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]])))
        np.testing.assert_allclose(sys.projections[:, 0], [1.0, 1.0], atol=1e-14)
        assert sys.q[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert sys.active == (0,)
        assert sys.active_weights[0] == pytest.approx(2.0, abs=1e-14)

    def test_swap_matrix_bottom(self):
        # Orthogonal to 1, so not main.
        sys = ones_system(core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]])))
        np.testing.assert_allclose(sys.projections[:, 1], [0.0, 0.0], atol=1e-14)
        assert abs(sys.q[1]) <= 1e-14 and 1 not in sys.active

    def test_idempotent(self):
        basis = core.eigh(random_symmetric(np.random.default_rng(2), 6))
        sys = ones_system(basis)
        proj = sys.projections
        assert proj.shape == (6, len(basis.spectrum.clusters))
        assert not proj.flags.writeable
        w = dict(zip(sys.active, sys.active_weights.tolist()))
        for k, cluster in enumerate(basis.spectrum.clusters):
            p = basis.vectors[:, list(cluster)]
            again = p @ (p.T @ proj[:, k])
            assert np.max(np.abs(again - proj[:, k])) <= 1e-12
            assert w.get(k, 0.0) == pytest.approx(proj[:, k] @ proj[:, k], rel=1e-12,
                                                  abs=secular.DEFLATE_TOL * 6)
        # The eigenspaces resolve the identity: the projections sum to 1.
        assert np.max(np.abs(proj.sum(axis=1) - 1.0)) <= 1e-12

    def test_basis_rotation_invariant(self):
        # Build a 6x6 with a double eigenvalue, rotate inside the cluster,
        # and confirm that its projection and weight do not move.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.uniform(-1, 1, (6, 6)))
        d = np.diag([3.0, 2.0, 2.0, 1.0, 0.5, -1.0])
        basis = core.eigh(core.SymmetricMatrix.from_array(q @ d @ q.T))
        k, cluster = next((k, c) for k, c in enumerate(basis.spectrum.clusters)
                          if len(c) == 2)
        sys = ones_system(basis)

        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        vecs = basis.vectors.copy()
        vecs[:, list(cluster)] = vecs[:, list(cluster)] @ rot
        rotated = ones_system(core.EigenBasis(basis.spectrum, vecs))
        assert np.max(np.abs(sys.projections[:, k] - rotated.projections[:, k])) <= 1e-10
        assert rotated.active == sys.active and k in sys.active
        j = sys.active.index(k)
        assert rotated.active_weights[j] == pytest.approx(sys.active_weights[j], rel=1e-12)


class TestCanonicalizeSign:
    """``verify_gm``'s sign records: each simple eigenvector takes the sign
    of its own entry of V^T 1, and one numerically orthogonal to 1 is
    skipped."""

    @staticmethod
    def negating_b(monkeypatch):
        # B's basis comes back with every eigenvector negated, as valid a
        # basis as the one the solver returned.
        original = verify._solve_stack

        def solve(decked, plain):
            (deck_a, deck_b), bases = original(decked, plain)
            parent = dataclasses.replace(deck_b.parent, vectors=-deck_b.parent.vectors)
            return [deck_a, dataclasses.replace(deck_b, parent=parent)], bases

        monkeypatch.setattr(verify, "_solve_stack", solve)

    def test_flips_negative_overlap(self, monkeypatch):
        A = random_symmetric(np.random.default_rng(8), 6)
        want = verify.verify_gm(A, A).signs
        assert len(want) == 6 and all(s["distance"] == 0.0 for s in want)
        self.negating_b(monkeypatch)
        assert verify.verify_gm(A, A).signs == want

    def test_orthogonal_flagged(self):
        # The eigenvectors of P4 for its 2nd and 4th eigenvalues are
        # antisymmetric under reversal, so orthogonal to 1, and skipped;
        # so is the (1, -1)/sqrt(2) of the swap matrix.
        P4 = path_graph(4)
        assert [s["index"] for s in verify.verify_gm(P4, P4).signs] == [0, 2]
        swap = core.SymmetricMatrix.from_array([[0, 1], [1, 0]])
        assert [s["index"] for s in verify.verify_gm(swap, swap).signs] == [0]

    def test_positive_overlap_unchanged(self):
        # Jacobi makes each column's largest entry positive; where that
        # leaves a positive entry sum in both, the vectors are compared as
        # they are.
        rng = np.random.default_rng(10)
        A = random_symmetric(rng, 5)
        B = core.SymmetricMatrix.from_array(A.entries + 1e-9 * random_symmetric(rng, 5).entries)
        report = verify.verify_gm(A, B)
        va, vb = (core.eigh(M).vectors for M in (A, B))
        positive = [s for s in report.signs if va[:, s["index"]].sum() > 0
                    and vb[:, s["index"]].sum() > 0]
        assert positive
        for s in positive:
            i = s["index"]
            assert s["distance"] == pytest.approx(np.linalg.norm(va[:, i] - vb[:, i]),
                                                  rel=1e-12, abs=1e-15)


class TestVerifyGm:
    def test_reflexive_zero_deviation(self):
        A = random_symmetric(np.random.default_rng(8), 6)
        report = verify.verify_gm(A, A)
        assert report.passed
        assert report.spectra_dev == 0.0
        assert all(d == 0.0 for d in report.deck_devs)
        assert report.squares.worst == 0.0

    def test_p4_reversal(self):
        P4 = path_graph(4)
        rev = np.eye(4)[::-1]
        B = core.SymmetricMatrix.from_array(rev @ P4.entries @ rev.T)
        report = verify.verify_gm(P4, B)
        assert report.passed
        assert report.deck_equal

    def test_perturbed_pair_fails(self):
        A = random_symmetric(np.random.default_rng(10), 5)
        bumped = A.entries.copy()
        bumped[0, 0] += 1e-3
        B = core.SymmetricMatrix.from_array(bumped)
        report = verify.verify_gm(A, B)
        assert not report.spectra_equal
        assert report.spectra_dev > 1e-5
        assert not report.passed

    def test_multiset_deck_mode(self):
        # Relabeling scrambles card order; the multiset comparison still passes.
        rng = np.random.default_rng(12)
        A = random_symmetric(rng, 5)
        perm = rng.permutation(5)
        P = np.eye(5)[perm]
        B = core.SymmetricMatrix.from_array(P @ A.entries @ P.T)
        aligned = verify.verify_gm(A, B)
        multiset = verify.verify_gm(A, B, multiset_deck=True)
        assert multiset.deck_equal
        assert multiset.deck_multiset_devs is not None
        assert max(multiset.deck_multiset_devs) <= 1e-10
        # index-aligned devs are recorded either way
        assert len(aligned.deck_devs) == 5

    def test_multiset_deck_pairs_near_tied_cards(self):
        # Two cards of this graph share their leading eigenvalues up to
        # rounding, so a lexicographic sort of the cards pairs them wrongly.
        A = np.array([[0, 0, 0, 0, 0, 0, 1],
                      [0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 1, 0, 0, 0],
                      [0, 0, 1, 0, 1, 1, 0],
                      [0, 0, 0, 1, 0, 0, 1],
                      [0, 0, 0, 1, 0, 0, 0],
                      [1, 0, 0, 0, 1, 0, 0]], dtype=float)
        perm = [6, 2, 4, 5, 1, 0, 3]
        report = verify.verify_gm(core.SymmetricMatrix.from_array(A),
                                  core.SymmetricMatrix.from_array(A[perm][:, perm]),
                                  multiset_deck=True)
        assert report.deck_equal
        assert max(report.deck_multiset_devs) <= 1e-10

    def test_repeated_eigenvalue_near_float_max(self):
        # The projection value of the double eigenvalue 1e308 used to
        # overflow to inf.
        A = core.SymmetricMatrix.from_array(1e308 * np.eye(2))
        report = verify.verify_gm(A, A)
        assert report.passed
        assert [p["value"] for p in report.projections] == [1e308]

    def test_dimension_mismatch(self):
        A = random_symmetric(np.random.default_rng(1), 3)
        B = random_symmetric(np.random.default_rng(1), 4)
        with pytest.raises(ValueError, match="dimension"):
            verify.verify_gm(A, B)

    def test_report_json_fields(self):
        A = path_graph(3)
        d = verify.verify_gm(A, A).to_dict()
        for key in ("spectra_equal", "deck", "squares", "projections",
                    "signs", "theorem_main", "pass"):
            assert key in d
        assert set(d["theorem_main"]) == {"t_star_a", "t_star_b", "r",
                                          "conclusive", "angle", "pass"}


class TestSharedSolve:
    """verify_gm solves everything in one stack; the results are those of the
    standalone calls, bit for bit."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(41)
        for k in range(12):
            n = 4 + k % 5
            if k % 3 == 2:
                a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
                a += a.T
            else:
                a = random_symmetric(rng, n).entries
            perm = rng.permutation(n)
            b = a[np.ix_(perm, perm)]
            if k % 3 == 1:
                b = b + np.diag(1e-3 * rng.uniform(-1, 1, n))
            scale = 4.0 ** (20 * (k // 3 % 3 - 1))  # each kind at 4^-20, 1, 4^20
            yield (core.SymmetricMatrix.from_array(scale * a),
                   core.SymmetricMatrix.from_array(scale * b))

    def test_deck_matches_standalone(self):
        for A, B in self.pairs():
            report = verify.verify_gm(A, B)
            decks = core.deck(A), core.deck(B)
            assert report.deck_devs == tuple(
                float(np.max(np.abs(ca.values - cb.values)))
                for ca, cb in zip(*(d.card_spectra for d in decks)))
            assert report.spectra_dev == float(np.max(np.abs(
                decks[0].parent.spectrum.values - decks[1].parent.spectrum.values)))

    def test_bad_input_raises_as_standalone(self):
        one = core.SymmetricMatrix.from_array([[1.0]])
        with pytest.raises(ValueError, match="deck requires n >= 2"):
            verify.verify_gm(one, one)
        big = core.SymmetricMatrix.from_array(np.diag([-1.7e308, -1.7e308]))
        with pytest.raises(ValueError, match=r"A \+ t\*J is not finite at t = -1\.69"):
            verify.verify_theorem_main(big, big)


FAMILIES = ("reflexive", "relabelled", "perturbed", "dad",
            "graph-reflexive", "graph-relabelled", "graph-dad", "reversal")


def family_pairs(seed=4, count=288):
    """Seeded pairs, n = 2..8, cycling through FAMILIES: uniform random
    matrices against themselves, relabelled, perturbed by 1e-9 and switched
    to DAD (D a diagonal of signs, neither I nor -I); connected 0/1 graphs
    against themselves, relabelled and switched; paths against their
    reversal."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 2 + k % 7
        kind = FAMILIES[k % len(FAMILIES)]
        if kind.startswith("graph"):
            a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            path = rng.permutation(n)  # a Hamiltonian path keeps it connected
            a[np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])] = 1.0
            a += a.T
        elif kind == "reversal":
            a = path_graph(n).entries
        else:
            a = random_symmetric(rng, n).entries
        if kind.endswith("reflexive"):
            b = a
        elif kind.endswith("relabelled"):
            perm = rng.permutation(n)
            b = a[np.ix_(perm, perm)]
        elif kind == "perturbed":
            b = a + 1e-9 * random_symmetric(rng, n).entries
        elif kind.endswith("dad"):
            d = np.ones(n)
            d[rng.permutation(n)[:rng.integers(1, n)]] = -1.0
            b = d[:, None] * a * d
        else:
            b = a[::-1, ::-1]
        yield k, kind, core.SymmetricMatrix.from_array(a), core.SymmetricMatrix.from_array(b)


def exact_invariants(M):
    """phi(A), the deck as a sorted multiset of card polynomials, and
    phi(A + J), exactly, for an integer matrix."""
    a = M.entries
    cards = sorted(charpoly(np.delete(np.delete(a, m, 0), m, 1)) for m in range(M.n))
    return charpoly(a), cards, charpoly(a + 1.0)


# The pairs of family_pairs(seed=4) on which the closed form and the
# sampled shifts disagree, all at the tolerance edge: pair 82, a 1e-9
# perturbation at n = 7, has spectra 7.3e-10 and projections 2.8e-9 apart,
# and passes; the sampled check fails it at t = -0.296875 only, where its
# lowest eigenvalues agree (9.8e-10) and its lowest eigenvectors are 1.24e-8
# apart, just past VECTOR_TOL = 1e-8. Seeds 1-3 and 5-7 have none.
TOLERANCE_EDGE = {82: (-0.296875, 1.236e-8)}


class TestClosedFormTheoremMain:
    """verify_gm decides theorem-main in closed form; the sampled two-path
    check, verify_theorem_main at the shifts it derives, is the oracle."""

    def test_charpoly_matches_numpy_poly(self):
        rng = np.random.default_rng(29)
        for n in range(1, 11):
            for _ in range(8):
                a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
                a += a.T
                exact = charpoly(a)
                assert np.max(np.abs(np.poly(a) - exact)) <= 1e-8 * max(map(abs, exact))
        assert charpoly(np.ones((3, 3))) == [1, -3, 0, 0]
        with pytest.raises(ValueError, match="integer"):
            charpoly([[0.5]])

    def test_verdicts_match_the_sampled_check(self):
        disagree = {}
        retained = {True: 0, False: 0}  # retained-lowest comparisons by verdict
        for k, kind, A, B in family_pairs():
            report = verify.verify_gm(A, B)
            samples = verify.verify_theorem_main(A, B)
            others = dataclasses.replace(report, theorem_main={"pass": True}).passed
            sampled = others and all(r.passes(report.tol) for r in samples)
            if report.passed != sampled:
                disagree[k] = [(r.t, r.angle) for r in samples if not r.passes(report.tol)]
            # The secular path of the samples runs on A's basis and has no
            # vector exactly where a retained eigenvalue of A is lowest.
            tm = report.theorem_main
            unit = report.tol / verify.VALUE_TOL
            t_star = None if tm["t_star_a"] is None else tm["t_star_a"] * unit
            assert [math.isnan(r.secular_angle) for r in samples] == [
                t_star is not None and r.t > t_star for r in samples], k
            if tm["conclusive"] and None not in (tm["t_star_a"], tm["t_star_b"]):
                # Retained in both: each sample in (t*, 0) compares the same
                # two eigenvectors as the closed form, and agrees on them.
                t_star = max(tm["t_star_a"], tm["t_star_b"]) * unit
                in_range = [r for r in samples if r.t > t_star and r.conclusive]
                assert in_range and all(abs(r.angle - tm["angle"]) <= 1e-12
                                        for r in in_range), k
                assert tm["pass"] == all(r.passes(report.tol) for r in in_range), k
                retained[tm["pass"]] += 1
            if kind.startswith("graph"):
                same = [x == y for x, y in zip(exact_invariants(A), exact_invariants(B))]
                assert same == ([True, True, False] if kind == "graph-dad" else [True] * 3), k
            if kind == "graph-dad":
                assert not report.passed, k
        assert retained[True] >= 20 and retained[False] >= 3  # 36 and 5 at seed 4
        assert disagree.keys() == TOLERANCE_EDGE.keys()
        for k, (t, angle) in TOLERANCE_EDGE.items():
            [(got_t, got_angle)] = disagree[k]
            assert got_t == t
            assert verify.VECTOR_TOL < got_angle == pytest.approx(angle, rel=1e-3)

    def test_scaled_pair_passes_where_the_sampled_check_does_not(self):
        # B = (1 + 2e-9) A has spectra within VALUE_TOL of A's and equal
        # projections, so the closed form passes it. The sampled check holds
        # the lowest eigenvector of A + tJ to VECTOR_TOL however
        # ill-conditioned it is, and fails each pair with worst conclusive
        # angles of 1.2-1.8e-8: a limit of ``tmain``, still open.
        for seed in (1, 4, 35):
            A = random_symmetric(np.random.default_rng(seed), 6)
            B = core.SymmetricMatrix.from_array((1 + 2e-9) * A.entries)
            report = verify.verify_gm(A, B)
            assert report.passed, seed
            samples = verify.verify_theorem_main(A, B)
            assert not all(r.passes(report.tol) for r in samples), seed
            worst = max(r.angle for r in samples if r.conclusive)
            assert 1.2e-8 < worst < 1.9e-8, seed

    def test_p4_reversal_has_a_retained_lowest_eigenvalue(self):
        # The lowest eigenvector of P4, (1, -g, g, -1) with g the golden
        # ratio, is orthogonal to 1, so it is the lowest of P4 + t*J for t in
        # (t*, 0), t* = -1/(w_1/(lambda_1 - lambda_4) + w_3/(lambda_3 - lambda_4)).
        P4 = path_graph(4)
        tm = verify.verify_gm(P4, core.SymmetricMatrix.from_array(P4.entries[::-1, ::-1])
                              ).theorem_main
        basis = core.eigh(P4)
        lam = basis.spectrum.values
        w = (basis.vectors.sum(axis=0)) ** 2
        t_star = -1.0 / (w[0] / (lam[0] - lam[3]) + w[2] / (lam[2] - lam[3]))
        assert tm["t_star_a"] == tm["t_star_b"] == pytest.approx(t_star, rel=1e-12)
        assert tm["r"] == 3 and tm["conclusive"] and tm["pass"]
        assert tm["angle"] <= 1e-15
        samples = verify.verify_theorem_main(P4, P4)
        assert [math.isnan(r.secular_angle) for r in samples] == [r.t > t_star for r in samples]


ORACLE_KINDS = ("reflexive", "relabelled", "perturbed", "dad", "graph", "repeated")


def oracle_pairs(seed=19, count=270):
    """Seeded pairs, n = 2..10, cycling through ORACLE_KINDS: uniform random
    matrices against themselves, relabelled, perturbed by 1e-6 and switched
    to DAD; 0/1 graphs relabelled; and matrices with integer eigenvalues
    drawn from -2..2, so mostly repeated, relabelled."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 2 + k % 9
        kind = ORACLE_KINDS[k // 9 % len(ORACLE_KINDS)]
        if kind == "graph":
            a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            a += a.T
        elif kind == "repeated":
            q, _ = np.linalg.qr(rng.uniform(-1, 1, (n, n)))
            a = q @ np.diag(rng.integers(-2, 3, n).astype(float)) @ q.T
            a = (a + a.T) / 2
        else:
            a = random_symmetric(rng, n).entries
        if kind == "reflexive":
            b = a
        elif kind == "perturbed":
            b = a + 1e-6 * random_symmetric(rng, n).entries
        elif kind == "dad":
            d = np.ones(n)
            d[rng.permutation(n)[:rng.integers(1, n)]] = -1.0
            b = d[:, None] * a * d
        else:
            perm = rng.permutation(n)
            b = a[np.ix_(perm, perm)]
        yield k, core.SymmetricMatrix.from_array(a), core.SymmetricMatrix.from_array(b)


class TestOnesProjectionOracle:
    """The one-pass projection and sign records against the per-cluster and
    per-column records of ``tests/oracles.py``. One product V^T 1 over all
    columns rounds differently from one per cluster, so distances may move
    in the last bits; everything else is identical."""

    def test_records_match_the_reference(self):
        # "uneven" has a double eigenvalue in A only; the diagonal pairs have
        # a simple -0.0 eigenvalue, whose cluster mean is 0.0, and clusters
        # whose mean is taken in a larger unit.
        diagonal = [core.SymmetricMatrix.from_array(np.diag(d)) for d in (
            [2.0, 1, 1], [2.0, 1.5, 1], [1.0, -0.0, -1.0],
            [1.7e308, 1.7e308, 1.3e308, 1e308, 1e308])]
        for k, A, B in itertools.chain(
                oracle_pairs(), [("uneven", *diagonal[:2]), ("-0.0", *diagonal[2:3] * 2),
                                 ("1e308", *diagonal[3:] * 2)]):
            report = verify.verify_gm(A, B)
            basis_a, basis_b = core.eigh_stack([A, B])
            for got, want in ((report.projections, reference_projections(basis_a, basis_b)),
                              (report.signs, reference_signs(basis_a, basis_b))):
                assert len(got) == len(want), k
                for g, w in zip(got, want):
                    assert {**g, "distance": None} == {**w, "distance": None}, k
                    if w["distance"] is not None:
                        assert abs(g["distance"] - w["distance"]) <= 1e-15, k
            # Values to the bit: == cannot tell -0.0 from 0.0.
            assert [json.dumps(p["value"]) for p in report.projections] == [
                json.dumps(p["value"]) for p in reference_projections(basis_a, basis_b)], k


class TestTheoremMain:
    def test_identical_pair(self):
        A = random_symmetric(np.random.default_rng(14), 5)
        for rec in verify.verify_theorem_main(A, A):
            assert rec.lambda_n_dev == 0.0
            assert rec.angle == 0.0

    def test_zero_matrix_closed_form(self):
        A = core.SymmetricMatrix.from_array(np.zeros((2, 2)))
        for rec in verify.verify_theorem_main(A, A):
            # t*J has eigenvalues (0, 2t); the lowest eigenvector is (1, 1)/sqrt(2).
            assert rec.lambda_n_dev == 0.0
            assert rec.angle == 0.0 and rec.conclusive

    def test_secular_cross_path(self):
        A = random_symmetric(np.random.default_rng(16), 7)
        recs = verify.verify_theorem_main(A, A)
        assert len(recs) == 16
        spread = core.eigh(A).spectrum.spread
        for rec in recs:
            if rec.conclusive:
                assert rec.secular_value_dev <= 1e-9 * max(1.0, spread)
                assert rec.secular_angle <= 1e-8


class TestProbePermutation:
    def test_identity_found(self):
        A = random_symmetric(np.random.default_rng(18), 5)
        probe = verify.probe_permutation_conjecture(A, A, 0)
        assert probe.found
        assert probe.permutation == (0, 1, 2, 3, 4)

    def test_relabelled_pair(self):
        rng = np.random.default_rng(20)
        m = random_symmetric(rng, 6)
        perm = rng.permutation(6)
        P = np.eye(6)[perm]
        B = core.SymmetricMatrix.from_array(P @ m.entries @ P.T)
        probe = verify.probe_permutation_conjecture(m, B, 2)
        assert probe.found
        # Re-apply the reported permutation and confirm its own criterion.
        p = core.eigh(m).vectors[:, 2]
        u = core.eigh(B).vectors[:, 2]
        tp = p[list(probe.permutation)]
        assert min(np.linalg.norm(tp - u), np.linalg.norm(tp + u)) <= 1e-8

    def test_diagonal_transposition(self):
        A = core.SymmetricMatrix.from_array(np.diag([1.0, 2.0]))
        B = core.SymmetricMatrix.from_array(np.diag([2.0, 1.0]))
        probe = verify.probe_permutation_conjecture(A, B, 0)
        assert probe.found
        assert probe.permutation == (1, 0)

    def test_mismatched_vectors_exhausted(self):
        A = core.SymmetricMatrix.from_array(np.diag([3.0, 1.0, 0.0]))
        B = path_graph(3)
        probe = verify.probe_permutation_conjecture(A, B, 0)
        assert not probe.found
        assert probe.min_distance > 1e-8

    def test_relabelled_pair_beyond_brute_force(self):
        # 12! permutations: only sorted pairing makes this size practical.
        rng = np.random.default_rng(22)
        m = random_symmetric(rng, 12)
        perm = rng.permutation(12)
        B = core.SymmetricMatrix.from_array(m.entries[np.ix_(perm, perm)])
        probe = verify.probe_permutation_conjecture(m, B, 3)
        assert probe.found
        assert probe.permutation == tuple(int(k) for k in perm)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(23)
        checked = 0
        for trial in range(60):
            n = int(rng.integers(2, 7))
            if trial % 3 == 0:  # 0/1 graphs: eigenvectors with tied entries
                a = np.triu(rng.integers(0, 2, (n, n)).astype(float), 1)
                A = core.SymmetricMatrix.from_array(a + a.T)
            else:
                A = random_symmetric(rng, n)
            if trial % 2:
                perm = rng.permutation(n)
                B = core.SymmetricMatrix.from_array(A.entries[np.ix_(perm, perm)])
            else:
                B = random_symmetric(rng, n)
            basis_a, basis_b = core.eigh(A), core.eigh(B)
            for i in range(n):
                if not (basis_a.spectrum.is_simple(i)
                        and basis_b.spectrum.is_simple(i)):
                    continue
                p, u = basis_a.vectors[:, i], basis_b.vectors[:, i]
                best = {
                    sign: min(float(np.linalg.norm(p[list(tau)] - sign * u))
                              for tau in itertools.permutations(range(n)))
                    for sign in (+1, -1)
                }
                sign = min(best, key=lambda s: (best[s], -s))
                probe = verify.probe_permutation_conjecture(A, B, i)
                assert probe.found == (best[sign] <= 1e-8)
                # Tied entries can give another optimal permutation whose
                # float norm differs in the last bit.
                assert abs(probe.min_distance - best[sign]) <= 2 * np.spacing(best[sign])
                if probe.found:
                    assert probe.sign == sign
                    tp = p[list(probe.permutation)]
                    assert np.linalg.norm(tp - sign * u) == best[sign]
                checked += 1
        assert checked >= 100

    def test_non_simple_rejected(self):
        A = core.SymmetricMatrix.from_array(np.diag([2.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="simple"):
            verify.probe_permutation_conjecture(A, A, 0)


class TestScaleFreeThresholds:
    """Eigenvalue thresholds and default shifts are stated in the pair's
    unit, so a verdict does not depend on the units of the matrices."""

    def test_relabelled_pairs_keep_their_verdicts(self):
        # The scaled runs once ended in BracketError.
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_symmetric(rng, 6).entries
            perm = rng.permutation(6)
            b = a[np.ix_(perm, perm)]
            verdicts = []
            for scale in (1.0, 1e10, 4.0 ** 17):
                report = verify.verify_gm(core.SymmetricMatrix.from_array(scale * a),
                                          core.SymmetricMatrix.from_array(scale * b),
                                          multiset_deck=True)
                verdicts.append((report.spectra_equal, report.deck_equal))
            assert verdicts == [(True, True)] * 3

    def test_perturbed_pair_fails_at_small_scale(self):
        A = random_symmetric(np.random.default_rng(10), 5)
        bumped = A.entries.copy()
        bumped[0, 0] += 1e-3
        report = verify.verify_gm(core.SymmetricMatrix.from_array(1e-12 * A.entries),
                                  core.SymmetricMatrix.from_array(1e-12 * bumped))
        assert not report.spectra_equal
        assert not report.passed

    def test_threshold_and_default_shifts_follow_the_pair(self):
        A = random_symmetric(np.random.default_rng(3), 4)
        big = core.SymmetricMatrix.from_array(np.ldexp(A.entries, 40))
        assert verify.value_tol(A, A) == verify.VALUE_TOL
        assert verify.value_tol(A, big) == np.ldexp(verify.VALUE_TOL, 40)
        shifts = [r.t for r in verify.verify_theorem_main(big, big)]
        assert shifts == list(np.ldexp(verify.DEFAULT_T_SAMPLES, 40))

import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from eigenrecon import core, verify


def random_symmetric(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


def path_graph(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return core.SymmetricMatrix.from_array(a)


class TestProjectionOfOnes:
    def test_swap_matrix_top(self):
        basis = core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]]))
        proj = verify.projection_of_ones(basis, basis.spectrum.clusters[0])
        np.testing.assert_allclose(proj, [1.0, 1.0], atol=1e-14)

    def test_swap_matrix_bottom(self):
        basis = core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]]))
        proj = verify.projection_of_ones(basis, basis.spectrum.clusters[1])
        np.testing.assert_allclose(proj, [0.0, 0.0], atol=1e-14)

    def test_idempotent(self):
        basis = core.eigh(random_symmetric(np.random.default_rng(2), 6))
        for cluster in basis.spectrum.clusters:
            proj = verify.projection_of_ones(basis, cluster)
            idx = list(cluster)
            p = basis.vectors[:, idx]
            again = p @ (p.T @ proj)
            assert np.max(np.abs(again - proj)) <= 1e-12

    def test_basis_rotation_invariant(self):
        # Build a 6x6 with a double eigenvalue, rotate inside the cluster,
        # and confirm the projection does not move.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.uniform(-1, 1, (6, 6)))
        d = np.diag([3.0, 2.0, 2.0, 1.0, 0.5, -1.0])
        basis = core.eigh(core.SymmetricMatrix.from_array(q @ d @ q.T))
        cluster = next(c for c in basis.spectrum.clusters if len(c) == 2)
        proj = verify.projection_of_ones(basis, cluster)

        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        vecs = basis.vectors.copy()
        vecs[:, list(cluster)] = vecs[:, list(cluster)] @ rot
        rotated = core.EigenBasis(basis.spectrum, vecs)
        proj2 = verify.projection_of_ones(rotated, cluster)
        assert np.max(np.abs(proj - proj2)) <= 1e-10


class TestCanonicalizeSign:
    def test_flips_negative_overlap(self):
        s = 1 / math.sqrt(2)
        out = verify.canonicalize_sign_along_ones([-s, -s])
        np.testing.assert_allclose(out.vector, [s, s])
        assert not out.orthogonal_to_ones

    def test_orthogonal_flagged(self):
        s = 1 / math.sqrt(2)
        out = verify.canonicalize_sign_along_ones([s, -s])
        np.testing.assert_allclose(out.vector, [s, -s])
        assert out.orthogonal_to_ones

    def test_positive_overlap_unchanged(self):
        out = verify.canonicalize_sign_along_ones([0.8, -0.6])
        np.testing.assert_allclose(out.vector, [0.8, -0.6])
        assert not out.orthogonal_to_ones

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            verify.canonicalize_sign_along_ones([1.0, 1.0])


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
        aligned = verify.verify_gm(A, B, t_samples=(-0.5,))
        multiset = verify.verify_gm(A, B, multiset_deck=True, t_samples=(-0.5,))
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
                                  multiset_deck=True, t_samples=(-0.5,))
        assert report.deck_equal
        assert max(report.deck_multiset_devs) <= 1e-10

    def test_repeated_eigenvalue_near_float_max(self):
        # The projection value and the secular pole of the double eigenvalue
        # 1e308 used to overflow to inf.
        A = core.SymmetricMatrix.from_array(1e308 * np.eye(2))
        report = verify.verify_gm(A, A, t_samples=(-1e300,))
        assert report.passed
        assert [p["value"] for p in report.projections] == [1e308]

    def test_dimension_mismatch(self):
        A = random_symmetric(np.random.default_rng(1), 3)
        B = random_symmetric(np.random.default_rng(1), 4)
        with pytest.raises(ValueError, match="dimension"):
            verify.verify_gm(A, B)

    def test_report_json_fields(self):
        A = path_graph(3)
        d = verify.verify_gm(A, A, t_samples=(-0.5,)).to_dict()
        for key in ("spectra_equal", "deck", "squares", "projections",
                    "signs", "theorem_main", "pass"):
            assert key in d


def same_sample(x, y) -> bool:
    """Field by field, bit for bit, with NaN equal to NaN."""
    return all(np.float64(a).tobytes() == np.float64(b).tobytes()
               for a, b in zip(astuple(x), astuple(y), strict=True))


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

    def test_theorem_main_matches_standalone(self):
        nan_angles = 0
        for A, B in self.pairs():
            report = verify.verify_gm(A, B)
            alone = verify.verify_theorem_main(A, B)
            assert len(report.theorem_main) == len(alone)
            assert all(map(same_sample, report.theorem_main, alone))
            nan_angles += sum(math.isnan(r.secular_angle) for r in alone)
            decks = core.deck(A), core.deck(B)
            assert report.deck_devs == tuple(
                float(np.max(np.abs(ca.values - cb.values)))
                for ca, cb in zip(*(d.card_spectra for d in decks)))
        # The graph pairs have retained lowest eigenvalues: NaN is compared too.
        assert nan_angles > 0

    def test_bad_input_raises_as_standalone(self):
        one = core.SymmetricMatrix.from_array([[1.0]])
        with pytest.raises(ValueError, match="deck requires n >= 2"):
            verify.verify_gm(one, one)
        big = core.SymmetricMatrix.from_array(1e308 * path_graph(3).entries)
        for t_samples, message in [((), "nonempty"), ((math.nan,), "t_samples must be finite"),
                                   ((1e308, 1e308), r"A \+ t\*J is not finite at t = 1e\+308")]:
            for check in (verify.verify_gm, verify.verify_theorem_main):
                with pytest.raises(ValueError, match=message):
                    check(big, big, t_samples=t_samples)


class TestTheoremMain:
    def test_identical_pair(self):
        A = random_symmetric(np.random.default_rng(14), 5)
        for rec in verify.verify_theorem_main(A, A, (-0.5, -0.1)):
            assert rec.lambda_n_dev == 0.0
            assert rec.angle == 0.0

    def test_zero_matrix_closed_form(self):
        A = core.SymmetricMatrix.from_array(np.zeros((2, 2)))
        rec = verify.verify_theorem_main(A, A, (1.0,))[0]
        # A + J has eigenvalues (2, 0); the lowest eigenvector is (1,-1)/sqrt(2).
        assert rec.lambda_n_dev == 0.0
        assert rec.angle == 0.0

    def test_secular_cross_path(self):
        A = random_symmetric(np.random.default_rng(16), 7)
        recs = verify.verify_theorem_main(A, A)
        assert len(recs) == 16
        spread = core.eigh(A).spectrum.spread
        for rec in recs:
            if rec.conclusive:
                assert rec.secular_value_dev <= 1e-9 * max(1.0, spread)
                assert rec.secular_angle <= 1e-8

    def test_empty_samples_rejected(self):
        A = path_graph(3)
        with pytest.raises(ValueError, match="nonempty"):
            verify.verify_theorem_main(A, A, ())


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
        # Spectra and deck verdicts need no shifts at scale 1; the scaled
        # runs use the default shifts, which once ended in BracketError.
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_symmetric(rng, 6).entries
            perm = rng.permutation(6)
            b = a[np.ix_(perm, perm)]
            verdicts = []
            for scale, t_samples in [(1.0, (-0.5,)), (1e10, None), (4.0 ** 17, None)]:
                report = verify.verify_gm(core.SymmetricMatrix.from_array(scale * a),
                                          core.SymmetricMatrix.from_array(scale * b),
                                          multiset_deck=True, t_samples=t_samples)
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
        # Given shifts are input, not a tolerance: they stay absolute.
        assert [r.t for r in verify.verify_theorem_main(big, big, (-0.5,))] == [-0.5]

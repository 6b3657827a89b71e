import numpy as np
import pytest

from eigenrecon import core, squares
from oracles import char_poly_derivative_eval, char_poly_eval, delete, reference_jacobi


def random_symmetric(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


class TestParseMatrix:
    def test_2x2(self):
        A = core.parse_matrix("2\n0 1\n1 0")
        np.testing.assert_array_equal(A.entries, [[0, 1], [1, 0]])

    def test_1x1(self):
        A = core.parse_matrix("1\n5")
        assert A.n == 1
        assert A.entries[0, 0] == 5.0

    def test_comments_and_mixed_whitespace(self):
        A = core.parse_matrix("# adjacency\n2\n0\t1\n1 0\n")
        np.testing.assert_array_equal(A.entries, [[0, 1], [1, 0]])

    def test_asymmetric_rejected(self):
        # The allowance scales with the entries, also below unit scale.
        for text in ("2\n0 1\n0.5 0", "2\n0 1e-12\n0 0"):
            with pytest.raises(core.MatrixFormatError, match="not symmetric"):
                core.parse_matrix(text)

    def test_small_asymmetry_symmetrized(self):
        A = core.parse_matrix("2\n0 1\n1.000000001 0")
        assert A.entries[0, 1] == A.entries[1, 0]

    def test_token_count_mismatch(self):
        with pytest.raises(core.MatrixFormatError, match="expected 4 entries"):
            core.parse_matrix("2\n0 1 1")

    def test_non_numeric(self):
        with pytest.raises(core.MatrixFormatError, match="non-numeric"):
            core.parse_matrix("2\n0 1\n1 x")

    def test_zero_dimension(self):
        with pytest.raises(core.MatrixFormatError, match="positive"):
            core.parse_matrix("0")

    def test_roundtrip_full_precision(self):
        rng = np.random.default_rng(7)
        A = random_symmetric(rng, 5)
        B = core.parse_matrix(core.format_matrix(A))
        np.testing.assert_array_equal(A.entries, B.entries)

    def test_vector_roundtrip(self):
        x = np.random.default_rng(1).uniform(-1, 1, 6)
        np.testing.assert_array_equal(core.parse_vector(core.format_vector(x)), x)


class TestEigh:
    def test_diagonal(self):
        basis = core.eigh(core.SymmetricMatrix.from_array([[3, 0], [0, 1]]))
        np.testing.assert_array_equal(basis.spectrum.values, [3, 1])
        np.testing.assert_array_equal(basis.vectors, np.eye(2))

    def test_swap_matrix(self):
        basis = core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(basis.spectrum.values, [1, -1], atol=1e-15)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis.vectors, [[s, s], [s, -s]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_residual_and_orthogonality(self, n):
        A = random_symmetric(np.random.default_rng(n), n)
        basis = core.eigh(A)
        P = basis.vectors
        D = np.diag(basis.spectrum.values)
        scale = max(1.0, np.max(np.abs(A.entries)))
        assert np.max(np.abs(P @ D @ P.T - A.entries)) <= 1e-10 * n * scale
        assert np.max(np.abs(P.T @ P - np.eye(n))) <= 1e-10 * n

    def test_matches_numpy(self):
        # Independent cross-check of the Jacobi solver.
        A = random_symmetric(np.random.default_rng(3), 9)
        basis = core.eigh(A)
        np.testing.assert_allclose(
            basis.spectrum.values,
            np.sort(np.linalg.eigvalsh(A.entries))[::-1],
            atol=1e-12,
        )

    def test_deterministic(self):
        A = random_symmetric(np.random.default_rng(11), 7)
        b1, b2 = core.eigh(A), core.eigh(A)
        assert np.array_equal(b1.vectors, b2.vectors)
        assert np.array_equal(b1.spectrum.values, b2.spectrum.values)

    def test_sign_convention(self):
        A = random_symmetric(np.random.default_rng(5), 6)
        for col in core.eigh(A).vectors.T:
            assert col[np.argmax(np.abs(col))] > 0


class TestDeck:
    def test_swap_matrix_cards(self):
        cards = core.deck(core.SymmetricMatrix.from_array([[0, 1], [1, 0]]))
        for card in cards.card_spectra:
            np.testing.assert_array_equal(card.values, [0.0])

    def test_path_graph_center_disconnects(self):
        P3 = core.SymmetricMatrix.from_array(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        cards = core.deck(P3)
        np.testing.assert_allclose(cards.card_spectra[1].values, [0, 0], atol=1e-15)
        for m in (0, 2):
            np.testing.assert_allclose(cards.card_spectra[m].values, [1, -1],
                                       atol=1e-15)

    def test_n1_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            core.deck(core.SymmetricMatrix.from_array([[1.0]]))

    def test_interlacing(self):
        A = random_symmetric(np.random.default_rng(17), 8)
        parent = core.eigh(A).spectrum
        cards = [card.values for card in core.deck(A).card_spectra]
        assert core.check_interlacing(parent, cards).tolist() == [True] * 8

    def test_interlacing_violation_names_first_bad_card(self, monkeypatch):
        A = random_symmetric(np.random.default_rng(5), 6)
        solve = core._jacobi

        def corrupt_cards_2_and_4(stack):
            a, p = solve(stack)
            a[[3, 5], 0, 0] = 10.0  # above every eigenvalue of A
            return a, p

        monkeypatch.setattr(core, "_jacobi", corrupt_cards_2_and_4)
        with pytest.raises(core.ConvergenceError,
                           match="^deck card 2 violates Cauchy interlacing$"):
            core.deck(A)

    def test_parent_is_eigh_of_matrix(self):
        A = random_symmetric(np.random.default_rng(23), 7)
        parent, direct = core.deck(A).parent, core.eigh(A)
        assert np.array_equal(parent.spectrum.values, direct.spectrum.values)
        assert parent.spectrum.clusters == direct.spectrum.clusters
        assert np.array_equal(parent.vectors, direct.vectors)

    def test_char_poly_derivative_identity(self):
        # d/dlam det(lam*I - A) equals the sum of the deck char polys.
        rng = np.random.default_rng(23)
        for _ in range(5):
            n = int(rng.integers(2, 11))
            A = random_symmetric(rng, n)
            spec = core.eigh(A).spectrum
            cards = core.deck(A)
            lam = float(rng.uniform(-3, 3))
            lhs = char_poly_derivative_eval(spec, lam)
            rhs = sum(char_poly_eval(c, lam) for c in cards.card_spectra)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def same_basis(x, y) -> bool:
    """Byte-for-byte equal values, clusters and vectors (so -0.0 != 0.0)."""
    return (x.spectrum.values.tobytes() == y.spectrum.values.tobytes()
            and x.spectrum.clusters == y.spectrum.clusters
            and x.vectors.tobytes() == y.vectors.tobytes())


def hard_matrices(n, seed):
    """Inputs where a stacked Jacobi loop could round differently from eigh."""
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, n).entries
    path = np.eye(n, k=1) + np.eye(n, k=-1)  # zero diagonal: theta is +-0.0
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    repeated = q @ np.diag(np.where(np.arange(n) < n // 2, 1.0, -2.0)) @ q.T
    signed_zeros = np.where(np.abs(m) < 0.4, -0.0, m)
    grades = 10.0 ** -np.arange(n)
    return {
        "random": m,
        "zero": np.zeros((n, n)),
        "scalar": 3.0 * np.eye(n),
        "diagonal": np.diag(np.arange(n, dtype=float)),
        "nearly_diagonal": np.diag(np.arange(n, dtype=float)) + 1e-9 * m,
        "path": path,
        "repeated": (repeated + repeated.T) / 2,
        "signed_zeros": signed_zeros,
        "graded": np.outer(grades, grades) * (m + 2.0 * np.eye(n)),
    }


HARD_CASES = [(n, name) for n in (2, 3, 6) for name in hard_matrices(n, 0)]


class TestStackedJacobi:
    @pytest.mark.parametrize("n, name", HARD_CASES)
    def test_deck_matches_scalar_eigh(self, n, name):
        A = core.SymmetricMatrix.from_array(hard_matrices(n, 41)[name])
        cards = core.deck(A)
        assert same_basis(cards.parent, core.eigh(A))
        for m, card in enumerate(cards.card_spectra):
            direct = core.eigh(delete(A, m)).spectrum
            assert card.values.tobytes() == direct.values.tobytes()
            assert card.clusters == direct.clusters

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_eigh_stack_matches_scalar_eigh(self, n):
        # The diagonal member stops after one sweep, the random ones after
        # several: converged members must stay untouched while others rotate.
        matrices = [core.SymmetricMatrix.from_array(m)
                    for seed in (1, 2) for m in hard_matrices(n, seed).values()]
        for M, basis in zip(matrices, core.eigh_stack(matrices), strict=True):
            assert same_basis(basis, core.eigh(M))

    def test_signed_zero_entries_survive(self):
        A = core.SymmetricMatrix.from_array(
            [[-0.0, -0.0, 1.0], [-0.0, -0.0, 2.0], [1.0, 2.0, -0.0]])
        assert same_basis(core.eigh_stack([A, A])[1], core.eigh(A))
        cards = core.deck(A)
        assert cards.card_spectra[2].values.tobytes() == \
            core.eigh(delete(A, 2)).spectrum.values.tobytes()


def star(leaves):
    a = np.zeros((leaves + 1, leaves + 1))
    a[0, 1:] = a[1:, 0] = 1.0
    return a


def complete_bipartite(p, q):
    a = np.zeros((p + q, p + q))
    a[:p, p:] = a[p:, :p] = 1.0
    return a


def low_rank(n, rank, seed):
    x = np.random.default_rng(seed).normal(size=(n, rank))
    return x @ x.T


def graded_positive_definite(n, seed):
    """D B D with B well conditioned and D graded from 1 to 1e-14."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = q @ np.diag(rng.uniform(1.0, 3.0, n)) @ q.T
    d = 10.0 ** (-14.0 * np.arange(n) / (n - 1))
    return d[:, None] * b * d[None, :]


HIGH_NULLITY = {
    "star_1_20": star(20),
    "star_1_31": star(31),
    "rank1_32": low_rank(32, 1, 0),
    "rank3_32": low_rank(32, 3, 1),
    "bipartite_5_7": complete_bipartite(5, 7),
}


class TestJacobiKernel:
    """XOR rounds with the relative rotation rule."""

    @pytest.mark.parametrize("seed", range(5))
    def test_graded_positive_definite_relative_accuracy(self, seed):
        # Demmel-Veselic: every eigenvalue to high relative accuracy, down to
        # about 1e-28 here, which an absolute threshold cannot give.
        import mpmath

        A = core.SymmetricMatrix.from_array(graded_positive_definite(8, seed))
        values = core.eigh(A).spectrum.values
        with mpmath.workdps(60):
            exact = mpmath.eigsy(mpmath.matrix(A.entries.tolist()), eigvals_only=True)
            exact = np.sort(np.array([float(v) for v in exact]))[::-1]
        assert np.max(np.abs(values - exact) / exact) <= 1e-14

    @pytest.mark.parametrize("name", HIGH_NULLITY)
    def test_high_nullity_converges(self, name):
        # Many exact zero eigenvalues: the tiny floor must end the sweeps.
        A = core.SymmetricMatrix.from_array(HIGH_NULLITY[name])
        values = core.eigh(A).spectrum.values
        expected = np.linalg.eigvalsh(A.entries)[::-1]
        assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_deck_cards_match_eigh_every_n(self, n):
        # Cards sit zero-padded at the end of the stack; both parities of n
        # and of n - 1 must rotate exactly as the unpadded submatrix does.
        for entries in hard_matrices(n, 43).values():
            A = core.SymmetricMatrix.from_array(entries)
            for m, card in enumerate(core.deck(A).card_spectra):
                direct = core.eigh(delete(A, m)).spectrum
                assert card.values.tobytes() == direct.values.tobytes()

    def test_mixed_convergence_stack_matches_one_at_a_time(self):
        # One sweep for the diagonal member, a dozen for the star: members
        # drop out of some rounds while others still rotate.
        n = 12
        members = [np.diag(np.arange(n, dtype=float)),
                   random_symmetric(np.random.default_rng(3), n).entries,
                   low_rank(n, 1, 4), star(n - 1), complete_bipartite(5, 7),
                   graded_positive_definite(n, 5), np.zeros((n, n))]
        matrices = [core.SymmetricMatrix.from_array(m) for m in members]
        for M, basis in zip(matrices, core.eigh_stack(matrices), strict=True):
            assert same_basis(basis, core.eigh(M))


EXTREME_SCALES = [1e-310, 1e-170, 1e154, 1e200, 1e300]


def seeded_stack(rng, b, n):
    """b symmetric n x n matrices, by index mod 4: uniform; diagonal with
    -0.0 off the diagonal, so never rotated; zero-padded like a deck card;
    uniform with -0.0 in the first row and column."""
    m = rng.uniform(-1.0, 1.0, (b, n, n))
    m = (m + m.swapaxes(1, 2)) / 2.0
    m[1::4] = np.where(np.eye(n, dtype=bool), m[1::4], -0.0)
    if n > 1:
        m[2::4, -1, :] = m[2::4, :, -1] = 0.0
        m[3::4, 0, 1:] = m[3::4, 1:, 0] = -0.0
    return m


class TestStackLastKernel:
    """``core._jacobi`` returns the bytes of the stack-first reference kernel."""

    @staticmethod
    def assert_same_bytes(stack):
        for got, want in zip(core._jacobi(stack), reference_jacobi(stack)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12, 32])
    @pytest.mark.parametrize("b", [1, 2, 13, 50])
    def test_seeded_stacks(self, b, n):
        stack = seeded_stack(np.random.default_rng(100 * b + n), b, n)
        self.assert_same_bytes(stack)
        if b > 1 and n > 1:
            assert np.signbit(stack).any()

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_mixed_scales_and_subnormal_matrices(self, n):
        rng = np.random.default_rng(n)
        stack = seeded_stack(rng, 24, n)
        k = rng.integers(-240, 240, size=24)
        stack = np.ldexp(stack, 2 * k[:, None, None])
        stack[::5] *= 1e-310 / np.max(np.abs(stack[::5]), axis=(1, 2), keepdims=True)
        assert np.any((stack != 0) & (np.abs(stack) < np.finfo(float).tiny))
        self.assert_same_bytes(stack)

    def test_round_gathers_are_built_once_per_n_and_read_only(self):
        rounds = core._round_gathers(12)
        assert core._round_gathers(12) is rounds
        assert len(rounds) == len(core._rounds(12)) == 15
        assert not any(arr.flags.writeable for r in rounds for arr in r)

    def test_eigenvalue_past_float_max_raises_in_both(self):
        stack = seeded_stack(np.random.default_rng(9), 3, 2)
        stack[1] = 1e308
        for solve in (core._jacobi, reference_jacobi):
            with pytest.raises(core.ConvergenceError, match="float range"):
                solve(stack)


def extreme_bases():
    return {"2x2": np.array([[3.0, 1.0], [1.0, -2.0]]),
            "random8": random_symmetric(np.random.default_rng(8), 8).entries}


class TestExtremeScales:
    """The rotation threshold must stay finite and nonzero at any scale."""

    @staticmethod
    def assert_spectrum(values, entries):
        expected = np.linalg.eigvalsh(entries)[::-1]
        assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("name", ["2x2", "random8"])
    def test_eigh_and_deck_match_numpy(self, name, scale):
        A = core.SymmetricMatrix.from_array(extreme_bases()[name] * scale)
        self.assert_spectrum(core.eigh(A).spectrum.values, A.entries)
        cards = core.deck(A)
        self.assert_spectrum(cards.parent.spectrum.values, A.entries)
        for m, card in enumerate(cards.card_spectra):
            self.assert_spectrum(card.values, delete(A, m).entries)

    @pytest.mark.parametrize("scale", [1e8, 1e10, 1e100, 1e200, 1e300])
    @pytest.mark.parametrize("name", ["K12", "K1_8", "C8"])
    def test_graph_deck_interlaces(self, name, scale):
        # Parent and card eigenvalues tie exactly in these graphs, so
        # interlacing holds only up to rounding, which an absolute slack of
        # 1e-8 stops covering near 1e8.
        graph = {"K12": np.ones((12, 12)) - np.eye(12), "K1_8": star(8),
                 "C8": np.roll(np.eye(8), 1, axis=1) + np.roll(np.eye(8), -1, axis=1)}
        A = core.SymmetricMatrix.from_array(graph[name] * scale)
        cards = core.deck(A)
        for m, card in enumerate(cards.card_spectra):
            self.assert_spectrum(card.values, delete(A, m).entries)

    @pytest.mark.parametrize("entries", [[[1e308, 0.0], [0.0, 5e307]],
                                         [[1e308, 0.0], [0.0, -1e308]],
                                         [[0.0, 1e308], [1e308, 0.0]]])
    def test_near_float_max(self, entries):
        # Neither symmetrisation nor the spread may overflow (a RuntimeWarning
        # fails the suite): the two eigenvalues stay two clusters.
        A = core.SymmetricMatrix.from_array(entries)
        spec = core.eigh(A).spectrum
        self.assert_spectrum(spec.values, A.entries)
        assert spec.clusters == ((0,), (1,))
        assert 0.0 < spec.spread <= core.FLOAT_MAX

    def test_eigenvalue_past_float_max_raises(self):
        # [[1e308, 1e308], [1e308, 1e308]] has the eigenvalue 2e308: an error,
        # not an infinite eigenvalue (nor an overflow warning).
        A = core.SymmetricMatrix.from_array(np.full((2, 2), 1e308))
        for solve in (core.eigh, core.deck, squares.square_table):
            with pytest.raises(core.ConvergenceError, match="float range"):
                solve(A)


def scaled_bytes(x, k) -> bytes:
    return np.ldexp(x, k).tobytes()


class TestScaleEquivariance:
    """Scaling by 2^k, k even, scales every value by 2^k and changes nothing else."""

    A = random_symmetric(np.random.default_rng(47), 8)

    @pytest.mark.parametrize("k", [2, -2, 100, -100, 500, -500, 1000, -1000])
    def test_eigh_deck_and_square_table(self, k):
        scaled = core.SymmetricMatrix.from_array(np.ldexp(self.A.entries, k))
        for got, want in ((core.eigh(scaled), core.eigh(self.A)),
                          (core.deck(scaled).parent, core.deck(self.A).parent)):
            assert got.spectrum.values.tobytes() == scaled_bytes(want.spectrum.values, k)
            assert got.spectrum.clusters == want.spectrum.clusters
            assert got.vectors.tobytes() == want.vectors.tobytes()
        for got, want in zip(core.deck(scaled).card_spectra,
                             core.deck(self.A).card_spectra, strict=True):
            assert got.values.tobytes() == scaled_bytes(want.values, k)
            assert got.clusters == want.clusters
        got, want = squares.square_table(scaled), squares.square_table(self.A)
        assert got.simple == want.simple
        assert got.table.tobytes() == want.table.tobytes()
        assert got.warnings == want.warnings


class TestCharPoly:
    def test_examples(self):
        spec = core.cluster_spectrum([1.0, -1.0])
        assert char_poly_eval(spec, 0.0) == -1.0
        spec = core.cluster_spectrum([3.0, 1.0])
        assert char_poly_eval(spec, 3.0) == 0.0

    def test_matches_determinant(self):
        rng = np.random.default_rng(29)
        A = random_symmetric(rng, 6)
        spec = core.eigh(A).spectrum
        lam = float(rng.uniform(-2, 2))
        det = np.linalg.det(lam * np.eye(6) - A.entries)
        cp = char_poly_eval(spec, lam)
        assert abs(cp - det) <= 1e-9 * max(abs(det), 1e-300)


class TestClusterSpectrum:
    def test_repeated_middle(self):
        spec = core.cluster_spectrum([2, 1, 1, 0])
        assert spec.clusters == ((0,), (1, 2), (3,))
        assert not spec.is_simple(1)
        assert spec.is_simple(0)

    def test_single_value(self):
        spec = core.cluster_spectrum([5.0])
        assert spec.clusters == ((0,),)

    def test_near_tie_merges(self):
        spec = core.cluster_spectrum([1.0, 1.0 - 5e-9, 0.0])
        assert spec.clusters == ((0, 1), (2,))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            core.cluster_spectrum([0.0, 1.0])

    def test_cluster_width_and_gaps(self):
        # Every gap in the chain is below the tolerance (1e-8 * spread), so
        # only the width rule splits it.
        vals = np.append(1.0 - 4e-9 * np.arange(20), 0.0)
        tol = core.default_cluster_tol(vals)
        spec = core.cluster_spectrum(vals)
        for c in spec.clusters:
            assert vals[c[0]] - vals[c[-1]] <= tol
        assert len(spec.clusters) > 2
        assert sorted(i for c in spec.clusters for i in c) == list(range(21))


class TestClusterMean:
    def test_equals_numpy_mean_where_finite(self):
        rng = np.random.default_rng(17)
        for scale in (5e-324, 1e-310, 1e-300, 1.0, 1e300, 1.6e307):
            for n in range(1, 12):
                vals = np.sort(scale * (1.0 + 1e-13 * rng.random(n)))[::-1]
                spec = core.cluster_spectrum(vals)
                cluster = tuple(range(n))
                assert core.cluster_mean(spec, cluster) == float(np.mean(vals))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_no_overflow_past_half_the_float_maximum(self, n):
        # np.mean of the values in a unit 16 times larger, which is exact.
        vals = np.full(n, 1.7e308)
        spec = core.cluster_spectrum(vals)
        mean = core.cluster_mean(spec, spec.clusters[0])
        assert mean == 16.0 * float(np.mean(vals / 16.0))
        assert mean == pytest.approx(1.7e308, rel=1e-15)
        spec = core.cluster_spectrum([1.00000002e308, 1e308, -1e308])
        assert core.cluster_mean(spec, (0, 1)) == 1.00000001e308

    @pytest.mark.parametrize("values", [
        [1.0, -0.0, -1.0],  # np.mean of -0.0 alone is 0.0
        [5e-324, 0.0, -0.0],
        [1.7e308, 1.7e308, 1e308, -1.7e308, -1.7e308],
        [2.0] * 3 + [1.0] * 9 + [-0.0],
        list(np.sort(np.random.default_rng(18).uniform(-1, 1, 16))[::-1]),
    ])
    def test_cluster_values_are_the_cluster_means(self, values):
        spec = core.cluster_spectrum(values)
        want = np.array([core.cluster_mean(spec, c) for c in spec.clusters])
        assert core.cluster_values(spec).tobytes() == want.tobytes()

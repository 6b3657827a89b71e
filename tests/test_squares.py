import json
import math

import numpy as np
import pytest

from eigenrecon import core, squares

SQRT2 = math.sqrt(2.0)


def square_table_from_basis(basis: core.EigenBasis) -> squares.SquareTable:
    """Squared entries taken directly from an eigendecomposition (the oracle)."""
    n = basis.n
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if basis.spectrum.is_simple(i))
    for i in simple:
        table[:, i] = basis.vectors[:, i] ** 2
    return squares.SquareTable(n, table, simple, "eigenbasis")


def random_simple_symmetric(rng, n, min_gap_factor=1e-6):
    """Resample until the eigenvalue gaps clear the simplicity threshold."""
    while True:
        m = rng.uniform(-1, 1, (n, n))
        A = core.SymmetricMatrix.from_array((m + m.T) / 2)
        vals = core.eigh(A).spectrum.values
        spread = vals[0] - vals[-1]
        if n == 1 or np.min(-np.diff(vals)) >= min_gap_factor * max(spread, 1e-300):
            return A


class TestReconstructSquare:
    def test_swap_matrix(self):
        spec = core.cluster_spectrum([1.0, -1.0])
        card = core.cluster_spectrum([0.0])
        assert squares.reconstruct_square(spec, card, 0) == pytest.approx(0.5)

    def test_diagonal(self):
        spec = core.cluster_spectrum([3.0, 1.0])
        card = core.cluster_spectrum([1.0])
        assert squares.reconstruct_square(spec, card, 0) == pytest.approx(1.0)

    def test_path_graph_closed_form(self):
        # P3 eigenvector for sqrt(2) is (1, sqrt(2), 1)/2, entry square 1/4.
        spec = core.cluster_spectrum([SQRT2, 0.0, -SQRT2])
        card = core.cluster_spectrum([1.0, -1.0])
        assert squares.reconstruct_square(spec, card, 0) == pytest.approx(0.25)

    def test_not_simple_refused(self):
        spec = core.cluster_spectrum([1.0, 1.0, 0.0])
        card = core.cluster_spectrum([1.0, 0.5])
        with pytest.raises(squares.NotSimpleError):
            squares.reconstruct_square(spec, card, 0)

    def test_card_length_checked(self):
        spec = core.cluster_spectrum([1.0, -1.0])
        card = core.cluster_spectrum([1.0, 0.0])
        with pytest.raises(ValueError, match="length"):
            squares.reconstruct_square(spec, card, 0)


class TestSquareTable:
    def test_swap_matrix(self):
        A = core.SymmetricMatrix.from_array([[0, 1], [1, 0]])
        t = squares.square_table(A)
        np.testing.assert_allclose(t.table, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_diagonal(self):
        A = core.SymmetricMatrix.from_array([[3, 0], [0, 1]])
        t = squares.square_table(A)
        np.testing.assert_allclose(t.table, np.eye(2), atol=1e-12)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        for _ in range(8):
            n = int(rng.integers(2, 13))
            A = random_simple_symmetric(rng, n)
            basis = core.eigh(A)
            from_deck = squares.square_table_from_deck(basis.spectrum,
                                                       core.deck(A))
            from_basis = square_table_from_basis(basis)
            np.testing.assert_allclose(from_deck.table, from_basis.table,
                                       atol=1e-8)
            assert not from_deck.warnings

    def test_column_stochastic(self):
        A = random_simple_symmetric(np.random.default_rng(5), 7)
        t = squares.square_table(A)
        for i in t.simple:
            assert abs(np.sum(t.table[:, i]) - 1.0) <= 1e-8

    def test_row_partial_sums(self):
        A = random_simple_symmetric(np.random.default_rng(9), 6)
        t = squares.square_table(A)
        for m in range(t.n):
            assert np.nansum(t.table[m, :]) <= 1.0 + 1e-8

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        A = random_simple_symmetric(rng, 6)
        perm = rng.permutation(6)
        P = np.eye(6)[perm]
        B = core.SymmetricMatrix.from_array(P @ A.entries @ P.T)
        ta = squares.square_table(A)
        tb = squares.square_table(B)
        # Row m of B's table is row perm^-1... relabeling moves vertex
        # perm[k] of B to vertex k of A: B rows are A rows permuted.
        np.testing.assert_allclose(tb.table, ta.table[perm, :], atol=1e-9)

    def test_non_simple_marked_not_nan_poisoned(self):
        A = core.SymmetricMatrix.from_array(np.zeros((3, 3)))
        spec = core.eigh(A).spectrum
        t = squares.square_table_from_deck(spec, core.deck(A))
        assert t.simple == ()
        assert np.all(np.isnan(t.table))

    def test_json_emission(self):
        A = core.SymmetricMatrix.from_array([[3, 0], [0, 1]])
        payload = json.loads(squares.square_table(A).to_json())
        assert payload["n"] == 2
        assert payload["simple"] == [0, 1]
        assert payload["table"][0][0] == pytest.approx(1.0)

    def test_json_marks_non_simple_null(self):
        A = core.SymmetricMatrix.from_array(np.diag([2.0, 1.0, 1.0]))
        payload = json.loads(squares.square_table(A).to_json())
        assert payload["simple"] == [0]
        assert payload["table"][0][1] is None

    def test_inconsistent_spectra_diagnostics(self):
        # The P3 deck against a parent spectrum that it does not interlace:
        # columns 0 and 2 get negative cells, and no column sums to 1.
        P3 = core.SymmetricMatrix.from_array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        spec = core.cluster_spectrum([0.5, 0.0, -0.5])
        t = squares.square_table_from_deck(spec, core.deck(P3))
        assert [(w.code, w.index) for w in t.warnings] == [
            ("negative_square", 0), ("negative_square", 0), ("column_sum", 0),
            ("column_sum", 1),
            ("negative_square", 2), ("negative_square", 2), ("column_sum", 2),
        ]
        assert t.warnings[0].value == t.table[0, 0]
        assert t.warnings[0].value == pytest.approx(-1.5)
        assert t.warnings[2].value == pytest.approx(-2.5)
        assert t.warnings[3].value == pytest.approx(8.0)
        payload = json.loads(t.to_json())
        assert payload["warnings"][2] == {
            "code": "column_sum", "index": 0, "value": t.warnings[2].value}


class TestCompareSquares:
    def test_self_comparison(self):
        A = random_simple_symmetric(np.random.default_rng(3), 5)
        t = squares.square_table(A)
        cmp = squares.compare_squares(t, t)
        assert cmp.passed
        assert cmp.worst == 0.0

    def test_automorphism_pair(self):
        # Path P4 reversed by its automorphism: tables must agree where the
        # relabeling fixes the deck structure.
        P4 = np.zeros((4, 4))
        for i in range(3):
            P4[i, i + 1] = P4[i + 1, i] = 1.0
        rev = np.eye(4)[::-1]
        A = core.SymmetricMatrix.from_array(P4)
        B = core.SymmetricMatrix.from_array(rev @ P4 @ rev.T)
        cmp = squares.compare_squares(squares.square_table(A),
                                      squares.square_table(B))
        assert cmp.passed
        assert cmp.worst <= 1e-10

    def test_dimension_mismatch(self):
        a = squares.square_table(core.SymmetricMatrix.from_array(np.diag([3.0, 1.0])))
        b = squares.square_table(
            core.SymmetricMatrix.from_array(np.diag([3.0, 2.0, 1.0])))
        with pytest.raises(ValueError, match="dimension"):
            squares.compare_squares(a, b)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("c", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_zero_and_scalar_matrices_have_no_simple_column(scale, c, n):
    A = core.SymmetricMatrix.from_array(c * scale * np.eye(n))
    if n == 1:
        with pytest.raises(ValueError, match="n >= 2"):
            squares.square_table(A)
        return
    t = squares.square_table(A)
    assert t.simple == () and t.warnings == ()
    assert np.all(np.isnan(t.table))

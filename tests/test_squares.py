import dataclasses
import json
import math

import numpy as np
import pytest

from eigenrecon import core, squares
from oracles import (reference_column, reference_square_table, square_ratio_product,
                     square_table_by_cells)
from test_core import hard_matrices

SQRT2 = math.sqrt(2.0)


def square_table_from_basis(basis: core.EigenBasis) -> squares.SquareTable:
    """Squared entries taken directly from an eigendecomposition (the oracle)."""
    n = basis.n
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if basis.spectrum.is_simple(i))
    for i in simple:
        table[:, i] = basis.vectors[:, i] ** 2
    return squares.SquareTable(n, table, simple)


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
        cards = np.array([[0.0], [0.0]])
        assert squares.reconstruct_square(spec, cards, 0) == pytest.approx(0.5)

    def test_diagonal(self):
        spec = core.cluster_spectrum([3.0, 1.0])
        cards = np.array([[1.0], [3.0]])
        assert squares.reconstruct_square(spec, cards, 0) == pytest.approx([1.0, 0.0])

    def test_path_graph_closed_form(self):
        # P3 eigenvector for sqrt(2) is (1, sqrt(2), 1)/2, entry squares
        # 1/4, 1/2, 1/4.
        spec = core.cluster_spectrum([SQRT2, 0.0, -SQRT2])
        cards = np.array([[1.0, -1.0], [0.0, 0.0], [1.0, -1.0]])
        assert squares.reconstruct_square(spec, cards, 0) == pytest.approx(
            [0.25, 0.5, 0.25])

    def test_not_simple_refused(self):
        spec = core.cluster_spectrum([1.0, 1.0, 0.0])
        cards = np.array([[1.0, 0.5]] * 3)
        with pytest.raises(squares.NotSimpleError):
            squares.reconstruct_square(spec, cards, 0)

    def test_card_length_checked(self):
        spec = core.cluster_spectrum([1.0, -1.0])
        cards = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="length"):
            squares.reconstruct_square(spec, cards, 0)

    def test_card_count_checked(self):
        spec = core.cluster_spectrum([1.0, -1.0])
        with pytest.raises(ValueError, match="need 2 of length 1"):
            squares.reconstruct_square(spec, np.array([[0.0]]), 0)


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
            from_deck = squares.square_table_from_deck(core.deck(A))
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
        t = squares.square_table_from_deck(core.deck(A))
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
        d = core.deck(P3)
        spec = core.cluster_spectrum([0.5, 0.0, -0.5])
        t = squares.square_table_from_deck(
            dataclasses.replace(d, parent=dataclasses.replace(d.parent, spectrum=spec)))
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

    def test_different_simple_sets(self):
        # A has the double eigenvalue 2 (columns 1 and 2 are not simple), B
        # none: only the shared columns are compared, each exactly as alone.
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.uniform(-1, 1, (5, 5)))
        a = squares.square_table(core.SymmetricMatrix.from_array(
            q @ np.diag([3.0, 2.0, 2.0, 1.0, 0.0]) @ q.T))
        b = squares.square_table(random_simple_symmetric(rng, 5))
        assert a.simple == (0, 3, 4) and b.simple == (0, 1, 2, 3, 4)
        cmp = squares.compare_squares(a, b)
        assert cmp.indices == (0, 3, 4)
        assert cmp.max_dev == tuple(float(np.max(np.abs(a.table[:, i] - b.table[:, i])))
                                    for i in cmp.indices)
        assert [r["index"] for r in cmp.to_dict()["per_index"]] == [0, 3, 4]

    def test_no_shared_index_passes(self):
        # A scalar matrix has no simple eigenvalue, so nothing is compared.
        a = squares.square_table(core.SymmetricMatrix.from_array(0.7 * np.eye(4)))
        b = squares.square_table(random_simple_symmetric(np.random.default_rng(7), 4))
        cmp = squares.compare_squares(a, b)
        assert cmp.indices == () and cmp.max_dev == ()
        assert cmp.passed and cmp.worst == 0.0
        assert cmp.to_dict()["per_index"] == []

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


def seeded_matrix(rng, kind, n, e):
    """A uniform symmetric matrix or a 0/1 graph (edge density 0.3), times 4^e."""
    if kind == "uniform":
        m = rng.uniform(-1, 1, (n, n))
    else:
        m = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
    return core.SymmetricMatrix.from_array(np.ldexp(m + m.T, 2 * e))


def test_columns_equal_the_cell_by_cell_table():
    # 0/1 graphs and uniform matrices, every n from 2 to 19 once each, at
    # scales 4^-10, 1 and 4^10 in turn, each deck also set against a parent
    # spectrum that it does not interlace.
    rng = np.random.default_rng(1307)
    seen = {"non_simple": 0, "clamped": 0, "negative_square": 0, "column_sum": 0}
    for k in range(36):
        n = 2 + k % 18
        kind = "graph" if k < 18 else "uniform"
        d = core.deck(seeded_matrix(rng, kind, n, (-10, 0, 10)[(k + k // 18) % 3]))
        spec = d.parent.spectrum
        off = core.cluster_spectrum(0.999 * spec.values + 1e-3 * spec.spread)
        for dk in (d, dataclasses.replace(
                d, parent=dataclasses.replace(d.parent, spectrum=off))):
            t = squares.square_table_from_deck(dk)
            table, simple, warnings = square_table_by_cells(dk)
            assert t.table.tobytes() == table.tobytes()
            assert t.simple == simple
            assert [(w.code, w.index, w.value) for w in t.warnings] == warnings
            for code, _, _ in warnings:
                seen[code] += 1
        raw = [square_ratio_product(spec, card, i)
               for i in range(n) if spec.is_simple(i) for card in d.card_spectra]
        seen["non_simple"] += not all(map(spec.is_simple, range(n)))
        seen["clamped"] += sum(-1e-10 <= v < 0.0 or 1.0 < v <= 1.0 + 1e-10
                               for v in raw)
    assert all(seen.values()), seen


def assert_same_table(got, want):
    """Byte-for-byte equal cells and warning values, equal simple columns."""
    assert got.table.tobytes() == want.table.tobytes()
    assert got.simple == want.simple
    assert [(w.code, w.index, np.float64(w.value).tobytes()) for w in got.warnings] == \
        [(w.code, w.index, np.float64(w.value).tobytes()) for w in want.warnings]


def test_one_pass_table_matches_the_per_column_reference():
    # Every n from 2 to 12: a uniform matrix and a 0/1 graph at scales 4^-10,
    # 1 and 4^10 in turn, and a matrix whose only eigenvalues are 1 and -2,
    # so that from n = 3 on it has NaN columns.
    rng = np.random.default_rng(1709)
    nan_columns = 0
    for n in range(2, 13):
        e = (-10, 0, 10)[n % 3]
        for A in (seeded_matrix(rng, "uniform", n, e), seeded_matrix(rng, "graph", n, e),
                  core.SymmetricMatrix.from_array(hard_matrices(n, n)["repeated"])):
            d = core.deck(A)
            t = squares.square_table_from_deck(d)
            assert_same_table(t, reference_square_table(d))
            spec = d.parent.spectrum
            for i in t.simple:
                assert squares.reconstruct_square(spec, d.cards, i).tobytes() == \
                    reference_column(spec, d.cards, i).tobytes()
            nan_columns += n - len(t.simple)
    assert nan_columns


def with_parent_spectrum(d, values):
    spec = core.cluster_spectrum(values)
    return dataclasses.replace(d, parent=dataclasses.replace(d.parent, spectrum=spec))


def test_one_pass_warnings_and_clamps_match_the_per_column_reference():
    # The P3 deck against a parent spectrum that it does not interlace.
    P3 = core.SymmetricMatrix.from_array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    off = with_parent_spectrum(core.deck(P3), [0.5, 0.0, -0.5])
    t = squares.square_table_from_deck(off)
    assert {w.code for w in t.warnings} == {"negative_square", "column_sum"}
    assert_same_table(t, reference_square_table(off))
    # The deck of diag(3, 1) against 3 and the float after 1: the raw cells
    # 1 + 2^-52 and -2^-53 are clamped to 1 and 0.
    off = with_parent_spectrum(core.deck(core.SymmetricMatrix.from_array(np.diag([3.0, 1.0]))),
                               [3.0, np.nextafter(1.0, 2.0)])
    t = squares.square_table_from_deck(off)
    assert t.table.tolist() == [[1.0, 0.0], [0.0, 1.0]] and t.warnings == ()
    assert_same_table(t, reference_square_table(off))

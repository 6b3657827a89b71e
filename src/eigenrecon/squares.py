"""Squared eigenvector entries from deck spectra.

For a simple eigenvalue lambda_i of A, the square of the m-th entry of its
unit eigenvector is determined by eigen(A) and eigen(A_m) alone:

    p_{m,i}^2 = prod_j (lambda_j(A_m) - lambda_i) / prod_{j != i} (lambda_j - lambda_i)

Both products run over n-1 factors and are evaluated in factored form,
pairing factors by sorted order, so nothing is ever expanded into polynomial
coefficients.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import FLOAT_MAX, Diagnostic, SpectralDeck, Spectrum, SymmetricMatrix, deck

CLAMP_TOL = 1e-10
ROW_SUM_TOL = 1e-8
COMPARE_TOL = 1e-8


class NotSimpleError(ValueError):
    """Requested eigenvalue is not numerically simple."""


def reconstruct_square(spec: Spectrum, cards: np.ndarray, i: int) -> np.ndarray:
    """Column i of the table, p_{m,i}^2 for every vertex m.

    ``cards`` is the (n, n - 1) array whose row m is the spectrum of A_m.
    ``i`` is a 0-based index into ``spec`` and must be a simple eigenvalue;
    the denominator would otherwise contain a factor below the cluster
    tolerance and the quotient is meaningless.
    """
    n = len(spec)
    if cards.shape != (n, n - 1):
        raise ValueError(f"cards have shape {cards.shape}; need {n} of length {n - 1}")
    if not spec.is_simple(i):
        raise NotSimpleError(f"eigenvalue index {i} is not simple")
    return _square_columns(spec.values, cards, np.array([i]))[0]


def _square_columns(values: np.ndarray, cards: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (len(cols), n) array whose row j is column cols[j] of the table,
    all in one pass over a (len(cols), n, n - 1) array of factors."""
    if float(values[0]) - float(values[-1]) > FLOAT_MAX:
        # Each square is a ratio of two products of n - 1 differences, so
        # halving values and cards together keeps it and makes every
        # difference finite.
        values, cards = values / 2, cards / 2
    lam = values[cols]
    q = np.arange(len(values) - 1)
    others = values[q + (q >= cols[:, None])]  # row j: the values other than lam[j]
    num = np.sort(cards - lam[:, None, None], axis=2)
    den = np.sort(others - lam[:, None], axis=1)
    # Sorted pairing keeps each ratio O(1): interlacing matches factor signs
    # and magnitudes, so partial products stay far from overflow/underflow.
    sq = np.prod(num / den[:, None, :], axis=2)
    sq[(-CLAMP_TOL <= sq) & (sq < 0.0)] = 0.0
    sq[(1.0 < sq) & (sq <= 1.0 + CLAMP_TOL)] = 1.0
    return sq


@dataclass(frozen=True)
class SquareTable:
    """Grid of p_{m,i}^2 values; NaN marks a non-simple eigenvalue column.

    ``warnings`` holds "negative_square" and "column_sum" records whose
    ``index`` is the eigenvalue column.
    """

    n: int
    table: np.ndarray
    simple: tuple[int, ...]
    warnings: tuple[Diagnostic, ...] = ()

    def cell(self, m: int, i: int) -> float | None:
        v = self.table[m, i]
        return None if np.isnan(v) else float(v)

    def to_json(self) -> str:
        rows = [[None if np.isnan(v) else v for v in row] for row in self.table]
        return json.dumps(
            {"n": self.n, "simple": list(self.simple), "table": rows,
             "warnings": [asdict(w) for w in self.warnings]}
        )


def square_table_from_deck(cards: SpectralDeck) -> SquareTable:
    """reconstruct_square for each simple eigenvalue i of the deck's parent,
    every column in one pass over the deck's card array.

    A negative cell, and a column whose sum is off 1 by more than 1e-8 (a
    column holds a unit vector's squares), are recorded as
    ("negative_square", i, value) and ("column_sum", i, sum) warnings, not
    raised: they mean inconsistent input spectra, not a bug here.
    """
    spec = cards.parent.spectrum
    n = len(spec)
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if spec.is_simple(i))
    warnings = []
    if simple:
        sq = _square_columns(spec.values, cards.cards, np.array(simple))
        table[:, simple] = sq.T
        for i, col, colsum in zip(simple, sq.tolist(), np.nansum(sq, axis=1).tolist()):
            warnings += [Diagnostic("negative_square", i, v) for v in col if v < 0.0]
            if abs(colsum - 1.0) > ROW_SUM_TOL:
                warnings.append(Diagnostic("column_sum", i, colsum))
    table.setflags(write=False)
    return SquareTable(n, table, simple, tuple(warnings))


def square_table(A: SymmetricMatrix) -> SquareTable:
    """Convenience: deck-route square table straight from a matrix."""
    return square_table_from_deck(deck(A))


@dataclass(frozen=True)
class SquareComparison:
    """Per-simple-index deviation between two square tables, each within
    COMPARE_TOL to pass (squared entries are dimensionless)."""

    indices: tuple[int, ...]
    max_dev: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(d <= COMPARE_TOL for d in self.max_dev)

    @property
    def worst(self) -> float:
        return max(self.max_dev, default=0.0)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "tol": COMPARE_TOL,
            "per_index": [
                {"index": i, "max_dev": d, "pass": d <= COMPARE_TOL}
                for i, d in zip(self.indices, self.max_dev)
            ],
        }


def compare_squares(table_a: SquareTable, table_b: SquareTable) -> SquareComparison:
    """Godsil-McKay squared-entry comparison over shared simple indices.

    The caller guarantees the two tables come from matrices with matching
    spectra; only indices simple in both are compared, in one array pass.
    """
    if table_a.n != table_b.n:
        raise ValueError("tables have different dimensions")
    shared = tuple(i for i in table_a.simple if i in table_b.simple)
    cols = list(shared)
    devs = np.max(np.abs(table_a.table[:, cols] - table_b.table[:, cols]), axis=0)
    return SquareComparison(shared, tuple(devs.tolist()))

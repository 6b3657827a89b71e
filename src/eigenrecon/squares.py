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

from .core import Diagnostic, SpectralDeck, Spectrum, SymmetricMatrix, deck

CLAMP_TOL = 1e-10
ROW_SUM_TOL = 1e-8


class NotSimpleError(ValueError):
    """Requested eigenvalue is not numerically simple."""


def reconstruct_square(spec: Spectrum, card: Spectrum, i: int) -> float:
    """p_{m,i}^2 from the parent spectrum and the spectrum of A_m.

    ``i`` is a 0-based index into ``spec`` and must be a simple eigenvalue;
    the denominator would otherwise contain a factor below the cluster
    tolerance and the quotient is meaningless.
    """
    n = len(spec)
    if len(card) != n - 1:
        raise ValueError(f"card has length {len(card)}, expected {n - 1}")
    if not spec.is_simple(i):
        raise NotSimpleError(f"eigenvalue index {i} is not simple")
    lam_i = spec.values[i]
    num = np.sort(card.values - lam_i)
    den = np.sort(np.delete(spec.values, i) - lam_i)
    # Sorted pairing keeps each ratio O(1): interlacing matches factor signs
    # and magnitudes, so partial products stay far from overflow/underflow.
    value = float(np.prod(num / den))
    if -CLAMP_TOL <= value < 0.0:
        value = 0.0
    elif 1.0 < value <= 1.0 + CLAMP_TOL:
        value = 1.0
    return value


@dataclass(frozen=True)
class SquareTable:
    """Grid of p_{m,i}^2 values; NaN marks a non-simple eigenvalue column.

    ``provenance`` is "deck" when built from vertex-deleted spectra and
    "eigenbasis" when filled directly from squared eigenvector entries.
    ``warnings`` holds "negative_square" and "column_sum" records whose
    ``index`` is the eigenvalue column.
    """

    n: int
    table: np.ndarray
    simple: tuple[int, ...]
    provenance: str
    warnings: tuple[Diagnostic, ...] = ()

    def cell(self, m: int, i: int) -> float | None:
        v = self.table[m, i]
        return None if np.isnan(v) else float(v)

    def to_json(self) -> str:
        rows = [[None if np.isnan(v) else v for v in row] for row in self.table]
        return json.dumps(
            {"n": self.n, "simple": list(self.simple), "table": rows,
             "provenance": self.provenance,
             "warnings": [asdict(w) for w in self.warnings]}
        )


def square_table_from_deck(spec: Spectrum, cards: SpectralDeck) -> SquareTable:
    """Apply reconstruct_square over every vertex m and simple index i.

    Column sums over m are checked against 1 (the eigenvector is a unit
    vector). A negative cell and a column sum off by more than 1e-8 are
    recorded as ("negative_square", i, value) and ("column_sum", i, sum)
    warnings, not raised, since they indicate inconsistent input spectra
    rather than a bug here.
    """
    n = len(spec)
    if len(cards) != n:
        raise ValueError(f"deck has {len(cards)} cards, expected {n}")
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if spec.is_simple(i))
    warnings = []
    for i in simple:
        for m in range(n):
            v = reconstruct_square(spec, cards.card_spectra[m], i)
            if v < 0.0:
                warnings.append(Diagnostic("negative_square", i, v))
            table[m, i] = v
        colsum = float(np.nansum(table[:, i]))
        if abs(colsum - 1.0) > ROW_SUM_TOL:
            warnings.append(Diagnostic("column_sum", i, colsum))
    table.setflags(write=False)
    return SquareTable(n, table, simple, "deck", tuple(warnings))


def square_table(A: SymmetricMatrix) -> SquareTable:
    """Convenience: deck-route square table straight from a matrix."""
    cards = deck(A)
    return square_table_from_deck(cards.parent.spectrum, cards)


@dataclass(frozen=True)
class SquareComparison:
    """Per-simple-index deviation between two square tables."""

    indices: tuple[int, ...]
    max_dev: tuple[float, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(d <= self.tol for d in self.max_dev)

    @property
    def worst(self) -> float:
        return max(self.max_dev, default=0.0)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "tol": self.tol,
            "per_index": [
                {"index": i, "max_dev": d, "pass": d <= self.tol}
                for i, d in zip(self.indices, self.max_dev)
            ],
        }


def compare_squares(table_a: SquareTable, table_b: SquareTable,
                    tol: float) -> SquareComparison:
    """Godsil-McKay squared-entry comparison over shared simple indices.

    The caller guarantees the two tables come from matrices with matching
    spectra; only indices simple in both are compared.
    """
    if table_a.n != table_b.n:
        raise ValueError("tables have different dimensions")
    shared = tuple(i for i in table_a.simple if i in table_b.simple)
    devs = tuple(
        float(np.max(np.abs(table_a.table[:, i] - table_b.table[:, i])))
        for i in shared
    )
    return SquareComparison(shared, devs, tol)

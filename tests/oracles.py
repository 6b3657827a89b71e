"""Reference formulas for the tests: characteristic-polynomial oracles
evaluated from a spectrum, and the square table filled cell by cell."""

import numpy as np


def char_poly_eval(spec, lam: float) -> float:
    """det(lam*I - M) = prod_k (lam - lambda_k), monic convention."""
    return float(np.prod(lam - spec.values))


def char_poly_derivative_eval(spec, lam: float) -> float:
    """d/dlam of det(lam*I - M), as the sum of leave-one-out products."""
    return sum(float(np.prod(np.delete(lam - spec.values, k)))
               for k in range(len(spec.values)))


def square_ratio_product(spec, card, i: int) -> float:
    """p_{m,i}^2 for one vertex m from the spectrum of A_m, unclamped: the
    product of the sorted factors of the numerator over those of the
    denominator."""
    lam_i = spec.values[i]
    num = np.sort(card.values - lam_i)
    den = np.sort(np.delete(spec.values, i) - lam_i)
    return float(np.prod(num / den))


def square_cell(spec, card, i: int) -> float:
    """``square_ratio_product`` clamped within 1e-10 of [0, 1]."""
    value = square_ratio_product(spec, card, i)
    if -1e-10 <= value < 0.0:
        value = 0.0
    elif 1.0 < value <= 1.0 + 1e-10:
        value = 1.0
    return value


def square_table_by_cells(deck):
    """The square table, its simple columns and its (code, index, value)
    warnings, filled cell by cell in column order."""
    spec = deck.parent.spectrum
    n = len(spec)
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if spec.is_simple(i))
    warnings = []
    for i in simple:
        for m in range(n):
            v = square_cell(spec, deck.card_spectra[m], i)
            if v < 0.0:
                warnings.append(("negative_square", i, v))
            table[m, i] = v
        colsum = float(np.nansum(table[:, i]))
        if abs(colsum - 1.0) > 1e-8:
            warnings.append(("column_sum", i, colsum))
    return table, simple, warnings

"""Eigenvector reconstruction from vertex-deleted spectra.

A desk-scale numerical library around three ideas: squared entries of simple
eigenvectors are determined by the spectra of a symmetric matrix and its
vertex-deleted principal submatrices; eigenvalues and eigenvectors of a
rank-one update A + t*x*x^T come from the roots of a secular function with
guaranteed interlacing brackets; and both combine into checkable statements
about matrices sharing a spectral deck.

The package re-exports the quick-start entry points; everything else lives in
the submodules ``core``, ``secular``, ``squares`` and ``verify``.
"""

from .core import (
    ConvergenceError,
    MatrixFormatError,
    SymmetricMatrix,
    deck,
    eigh,
    parse_matrix,
)
from .secular import BracketError, rank1_update
from .squares import square_table
from .verify import verify_gm

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConvergenceError",
    "MatrixFormatError",
    "SymmetricMatrix",
    "deck",
    "eigh",
    "parse_matrix",
    "rank1_update",
    "square_table",
    "verify_gm",
]

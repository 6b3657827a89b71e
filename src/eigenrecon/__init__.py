"""Eigenvector reconstruction from vertex-deleted spectra.

A desk-scale numerical library around three ideas: squared entries of simple
eigenvectors are determined by the spectra of a symmetric matrix and its
vertex-deleted principal submatrices; eigenvalues and eigenvectors of a
rank-one update A + t*x*x^T come from the roots of a secular function with
guaranteed interlacing brackets; and both combine into checkable statements
about matrices sharing a spectral deck.

The package re-exports the quick-start entry points; everything else lives in
the submodules ``core``, ``secular``, ``squares`` and ``verify``. Each export
is imported from its submodule on first access (PEP 562), so a command-line
run loads only the submodules its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_HOMES = {
    "BracketError": "core",
    "ConvergenceError": "core",
    "MatrixFormatError": "core",
    "SymmetricMatrix": "core",
    "deck": "core",
    "eigh": "core",
    "parse_matrix": "core",
    "rank1_update": "secular",
    "square_table": "squares",
    "verify_gm": "verify",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted([*globals(), *__all__])

"""Core symmetric-matrix types and the Jacobi eigensolver.

Everything downstream (squared-entry reconstruction, secular updates, the
verification harness) is built on the types here: dense symmetric matrices,
sorted spectra with tolerance-based multiplicity clusters, orthonormal
eigenbases with a deterministic sign convention, and the deck of spectra of
the n vertex-deleted principal submatrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-8
JACOBI_MAX_SWEEPS = 100
INTERLACE_SLACK = 1e-8


class MatrixFormatError(ValueError):
    """Raised when matrix/vector text input cannot be parsed."""


class ConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep cap is exhausted."""


@dataclass(frozen=True)
class Diagnostic:
    """A structured warning: what (``code``), where (``index``), and a value."""

    code: str
    index: int
    value: float


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric n x n matrix, symmetrized on construction."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, arr) -> "SymmetricMatrix":
        m = np.asarray(arr, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        peak = float(np.max(np.abs(m)))  # NaN or inf exactly when an entry is
        if not np.isfinite(peak):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, peak)
        asym = float(np.max(np.abs(m - m.T)))
        if asym > SYM_TOL * scale:
            raise ValueError(
                f"input is not symmetric: max |M - M^T| = {asym:.3e} "
                f"exceeds {SYM_TOL:.1e} * {scale:.3e}"
            )
        sym = (m + m.T) / 2.0
        sym.setflags(write=False)
        return cls(sym)

    def delete(self, i: int) -> "SymmetricMatrix":
        """Principal submatrix with row and column i removed (0-based)."""
        keep = [k for k in range(self.n) if k != i]
        sub = self.entries[np.ix_(keep, keep)].copy()
        sub.setflags(write=False)
        return SymmetricMatrix(sub)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending with multiplicity clusters.

    ``clusters`` partitions 0..n-1 into maximal runs of eigenvalues pairwise
    closer than ``cluster_tol``; a singleton cluster marks a numerically
    simple eigenvalue.
    """

    values: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    cluster_tol: float

    def __len__(self) -> int:
        return len(self.values)

    @property
    def spread(self) -> float:
        return float(self.values[0] - self.values[-1])

    def is_simple(self, i: int) -> bool:
        return len(self.cluster_of(i)) == 1

    def cluster_of(self, i: int) -> tuple[int, ...]:
        for c in self.clusters:
            if i in c:
                return c
        raise IndexError(f"index {i} out of range")


def default_cluster_tol(values) -> float:
    values = np.asarray(values, dtype=float)
    spread = float(values[0] - values[-1]) if len(values) > 1 else 0.0
    return max(1e-12, 1e-8 * spread)


def cluster_spectrum(values, cluster_tol: float | None = None) -> Spectrum:
    """Group descending eigenvalues into maximal near-degenerate clusters.

    A new cluster starts whenever the gap to the previous eigenvalue exceeds
    ``cluster_tol``, so within a cluster max - min can only stay below the
    tolerance when gaps accumulate slowly; the maximality invariant (adjacent
    clusters separated by more than the tolerance) always holds.
    """
    vals = np.asarray(values, dtype=float).copy()
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    if np.any(np.diff(vals) > 0):
        raise ValueError("eigenvalues must be sorted descending")
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(vals)
    if not cluster_tol >= 0:  # also rejects NaN
        raise ValueError(f"cluster_tol must be nonnegative, got {cluster_tol}")
    clusters: list[tuple[int, ...]] = []
    start = 0
    for k in range(1, len(vals)):
        if vals[k - 1] - vals[k] > cluster_tol or vals[start] - vals[k] > cluster_tol:
            clusters.append(tuple(range(start, k)))
            start = k
    clusters.append(tuple(range(start, len(vals))))
    vals.setflags(write=False)
    return Spectrum(vals, tuple(clusters), cluster_tol)


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal eigenvectors (columns) paired with a descending Spectrum."""

    spectrum: Spectrum
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.spectrum)


def canonical_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each largest-|entry| component is positive.

    Ties go to the lowest row index. The result is a C-contiguous copy
    whatever the input layout, so downstream BLAS calls round the same way.
    """
    cols = np.arange(vectors.shape[1])
    lead = vectors[np.argmax(np.abs(vectors), axis=0), cols]
    return np.ascontiguousarray(np.where(lead < 0, -vectors, vectors))


def eigh(A: SymmetricMatrix, cluster_tol: float | None = None) -> EigenBasis:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Row-cyclic sweeps, rotating whenever the off-diagonal entry exceeds
    1e-14 * ||A||_F; deterministic for identical input. Raises
    ConvergenceError after 100 sweeps (never seen on sane input).
    """
    n = A.n
    a = A.entries.copy()
    p = np.eye(n)
    fro = float(np.linalg.norm(a))
    thresh = 1e-14 * fro

    if n == 1 or fro == 0.0:
        rotated = False
    else:
        rotated = True
    sweeps = 0
    while rotated:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps"
            )
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                apq = a[i, j]
                if abs(apq) <= thresh:
                    continue
                rotated = True
                theta = (a[j, j] - a[i, i]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # Rotate rows/columns i and j of a, accumulate in p.
                row_i = a[i, :].copy()
                row_j = a[j, :].copy()
                a[i, :] = c * row_i - s * row_j
                a[j, :] = s * row_i + c * row_j
                col_i = a[:, i].copy()
                col_j = a[:, j].copy()
                a[:, i] = c * col_i - s * col_j
                a[:, j] = s * col_i + c * col_j
                a[i, j] = 0.0
                a[j, i] = 0.0
                pc_i = p[:, i].copy()
                pc_j = p[:, j].copy()
                p[:, i] = c * pc_i - s * pc_j
                p[:, j] = s * pc_i + c * pc_j
        sweeps += 1

    diag = np.diag(a).copy()
    order = np.argsort(-diag, kind="stable")
    values = diag[order]
    vectors = canonical_column_signs(p[:, order])
    vectors.setflags(write=False)
    return EigenBasis(cluster_spectrum(values, cluster_tol), vectors)


@dataclass(frozen=True)
class SpectralDeck:
    """Spectra of the n vertex-deleted principal submatrices A_1..A_n.

    ``parent`` is the decomposition of A itself that the cards were checked
    against, kept so callers need not decompose A again.
    """

    card_spectra: tuple[Spectrum, ...]
    parent: EigenBasis

    def __len__(self) -> int:
        return len(self.card_spectra)


def check_interlacing(parent: Spectrum, card: Spectrum) -> bool:
    """Cauchy interlacing lambda_k(A) >= lambda_k(A_m) >= lambda_{k+1}(A)."""
    lam = parent.values
    mu = card.values
    if len(mu) != len(lam) - 1:
        raise ValueError("card must have length n-1")
    return bool(np.all(lam[:-1] + INTERLACE_SLACK >= mu)
                and np.all(mu + INTERLACE_SLACK >= lam[1:]))


def deck(A: SymmetricMatrix, cluster_tol: float | None = None) -> SpectralDeck:
    """Spectra of all n one-vertex-deleted submatrices, in index order.

    Each card is checked against the parent spectrum for Cauchy interlacing;
    a violation means the eigensolver went wrong, not the input.
    """
    if A.n < 2:
        raise ValueError("deck requires n >= 2")
    parent = eigh(A, cluster_tol)
    cards = []
    for m in range(A.n):
        card = eigh(A.delete(m), cluster_tol).spectrum
        if not check_interlacing(parent.spectrum, card):
            raise ConvergenceError(f"deck card {m} violates Cauchy interlacing")
        cards.append(card)
    return SpectralDeck(tuple(cards), parent)


def char_poly_eval(spec: Spectrum, lam: float) -> float:
    """det(lam*I - M) = prod_k (lam - lambda_k), monic convention."""
    return float(np.prod(lam - spec.values))


def char_poly_derivative_eval(spec: Spectrum, lam: float) -> float:
    """d/dlam of det(lam*I - M), as the sum of leave-one-out products."""
    total = 0.0
    for k in range(len(spec.values)):
        total += float(np.prod(np.delete(lam - spec.values, k)))
    return total


# --- matrix text format -----------------------------------------------------
#
# Optional '#' comment lines, then the dimension n, then n*n reals row-major,
# whitespace-separated. Vectors use the same layout with n reals.


def _header(text: str) -> tuple[int, list[str]]:
    """The dimension n and the entry tokens after it, comments dropped."""
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    toks = " ".join(lines).split()
    if not toks:
        raise MatrixFormatError("empty input")
    try:
        n = int(toks[0])
    except ValueError:
        raise MatrixFormatError(f"expected dimension, got {toks[0]!r}") from None
    if n < 1:
        raise MatrixFormatError(f"dimension must be positive, got {n}")
    return n, toks[1:]


def _parse_reals(tokens: list[str]) -> np.ndarray:
    try:
        return np.array([float(t) for t in tokens], dtype=float)
    except ValueError as exc:
        raise MatrixFormatError(f"non-numeric token: {exc}") from None


def parse_matrix(text: str) -> SymmetricMatrix:
    n, toks = _header(text)
    if len(toks) != n * n:
        raise MatrixFormatError(f"expected {n * n} entries for n={n}, got {len(toks)}")
    entries = _parse_reals(toks).reshape(n, n)
    try:
        return SymmetricMatrix.from_array(entries)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def parse_vector(text: str) -> np.ndarray:
    n, toks = _header(text)
    if len(toks) != n:
        raise MatrixFormatError(f"expected {n} entries, got {len(toks)}")
    x = _parse_reals(toks)
    if not np.all(np.isfinite(x)):
        raise MatrixFormatError("vector entries must be finite")
    return x


def format_matrix(A: SymmetricMatrix) -> str:
    rows = [" ".join(format(v, ".17g") for v in row) for row in A.entries]
    return f"{A.n}\n" + "\n".join(rows) + "\n"


def format_vector(x) -> str:
    x = np.asarray(x, dtype=float)
    return f"{len(x)}\n" + " ".join(format(v, ".17g") for v in x) + "\n"

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
FLOAT_MAX = float(np.finfo(float).max)


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
        with np.errstate(over="ignore"):  # inf is then an honest answer
            asym = float(np.max(np.abs(m - m.T)))
        if asym > SYM_TOL * peak:
            raise ValueError(
                f"input is not symmetric: max |M - M^T| = {asym:.3e} "
                f"exceeds {SYM_TOL:.1e} * {peak:.3e}"
            )
        # m + m^T overflows once an entry passes half the float maximum. There
        # the halves are summed instead: exact but for subnormal entries,
        # whose last bit is far below the rounding of such a peak.
        sym = (m + m.T) / 2.0 if peak <= FLOAT_MAX / 2.0 else m / 2.0 + m.T / 2.0
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
    closer than ``default_cluster_tol(values)``; a singleton cluster marks a
    numerically simple eigenvalue.
    """

    values: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def spread(self) -> float:
        return _spread(self.values)

    def is_simple(self, i: int) -> bool:
        if not 0 <= i < len(self):
            raise IndexError(f"index {i} out of range")
        return (i,) in self.clusters


def _spread(values) -> float:
    """values[0] - values[-1], saturated at the float maximum."""
    return min(float(values[0]) - float(values[-1]), FLOAT_MAX)


def default_cluster_tol(values) -> float:
    """max(1e-12 * max|lambda|, 1e-8 * spread), relative to the values."""
    return max(1e-12 * float(np.max(np.abs(values))), 1e-8 * _spread(values))


def cluster_spectrum(values) -> Spectrum:
    """Group descending eigenvalues into maximal near-degenerate clusters.

    A new cluster starts whenever the gap to the previous eigenvalue, or to
    the first of the current cluster, exceeds ``default_cluster_tol``, so no
    cluster is wider than the tolerance and adjacent clusters are separated
    by more than it.
    """
    vals = np.asarray(values, dtype=float).copy()
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    if np.any(vals[1:] > vals[:-1]):
        raise ValueError("eigenvalues must be sorted descending")
    tol = default_cluster_tol(vals)
    clusters: list[tuple[int, ...]] = []
    start = 0
    v = vals.tolist()  # Python floats: a gap past the float range is inf, silently
    for k in range(1, len(v)):
        if v[k - 1] - v[k] > tol or v[start] - v[k] > tol:
            clusters.append(tuple(range(start, k)))
            start = k
    clusters.append(tuple(range(start, len(vals))))
    vals.setflags(write=False)
    return Spectrum(vals, tuple(clusters))


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


def _basis(a: np.ndarray, p: np.ndarray) -> EigenBasis:
    """Sorted spectrum and sign-fixed vectors of a diagonalised matrix a = P^T A P."""
    diag = np.diag(a).copy()
    order = np.argsort(-diag, kind="stable")
    values = diag[order]
    vectors = canonical_column_signs(p[:, order])
    vectors.setflags(write=False)
    return EigenBasis(cluster_spectrum(values), vectors)


def _rounds(n: int) -> list[tuple[np.ndarray, ...]]:
    """The rounds of one sweep, as index arrays over every row k.

    Round r = 1 .. 2^ceil(log2 n) - 1 pairs row k with k XOR r when that is
    below n. A pair (i, j), i < j, is read at (lo, hi) = (i, j) from both of
    its rows, and ``sign`` is -1 on row i and 1 on row j, so that row k
    becomes c*a_k + sign*s*a_partner. An unpaired row is its own partner,
    and its infinite ``floor`` keeps it from rotating.
    """
    k = np.arange(n)
    partner = k ^ np.arange(1, 1 << (n - 1).bit_length())[:, None]
    paired = partner < n
    partner = np.where(paired, partner, k)
    sign = np.where(k < partner, -1.0, 1.0)
    floor = np.where(paired, np.finfo(float).tiny, np.inf)
    return list(zip(partner, np.minimum(k, partner), np.maximum(k, partner),
                    sign, floor))


def scale_exponent(peak):
    """The even e with peak * 2^-e in [0.5, 2), elementwise; 0 where peak is 0."""
    return np.frexp(peak)[1] & ~1


def _jacobi(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on every matrix of a (b, n, n) stack at once.

    A sweep runs the rounds of ``_rounds``; each round rotates its disjoint
    pairs together, elementwise through index arrays and never through BLAS
    products, so the result is deterministic. Pair (i, j) of a matrix
    rotates when |a_ij| > max(1e-15 sqrt|a_ii| sqrt|a_jj|, tiny), the
    relative rule of Demmel and Veselic; the floor lets exact zero
    eigenvalues terminate and keeps zero rows unrotated. A matrix with no
    such pair in a round is not touched, and its other pairs get c = 1,
    s = 0, so each result is bit-identical to solving that matrix alone. A
    pair's round depends only on i XOR j, so a matrix padded with zero rows
    and columns at the end rotates exactly like the unpadded one. Each
    matrix is first scaled by an even power of two that brings max|a| into
    [0.5, 2): that is exact, also under the square roots, so the rotations
    and the tiny floor do not depend on the matrix's scale. Sweeps stop once
    no matrix rotated; ConvergenceError after JACOBI_MAX_SWEEPS. Returns the
    rotated stack and the accumulated rotations, both (b, n, n).
    """
    b, n, _ = stack.shape
    e = scale_exponent(np.max(np.abs(stack), axis=(1, 2)))[:, None, None]
    # a on top of p, so one column rotation updates both.
    work = np.concatenate([np.ldexp(stack, -e),
                           np.broadcast_to(np.eye(n), (b, n, n))], axis=1)
    rounds = _rounds(n)
    k = np.arange(n)
    rotated = n > 1
    sweeps = 0
    # theta overflows to inf when a_ij is tiny beside a_jj - a_ii, giving
    # t = 0; pairs that do not rotate may divide by zero: c = 1, s = 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while rotated:
            if sweeps >= JACOBI_MAX_SWEEPS:
                raise ConvergenceError(
                    f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps"
                )
            rotated = False
            for partner, lo, hi, sign, floor in rounds:
                apq = work[:, lo, hi]
                d = np.diagonal(work, axis1=1, axis2=2)
                root = np.sqrt(np.abs(d))
                act = np.abs(apq) > np.maximum(1e-15 * root[:, lo] * root[:, hi], floor)
                rows = act.any(axis=1)
                if not rows.any():
                    continue
                rotated = True
                w = work
                if not rows.all():
                    r = np.flatnonzero(rows)
                    w, act, apq, d = work[r], act[r], apq[r], d[r]
                theta = (d[:, hi] - d[:, lo]) / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
                t[theta == 0.0] = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                # The sign goes on s = 0 too: a row paired with a zero pad
                # row then keeps its -0.0 entries, as an unpaired row does.
                s = np.where(act, t * c, 0.0) * sign
                c = np.where(act, c, 1.0)
                a = w[:, :n]
                rows_in = a[:, partner]
                rows_in *= s[:, :, None]
                a *= c[:, :, None]
                a += rows_in
                cols_in = w[:, :, partner]
                cols_in *= s[:, None]
                w *= c[:, None]
                w += cols_in
                a[:, k, partner] = np.where(act, 0.0, a[:, k, partner])
                if w is not work:
                    work[r] = w
            sweeps += 1
    return np.ldexp(work[:, :n], e), work[:, n:]


def eigh(A: SymmetricMatrix) -> EigenBasis:
    """Full eigendecomposition by cyclic Jacobi rotations (``_jacobi``).

    Deterministic for identical input, with relative accuracy on graded
    positive-definite matrices. Raises ConvergenceError after 100 sweeps
    (never seen on sane input).
    """
    a, p = _jacobi(A.entries[None])
    return _basis(a[0], p[0])


def eigh_stack(matrices) -> list[EigenBasis]:
    """``eigh`` of several same-size matrices, solved together in one stack.

    Each result is bit-identical to ``eigh`` of that matrix alone.
    """
    a, p = _jacobi(np.stack([M.entries for M in matrices]))
    return [_basis(a[r], p[r]) for r in range(len(a))]


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
    """lambda_k(A) >= lambda_k(A_m) >= lambda_{k+1}(A) (Cauchy interlacing),
    each up to INTERLACE_SLACK * max|lambda(A)|."""
    lam = parent.values
    mu = card.values
    if len(mu) != len(lam) - 1:
        raise ValueError("card must have length n-1")
    slack = INTERLACE_SLACK * float(np.max(np.abs(lam)))
    return bool(np.all(lam[:-1] + slack >= mu) and np.all(mu + slack >= lam[1:]))


def deck(A: SymmetricMatrix) -> SpectralDeck:
    """Spectra of all n one-vertex-deleted submatrices, in index order.

    Each card is checked against the parent spectrum for Cauchy interlacing;
    a violation means the eigensolver went wrong, not the input.
    """
    n = A.n
    if n < 2:
        raise ValueError("deck requires n >= 2")
    # A itself, then each card A.delete(m) in the top-left corner of an n x n
    # zero matrix, which _jacobi rotates exactly as eigh(A.delete(m)) would.
    q = np.arange(n - 1)
    keep = q + (q >= np.arange(n)[:, None])  # row m: the indices other than m
    stack = np.zeros((n + 1, n, n))
    stack[0] = A.entries
    stack[1:, :-1, :-1] = A.entries[keep[:, :, None], keep[:, None, :]]
    a, p = _jacobi(stack)
    parent = _basis(a[0], p[0])
    cards = []
    for m in range(n):
        diag = np.diag(a[m + 1])[:-1]
        card = cluster_spectrum(diag[np.argsort(-diag, kind="stable")])
        if not check_interlacing(parent.spectrum, card):
            raise ConvergenceError(f"deck card {m} violates Cauchy interlacing")
        cards.append(card)
    return SpectralDeck(tuple(cards), parent)


def char_poly_eval(spec: Spectrum, lam: float) -> float:
    """det(lam*I - M) = prod_k (lam - lambda_k), monic convention."""
    return float(np.prod(lam - spec.values))


def char_poly_derivative_eval(spec: Spectrum, lam: float) -> float:
    """d/dlam of det(lam*I - M), as the sum of leave-one-out products."""
    return sum(float(np.prod(np.delete(lam - spec.values, k)))
               for k in range(len(spec.values)))


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

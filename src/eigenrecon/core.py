"""Core symmetric-matrix types and the Jacobi eigensolver.

Everything downstream (squared-entry reconstruction, secular updates, the
verification harness) is built on the types here: dense symmetric matrices,
sorted spectra with tolerance-based multiplicity clusters, orthonormal
eigenbases with a deterministic sign convention, and the deck of spectra of
the n vertex-deleted principal submatrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SYM_TOL = 1e-8
JACOBI_MAX_SWEEPS = 100
INTERLACE_SLACK = 1e-8
FLOAT_MAX = float(np.finfo(float).max)


class MatrixFormatError(ValueError):
    """Raised when matrix/vector text input cannot be parsed."""


class ConvergenceError(RuntimeError):
    """Raised when Jacobi hits its sweep cap or an eigenvalue passes the float range."""


class BracketError(RuntimeError):
    """A secular root bracket could not be established or did not converge."""


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
        return cls(symmetrized(m))


def symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of each matrix M of a (..., n, n) stack, read-only.

    ValueError if an M is not finite, or not symmetric to SYM_TOL * max|M|.
    """
    peak = np.max(np.abs(m), axis=(-2, -1), keepdims=True)  # NaN or inf exactly when an entry is
    if not np.all(np.isfinite(peak)):
        raise ValueError("matrix entries must be finite")
    mt = np.swapaxes(m, -2, -1)
    with np.errstate(over="ignore"):  # inf is then an honest answer
        asym = np.max(np.abs(m - mt), axis=(-2, -1), keepdims=True)
        lopsided = asym > SYM_TOL * peak
        if np.any(lopsided):
            k = np.argmax(lopsided)
            raise ValueError(
                f"input is not symmetric: max |M - M^T| = {asym.flat[k]:.3e} "
                f"exceeds {SYM_TOL:.1e} * {peak.flat[k]:.3e}"
            )
        # m + m^T overflows once an entry passes half the float maximum. There
        # the halves are summed instead: exact but for subnormal entries,
        # whose last bit is far below the rounding of such a peak.
        sym = np.where(peak <= FLOAT_MAX / 2.0, (m + mt) / 2.0, m / 2.0 + mt / 2.0)
    sym.setflags(write=False)
    return sym


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


def cluster_mean(spec: Spectrum, cluster) -> float:
    """np.mean of a cluster's eigenvalues, bit for bit where that is finite.
    A sum that could overflow is taken in a unit 2^k larger, which is exact."""
    vals = spec.values[list(cluster)]
    k = len(vals).bit_length() if np.max(np.abs(vals)) > FLOAT_MAX / len(vals) else 0
    return float(np.ldexp(np.mean(np.ldexp(vals, -k)), k))


def cluster_values(spec: Spectrum) -> np.ndarray:
    """Each cluster's representative value, its ``cluster_mean`` bit for bit.

    A simple eigenvalue is its own mean; adding 0.0 turns -0.0 into 0.0, as
    np.mean does. Only the wider clusters are averaged.
    """
    clusters = spec.clusters
    values = spec.values[[c[0] for c in clusters]] + 0.0
    for k, c in enumerate(clusters):
        if len(c) > 1:
            values[k] = cluster_mean(spec, c)
    return values


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
    """Flip columns so each largest-|entry| component is positive, in each
    matrix of a (..., n, k) stack.

    Ties go to the lowest row index. The result is a C-contiguous copy
    whatever the input layout, so downstream BLAS calls round the same way.
    """
    lead = np.take_along_axis(
        vectors, np.argmax(np.abs(vectors), axis=-2)[..., None, :], axis=-2)
    return np.ascontiguousarray(np.where(lead < 0, -vectors, vectors))


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


@lru_cache(maxsize=8)
def _round_gathers(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """``_rounds(n)`` as ``_jacobi`` reads them, read-only and built once per n.

    Each round is (partner, at, sign, floor): ``at`` gathers a_lo,hi of
    every row k, then a_lo,lo, then a_hi,hi, from the flat (2n * n, b)
    view of the working array; ``sign`` and ``floor`` are columns that
    broadcast over the stack.
    """
    rounds = tuple((partner, np.concatenate([lo * n + hi, lo * (n + 1), hi * (n + 1)]),
                    sign[:, None], floor[:, None])
                   for partner, lo, hi, sign, floor in _rounds(n))
    for arr in (a for r in rounds for a in r):
        arr.setflags(write=False)
    return rounds


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
    such pair in a round is not touched (an identity rotation would turn its
    -0.0 entries into 0.0), and its other pairs get c = 1, s = 0, so each
    result is bit-identical to solving that matrix alone. A pair's round
    depends only on i XOR j, so a matrix padded with zero rows and columns
    at the end rotates exactly like the unpadded one. Each matrix is first
    scaled by an even power of two that brings max|a| into [0.5, 2): that is
    exact, also under the square roots, so the rotations and the tiny floor
    do not depend on the matrix's scale. Sweeps stop once no matrix rotated;
    ConvergenceError after JACOBI_MAX_SWEEPS or for an eigenvalue past the
    float range. Returns the rotated stack and rotations as C-contiguous
    (b, n, n) arrays.

    The working array is (rows, columns, matrices), a above p on the row
    axis: the a block is one contiguous slab, and every elementwise step
    runs over the stack as its inner loop.
    """
    b, n, _ = stack.shape
    e = scale_exponent(np.max(np.abs(stack), axis=(1, 2)))
    # a on top of p, so one column rotation updates both.
    work = np.empty((2 * n, n, b))
    work[:n] = np.ldexp(stack.transpose(1, 2, 0), -e)
    work[n:] = np.eye(n)[:, :, None]
    # A round reads its pivots and diagonals in one gather from the flat
    # (2n * n, b) view: g[:n] holds a_lo,hi of each row k, g[n:2n] a_lo,lo
    # and g[2n:] a_hi,hi.
    flat = work.reshape(2 * n * n, b)
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
            for partner, at, sign, floor in _round_gathers(n):
                g = flat[at]
                root = np.sqrt(np.abs(g[n:]))
                act = np.abs(g[:n]) > np.maximum(1e-15 * root[:n] * root[n:], floor)
                rows = act.any(axis=0)
                live = np.count_nonzero(rows)
                if not live:
                    continue
                rotated = True
                w = work
                if live < b:
                    r = rows.nonzero()[0]
                    w, act, g = work[..., r], act[:, r], g[:, r]
                theta = (g[2 * n:] - g[n:2 * n]) / (2.0 * g[:n])
                t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
                t[theta == 0.0] = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                # The sign goes on s = 0 too: a row paired with a zero pad
                # row then keeps its -0.0 entries, as an unpaired row does.
                s = np.where(act, t * c, 0.0) * sign
                c = np.where(act, c, 1.0)
                a = w[:n]
                rows_in = a[partner]
                rows_in *= s[:, None]
                a *= c[:, None]
                a += rows_in
                cols_in = w.take(partner, axis=1)
                cols_in *= s
                w *= c
                w += cols_in
                a[k, partner] = np.where(act, 0.0, a[k, partner])
                if w is not work:
                    work[..., r] = w
            sweeps += 1
        a = np.ldexp(work[:n], e)
    if not np.all(np.isfinite(a)):
        raise ConvergenceError("an eigenvalue lies beyond the float range")
    return (np.ascontiguousarray(a.transpose(2, 0, 1)),
            np.ascontiguousarray(work[n:].transpose(2, 0, 1)))


def eigh(A: SymmetricMatrix) -> EigenBasis:
    """Full eigendecomposition by cyclic Jacobi rotations (``_jacobi``).

    Deterministic for identical input, with relative accuracy on graded
    positive-definite matrices. Raises ConvergenceError after 100 sweeps
    (never seen on sane input).
    """
    return _solve_stack((), [A])[1][0]


def eigh_stack(matrices) -> list[EigenBasis]:
    """``eigh`` of several same-size matrices, solved together in one stack.

    Each result is bit-identical to ``eigh`` of that matrix alone.
    """
    return _solve_stack((), matrices)[1]


@dataclass(frozen=True)
class SpectralDeck:
    """Spectra of the n vertex-deleted principal submatrices A_1..A_n.

    ``cards`` is the read-only (n, n - 1) array whose row m holds the
    eigenvalues of A_m, descending. ``card_spectra`` clusters each row into
    a ``Spectrum`` when it is first read; the square table and ``verify_gm``
    work on ``cards`` alone. ``parent`` is the decomposition of A itself
    that the cards were checked against, kept so callers need not decompose
    A again.
    """

    cards: np.ndarray
    parent: EigenBasis

    def __len__(self) -> int:
        return len(self.cards)

    @cached_property
    def card_spectra(self) -> tuple[Spectrum, ...]:
        return tuple(map(cluster_spectrum, self.cards))


def check_interlacing(parent: Spectrum, cards) -> np.ndarray:
    """lambda_k(A) >= lambda_k(A_m) >= lambda_{k+1}(A) (Cauchy interlacing),
    each up to INTERLACE_SLACK * max|lambda(A)|, for each card A_m: one row
    of descending eigenvalues per card in ``cards``, one verdict per row."""
    lam = parent.values
    mu = np.asarray(cards, dtype=float)
    if mu.shape[-1] != len(lam) - 1:
        raise ValueError("card must have length n-1")
    slack = INTERLACE_SLACK * float(np.max(np.abs(lam)))
    return np.all(lam[:-1] + slack >= mu, axis=-1) & np.all(mu + slack >= lam[1:], axis=-1)


def _solve_stack(decked, plain) -> tuple[list[SpectralDeck], list[EigenBasis]]:
    """The decks of ``decked`` and the bases of ``plain``, from one ``_jacobi`` call.

    The stack holds each matrix of ``decked`` followed by its cards, each
    card (A without row and column m) in the top-left corner of an n x n
    zero matrix, which _jacobi rotates exactly as it would the card alone;
    then ``plain``. All matrices have one size n, so each result is
    bit-identical to ``deck`` or ``eigh`` of that matrix alone.
    """
    n = (decked or plain)[0].n
    if decked and n < 2:
        raise ValueError("deck requires n >= 2")
    q = np.arange(n - 1)
    keep = q + (q >= np.arange(n)[:, None])  # row m: the indices other than m
    blocks = []
    for M in decked:
        cards = np.zeros((n, n, n))
        cards[:, :-1, :-1] = M.entries[keep[:, :, None], keep[:, None, :]]
        blocks += [M.entries[None], cards]
    blocks += [M.entries[None] for M in plain]
    a, p = _jacobi(np.concatenate(blocks))
    # One pass over the solved stack: every spectrum sorted descending,
    # every parent or plain basis sign-fixed, every deck checked at once.
    row = np.arange(len(a))
    card = (row < len(decked) * (n + 1)) & (row % (n + 1) != 0)
    diag = np.diagonal(a, axis1=1, axis2=2).copy()
    diag[card, -1] = -np.inf  # each card's zero pad sorts last
    order = np.argsort(-diag, axis=1, kind="stable")
    values = np.take_along_axis(diag, order, axis=1)
    vectors = canonical_column_signs(
        np.take_along_axis(p[~card], order[~card][:, None], axis=2))
    vectors.setflags(write=False)
    bases = [EigenBasis(cluster_spectrum(v), u) for v, u in zip(values[~card], vectors)]
    card_values = values[card, :-1].reshape(len(decked), n, n - 1)
    card_values.setflags(write=False)
    decks = []
    for parent, cards in zip(bases, card_values):
        fits = check_interlacing(parent.spectrum, cards)
        if not fits.all():
            raise ConvergenceError(f"deck card {np.argmin(fits)} violates Cauchy interlacing")
        decks.append(SpectralDeck(cards, parent))
    return decks, bases[len(decked):]


def deck(A: SymmetricMatrix) -> SpectralDeck:
    """Spectra of all n one-vertex-deleted submatrices, in index order.

    Each card is checked against the parent spectrum for Cauchy interlacing;
    a violation means the eigensolver went wrong, not the input.
    """
    return _solve_stack([A], ())[0][0]


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

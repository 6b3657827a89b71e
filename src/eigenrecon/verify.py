"""Pairwise verification of reconstruction properties.

Given two symmetric matrices that are supposed to share their spectrum and
their deck of vertex-deleted spectra, this module compares everything that
theory says must then agree: squared eigenvector entries of simple
eigenvalues, projections of the all-ones vector onto matching eigenspaces,
simple eigenvectors not orthogonal to the all-ones vector (up to sign), and
the lowest eigenpair of A + t*J across a sample of shifts t. A probe finds
the coordinate permutation that best maps one simple eigenvector onto the
other by sorted pairing, at any size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (EigenBasis, Spectrum, SymmetricMatrix, deck, eigh_stack,
                   scale_exponent)
from .secular import rank1_update
from .squares import SquareComparison, compare_squares, square_table_from_deck

SIGN_TOL_SCALE = 1e-10
# Eigenvalues differ by at most VALUE_TOL in the pair's unit (``value_tol``);
# the other compared quantities are dimensionless.
VALUE_TOL = 1e-8
VECTOR_TOL = 1e-8  # eigenvector distances and angles
PROJECTION_TOL = 1e-7
# 16 shifts uniform in the half-open interval (-1, -1/16], in the pair's unit.
DEFAULT_T_SAMPLES = tuple(-1.0 + k * (15.0 / 16.0) / 16.0 for k in range(1, 17))


def _unit_exponent(A: SymmetricMatrix, B: SymmetricMatrix) -> int:
    """The pair's unit is 2^e, e the ``scale_exponent`` of max|a| over both."""
    return int(scale_exponent(max(np.max(np.abs(M.entries)) for M in (A, B))))


def value_tol(A: SymmetricMatrix, B: SymmetricMatrix) -> float:
    """VALUE_TOL in the pair's unit, so that it scales exactly with the pair."""
    return float(np.ldexp(VALUE_TOL, _unit_exponent(A, B)))


def projection_of_ones(basis: EigenBasis, cluster) -> np.ndarray:
    """Orthogonal projection of the all-ones vector onto a cluster eigenspace."""
    p = basis.vectors[:, list(cluster)]
    return p @ (p.T @ np.ones(basis.n))


@dataclass(frozen=True)
class CanonicalVector:
    vector: np.ndarray
    orthogonal_to_ones: bool


def canonicalize_sign_along_ones(v) -> CanonicalVector:
    """Resolve the +/- ambiguity of a unit vector by its overlap with 1.

    Vectors (numerically) orthogonal to the all-ones vector cannot be
    canonicalized this way and are returned unchanged with a flag.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"expected a unit vector, got norm {norm}")
    overlap = float(np.sum(v))
    sign_tol = SIGN_TOL_SCALE * math.sqrt(len(v))
    if overlap > sign_tol:
        return CanonicalVector(v, False)
    if overlap < -sign_tol:
        return CanonicalVector(-v, False)
    return CanonicalVector(v, True)


def principal_angle(u, v) -> float:
    """Angle between the lines spanned by two unit vectors, in radians.

    Computed from the chord length (sine form), which stays accurate for
    tiny angles where acos of the dot product loses half the digits.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    chord = min(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))
    return 2.0 * math.asin(min(1.0, chord / 2.0))


@dataclass(frozen=True)
class TheoremMainSample:
    """One shift t: lowest eigenpair of A + t*J vs B + t*J, two ways."""

    t: float
    lambda_n_dev: float
    simple_in_a: bool
    simple_in_b: bool
    angle: float
    secular_value_dev: float
    secular_angle: float

    @property
    def conclusive(self) -> bool:
        # Shifts where the lowest eigenvalue is not simple in either matrix
        # fall outside the guaranteed interval and are not failures.
        return self.simple_in_a and self.simple_in_b

    def passes(self, tol: float) -> bool:
        """Lowest eigenvalues within tol and eigenvectors within VECTOR_TOL;
        inconclusive shifts pass."""
        return not self.conclusive or (
            self.lambda_n_dev <= tol and self.angle <= VECTOR_TOL)

    def to_dict(self) -> dict:
        return {**asdict(self), "conclusive": self.conclusive}


def verify_theorem_main(A: SymmetricMatrix, B: SymmetricMatrix,
                        t_samples=None) -> list[TheoremMainSample]:
    """Lowest eigenpair of A + t*J and B + t*J across sampled shifts.

    Each sample also cross-checks the direct eigendecomposition of A + t*J
    against the secular-equation path through rank1_update(basis of A, 1, t).
    Given shifts are absolute; by default DEFAULT_T_SAMPLES in the pair's
    unit (see ``value_tol``) are used.
    """
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    if t_samples is None:
        t_samples = np.ldexp(DEFAULT_T_SAMPLES, _unit_exponent(A, B))
    if not len(t_samples):
        raise ValueError("t_samples must be nonempty")
    if not np.all(np.isfinite(t_samples)):
        raise ValueError("t_samples must be finite")
    n = A.n
    ones = np.ones(n)
    J = np.outer(ones, ones)
    shifted = [SymmetricMatrix.from_array(M.entries + t * J)
               for t in t_samples for M in (A, B)]
    basis_a, *solved = eigh_stack([A, *shifted])
    records = []
    for t, shifted_a, shifted_b in zip(t_samples, solved[0::2], solved[1::2]):
        low_a = float(shifted_a.spectrum.values[-1])
        low_b = float(shifted_b.spectrum.values[-1])
        va = shifted_a.vectors[:, -1]
        vb = shifted_b.vectors[:, -1]

        upd = rank1_update(basis_a, ones, float(t))
        sec_low = float(upd.values[-1])
        sec_vec = upd.vectors[-1]
        sec_angle = principal_angle(va, sec_vec) if sec_vec is not None else math.nan
        records.append(TheoremMainSample(
            t=float(t),
            lambda_n_dev=abs(low_a - low_b),
            simple_in_a=shifted_a.spectrum.is_simple(n - 1),
            simple_in_b=shifted_b.spectrum.is_simple(n - 1),
            angle=principal_angle(va, vb),
            secular_value_dev=abs(low_a - sec_low),
            secular_angle=sec_angle,
        ))
    return records


@dataclass(frozen=True)
class PairReport:
    """Everything verify_gm measured about a candidate hypomorphic pair."""

    n: int
    tol: float
    spectra_dev: float
    deck_devs: tuple[float, ...]
    deck_multiset_devs: tuple[float, ...] | None
    squares: SquareComparison
    projections: tuple[dict, ...]
    signs: tuple[dict, ...]
    theorem_main: tuple[TheoremMainSample, ...]

    @property
    def spectra_equal(self) -> bool:
        return self.spectra_dev <= self.tol

    @property
    def deck_equal(self) -> bool:
        devs = self.deck_multiset_devs if self.deck_multiset_devs is not None \
            else self.deck_devs
        return all(d <= self.tol for d in devs)

    @property
    def passed(self) -> bool:
        checks = [self.spectra_equal, self.deck_equal, self.squares.passed]
        checks += [p["pass"] for p in self.projections]
        checks += [s["pass"] for s in self.signs]
        checks += [r.passes(self.tol) for r in self.theorem_main]
        return all(checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "tol": self.tol,
            "pass": self.passed,
            "spectra_equal": {"pass": self.spectra_equal,
                              "max_dev": self.spectra_dev},
            "deck": {
                "pass": self.deck_equal,
                "per_card_dev": list(self.deck_devs),
                "multiset_dev": (None if self.deck_multiset_devs is None
                                 else list(self.deck_multiset_devs)),
            },
            "squares": self.squares.to_dict(),
            "projections": list(self.projections),
            "signs": list(self.signs),
            "theorem_main": [r.to_dict() for r in self.theorem_main],
        }


def _max_dev(a: Spectrum, b: Spectrum) -> float:
    return float(np.max(np.abs(a.values - b.values)))


def verify_gm(A: SymmetricMatrix, B: SymmetricMatrix, *,
              multiset_deck: bool = False, t_samples=None) -> PairReport:
    """Compare two matrices under the equal-spectra, equal-deck hypothesis.

    Deck cards are compared index-aligned (card m of A against card m of B);
    pass ``multiset_deck=True`` to instead match cards as an unordered
    collection, the convention of classical graph reconstruction. Spectra,
    cards and theorem-main eigenvalues must agree within ``value_tol``;
    ``t_samples`` is as for ``verify_theorem_main``.
    """
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    tol = value_tol(A, B)
    deck_a = deck(A)
    deck_b = deck(B)
    basis_a = deck_a.parent
    basis_b = deck_b.parent
    spectra_dev = _max_dev(basis_a.spectrum, basis_b.spectrum)
    deck_devs = tuple(_max_dev(ca, cb)
                      for ca, cb in zip(deck_a.card_spectra, deck_b.card_spectra))
    multiset_devs = None
    if multiset_deck:
        # Greedy matching in A's card order: each card of A takes the unused
        # card of B closest in max-abs deviation (ties to the lower index).
        # Sorting cards lexicographically instead flips cards whose leading
        # eigenvalues tie up to rounding.
        unused = list(deck_b.card_spectra)
        devs = []
        for ca in deck_a.card_spectra:
            gaps = [_max_dev(ca, cb) for cb in unused]
            k = int(np.argmin(gaps))
            devs.append(gaps[k])
            del unused[k]
        multiset_devs = tuple(devs)

    table_a = square_table_from_deck(basis_a.spectrum, deck_a)
    table_b = square_table_from_deck(basis_b.spectrum, deck_b)
    squares = compare_squares(table_a, table_b)

    projections = []
    if len(basis_a.spectrum.clusters) == len(basis_b.spectrum.clusters):
        for ca, cb in zip(basis_a.spectrum.clusters, basis_b.spectrum.clusters):
            pa = projection_of_ones(basis_a, ca)
            pb = projection_of_ones(basis_b, cb)
            dist = float(np.linalg.norm(pa - pb))
            projections.append({
                "value": float(np.mean(basis_a.spectrum.values[list(ca)])),
                "distance": dist,
                "pass": dist <= PROJECTION_TOL,
            })
    else:
        projections.append({
            "value": None,
            "distance": math.inf,
            "pass": False,
            "note": "cluster structures differ",
        })

    signs = []
    for i in range(A.n):
        if not (basis_a.spectrum.is_simple(i) and basis_b.spectrum.is_simple(i)):
            continue
        ca = canonicalize_sign_along_ones(basis_a.vectors[:, i])
        cb = canonicalize_sign_along_ones(basis_b.vectors[:, i])
        if ca.orthogonal_to_ones or cb.orthogonal_to_ones:
            continue
        dist = float(np.linalg.norm(ca.vector - cb.vector))
        signs.append({"index": i, "distance": dist, "pass": dist <= VECTOR_TOL})

    theorem_main = tuple(verify_theorem_main(A, B, t_samples))
    return PairReport(A.n, tol, spectra_dev, deck_devs, multiset_devs,
                      squares, tuple(projections), tuple(signs), theorem_main)


@dataclass(frozen=True)
class PermutationProbe:
    """Outcome of the search for a coordinate permutation."""

    found: bool
    permutation: tuple[int, ...] | None
    sign: int | None
    distance: float
    min_distance: float

    def to_dict(self) -> dict:
        return asdict(self)


def probe_permutation_conjecture(A: SymmetricMatrix, B: SymmetricMatrix,
                                 i: int) -> PermutationProbe:
    """Find the coordinate permutation tau minimizing ||p_i[tau] -/+ u_i||.

    By the rearrangement inequality the optimum pairs the k-th smallest entry
    of sign*p_i with the k-th smallest entry of u_i, so two sorts per sign
    replace a search over all n! permutations. The sign with the smaller
    distance wins (+1 on a tie). With tied entries any optimal tau may be
    returned, not necessarily the lexicographically first. A distance above
    VECTOR_TOL is a miss, which carries the minimum distance over all
    permutations and both signs.
    """
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    if not 0 <= i < A.n:
        raise ValueError(f"eigenvalue index {i} is out of range 0..{A.n - 1}")
    basis_a, basis_b = eigh_stack([A, B])
    if not basis_a.spectrum.is_simple(i) or not basis_b.spectrum.is_simple(i):
        raise ValueError(f"eigenvalue index {i} is not simple in both matrices")
    p = basis_a.vectors[:, i]
    u = basis_b.vectors[:, i]

    rank_u = np.empty(A.n, dtype=int)
    rank_u[np.argsort(u, kind="stable")] = np.arange(A.n)
    fits = []
    for sign in (+1, -1):
        tau = np.argsort(sign * p, kind="stable")[rank_u]
        fits.append((float(np.linalg.norm(p[tau] - sign * u)), sign, tau))
    dist, sign, tau = min(fits, key=lambda fit: fit[0])
    if dist <= VECTOR_TOL:
        return PermutationProbe(True, tuple(int(k) for k in tau), sign, dist, dist)
    return PermutationProbe(False, None, None, math.inf, dist)

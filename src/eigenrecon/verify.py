"""Pairwise verification of reconstruction properties.

Given two symmetric matrices that are supposed to share their spectrum and
their deck of vertex-deleted spectra, this module compares everything that
theory says must then agree: squared eigenvector entries of simple
eigenvalues, projections of the all-ones vector onto matching eigenspaces,
simple eigenvectors not orthogonal to the all-ones vector (up to sign), and
the lowest eigenpair of A + t*J over shifts t: ``verify_gm`` decides it in
closed form, ``verify_theorem_main`` samples it two ways. ``verify_gm``
reads the projections, the signs and the closed form's crossover shift from
one all-ones secular system per basis. A probe finds the coordinate
permutation that best maps one simple eigenvector onto the other by sorted
pairing, at any size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (SymmetricMatrix, _solve_stack, cluster_values, eigh_stack,
                   scale_exponent, symmetrized)
from .secular import SecularSystem, build_secular, lowest_update_pairs
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
        """asdict plus ``conclusive``, with a NaN ``secular_angle`` as None
        (JSON null)."""
        angle = None if math.isnan(self.secular_angle) else self.secular_angle
        return {**asdict(self), "secular_angle": angle, "conclusive": self.conclusive}


def verify_theorem_main(A: SymmetricMatrix, B: SymmetricMatrix) -> list[TheoremMainSample]:
    """Lowest eigenpair of A + t*J and B + t*J across shifts derived from the pair.

    The shifts are DEFAULT_T_SAMPLES in the pair's unit (see ``value_tol``),
    then 2*t* and t*/2 for each of A and B whose lowest cluster is not main,
    t* from ``_crossover``: one shift on each side of the crossover, where
    the lowest eigenpair changes hands. Every shift is negative; one that
    underflows to 0 in a subnormal unit is dropped. Each sample also
    cross-checks the direct eigendecomposition of A + t*J against the
    secular equation on the basis of A. ``lowest_update_pairs`` gives the
    ``values[-1]`` and ``vectors[-1]`` of ``rank1_update(basis of A, 1, t)``
    bit for bit, solving only the bracket of each lowest root, so only those
    brackets can raise BracketError. Where a retained eigenvalue of A is
    below the root there is no secular vector and ``secular_angle`` is NaN.
    A and B are solved in one stack, then every A + t*J and B + t*J in
    another. One all-ones secular system per basis, that of A - J, gives
    t* and, for A, every secular pair.
    """
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    e = _unit_exponent(A, B)
    sys_a, sys_b = (build_secular(b, np.ones(A.n), -1.0) for b in eigh_stack([A, B]))
    ts = [*DEFAULT_T_SAMPLES]
    for sys in (sys_a, sys_b):
        t_star = _crossover(sys, e)
        if t_star is not None:
            ts += [2.0 * t_star, t_star / 2.0]
    ts = np.ldexp(ts, e)
    ts = ts[ts != 0.0]  # underflowed, so no shift; the largest always survives
    with np.errstate(over="ignore"):  # an entry past the float range is inf
        m = np.stack([A.entries, B.entries]) + ts[:, None, None, None]
    bad = np.argwhere(~np.all(np.isfinite(m), axis=(2, 3)))
    if len(bad):
        k, j = bad[0]
        raise ValueError(f"{'AB'[j]} + t*J is not finite at t = {float(ts[k])!r}")
    solved = eigh_stack([*map(SymmetricMatrix, symmetrized(m.reshape(-1, A.n, A.n)))])
    pairs = lowest_update_pairs(sys_a, ts)
    records = []
    for t, shifted_a, shifted_b, (sec_low, sec_vec) in zip(
            ts.tolist(), solved[0::2], solved[1::2], pairs):
        low_a = float(shifted_a.spectrum.values[-1])
        low_b = float(shifted_b.spectrum.values[-1])
        va = shifted_a.vectors[:, -1]
        vb = shifted_b.vectors[:, -1]
        sec_angle = principal_angle(va, sec_vec) if sec_vec is not None else math.nan
        records.append(TheoremMainSample(
            t=t, lambda_n_dev=abs(low_a - low_b),
            simple_in_a=shifted_a.spectrum.is_simple(A.n - 1),
            simple_in_b=shifted_b.spectrum.is_simple(A.n - 1),
            angle=principal_angle(va, vb), secular_value_dev=abs(low_a - sec_low),
            secular_angle=sec_angle))
    return records


def _crossover(sys: SecularSystem, e: int) -> float | None:
    """t*/2^e = -1 / sum_k w_k / (lambda_k - lambda_n) over the main clusters
    k, the active set of the all-ones system ``sys`` (w_k = ||P_k 1||^2),
    each at its top value and in the unit 2^e, so that nothing overflows. If
    A's lowest cluster is not main, its value is the lowest of A + t*J for t
    in (t*, 0). None if it is main.
    """
    spec = sys.lambdas
    if sys.active[-1] == len(spec.clusters) - 1:
        return None
    lam = np.ldexp(spec.values, -e)
    tops = lam[[spec.clusters[k][0] for k in sys.active]]
    return -1.0 / float(np.sum(sys.active_weights / (tops - lam[-1])))


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
    theorem_main: dict

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
        checks.append(self.theorem_main["pass"])
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
            "theorem_main": dict(self.theorem_main),
        }


def verify_gm(A: SymmetricMatrix, B: SymmetricMatrix, *,
              multiset_deck: bool = False) -> PairReport:
    """Compare two matrices under the equal-spectra, equal-deck hypothesis.

    Deck cards are compared index-aligned (card m of A against card m of B);
    pass ``multiset_deck=True`` to instead match cards as an unordered
    collection, the convention of classical graph reconstruction. Spectra
    and cards must agree within ``value_tol``. One ``_jacobi`` call solves
    A, B and their cards. Theorem-main is decided in closed form over every
    shift t < 0, and no A + t*J is formed.
    """
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    e = _unit_exponent(A, B)
    tol = float(np.ldexp(VALUE_TOL, e))
    (deck_a, deck_b), _ = _solve_stack([A, B], ())
    basis_a, basis_b = deck_a.parent, deck_b.parent
    spectra_dev = float(np.max(np.abs(basis_a.spectrum.values - basis_b.spectrum.values)))
    deck_devs = tuple(np.max(np.abs(deck_a.cards - deck_b.cards), axis=1).tolist())
    multiset_devs = None
    if multiset_deck:
        # Greedy matching in A's card order: each card of A takes the unused
        # card of B closest in max-abs deviation (ties to the lower index).
        # Sorting cards lexicographically instead flips cards whose leading
        # eigenvalues tie up to rounding.
        unused = deck_b.cards
        devs = []
        for ca in deck_a.cards:
            gaps = np.max(np.abs(ca - unused), axis=1)
            k = int(np.argmin(gaps))
            devs.append(float(gaps[k]))
            unused = np.delete(unused, k, axis=0)
        multiset_devs = tuple(devs)

    squares = compare_squares(square_table_from_deck(deck_a),
                              square_table_from_deck(deck_b))

    # Projections of 1 onto matching eigenspaces, and simple eigenvectors
    # signed along 1, all from the all-ones secular system of each basis. A
    # vector too close to orthogonal to 1 has no such sign and is skipped.
    sys_a, sys_b = (build_secular(b, np.ones(A.n), -1.0) for b in (basis_a, basis_b))
    (qa, pa), (qb, pb) = ((s.q, s.projections) for s in (sys_a, sys_b))
    if pa.shape == pb.shape:
        projections = tuple(
            {"value": v, "distance": d, "pass": d <= PROJECTION_TOL}
            for v, d in zip(cluster_values(basis_a.spectrum).tolist(),
                            np.linalg.norm(pa - pb, axis=0).tolist()))
    else:
        projections = ({"value": None, "distance": None, "pass": False,
                        "note": "cluster structures differ"},)
    idx = np.array(squares.indices, dtype=int)  # simple in both
    sign_tol = SIGN_TOL_SCALE * math.sqrt(A.n)
    idx = idx[(np.abs(qa[idx]) > sign_tol) & (np.abs(qb[idx]) > sign_tol)]
    dists = np.linalg.norm(basis_a.vectors[:, idx] * np.sign(qa[idx])
                           - basis_b.vectors[:, idx] * np.sign(qb[idx]), axis=0)
    signs = tuple({"index": i, "distance": d, "pass": d <= VECTOR_TOL}
                  for i, d in zip(idx.tolist(), dists.tolist()))

    # Theorem-main in closed form: A + t*J keeps A's retained eigenvalues and
    # adds the roots of 1 + t * sum_k w_k / (lambda_k - mu), with eigenvectors
    # along sum_k P_k 1 / (lambda_k - mu). Equal spectra and projections,
    # checked above, thus give equal root eigenpairs at every t, and only a
    # retained lowest eigenvalue, for t in (t*, 0), is left to compare.
    t_star = _crossover(sys_a, e), _crossover(sys_b, e)
    r = None if t_star == (None, None) else A.n - 1
    conclusive = r is not None and basis_a.spectrum.is_simple(r) and basis_b.spectrum.is_simple(r)
    angle = None if r is None else principal_angle(basis_a.vectors[:, r], basis_b.vectors[:, r])
    theorem_main = {"t_star_a": t_star[0], "t_star_b": t_star[1], "r": r,
                    "conclusive": conclusive, "angle": angle,
                    "pass": not conclusive or angle <= VECTOR_TOL}
    return PairReport(A.n, tol, spectra_dev, deck_devs, multiset_devs,
                      squares, projections, signs, theorem_main)


@dataclass(frozen=True)
class PermutationProbe:
    """Outcome of the search for a coordinate permutation."""

    found: bool
    permutation: tuple[int, ...] | None
    sign: int | None
    distance: float | None
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
    VECTOR_TOL is a miss: its ``distance`` is None, and ``min_distance``
    carries the minimum over all permutations and both signs.
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
    return PermutationProbe(False, None, None, None, dist)

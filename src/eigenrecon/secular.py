"""Rank-one symmetric updates A + t*x*x^T via the secular equation.

With A = P diag(lambda) P^T and q = P^T x, the updated eigenvalues are the
retained lambda_i (weights below the deflation threshold, or repeated values
whose cluster keeps multiplicity - 1 copies) together with the roots of

    P_t(lam) = 1 + sum_k t * w_k / (lambda_k - lam)

over the active clusters k, where w_k aggregates q_i^2 inside the cluster.
P_t is strictly monotone between consecutive poles, which gives guaranteed
bisection brackets and the interlacing ordering of roots and poles. All
brackets are bisected together; t > 0 is solved by reflection.

``build_secular`` reads x in its unit 2^a, max|x / 2^a| in [1, 2), so no
weight of x leaves the float range; each solve takes t, as t * 4^a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (FLOAT_MAX, BracketError, Diagnostic, EigenBasis, Spectrum,
                   SymmetricMatrix, canonical_column_signs, cluster_spectrum,
                   cluster_values, default_cluster_tol, eigh_stack)

DEFLATE_TOL = 1e-12
POLE_OFFSET_SCALE = 1e-13
ROOT_WIDTH_TOL = 1e-13
NEAR_DEGENERATE_TOL = 1e-10
MAX_BISECT = 200
DET_TOL = 1e-9


@dataclass(frozen=True)
class SecularSystem:
    """Poles and aggregated weights of P_t(lambda), in x's unit 2^a.

    x = 2^a * x', with max|x'| in [1, 2) (a = 0 for x = 0 and for the
    all-ones vector). ``q`` is V^T x' and column k of ``projections`` is
    P_k x', the projection of x' onto the eigenspace of cluster k.
    ``active`` holds the indices of the clusters whose aggregated weight
    survives deflation, ``active_poles`` their representative eigenvalues
    (descending) and ``active_weights`` their aggregated q_i^2, the w'_k
    with t * w_k = (t * 4^a) * w'_k. Nothing here depends on the shift.
    """

    lambdas: Spectrum
    q: np.ndarray
    projections: np.ndarray
    a: int
    active: tuple[int, ...]
    active_poles: np.ndarray
    active_weights: np.ndarray


def _in_unit(n: int, x) -> tuple[np.ndarray, int]:
    """x' = x / 2^a and a, with max|x'| in [1, 2), once x has length n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    peak = np.max(np.abs(x))
    a = int(np.frexp(peak)[1]) - 1 if peak else 0
    return np.ldexp(x, -a), a


def _unit_shift(t: float, a: int) -> float:
    """t * 4^a, the shift in x's unit 2^a. ValueError when t is not finite
    or t * 4^a is not: then neither is the entry t * max|x|^2 of t*x*x^T."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    try:
        return math.ldexp(t, 2 * a)
    except OverflowError:
        raise ValueError(f"t * x * x^T is not finite at t = {t}") from None


def _cap(sys: SecularSystem, tu):
    """|t| * sum of active weights + spread, t in x's unit (``_unit_shift``),
    elementwise: how far the roots of P_t reach from the poles."""
    return abs(tu) * float(np.sum(sys.active_weights)) + sys.lambdas.spread


def build_secular(basis: EigenBasis, x) -> SecularSystem:
    """Project x onto the eigenbasis and each eigenspace, in its unit, and
    aggregate weights per cluster. Nothing after this reads the basis again.

    A cluster enters the active set when its aggregated weight exceeds
    DEFLATE_TOL * ||x'||^2, which no finite x overflows, and is not 0 in the
    caller's unit: with max|x| below about 1e-162, x*x^T is 0 in floats and
    every value is retained. A cluster wider than ``default_cluster_tol``
    raises ValueError: each cluster is taken as one eigenvalue of exact
    multiplicity, so a wider one merges distinct poles.
    """
    x, a = _in_unit(basis.n, x)
    spec = basis.spectrum
    widest = max(float(spec.values[c[0]] - spec.values[c[-1]]) for c in spec.clusters)
    limit = default_cluster_tol(spec.values)
    if widest > limit:
        raise ValueError(
            f"a cluster spans {widest:.3e}, wider than {limit:.3e}; the "
            "secular equation needs exact multiplicities")
    q = basis.vectors.T @ x
    # Clusters are runs of consecutive indices, each summed from its first column.
    projections = np.add.reduceat(basis.vectors * q, [c[0] for c in spec.clusters],
                                  axis=1)
    poles = cluster_values(spec)
    q2 = q ** 2
    weights = np.array([q2[c[0]] if len(c) == 1 else np.sum(q2[list(c)])
                        for c in spec.clusters])
    floor = DEFLATE_TOL * float(x @ x)
    kept = np.ldexp(weights, min(2 * a, 0)) > 0.0  # not 0 in the caller's unit
    active = tuple(k for k in range(len(weights)) if weights[k] > floor and kept[k])
    active_poles = poles[list(active)]
    active_weights = weights[list(active)]
    for arr in (projections, active_poles, active_weights):
        arr.setflags(write=False)
    return SecularSystem(spec, q, projections, a, active, active_poles, active_weights)


def secular_eval(sys: SecularSystem, t: float, lam: float) -> float:
    """P_t(lam) = 1 + sum over active clusters of t*w_k/(pole_k - lam), as
    t * 4^a * w'_k: ``secular_roots`` steps through this public evaluator,
    and its one exact ``math.ldexp`` per point costs nothing beside the sum."""
    poles = sys.active_poles
    # The array methods skip np.any's and np.sum's Python wrappers, which
    # cost more than the reductions at these sizes; the sums are the same.
    if (poles == lam).any():
        raise ZeroDivisionError(f"evaluation at active pole lambda={lam}")
    return float(1.0 + (math.ldexp(t, 2 * sys.a) * sys.active_weights / (poles - lam)).sum())


def _bisect_all(f, rows, lo, hi, unit) -> tuple[np.ndarray, np.ndarray]:
    """Bisect the brackets ``rows`` in lockstep: roots and a converged mask.

    f is monotone on each (lo, hi) and positive at lo, so a midpoint where
    f > 0 becomes the new lo.
    """
    root = np.full(len(rows), np.nan)
    live = np.arange(len(rows))  # lo, hi and unit follow it as it shrinks
    for _ in range(MAX_BISECT):
        if not live.size:
            break
        mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi can overflow
        done = ((hi - lo <= ROOT_WIDTH_TOL * np.maximum(unit, np.abs(mid)))
                | (mid == lo) | (mid == hi))
        f_mid = f(rows[live[~done]], mid[~done])
        done[~done] = f_mid == 0.0
        if done.any():
            root[live[done]] = mid[done]
            keep = ~done
            live, lo, hi, unit, mid = (a[keep] for a in (live, lo, hi, unit, mid))
            f_mid = f_mid[f_mid != 0.0]
        up = f_mid > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    converged = np.ones(len(rows), dtype=bool)
    converged[live] = False
    return root, converged


def _open_at_poles(f, rows, pole, side: int, limit,
                   unit) -> tuple[np.ndarray, np.ndarray]:
    """Step off each pole toward ``limit`` until f there has the sign of ``side``.

    f has a negative scale, so it diverges to +inf above each pole and to
    -inf below it. The offset halves while the point is at or past
    ``limit`` or f there is NaN or has the wrong sign; the first offset
    almost always suffices. Once the offset falls below half the float
    spacing at the pole, pole + off rounds back to the pole and no bracket
    is left to open: such a bracket keeps NaN as its point and value.
    """
    off = POLE_OFFSET_SCALE * np.maximum(unit, np.abs(pole))
    point = np.full(len(rows), np.nan)
    value = np.full(len(rows), np.nan)
    live = np.ones(len(rows), dtype=bool)
    for _ in range(80):
        trial = pole + side * off
        live &= trial != pole
        b = np.flatnonzero(live & ((trial < limit) if side > 0 else (trial > limit)))
        v = f(rows[b], trial[b])
        ok = v >= 0.0 if side > 0 else v <= 0.0  # a NaN value opens nothing
        b, v = b[ok], v[ok]
        point[b], value[b] = trial[b], v
        live[b] = False
        if not live.any():
            break
        off *= 0.5
    return point, value


# Next to a pole a term of P_t can pass the float range (a zero matrix at
# 1e300, say, where the offsets stay absolute); the inf keeps the sign that
# every bracket decision reads.
@np.errstate(over="ignore")
def _solve_brackets(sys: SecularSystem, tu: np.ndarray, upper: np.ndarray,
                    lower: np.ndarray, j: np.ndarray, f=None) -> np.ndarray:
    """The root of one bracket per shift, all in lockstep, or BracketError.

    Bracket b holds root j[b] of P_t at the shift tu[b] < 0 in x's unit
    (``_unit_shift``): below the pole upper[b] and above the pole lower[b],
    or, where lower[b] is -inf, below the lowest pole upper[b]. P_t >= 0 one
    cap, the reach of the roots, below that pole, and where rounding says
    otherwise two caps below; past -FLOAT_MAX a root is not finite. Cap and
    unit are those of each shift. Brackets with no root at an end, up to
    the first that failed to open, are bisected together in one
    ``_bisect_all`` call through f(rows, lam), by default P_t as an array,
    one row per bracket. The lowest failing bracket raises its BracketError.
    """
    cap = _cap(sys, tu)
    unit = np.minimum(1.0, cap)
    tw = tu[:, None] * sys.active_weights

    def f_rows(rows, lam):
        # secular_eval at each lam, one row per bracket.
        return 1.0 + np.sum(tw[rows] / (sys.active_poles - lam[:, None]), axis=1)

    errors = {}
    hi, f_hi = _open_at_poles(f_rows, np.arange(len(tu)), upper, -1, lower, unit)
    ok = ~np.isnan(hi)
    for b in np.flatnonzero(~ok):
        errors[b] = f"could not open a bracket at pole y = {upper[b]}"
    lo, f_lo = np.full(len(tu), np.nan), np.full(len(tu), np.nan)
    rows = np.flatnonzero(ok & (lower > -np.inf))
    lo[rows], f_lo[rows] = _open_at_poles(f_rows, rows, lower[rows], +1, upper[rows],
                                          unit[rows])
    for b in rows[np.isnan(lo[rows])]:
        errors[b] = f"could not open a bracket at pole y = {lower[b]}"
    walk = np.flatnonzero(ok & (lower == -np.inf))
    lo[walk] = upper[walk]
    for _ in range(2):
        lo[walk] = np.maximum(lo[walk] - cap[walk], -FLOAT_MAX)
        f_lo[walk] = f_rows(walk, lo[walk])
        walk = walk[~(f_lo[walk] > 0.0)]
    for b in walk:
        errors[b] = f"root {j[b]} in y is not finite: -inf"

    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    rows = np.flatnonzero(np.isnan(root))
    rows = rows[rows < min(errors, default=len(root))]  # later roots go unread
    root[rows], converged = _bisect_all(f or f_rows, rows, lo[rows], hi[rows],
                                        unit[rows])
    for b in rows[~converged]:
        errors[b] = "bisection failed to converge within iteration cap"
    if errors:
        raise BracketError(errors[min(errors)])
    return root


def secular_roots(sys: SecularSystem, t: float) -> np.ndarray:
    """All roots of P_t over the active poles, sorted descending.

    For t < 0 the roots sit strictly below their poles (one per gap plus one
    below the lowest active pole); for t > 0 strictly above. t > 0 is solved
    by reflection, as -A with -t, so every search runs below the poles in
    y = sign(-t)*lambda. Negation is exact in IEEE arithmetic, so its
    brackets, midpoints and evaluations mirror a direct search above the
    poles exactly. Every bracket is opened and bisected in one
    ``_solve_brackets`` call, each step evaluating through ``secular_eval``;
    P_t is monotone on each bracket, so its root is unique. Widths and
    offsets are relative to max(|y|, min(1, cap)), with ``cap`` the reach of
    the roots, so they scale with the system below unit scale. The root
    below the lowest pole is searched for down to the float maximum and no
    further. The first failing root raises BracketError, whose message names
    poles and roots (counted descending) in y.
    """
    if t == 0.0:
        raise ValueError("t = 0 has no secular roots")
    if not sys.active:
        raise ValueError("active set is empty, nothing to solve")
    tu = _unit_shift(t, sys.a)
    reflect = t > 0.0
    if reflect:
        sys, t, tu = replace(sys, active_poles=-sys.active_poles), -t, -tu
    poles = np.sort(sys.active_poles)[::-1]
    k = len(poles)

    def f(rows, lam):
        # Python floats: the same IEEE double arithmetic as numpy scalars, faster.
        return np.array([secular_eval(sys, t, v) for v in lam.tolist()])

    roots = _solve_brackets(sys, np.full(k, tu), poles,
                            np.append(poles[1:], -np.inf), np.arange(k), f)
    return -roots[::-1] if reflect else roots


@dataclass(frozen=True)
class UpdateResult:
    """Eigenvalues of A + t*x*x^T with per-value origin tags.

    ``origins[k]`` is ("retained", original index) or ("root", bracket
    index); ``vectors[k]`` is the unit eigenvector for root-tagged values
    and None for retained ones (their eigenspaces pass through unchanged).
    ``warnings`` holds one "near_degenerate" record per flagged root.
    """

    eigenvalues: Spectrum
    origins: tuple[tuple[str, int], ...]
    vectors: tuple[np.ndarray | None, ...]
    warnings: tuple[Diagnostic, ...]
    system: SecularSystem

    @property
    def values(self) -> np.ndarray:
        return self.eigenvalues.values


def _retained(sys: SecularSystem) -> list[int]:
    """Indices (ascending) of the eigenvalues the update passes through unchanged."""
    active_set = set(sys.active)
    return [i for k, cluster in enumerate(sys.lambdas.clusters)
            for i in (cluster[1:] if k in active_set else cluster)]


# A difference pole - mu that exceeds the smallest one by more than the float
# range gives a zero coefficient, which is right to float precision; a vector
# that is not finite raises instead.
@np.errstate(over="ignore", invalid="ignore")
def _root_vectors(sys: SecularSystem, roots) -> np.ndarray:
    """Unit eigenvectors (columns) of A + t*x*x^T for the given roots.

    Each is sum over active clusters k of P_k x' / (pole_k - mu), normalized,
    with the sign of ``canonical_column_signs``.
    """
    projections = sys.projections[:, list(sys.active)]
    # Exact power-of-two rescales, which cancel in the normalized vector: the
    # differences are taken in halves where they could overflow, and scaled
    # so that the smallest is not subnormal. The coefficients are then at
    # most 2 and the nearest pole's at least 1, and 1e-12 < ||P_k x'||^2 <
    # ||x'||^2 < 4n, so each sum's norm lies in [1e-6, 4n): in range.
    peak = np.max(np.abs(sys.active_poles))
    vs = []
    for mu in roots:
        k = int(max(peak, abs(mu)) > FLOAT_MAX / 2)
        d = np.ldexp(sys.active_poles, -k) - np.ldexp(mu, -k)
        vs.append(projections @ (1.0 / np.ldexp(d, -np.frexp(np.min(np.abs(d)))[1])))
    vectors = canonical_column_signs(
        np.column_stack([v / np.linalg.norm(v) for v in vs]))
    if not np.all(np.isfinite(vectors)):
        raise BracketError("a root eigenvector is not finite")
    return vectors


def rank1_update(basis: EigenBasis, x, t: float) -> UpdateResult:
    """Full eigenvalue set of A + t*x*x^T, with eigenvectors for new roots.

    Retained values are the eigenvalues of clusters deflated out of the
    active set, plus multiplicity - 1 copies inside each active cluster.
    Each root eigenvector is sum over active clusters k of
    P_k x / (pole_k - mu), normalized; a root landing within
    1e-10 * max(spread, min(1, cap)) of a retained value is flagged
    near-degenerate but still emitted. At t = 0 every value is retained. A
    t that is not finite, or with t*x*x^T not finite, raises ValueError.
    """
    sys = build_secular(basis, x)
    tu = _unit_shift(t, sys.a)
    spec = sys.lambdas

    retained = _retained(sys) if t else list(range(basis.n))
    retained_values = [float(spec.values[i]) for i in retained]
    entries: list[tuple[float, tuple[str, int], np.ndarray | None]] = [
        (v, ("retained", i), None) for v, i in zip(retained_values, retained)]

    warnings: list[Diagnostic] = []
    if len(retained) < basis.n:
        roots = secular_roots(sys, t)
        near_tol = NEAR_DEGENERATE_TOL * max(spec.spread, min(1.0, _cap(sys, tu)))
        vectors = _root_vectors(sys, roots)
        for j, mu in enumerate(roots):
            if retained_values and min(abs(mu - r) for r in retained_values) < near_tol:
                warnings.append(Diagnostic("near_degenerate", j, float(mu)))
            entries.append((float(mu), ("root", j), vectors[:, j].copy()))

    entries.sort(key=lambda e: -e[0])
    values = np.array([e[0] for e in entries])
    return UpdateResult(cluster_spectrum(values), tuple(e[1] for e in entries),
                        tuple(e[2] for e in entries), tuple(warnings), sys)


def lowest_update_pairs(sys: SecularSystem, ts) -> list[tuple[float, np.ndarray | None]]:
    """``rank1_update(basis, x, t)``'s ``values[-1]`` and ``vectors[-1]`` per t < 0, bit for bit.

    ``sys`` is ``build_secular(basis, x)``. Only the bracket of each lowest
    root, below the lowest active pole, is solved, all in one
    ``_solve_brackets`` call that evaluates through its array evaluator.
    Each takes the steps ``secular_roots`` takes for it, with the same
    floating-point operations, so its root is bit-identical, and the first
    failing shift raises its BracketError. The vector is None when a retained value lies below the
    root; on a tie the root wins, as in the stable sort of ``rank1_update``.
    The root vectors come from one ``_root_vectors`` call. A shift that is
    not negative and finite, or with t*x*x^T not finite, raises ValueError.
    """
    ts = np.array(ts, dtype=float)
    bad = ~((ts < 0.0) & np.isfinite(ts))
    if bad.any():
        raise ValueError(f"t must be negative and finite, got {ts[bad][0]}")
    retained = _retained(sys)
    # Ascending indices of a descending spectrum: the last is the lowest, and
    # the last of equal values, as the stable sort orders them.
    low = float(sys.lambdas.values[retained[-1]]) if retained else math.inf
    pairs = [(low, None)] * len(ts)
    if not sys.active:
        return pairs
    k = len(ts)
    tu = np.array([_unit_shift(t, sys.a) for t in ts.tolist()])
    root = _solve_brackets(sys, tu, np.full(k, np.min(sys.active_poles)),
                           np.full(k, -np.inf), np.full(k, len(sys.active) - 1))
    wins = np.flatnonzero(~(low < root))
    if wins.size:
        vectors = _root_vectors(sys, root[wins])
        for col, b in enumerate(wins):
            pairs[b] = (float(root[b]), vectors[:, col].copy())
    return pairs


@dataclass(frozen=True)
class DetIdentityReport:
    """Probe-point comparison of the characteristic-polynomial factorization."""

    probes: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def max_rel_dev(self) -> float:
        return max(self.deviations, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_dev <= DET_TOL


def verify_det_identity(A: SymmetricMatrix, x, t: float) -> DetIdentityReport:
    """Check det(A + t*x*x^T - lam*I) = det(A - lam*I) * P_t(lam) numerically.

    A and the updated matrix are solved in one ``eigh_stack``. At each probe
    lam, prod_k (lam - mu_k) / (lam - lambda_k), both spectra descending and
    paired by order, is compared with P_t(lam): det(A - lam*I) cancels, and
    the paired ratios stay far from overflow at any scale. Times
    det(lam*I - A), both sides are monic of degree n and share each
    cluster's retained copies, so agreement at one point more than there are
    clusters proves the identity. The probes are the midpoint of each gap
    between consecutive clusters of A and one point half the spread beyond
    each end. A single cluster is probed half of max(cap, clustering
    tolerance) away, or 1/2 when both are 0 (t = 0 or x = 0 on a zero matrix).
    The update is formed as A + (t * 4^a) * x' x'^T in x's unit, so that a
    large x stays in range.
    """
    x, a = _in_unit(A.n, x)
    tu = _unit_shift(t, a)
    basis, updated = eigh_stack(
        [A, SymmetricMatrix.from_array(A.entries + tu * np.outer(x, x))])
    sys = build_secular(basis, x)  # x is in its unit: sys.a = 0
    spec = sys.lambdas
    tops = spec.values[[c[0] for c in spec.clusters]]
    bottoms = spec.values[[c[-1] for c in spec.clusters]]
    reach = spec.spread if len(tops) > 1 else (
        max(_cap(sys, tu), default_cluster_tol(spec.values)) or 1.0)
    # Halves first, so that no sum overflows.
    lam = np.array([tops[0] + reach / 2, *(bottoms[:-1] / 2 + tops[1:] / 2),
                    bottoms[-1] - reach / 2])[:, None]
    left = np.prod((lam - updated.spectrum.values) / (lam - spec.values), axis=1)
    terms = tu * sys.active_weights / (sys.active_poles - lam)
    right = 1.0 + terms.sum(axis=1)  # P_t(lam)
    # Relative to the scale P_t is evaluated at, not to its value: a probe on
    # a root of the update, where both sides vanish, is no harder than others.
    devs = np.abs(left - right) / (1.0 + np.abs(terms).sum(axis=1))
    return DetIdentityReport(tuple(lam[:, 0].tolist()), tuple(devs.tolist()))

"""Rank-one symmetric updates A + t*x*x^T via the secular equation.

With A = P diag(lambda) P^T and q = P^T x, the updated eigenvalues are the
retained lambda_i (weights below the deflation threshold, or repeated values
whose cluster keeps multiplicity - 1 copies) together with the roots of

    P_t(lam) = 1 + sum_k t * w_k / (lambda_k - lam)

over the active clusters k, where w_k aggregates q_i^2 inside the cluster.
P_t is strictly monotone between consecutive poles, which gives guaranteed
bisection brackets and the interlacing ordering of roots and poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Poles, aggregated weights and scale defining P_t(lambda).

    ``active`` holds the indices of the clusters whose aggregated weight
    survives deflation, ``active_poles`` their representative eigenvalues
    (descending) and ``active_weights`` their aggregated q_i^2.
    """

    lambdas: Spectrum
    q: np.ndarray
    t: float
    active: tuple[int, ...]
    active_poles: np.ndarray
    active_weights: np.ndarray

    @property
    def cap(self) -> float:
        """|t| * sum of active weights + spread: how far roots reach from the poles."""
        return abs(self.t) * float(np.sum(self.active_weights)) + self.lambdas.spread


def _update_vector(n: int, x, t: float) -> np.ndarray:
    """x as a float array, once it has length n and t is finite."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    return x


def build_secular(basis: EigenBasis, x, t: float) -> SecularSystem:
    """Project x onto the eigenbasis and aggregate weights per cluster.

    A cluster enters the active set when its aggregated weight exceeds
    DEFLATE_TOL * ||x||^2; with t = 0 the active set is empty and the
    update is a no-op. A non-finite t raises ValueError, and so does a
    cluster wider than ``default_cluster_tol``: each cluster is taken as one
    eigenvalue of exact multiplicity, so a wider one merges distinct poles.
    """
    x = _update_vector(basis.n, x, t)
    spec = basis.spectrum
    widest = max(float(spec.values[c[0]] - spec.values[c[-1]]) for c in spec.clusters)
    limit = default_cluster_tol(spec.values)
    if widest > limit:
        raise ValueError(
            f"a cluster spans {widest:.3e}, wider than {limit:.3e}; the "
            "secular equation needs exact multiplicities")
    q = basis.vectors.T @ x
    poles = cluster_values(spec)
    q2 = q ** 2
    weights = np.array([q2[c[0]] if len(c) == 1 else np.sum(q2[list(c)])
                        for c in spec.clusters])
    floor = DEFLATE_TOL * float(x @ x)
    active = tuple(k for k in range(len(weights)) if t != 0.0 and weights[k] > floor)
    active_poles = poles[list(active)]
    active_weights = weights[list(active)]
    for arr in (active_poles, active_weights):
        arr.setflags(write=False)
    return SecularSystem(spec, q, float(t), active, active_poles, active_weights)


def secular_eval(sys: SecularSystem, lam: float) -> float:
    """P_t(lam) = 1 + sum over active clusters of t*w_k/(pole_k - lam)."""
    poles = sys.active_poles
    # The array methods skip np.any's and np.sum's Python wrappers, which
    # cost more than the reductions at these sizes; the sums are the same.
    if (poles == lam).any():
        raise ZeroDivisionError(f"evaluation at active pole lambda={lam}")
    return float(1.0 + (sys.t * sys.active_weights / (poles - lam)).sum())


def _bisect(f, lo: float, hi: float, f_lo: float, unit: float) -> float:
    # f_lo carries the sign of f at lo; f is monotone on (lo, hi).
    for _ in range(MAX_BISECT):
        mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi can overflow
        if hi - lo <= ROOT_WIDTH_TOL * max(unit, abs(mid)) or mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    raise BracketError("bisection failed to converge within iteration cap")


def _bisect_all(f, rows, lo, hi, f_lo, unit) -> tuple[np.ndarray, np.ndarray]:
    """``_bisect`` for the brackets ``rows`` in lockstep: roots and a converged mask."""
    root = np.full(len(rows), np.nan)
    live = np.arange(len(rows))  # lo, hi, f_lo and unit follow it as it shrinks
    for _ in range(MAX_BISECT):
        if not live.size:
            break
        mid = 0.5 * lo + 0.5 * hi
        done = ((hi - lo <= ROOT_WIDTH_TOL * np.maximum(unit, np.abs(mid)))
                | (mid == lo) | (mid == hi))
        f_mid = f(rows[live[~done]], mid[~done])
        done[~done] = f_mid == 0.0
        if done.any():
            root[live[done]] = mid[done]
            keep = ~done
            live, lo, hi, f_lo, unit, mid = (a[keep] for a in (live, lo, hi, f_lo, unit, mid))
            f_mid = f_mid[f_mid != 0.0]
        up = (f_mid > 0.0) == (f_lo > 0.0)
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
    ``limit`` or f has the wrong sign; the first offset almost always
    suffices. Once the offset falls below half the float spacing at the
    pole, pole + off rounds back to the pole and no bracket is left to open:
    such a bracket keeps NaN as its point and value.
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
        ok = (v == 0.0) | ((v > 0.0) == (side > 0))
        b, v = b[ok], v[ok]
        point[b], value[b] = trial[b], v
        live[b] = False
        if not live.any():
            break
        off *= 0.5
    return point, value


def _open_brackets(sys: SecularSystem, t: np.ndarray, upper: np.ndarray,
                   lower: np.ndarray, j: np.ndarray):
    """Open one bracket per shift t[b], all in lockstep, in y.

    The shifts share the active poles and weights of ``sys``, whose own t is
    not read. Bracket b holds root j[b] of P_t[b] in y = s*lambda with
    s = sign(-t[b]): it lies below the pole upper[b] and above the pole
    lower[b], or, where lower[b] is -inf, below upper[b], the lowest pole.
    There the search walks down from the pole in steps of cap, the reach of
    the roots, and stops at -FLOAT_MAX: a root below that is not finite.
    Cap and unit are those of each shift.

    Returns f (P_t in y, one row per bracket), the unit, the ends lo and hi
    with f at lo, the root of each bracket where f vanishes at an end (NaN
    elsewhere), and the BracketError message of each bracket that failed.
    """
    s = np.where(t < 0.0, 1.0, -1.0)
    cap = np.abs(t) * float(np.sum(sys.active_weights)) + sys.lambdas.spread
    unit = np.minimum(1.0, cap)
    tw = t[:, None] * sys.active_weights

    def f(rows, y):
        # secular_eval at lambda = s*y, one row per bracket.
        lam = (s[rows] * y)[:, None]
        at_pole = sys.active_poles == lam
        if at_pole.any():
            raise ZeroDivisionError(
                f"evaluation at active pole lambda={lam[at_pole.any(axis=1)][0, 0]}")
        return 1.0 + np.sum(tw[rows] / (sys.active_poles - lam), axis=1)

    errors = {}
    hi, f_hi = _open_at_poles(f, np.arange(len(t)), upper, -1, lower, unit)
    ok = ~np.isnan(hi)
    for b in np.flatnonzero(~ok):
        errors[b] = f"could not open a bracket at pole y = {upper[b]}"
    lo, f_lo = np.full(len(t), np.nan), np.full(len(t), np.nan)
    rows = np.flatnonzero(ok & (lower > -np.inf))
    lo[rows], f_lo[rows] = _open_at_poles(f, rows, lower[rows], +1, upper[rows],
                                          unit[rows])
    for b in rows[np.isnan(lo[rows])]:
        errors[b] = f"could not open a bracket at pole y = {lower[b]}"
    walk = np.flatnonzero(ok & (lower == -np.inf))
    lo[walk] = upper[walk]
    for _ in range(81):
        lo[walk] = np.maximum(lo[walk] - cap[walk], -FLOAT_MAX)
        f_lo[walk] = f(walk, lo[walk])
        walk = walk[~(f_lo[walk] > 0.0)]
        for b in walk[lo[walk] == -FLOAT_MAX]:
            errors[b] = f"root {j[b]} in y is not finite: -inf"
        walk = walk[lo[walk] > -FLOAT_MAX]
        if not walk.size:
            break

    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    for b in np.flatnonzero(np.isnan(root) & ((f_lo > 0.0) == (f_hi > 0.0))):
        errors.setdefault(b, f"no sign change on bracket for root {j[b]} in y")
    return f, unit, lo, hi, f_lo, root, errors


# Next to a pole a term of P_t can pass the float range (a zero matrix at
# 1e300, say, where the offsets stay absolute); the inf keeps the sign that
# every bracket decision reads.
@np.errstate(over="ignore")
def secular_roots(sys: SecularSystem) -> np.ndarray:
    """All roots of P_t over the active poles, sorted descending.

    For t < 0 the roots sit strictly below their poles (one per gap plus one
    below the lowest active pole); for t > 0 strictly above. Both cases run
    in the coordinate y = s*lambda with s = sign(-t): there P_t has poles
    s*lambda_k and a negative scale, so every root lies below its pole.
    Every bracket is opened in one ``_open_brackets`` call, and each root is
    then bisected on its sign-change bracket, in root order, so
    monotonicity of P_t on the bracket guarantees uniqueness. Negation is
    exact in IEEE arithmetic, so the t > 0 brackets, midpoints and
    evaluations are the exact mirror images of a direct search above the
    poles. Widths and offsets are relative to max(|y|, min(1, cap)), with
    ``cap`` the reach of the roots, so they scale with the system below unit
    scale. The root below the lowest pole is searched for down to the float
    maximum and no further. The first failing root raises BracketError,
    whose message names poles and roots (counted descending) in y.
    """
    if sys.t == 0.0:
        raise ValueError("t = 0 has no secular roots")
    if not sys.active:
        raise ValueError("active set is empty, nothing to solve")
    s = 1.0 if sys.t < 0.0 else -1.0
    poles = np.sort(s * sys.active_poles)[::-1]
    k = len(poles)
    _, unit, lo, hi, f_lo, roots, errors = _open_brackets(
        sys, np.full(k, sys.t), poles, np.append(poles[1:], -np.inf), np.arange(k))

    def f(y: float) -> float:
        return secular_eval(sys, s * y)

    # Python floats: the same IEEE double arithmetic as numpy scalars, faster.
    brackets = zip(lo.tolist(), hi.tolist(), f_lo.tolist(), unit.tolist())
    for j, bracket in enumerate(brackets):
        if j in errors:
            raise BracketError(errors[j])
        if np.isnan(roots[j]):
            roots[j] = _bisect(f, *bracket)
    return s * (roots[::-1] if s < 0.0 else roots)


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


def _retained(spec: Spectrum, sys: SecularSystem) -> list[int]:
    """Indices (ascending) of the eigenvalues the update passes through unchanged."""
    active_set = set(sys.active)
    return [i for k, cluster in enumerate(spec.clusters)
            for i in (cluster[1:] if k in active_set else cluster)]


# A difference pole - mu that exceeds the smallest one by more than the float
# range gives a zero coefficient, which is right to float precision; a vector
# that is not finite raises instead.
@np.errstate(over="ignore", invalid="ignore")
def _root_vectors(basis: EigenBasis, sys: SecularSystem, roots) -> np.ndarray:
    """Unit eigenvectors (columns) of A + t*x*x^T for the given roots.

    Each is sum over active i of p_i * q_i / (lambda_i - mu), normalized,
    with the sign of ``canonical_column_signs``.
    """
    clusters = basis.spectrum.clusters
    active_indices = [i for k in sys.active for i in clusters[k]]
    pole_of = np.repeat(sys.active_poles, [len(clusters[k]) for k in sys.active])
    q_active = sys.q[active_indices]
    p_active = basis.vectors[:, active_indices]
    # Exact power-of-two rescales, which cancel in the normalized vector: the
    # differences are taken in halves where they could overflow, and scaled
    # so that the smallest is not subnormal; the coefficients so that the
    # norm stays in range.
    peak = np.max(np.abs(pole_of))
    coefs = []
    for mu in roots:
        k = int(max(peak, abs(mu)) > FLOAT_MAX / 2)
        d = np.ldexp(pole_of, -k) - np.ldexp(mu, -k)
        coefs.append(q_active / np.ldexp(d, -np.frexp(np.min(np.abs(d)))[1]))
    vs = [p_active @ np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1]) for c in coefs]
    vectors = canonical_column_signs(
        np.column_stack([v / np.linalg.norm(v) for v in vs]))
    if not np.all(np.isfinite(vectors)):
        raise BracketError("a root eigenvector is not finite")
    return vectors


def rank1_update(basis: EigenBasis, x, t: float) -> UpdateResult:
    """Full eigenvalue set of A + t*x*x^T, with eigenvectors for new roots.

    Retained values are the eigenvalues of clusters deflated out of the
    active set, plus multiplicity - 1 copies inside each active cluster.
    Each root eigenvector is sum over active i of p_i * q_i / (lambda_i - mu),
    normalized; a root landing within 1e-10 * max(spread, min(1, cap)) of a
    retained value is flagged near-degenerate but still emitted.
    """
    sys = build_secular(basis, x, t)
    spec = basis.spectrum

    retained = _retained(spec, sys)
    retained_values = [float(spec.values[i]) for i in retained]
    entries: list[tuple[float, tuple[str, int], np.ndarray | None]] = [
        (v, ("retained", i), None) for v, i in zip(retained_values, retained)]

    warnings: list[Diagnostic] = []
    if sys.active:
        roots = secular_roots(sys)
        near_tol = NEAR_DEGENERATE_TOL * max(spec.spread, min(1.0, sys.cap))
        vectors = _root_vectors(basis, sys, roots)
        for j, mu in enumerate(roots):
            if retained_values and min(abs(mu - r) for r in retained_values) < near_tol:
                warnings.append(Diagnostic("near_degenerate", j, float(mu)))
            entries.append((float(mu), ("root", j), vectors[:, j].copy()))

    entries.sort(key=lambda e: -e[0])
    values = np.array([e[0] for e in entries])
    return UpdateResult(cluster_spectrum(values), tuple(e[1] for e in entries),
                        tuple(e[2] for e in entries), tuple(warnings), sys)


@np.errstate(over="ignore")  # as in secular_roots
def lowest_update_pairs(basis: EigenBasis, x,
                        ts) -> list[tuple[float, np.ndarray | None]]:
    """``rank1_update(basis, x, t)``'s ``values[-1]`` and ``vectors[-1]`` per t < 0, bit for bit.

    The active set does not depend on t, so one projection serves every
    shift. Only the bracket of each lowest root, below the lowest active
    pole, is solved, all in one ``_open_brackets`` and one ``_bisect_all``
    call. Each takes the steps ``secular_roots`` takes for it, with the same
    floating-point operations, so its root is bit-identical, and the first
    failing shift raises its BracketError. The vector is None when a
    retained value lies below the root; on a tie the root wins, as in the
    stable sort of ``rank1_update``. The root vectors come from one
    ``_root_vectors`` call. A shift that is not negative and finite raises
    ValueError.
    """
    ts = np.array(ts, dtype=float)
    bad = ~((ts < 0.0) & np.isfinite(ts))
    if bad.any():
        raise ValueError(f"t must be negative and finite, got {ts[bad][0]}")
    sys = build_secular(basis, x, ts[0])
    spec = basis.spectrum
    retained = _retained(spec, sys)
    # Ascending indices of a descending spectrum: the last is the lowest, and
    # the last of equal values, as the stable sort orders them.
    low = float(spec.values[retained[-1]]) if retained else math.inf
    pairs = [(low, None)] * len(ts)
    if not sys.active:
        return pairs
    k = len(ts)
    f, unit, lo, hi, f_lo, root, errors = _open_brackets(
        sys, ts, np.full(k, np.min(sys.active_poles)), np.full(k, -np.inf),
        np.full(k, len(sys.active) - 1))
    rows = np.flatnonzero(np.isnan(root))
    rows = rows[~np.isin(rows, list(errors))]
    root[rows], converged = _bisect_all(f, rows, lo[rows], hi[rows], f_lo[rows],
                                        unit[rows])
    for b in rows[~converged]:
        errors[b] = "bisection failed to converge within iteration cap"
    if errors:
        raise BracketError(errors[min(errors)])
    wins = np.flatnonzero(~(low < root))
    if wins.size:
        vectors = _root_vectors(basis, sys, root[wins])
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
    """
    x = _update_vector(A.n, x, t)
    basis, updated = eigh_stack(
        [A, SymmetricMatrix.from_array(A.entries + t * np.outer(x, x))])
    sys = build_secular(basis, x, t)
    spec = basis.spectrum
    tops = spec.values[[c[0] for c in spec.clusters]]
    bottoms = spec.values[[c[-1] for c in spec.clusters]]
    reach = spec.spread if len(tops) > 1 else (
        max(sys.cap, default_cluster_tol(spec.values)) or 1.0)
    # Halves first, so that no sum overflows.
    lam = np.array([tops[0] + reach / 2, *(bottoms[:-1] / 2 + tops[1:] / 2),
                    bottoms[-1] - reach / 2])[:, None]
    left = np.prod((lam - updated.spectrum.values) / (lam - spec.values), axis=1)
    terms = sys.t * sys.active_weights / (sys.active_poles - lam)
    right = 1.0 + terms.sum(axis=1)  # P_t(lam)
    # Relative to the scale P_t is evaluated at, not to its value: a probe on
    # a root of the update, where both sides vanish, is no harder than others.
    devs = np.abs(left - right) / (1.0 + np.abs(terms).sum(axis=1))
    return DetIdentityReport(tuple(lam[:, 0].tolist()), tuple(devs.tolist()))

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

from dataclasses import dataclass

import numpy as np

from .core import (Diagnostic, EigenBasis, Spectrum, SymmetricMatrix,
                   canonical_column_signs, cluster_spectrum, default_cluster_tol,
                   eigh_stack)

DEFLATE_TOL = 1e-12
POLE_OFFSET_SCALE = 1e-13
ROOT_WIDTH_TOL = 1e-13
NEAR_DEGENERATE_TOL = 1e-10
MAX_BISECT = 200
DET_TOL = 1e-9


class BracketError(RuntimeError):
    """A root bracket could not be established or did not converge."""


@dataclass(frozen=True)
class SecularSystem:
    """Poles, aggregated weights and scale defining P_t(lambda).

    ``poles`` holds one representative eigenvalue per cluster (descending);
    ``weights`` the aggregated q_i^2 per cluster; ``active`` the cluster
    indices whose weight survives deflation, and ``active_poles`` and
    ``active_weights`` the poles and weights at those indices.
    """

    lambdas: Spectrum
    q: np.ndarray
    t: float
    poles: np.ndarray
    weights: np.ndarray
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
    poles = np.array([np.mean(spec.values[list(c)]) for c in spec.clusters])
    weights = np.array([float(np.sum(q[list(c)] ** 2)) for c in spec.clusters])
    floor = DEFLATE_TOL * float(x @ x)
    active = tuple(k for k in range(len(weights)) if t != 0.0 and weights[k] > floor)
    active_poles = poles[list(active)]
    active_weights = weights[list(active)]
    for arr in (poles, weights, active_poles, active_weights):
        arr.setflags(write=False)
    return SecularSystem(spec, q, float(t), poles, weights, active,
                         active_poles, active_weights)


def secular_eval(sys: SecularSystem, lam: float) -> float:
    """P_t(lam) = 1 + sum over active clusters of t*w_k/(pole_k - lam)."""
    poles = sys.active_poles
    if np.any(poles == lam):
        raise ZeroDivisionError(f"evaluation at active pole lambda={lam}")
    return float(1.0 + np.sum(sys.t * sys.active_weights / (poles - lam)))


def _bisect(f, lo: float, hi: float, f_lo: float, unit: float) -> float:
    # f_lo carries the sign of f at lo; f is monotone on (lo, hi).
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
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


def _open_at_pole(f, pole: float, side: int, limit: float,
                  unit: float) -> tuple[float, float]:
    # f has a negative scale, so it diverges to +inf above each pole and to
    # -inf below it. Step off the pole toward `limit` until the evaluated
    # sign matches, halving the offset while the point is at or past
    # `limit`; the first offset almost always suffices. Once the offset
    # falls below half the float spacing at the pole, pole + off rounds back
    # to the pole and no bracket is left to open.
    off = POLE_OFFSET_SCALE * max(unit, abs(pole))
    for _ in range(80):
        point = pole + side * off
        if point == pole:
            break
        if point < limit if side > 0 else point > limit:
            value = f(point)
            if value == 0.0 or (value > 0.0) == (side > 0):
                return point, value
        off *= 0.5
    raise BracketError(f"could not open a bracket at pole y = {pole}")


# Next to a pole a term of P_t can pass the float range (a zero matrix at
# 1e300, say, where the offsets stay absolute); the inf keeps the sign that
# every bracket decision reads.
@np.errstate(over="ignore")
def secular_roots(sys: SecularSystem) -> np.ndarray:
    """All roots of P_t over the active poles, sorted descending.

    For t < 0 the roots sit strictly below their poles (one per gap plus one
    below the lowest active pole); for t > 0 strictly above. Both cases run
    one loop in the coordinate y = s*lambda with s = sign(-t): there P_t has
    poles s*lambda_k and a negative scale, so every root lies below its pole.
    Each root is found by bisection on a sign-change bracket, so monotonicity
    of P_t on the bracket guarantees uniqueness. Negation is exact in IEEE
    arithmetic, so the t > 0 brackets, midpoints and evaluations are the
    exact mirror images of a direct search above the poles. Widths and
    offsets are relative to max(|y|, min(1, cap)), with ``cap`` the reach of
    the roots, so they scale with the system below unit scale. BracketError
    messages name poles and roots (counted descending) in y.
    """
    if sys.t == 0.0:
        raise ValueError("t = 0 has no secular roots")
    if not sys.active:
        raise ValueError("active set is empty, nothing to solve")
    s = 1.0 if sys.t < 0.0 else -1.0
    poles = np.sort(s * sys.active_poles)[::-1]  # descending in y

    def f(y: float) -> float:
        return secular_eval(sys, s * y)

    unit = min(1.0, sys.cap)
    roots = []
    # One root in each (pole_{j+1}, pole_j), one in (-inf, pole_last).
    for j in range(len(poles)):
        hi, f_hi = _open_at_pole(
            f, poles[j], -1, poles[j + 1] if j + 1 < len(poles) else -np.inf, unit,
        )
        if j + 1 < len(poles):
            lo, f_lo = _open_at_pole(f, poles[j + 1], +1, poles[j], unit)
        else:
            lo = poles[-1] - sys.cap
            f_lo = f(lo)
            for _ in range(80):
                if f_lo > 0.0:
                    break
                lo -= sys.cap
                f_lo = f(lo)
        if f_lo == 0.0:
            roots.append(lo)
            continue
        if f_hi == 0.0:
            roots.append(hi)
            continue
        if (f_lo > 0.0) == (f_hi > 0.0):
            raise BracketError(f"no sign change on bracket for root {j} in y")
        roots.append(_bisect(f, lo, hi, f_lo, unit))
    if s < 0.0:
        roots.reverse()
    return s * np.array(roots)


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

    entries: list[tuple[float, tuple[str, int], np.ndarray | None]] = []
    active_set = set(sys.active)
    retained_values = []
    for k, cluster in enumerate(spec.clusters):
        keep = list(cluster[1:]) if k in active_set else list(cluster)
        for i in keep:
            entries.append((float(spec.values[i]), ("retained", i), None))
            retained_values.append(float(spec.values[i]))

    warnings: list[Diagnostic] = []
    if sys.active:
        roots = secular_roots(sys)
        active_indices = [i for k in sys.active for i in spec.clusters[k]]
        pole_of = np.array(
            [sys.poles[k] for k in sys.active for _ in spec.clusters[k]]
        )
        q_active = sys.q[active_indices]
        p_active = basis.vectors[:, active_indices]
        near_tol = NEAR_DEGENERATE_TOL * max(spec.spread, min(1.0, sys.cap))
        coefs = [q_active / (pole_of - mu) for mu in roots]
        # An exact power-of-two rescale keeps the norm in range.
        vs = [p_active @ np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1]) for c in coefs]
        vectors = canonical_column_signs(
            np.column_stack([v / np.linalg.norm(v) for v in vs]))
        for j, mu in enumerate(roots):
            if retained_values and min(abs(mu - r) for r in retained_values) < near_tol:
                warnings.append(Diagnostic("near_degenerate", j, float(mu)))
            entries.append((float(mu), ("root", j), vectors[:, j].copy()))

    entries.sort(key=lambda e: -e[0])
    values = np.array([e[0] for e in entries])
    return UpdateResult(cluster_spectrum(values), tuple(e[1] for e in entries),
                        tuple(e[2] for e in entries), tuple(warnings), sys)


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

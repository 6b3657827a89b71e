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

from .core import (Diagnostic, EigenBasis, Spectrum, canonical_column_signs,
                   cluster_spectrum, default_cluster_tol)

DEFLATE_TOL = 1e-12
POLE_OFFSET_SCALE = 1e-13
ROOT_WIDTH_TOL = 1e-13
NEAR_DEGENERATE_TOL = 1e-10
MAX_BISECT = 200


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
    def n_roots(self) -> int:
        return len(self.active)


def build_secular(basis: EigenBasis, x, t: float) -> SecularSystem:
    """Project x onto the eigenbasis and aggregate weights per cluster.

    A cluster enters the active set when its aggregated weight exceeds
    DEFLATE_TOL * ||x||^2; with t = 0 the active set is empty and the
    update is a no-op. A non-finite t raises ValueError, and so does a
    cluster wider than ``default_cluster_tol``: each cluster is taken as one
    eigenvalue of exact multiplicity, so a wider one merges distinct poles.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({basis.n},)")
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
    xsq = float(x @ x)
    if t == 0.0:
        active: tuple[int, ...] = ()
    else:
        active = tuple(
            k for k in range(len(weights)) if weights[k] > DEFLATE_TOL * xsq
        )
    active_poles = poles[list(active)]
    active_weights = weights[list(active)]
    for arr in (poles, weights, active_poles, active_weights):
        arr.setflags(write=False)
    return SecularSystem(spec, q, float(t), poles, weights, active,
                         active_poles, active_weights)


def secular_eval(sys: SecularSystem, lam: float) -> float:
    """P_t(lam) = 1 + sum over active clusters of t*w_k/(pole_k - lam)."""
    poles = sys.active_poles
    if len(poles) and np.min(np.abs(poles - lam)) < 1e-300:
        raise ZeroDivisionError(f"evaluation at active pole lambda={lam}")
    return float(1.0 + np.sum(sys.t * sys.active_weights / (poles - lam)))


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    # f_lo carries the sign of f at lo; f is monotone on (lo, hi).
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo <= ROOT_WIDTH_TOL * max(1.0, abs(mid)) or mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    raise BracketError("bisection failed to converge within iteration cap")


def _open_at_pole(f, pole: float, side: int,
                  limit: float) -> tuple[float, float]:
    # f has a negative scale, so it diverges to +inf above each pole and to
    # -inf below it. Step off the pole toward `limit` until the evaluated
    # sign matches; the first offset almost always suffices. Once the offset
    # falls below half the float spacing at the pole, pole + off rounds back
    # to the pole and no bracket is left to open.
    off = POLE_OFFSET_SCALE * max(1.0, abs(pole))
    for _ in range(80):
        point = pole + side * off
        if point == pole or (point >= limit if side > 0 else point <= limit):
            break
        value = f(point)
        if value == 0.0 or (value > 0.0) == (side > 0):
            return point, value
        off *= 0.5
    raise BracketError(f"could not open a bracket at pole y = {pole}")


def secular_roots(sys: SecularSystem) -> np.ndarray:
    """All roots of P_t over the active poles, sorted descending.

    For t < 0 the roots sit strictly below their poles (one per gap plus one
    below the lowest active pole); for t > 0 strictly above. Both cases run
    one loop in the coordinate y = s*lambda with s = sign(-t): there P_t has
    poles s*lambda_k and a negative scale, so every root lies below its pole.
    Each root is found by bisection on a sign-change bracket, so monotonicity
    of P_t on the bracket guarantees uniqueness. Negation is exact in IEEE
    arithmetic, so the t > 0 brackets, midpoints and evaluations are the
    exact mirror images of a direct search above the poles. BracketError
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

    cap = abs(sys.t) * float(np.sum(sys.active_weights)) + sys.lambdas.spread
    roots = []
    # One root in each (pole_{j+1}, pole_j), one in (-inf, pole_last).
    for j in range(len(poles)):
        hi, f_hi = _open_at_pole(
            f, poles[j], -1, poles[j + 1] if j + 1 < len(poles) else -np.inf,
        )
        if j + 1 < len(poles):
            lo, f_lo = _open_at_pole(f, poles[j + 1], +1, poles[j])
        else:
            lo = poles[-1] - cap
            f_lo = f(lo)
            for _ in range(80):
                if f_lo > 0.0:
                    break
                lo -= max(cap, 1.0)
                f_lo = f(lo)
        if f_lo == 0.0:
            roots.append(lo)
            continue
        if f_hi == 0.0:
            roots.append(hi)
            continue
        if (f_lo > 0.0) == (f_hi > 0.0):
            raise BracketError(f"no sign change on bracket for root {j} in y")
        roots.append(_bisect(f, lo, hi, f_lo))
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
    normalized; a root landing within 1e-10 * spread of a retained value is
    flagged near-degenerate but still emitted.
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
        near_tol = NEAR_DEGENERATE_TOL * max(spec.spread, 1.0)
        vs = [p_active @ (q_active / (pole_of - mu)) for mu in roots]
        vectors = canonical_column_signs(
            np.column_stack([v / np.linalg.norm(v) for v in vs]))
        for j, mu in enumerate(roots):
            if retained_values and min(abs(mu - r) for r in retained_values) < near_tol:
                warnings.append(Diagnostic("near_degenerate", j, float(mu)))
            entries.append((float(mu), ("root", j), vectors[:, j].copy()))

    entries.sort(key=lambda e: -e[0])
    values = np.array([e[0] for e in entries])
    return UpdateResult(
        cluster_spectrum(values),
        tuple(e[1] for e in entries),
        tuple(e[2] for e in entries),
        tuple(warnings),
        sys,
    )


@dataclass(frozen=True)
class DetIdentityReport:
    """Probe-point comparison of the characteristic-polynomial factorization."""

    probes: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def max_rel_dev(self) -> float:
        return max(self.deviations, default=0.0)


def verify_det_identity(basis: EigenBasis, x, t: float, probes: int = 20,
                        seed: int = 0) -> DetIdentityReport:
    """Check det(A + t*x*x^T - lam*I) = det(A - lam*I) * P_t(lam) numerically.

    The left side is evaluated from an independent eigendecomposition of the
    updated matrix; probe points are sampled away from every eigenvalue of A
    by at least 1e-3 * spread. Fewer than one probe raises ValueError.
    """
    from .core import SymmetricMatrix, char_poly_eval, eigh

    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    x = np.asarray(x, dtype=float)
    sys = build_secular(basis, x, t)
    A = basis.vectors @ np.diag(basis.spectrum.values) @ basis.vectors.T
    updated = eigh(SymmetricMatrix.from_array(A + t * np.outer(x, x)))

    spec = basis.spectrum
    spread = max(spec.spread, 1.0)
    lo = float(spec.values[-1]) - 0.5 * spread
    hi = float(spec.values[0]) + 0.5 * spread
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < probes:
        lam = float(rng.uniform(lo, hi))
        if np.min(np.abs(lam - spec.values)) >= 1e-3 * spread:
            points.append(lam)

    devs = []
    for lam in points:
        # char_poly_eval is det(lam*I - M); the sign flips cancel between
        # the two sides for matched degrees n and n.
        left = char_poly_eval(updated.spectrum, lam)
        right = char_poly_eval(spec, lam) * secular_eval(sys, lam)
        devs.append(abs(left - right) / max(abs(left), abs(right), 1e-300))
    return DetIdentityReport(tuple(points), tuple(devs))

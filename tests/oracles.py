"""Reference formulas for the tests: characteristic-polynomial oracles
evaluated from a spectrum or exact over the integers, the square table
filled cell by cell and column by column, the projection and sign records
of ``verify_gm`` one cluster and one column at a time, the vertex-deleted
submatrix, the stack-first Jacobi kernel, the per-cluster secular poles
and weights, the scalar secular evaluator and bracket search, and the
secular root vectors summed eigenvector by eigenvector."""

import math

import numpy as np

from eigenrecon import core, secular, squares, verify


def char_poly_eval(spec, lam: float) -> float:
    """det(lam*I - M) = prod_k (lam - lambda_k), monic convention."""
    return float(np.prod(lam - spec.values))


def char_poly_derivative_eval(spec, lam: float) -> float:
    """d/dlam of det(lam*I - M), as the sum of leave-one-out products."""
    return sum(float(np.prod(np.delete(lam - spec.values, k)))
               for k in range(len(spec.values)))


def charpoly(a) -> list[int]:
    """Coefficients of det(x*I - A), highest degree first, of an integer
    matrix A, exactly: Berkowitz's division-free algorithm over Python ints
    (Inform. Process. Lett. 18, 1984).

    Step k borders the leading k x k block M with column c, row r and corner
    d. Its polynomial is the previous one times the lower-triangular Toeplitz
    matrix whose first column is 1, -d, -r c, -r M c, ..., -r M^(k-1) c.
    """
    m = np.asarray(a, dtype=float)
    if not np.array_equal(m, np.round(m)):
        raise ValueError("charpoly needs integer entries")
    a = [[int(v) for v in row] for row in m]
    poly = [1]
    for k in range(len(a)):
        col = [1, -a[k][k]]
        v = [a[i][k] for i in range(k)]  # M^j c, j = 0, 1, ...
        for _ in range(k):
            col.append(-sum(x * y for x, y in zip(a[k][:k], v)))
            v = [sum(a[i][j] * v[j] for j in range(k)) for i in range(k)]
        poly = [sum(col[j - i] * poly[i] for i in range(max(0, j - k - 1), min(j, k) + 1))
                for j in range(k + 2)]
    return poly


def square_ratio_product(spec, card, i: int) -> float:
    """p_{m,i}^2 for one vertex m from the spectrum of A_m, unclamped: the
    product of the sorted factors of the numerator over those of the
    denominator."""
    lam_i = spec.values[i]
    num = np.sort(card.values - lam_i)
    den = np.sort(np.delete(spec.values, i) - lam_i)
    return float(np.prod(num / den))


def square_cell(spec, card, i: int) -> float:
    """``square_ratio_product`` clamped within 1e-10 of [0, 1]."""
    value = square_ratio_product(spec, card, i)
    if -1e-10 <= value < 0.0:
        value = 0.0
    elif 1.0 < value <= 1.0 + 1e-10:
        value = 1.0
    return value


def square_table_by_cells(deck):
    """The square table, its simple columns and its (code, index, value)
    warnings, filled cell by cell in column order."""
    spec = deck.parent.spectrum
    n = len(spec)
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if spec.is_simple(i))
    warnings = []
    for i in simple:
        for m in range(n):
            v = square_cell(spec, deck.card_spectra[m], i)
            if v < 0.0:
                warnings.append(("negative_square", i, v))
            table[m, i] = v
        colsum = float(np.nansum(table[:, i]))
        if abs(colsum - 1.0) > 1e-8:
            warnings.append(("column_sum", i, colsum))
    return table, simple, warnings


def reference_column(spec, cards: np.ndarray, i: int) -> np.ndarray:
    """Column i of the square table over the (n, n - 1) card array, alone."""
    lam_i = spec.values[i]
    num = np.sort(cards - lam_i, axis=1)
    den = np.sort(np.delete(spec.values, i) - lam_i)
    col = np.prod(num / den, axis=1)
    col[(-squares.CLAMP_TOL <= col) & (col < 0.0)] = 0.0
    col[(1.0 < col) & (col <= 1.0 + squares.CLAMP_TOL)] = 1.0
    return col


def reference_square_table(deck) -> squares.SquareTable:
    """``squares.square_table_from_deck`` one simple column at a time, each
    column its own sorted-ratio pass, its warnings appended in column order.
    The tests hold the one-pass table to it byte for byte."""
    spec = deck.parent.spectrum
    n = len(spec)
    spectra = np.array([c.values for c in deck.card_spectra])
    table = np.full((n, n), np.nan)
    simple = tuple(i for i in range(n) if spec.is_simple(i))
    warnings = []
    for i in simple:
        table[:, i] = col = reference_column(spec, spectra, i)
        warnings += [core.Diagnostic("negative_square", i, float(v)) for v in col[col < 0.0]]
        colsum = float(np.nansum(col))
        if abs(colsum - 1.0) > squares.ROW_SUM_TOL:
            warnings.append(core.Diagnostic("column_sum", i, colsum))
    return squares.SquareTable(n, table, simple, tuple(warnings))


def reference_projections(basis_a, basis_b) -> list[dict]:
    """``verify_gm``'s projection records one matching cluster pair at a
    time, each P_k 1 formed from that cluster's columns alone."""
    clusters = basis_a.spectrum.clusters, basis_b.spectrum.clusters
    if len(clusters[0]) != len(clusters[1]):
        return [{"value": None, "distance": None, "pass": False,
                 "note": "cluster structures differ"}]
    records = []
    for ca, cb in zip(*clusters):
        pa, pb = (b.vectors[:, list(c)] for b, c in ((basis_a, ca), (basis_b, cb)))
        dist = float(np.linalg.norm(pa @ (pa.T @ np.ones(basis_a.n))
                                    - pb @ (pb.T @ np.ones(basis_b.n))))
        records.append({"value": core.cluster_mean(basis_a.spectrum, ca),
                        "distance": dist, "pass": dist <= verify.PROJECTION_TOL})
    return records


def reference_signs(basis_a, basis_b) -> list[dict]:
    """``verify_gm``'s sign records one index at a time: each eigenvector
    simple in both bases, signed by its own entry sum, skipped when either
    sum is within SIGN_TOL_SCALE * sqrt(n) of 0."""
    sign_tol = verify.SIGN_TOL_SCALE * math.sqrt(basis_a.n)
    records = []
    for i in range(basis_a.n):
        if not (basis_a.spectrum.is_simple(i) and basis_b.spectrum.is_simple(i)):
            continue
        va, vb = basis_a.vectors[:, i], basis_b.vectors[:, i]
        sa, sb = float(np.sum(va)), float(np.sum(vb))
        if abs(sa) <= sign_tol or abs(sb) <= sign_tol:
            continue
        dist = float(np.linalg.norm(math.copysign(1.0, sa) * va - math.copysign(1.0, sb) * vb))
        records.append({"index": i, "distance": dist, "pass": dist <= verify.VECTOR_TOL})
    return records


def delete(A, i: int):
    """Principal submatrix of A with row and column i removed (0-based)."""
    keep = [k for k in range(A.n) if k != i]
    sub = A.entries[np.ix_(keep, keep)].copy()
    sub.setflags(write=False)
    return core.SymmetricMatrix(sub)


def reference_jacobi(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``core._jacobi`` with the stack axis first: the same operations in
    the same order on a (b, 2n, n) working array, a above p on axis 1. The
    tests hold ``core._jacobi`` to its outputs byte for byte."""
    b, n, _ = stack.shape
    e = core.scale_exponent(np.max(np.abs(stack), axis=(1, 2)))[:, None, None]
    # a on top of p, so one column rotation updates both.
    work = np.concatenate([np.ldexp(stack, -e),
                           np.broadcast_to(np.eye(n), (b, n, n))], axis=1)
    rounds = core._rounds(n)
    k = np.arange(n)
    rotated = n > 1
    sweeps = 0
    # theta overflows to inf when a_ij is tiny beside a_jj - a_ii, giving
    # t = 0; pairs that do not rotate may divide by zero: c = 1, s = 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while rotated:
            if sweeps >= core.JACOBI_MAX_SWEEPS:
                raise core.ConvergenceError(
                    f"Jacobi failed to converge in {core.JACOBI_MAX_SWEEPS} sweeps"
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
        a = np.ldexp(work[:, :n], e)
    if not np.all(np.isfinite(a)):
        raise core.ConvergenceError("an eigenvalue lies beyond the float range")
    return a, work[:, n:]


def bisect(f, lo: float, hi: float, f_lo: float, unit: float) -> float:
    """Bisection of the monotone f on (lo, hi), f_lo carrying the sign of f at lo."""
    for _ in range(secular.MAX_BISECT):
        mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi can overflow
        if hi - lo <= secular.ROOT_WIDTH_TOL * max(unit, abs(mid)) or mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    raise secular.BracketError("bisection failed to converge within iteration cap")


def open_at_pole(f, pole: float, side: int, limit: float,
                 unit: float) -> tuple[float, float]:
    """Step off the pole toward ``limit`` until f has the sign of ``side``,
    halving the offset while the point is at or past ``limit``."""
    off = secular.POLE_OFFSET_SCALE * max(unit, abs(pole))
    for _ in range(80):
        point = pole + side * off
        if point == pole:
            break
        if point < limit if side > 0 else point > limit:
            value = f(point)
            if value == 0.0 or (value > 0.0) == (side > 0):
                return point, value
        off *= 0.5
    raise secular.BracketError(f"could not open a bracket at pole y = {pole}")


def reference_poles_and_weights(basis, x) -> tuple[np.ndarray, np.ndarray]:
    """Every cluster's secular pole and aggregated weight, one cluster at a
    time: its ``cluster_mean`` and the sum of its q_i^2, q = V^T x."""
    q = basis.vectors.T @ np.asarray(x, dtype=float)
    clusters = basis.spectrum.clusters
    return (np.array([core.cluster_mean(basis.spectrum, c) for c in clusters]),
            np.array([float(np.sum(q[list(c)] ** 2)) for c in clusters]))


def reference_secular_eval(sys, lam: float) -> float:
    """P_t(lam) = 1 + sum over active clusters of t*w_k/(pole_k - lam),
    through np.any and np.sum: ``secular.secular_eval`` is held to it."""
    poles = sys.active_poles
    if np.any(poles == lam):
        raise ZeroDivisionError(f"evaluation at active pole lambda={lam}")
    return float(1.0 + np.sum(sys.t * sys.active_weights / (poles - lam)))


def reflect(sys):
    """s = sign(-t), the active poles in y = s*lambda (descending) and P_t in
    y, by ``reference_secular_eval``."""
    s = 1.0 if sys.t < 0.0 else -1.0

    def f(y: float) -> float:
        return reference_secular_eval(sys, s * y)

    return s, np.sort(s * sys.active_poles)[::-1], f


@np.errstate(over="ignore")
def bracket_root(f, poles: np.ndarray, j: int, cap: float) -> float:
    """The root of f in (poles[j + 1], poles[j]), or below poles[-1] for the
    last j, one bracket at a time: the search ``secular`` ran before its
    brackets were opened in lockstep. The walk below the lowest pole has no
    floor, so near the float maximum it can reach -inf."""
    unit = min(1.0, cap)
    hi, f_hi = open_at_pole(
        f, poles[j], -1, poles[j + 1] if j + 1 < len(poles) else -np.inf, unit,
    )
    if j + 1 < len(poles):
        lo, f_lo = open_at_pole(f, poles[j + 1], +1, poles[j], unit)
    else:
        lo = poles[-1] - cap
        f_lo = f(lo)
        for _ in range(80):
            if f_lo > 0.0:
                break
            lo -= cap
            f_lo = f(lo)
    if f_lo == 0.0:
        root = lo
    elif f_hi == 0.0:
        root = hi
    elif (f_lo > 0.0) == (f_hi > 0.0):
        raise secular.BracketError(f"no sign change on bracket for root {j} in y")
    else:
        root = bisect(f, lo, hi, f_lo, unit)
    if not np.isfinite(root):
        raise secular.BracketError(f"root {j} in y is not finite: {root}")
    return root


@np.errstate(over="ignore", invalid="ignore")
def reference_root_vectors(basis, sys, roots) -> np.ndarray:
    """``secular._root_vectors`` as a sum over the active eigenvectors p_i,
    each weighted by q_i / (pole - mu) with the pole of its cluster, under
    the same power-of-two rescales: the route the library took before it
    summed the projections P_k x per cluster."""
    clusters = basis.spectrum.clusters
    active_indices = [i for k in sys.active for i in clusters[k]]
    pole_of = np.repeat(sys.active_poles, [len(clusters[k]) for k in sys.active])
    q_active = sys.q[active_indices]
    p_active = basis.vectors[:, active_indices]
    peak = np.max(np.abs(pole_of))
    vs = []
    for mu in roots:
        k = int(max(peak, abs(mu)) > core.FLOAT_MAX / 2)
        d = np.ldexp(pole_of, -k) - np.ldexp(mu, -k)
        c = q_active / np.ldexp(d, -np.frexp(np.min(np.abs(d)))[1])
        vs.append(p_active @ np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1]))
    vectors = core.canonical_column_signs(
        np.column_stack([v / np.linalg.norm(v) for v in vs]))
    if not np.all(np.isfinite(vectors)):
        raise secular.BracketError("a root eigenvector is not finite")
    return vectors

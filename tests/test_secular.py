import math

import numpy as np
import pytest

import oracles
from eigenrecon import core, secular
from oracles import char_poly_eval

GOLDEN_ROOT_HI = (-1 + math.sqrt(5)) / 2
GOLDEN_ROOT_LO = (-1 - math.sqrt(5)) / 2


def swap_basis():
    return core.eigh(core.SymmetricMatrix.from_array([[0, 1], [1, 0]]))


def random_instance(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    A = core.SymmetricMatrix.from_array((m + m.T) / 2)
    x = rng.uniform(-1, 1, n)
    return A, x


def secular_family(rng, k):
    """System k of six seeded families as (basis, x, t), with n = 1-32
    (log-uniform): uniform spectra, poles 1e-7 apart, weights graded over
    six decades, 1e6 scale with t = +-1e-6 (where some brackets do not
    open), 4^k scales and repeated eigenvalues. The matrices are diagonal:
    the secular search sees only the spectrum and the projection of x."""
    n = int(round(2.0 ** rng.uniform(0.0, 5.0)))
    values = rng.uniform(-1, 1, n)
    x = rng.uniform(-1, 1, n)
    t = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
    kind = k % 6
    if kind == 1:
        values = rng.choice(rng.uniform(-1, 1, 3), n) + 1e-7 * np.arange(n)
    elif kind == 2:
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** (-3.0 * rng.permutation(n)
                                                   / max(n - 1, 1))
    elif kind == 3:
        values, t = 1e6 * values, rng.choice([-1e-6, 1e-6])
    elif kind == 4:
        scale = 4.0 ** int(rng.integers(-20, 21))
        values, t = scale * values, scale * t
    elif kind == 5:
        values = rng.integers(-3, 4, n).astype(float)
    return core.eigh(core.SymmetricMatrix.from_array(np.diag(values))), x, t


def outcome(solve):
    """The bytes of the float ``solve()`` returns, or its BracketError text."""
    try:
        return np.float64(solve()).tobytes()
    except secular.BracketError as exc:
        return str(exc)


class TestBuildSecular:
    def test_basis_vector(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([2.0, 0.0])))
        sys = secular.build_secular(basis, np.array([1.0, 0.0]), -1.0)
        np.testing.assert_allclose(sys.q, [1.0, 0.0])
        assert len(sys.active) == 1
        assert sys.active_poles[0] == pytest.approx(2.0)

    def test_zero_matrix_single_cluster(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.zeros((2, 2))))
        sys = secular.build_secular(basis, np.array([1.0, 1.0]), 1.0)
        assert sys.active == (0,)
        assert len(sys.active_poles) == 1
        assert sys.active_weights[0] == pytest.approx(2.0)

    def test_orthogonal_cluster_deflated(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([2.0, 0.0])))
        sys = secular.build_secular(basis, np.array([0.0, 1.0]), -1.0)
        assert sys.active == (1,)

    def test_t_zero_empty_active_set(self):
        basis = swap_basis()
        sys = secular.build_secular(basis, np.ones(2), 0.0)
        assert sys.active == ()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            secular.build_secular(swap_basis(), np.ones(3), 1.0)

    def test_cluster_wider_than_default_rejected(self):
        # Only a hand-built Spectrum can hold such a cluster: the solver
        # would merge the distinct eigenvalues 1 and 0.5 into one pole.
        spec = core.Spectrum(np.array([1.0, 0.5, 0.0]), ((0, 1), (2,)))
        basis = core.EigenBasis(spec, np.eye(3))
        with pytest.raises(ValueError, match="exact multiplicities"):
            secular.build_secular(basis, np.ones(3), -0.5)


    @pytest.mark.parametrize("diagonal", [
        [1.0, -0.0, -1.0],  # np.mean turns the -0.0 pole into 0.0
        [1.7e308, 1.7e308, 1e308],  # a cluster mean taken in a larger unit
        [-1e308, -1.7e308, -1.7e308, -1.7e308],
        [2.0] * 3 + [1.0] * 2 + [0.0],
        [1.0] * 10 + [-1.0] * 10,  # np.sum's pairwise order
    ])
    def test_extreme_poles_and_weights_match_the_per_cluster_formulas(self, diagonal):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag(diagonal)))
        x = np.random.default_rng(len(diagonal)).uniform(-1, 1, len(diagonal))
        for t in (-0.5, 2.0):
            assert_reference_poles_and_weights(basis, x, t)

    def test_poles_and_weights_match_the_per_cluster_formulas(self):
        rng = np.random.default_rng(72)
        for k in range(240):
            assert_reference_poles_and_weights(*secular_family(rng, k))


def assert_reference_poles_and_weights(basis, x, t):
    """``build_secular``'s active set, poles and weights, byte for byte those
    of ``oracles.reference_poles_and_weights``."""
    sys = secular.build_secular(basis, x, t)
    poles, weights = oracles.reference_poles_and_weights(basis, x)
    floor = secular.DEFLATE_TOL * float(x @ x)
    active = [k for k, w in enumerate(weights) if t != 0.0 and w > floor]
    assert sys.active == tuple(active)
    assert sys.active_poles.tobytes() == poles[active].tobytes()
    assert sys.active_weights.tobytes() == weights[active].tobytes()


class TestSecularEval:
    def test_matches_the_reference_evaluator(self):
        # At the active poles both raise; elsewhere the same bits.
        rng = np.random.default_rng(73)
        for k in range(120):
            sys = secular.build_secular(*secular_family(rng, k))
            if not sys.active:
                continue
            poles = sys.active_poles
            points = np.concatenate([poles, poles * (1 + 1e-9), rng.uniform(-2, 2, 4)
                                     * max(1.0, float(np.max(np.abs(poles))))])
            for lam in points.tolist():
                if lam in poles:
                    for evaluate in (secular.secular_eval, oracles.reference_secular_eval):
                        with pytest.raises(ZeroDivisionError):
                            evaluate(sys, lam)
                else:
                    assert same_float(secular.secular_eval(sys, lam),
                                      oracles.reference_secular_eval(sys, lam))

    def test_t_zero_constant_one(self):
        sys = secular.build_secular(swap_basis(), np.ones(2), 0.0)
        for lam in (-5.0, 0.3, 7.0):
            assert secular.secular_eval(sys, lam) == 1.0

    def test_symmetric_weights(self):
        # lambdas (1,-1), q = (1,1)/sqrt(2), t = -1: P(0) = 1 - 0.5 + 0.5 = 1.
        basis = swap_basis()
        x = basis.vectors @ (np.ones(2) / math.sqrt(2))
        sys = secular.build_secular(basis, x, -1.0)
        assert secular.secular_eval(sys, 0.0) == pytest.approx(1.0)

    def test_golden_ratio_root(self):
        basis = swap_basis()
        x = basis.vectors @ (np.ones(2) / math.sqrt(2))
        sys = secular.build_secular(basis, x, -1.0)
        assert secular.secular_eval(sys, GOLDEN_ROOT_HI) == pytest.approx(0.0, abs=1e-14)

    def test_pole_rejected(self):
        sys = secular.build_secular(swap_basis(), np.ones(2), -1.0)
        with pytest.raises(ZeroDivisionError):
            secular.secular_eval(sys, float(sys.active_poles[0]))


class TestSecularRoots:
    def test_golden_ratio_quadratic(self):
        basis = swap_basis()
        x = basis.vectors @ (np.ones(2) / math.sqrt(2))
        sys = secular.build_secular(basis, x, -1.0)
        roots = secular.secular_roots(sys)
        np.testing.assert_allclose(roots, [GOLDEN_ROOT_HI, GOLDEN_ROOT_LO],
                                   atol=1e-12)
        assert 1 > roots[0] > -1 > roots[1]

    def test_single_root(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([2.0, 0.0])))
        sys = secular.build_secular(basis, np.array([1.0, 0.0]), -1.0)
        roots = secular.secular_roots(sys)
        assert roots == pytest.approx([1.0], abs=1e-12)

    def test_matches_direct_eigensolver(self):
        rng = np.random.default_rng(55)
        A, x = random_instance(rng, 8)
        t = -0.7
        basis = core.eigh(A)
        sys = secular.build_secular(basis, x, t)
        roots = np.sort(secular.secular_roots(sys))
        direct = core.eigh(core.SymmetricMatrix.from_array(
            A.entries + t * np.outer(x, x))).spectrum
        retained = sorted(v for k, c in enumerate(basis.spectrum.clusters)
                          if k not in sys.active for v in basis.spectrum.values[list(c)])
        assert not retained  # generic instance: all clusters active
        np.testing.assert_allclose(roots, np.sort(direct.values),
                                   atol=1e-10 * max(1.0, direct.spread))

    def test_residual_small_at_roots(self):
        rng = np.random.default_rng(56)
        A, x = random_instance(rng, 6)
        basis = core.eigh(A)
        sys = secular.build_secular(basis, x, -1.3)
        for mu in secular.secular_roots(sys):
            gap = float(np.min(np.abs(sys.active_poles - mu)))
            bound = 1e-10 * (1 + np.sum(np.abs(sys.t) * sys.active_weights / gap))
            assert abs(secular.secular_eval(sys, mu)) <= bound

    def test_monotone_between_poles(self):
        rng = np.random.default_rng(57)
        A, x = random_instance(rng, 5)
        basis = core.eigh(A)
        for t in (-2.0, 2.0):
            sys = secular.build_secular(basis, x, t)
            poles = sys.active_poles
            for hi, lo in zip(poles[:-1], poles[1:]):
                pts = np.linspace(lo + 1e-6, hi - 1e-6, 10)
                vals = [secular.secular_eval(sys, p) for p in pts]
                diffs = np.diff(vals)
                if t > 0:
                    assert np.all(diffs > 0)
                else:
                    assert np.all(diffs < 0)

    @pytest.mark.parametrize("t", [-3.0, -0.3, 0.3, 3.0])
    def test_reflection_is_exact(self, t):
        # The spectrum is symmetric about 0 and x is palindromic in the
        # eigenbasis, so -A has the same poles and weights in the same order
        # and P_t evaluates term for term. Solving t > 0 by reflection then
        # gives roots that are exact negations of the t < 0 ones.
        vals = np.array([2.5, 1.25, 0.5, -0.5, -1.25, -2.5])
        x = np.array([0.3, -0.8, 0.55, 0.55, -0.8, 0.3])
        A = core.SymmetricMatrix.from_array(np.diag(vals))
        neg = core.SymmetricMatrix.from_array(np.diag(-vals))
        roots = secular.secular_roots(secular.build_secular(core.eigh(A), x, t))
        mirrored = secular.secular_roots(
            secular.build_secular(core.eigh(neg), x, -t))
        np.testing.assert_array_equal(mirrored, -roots[::-1])
        assert np.all(np.diff(roots) < 0)

    def test_t_zero_has_no_roots(self):
        sys = secular.build_secular(swap_basis(), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            secular.secular_roots(sys)


class TestRank1Update:
    def test_ones_on_zero_matrix(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.zeros((2, 2))))
        r = secular.rank1_update(basis, np.ones(2), 1.0)
        np.testing.assert_allclose(r.values, [2.0, 0.0], atol=1e-12)
        root_pos = [k for k, (kind, _) in enumerate(r.origins) if kind == "root"]
        assert len(root_pos) == 1
        np.testing.assert_allclose(r.vectors[root_pos[0]],
                                   np.ones(2) / math.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.25, 2.0])
    def test_swap_plus_ones_closed_form(self, t):
        r = secular.rank1_update(swap_basis(), np.ones(2), t)
        np.testing.assert_allclose(np.sort(r.values), np.sort([1 + 2 * t, -1.0]),
                                   atol=1e-12)
        origins = dict((kind, idx) for kind, idx in r.origins)
        assert "retained" in origins and "root" in origins

    def test_oracle_full_spectrum_and_vectors(self):
        rng = np.random.default_rng(58)
        A, x = random_instance(rng, 10)
        t = -0.3
        basis = core.eigh(A)
        r = secular.rank1_update(basis, x, t)
        M = A.entries + t * np.outer(x, x)
        direct = core.eigh(core.SymmetricMatrix.from_array(M))
        np.testing.assert_allclose(np.sort(r.values),
                                   np.sort(direct.spectrum.values), atol=1e-8)
        bound = 1e-8 * (10 * np.max(np.abs(A.entries)) + abs(t) * x @ x)
        for val, v in zip(r.values, r.vectors):
            if v is not None:
                assert np.linalg.norm(M @ v - val * v) <= bound

    def test_trace_identity(self):
        rng = np.random.default_rng(59)
        A, x = random_instance(rng, 7)
        t = 1.7
        r = secular.rank1_update(core.eigh(A), x, t)
        expected = np.trace(A.entries) + t * float(x @ x)
        assert abs(np.sum(r.values) - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_exact_deflation_passthrough(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([3.0, 1.0, -2.0])))
        x = np.array([1.0, 0.0, 1.0])  # e2 weight exactly zero
        r = secular.rank1_update(basis, x, -0.4)
        retained = [(v, idx) for v, (kind, idx) in zip(r.values, r.origins)
                    if kind == "retained"]
        assert (1.0, 1) in retained

    def test_repeated_eigenvalue_keeps_multiplicity(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([2.0, 2.0, 0.0])))
        r = secular.rank1_update(basis, np.array([1.0, 1.0, 1.0]), -0.5)
        kinds = [kind for kind, _ in r.origins]
        assert kinds.count("retained") == 1  # one copy of the double 2 survives
        assert kinds.count("root") == 2
        assert 2.0 in [v for v, (k, _) in zip(r.values, r.origins) if k == "retained"]

    def test_near_degenerate_warning_record(self):
        # A tiny weight on the double eigenvalue 1 moves its root by ~1e-14,
        # next to the copy of 1 that stays retained.
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([2.0, 1.0, 1.0])))
        r = secular.rank1_update(basis, np.array([0.0, 1e-7, 0.0]), -1.0)
        assert r.warnings == (core.Diagnostic("near_degenerate", 0, r.values[2]),)
        assert r.origins[2] == ("root", 0)

    def test_unopenable_bracket_raises_bracket_error(self):
        # At 1e6 scale a 1e-6 update leaves no float between some pole and
        # its root; the search stops there instead of evaluating at the pole.
        rng = np.random.default_rng(10)
        A, x = random_instance(rng, 8)
        basis = core.eigh(core.SymmetricMatrix.from_array(1e6 * A.entries))
        with pytest.raises(secular.BracketError, match="could not open a bracket"):
            secular.rank1_update(basis, x, 1e-6)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_extreme_scales_match_numpy(self, scale, n, sign):
        # Root tolerances scale with the system, and the eigenvector norm
        # neither under- nor overflows.
        A, x = random_instance(np.random.default_rng(100 + n), n)
        A = core.SymmetricMatrix.from_array(A.entries * scale)
        t = sign * 0.3 * scale
        r = secular.rank1_update(core.eigh(A), x, t)
        M = A.entries + t * np.outer(x, x)
        expected = np.linalg.eigvalsh(M)[::-1]
        peak = np.max(np.abs(expected))
        assert np.max(np.abs(r.values - expected)) <= 1e-12 * peak
        bound = 1e-8 * (n * np.max(np.abs(A.entries)) + abs(t) * x @ x) / scale
        for val, v in zip(r.values, r.vectors):
            if v is not None:
                assert np.linalg.norm((M @ v - val * v) / scale) <= bound

    def test_poles_closer_than_first_offset(self):
        # |t| * ||x||^2 dwarfs the spectrum, so the first pole offset (1e-13)
        # reaches the next pole; the offset must shrink, and the three
        # distinct eigenvalues must stay three poles with a root below each.
        poles = np.array([3e-13, 2e-13, 0.0])
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag(poles)))
        r = secular.rank1_update(basis, np.ones(3), -1.0)
        assert [kind for kind, _ in r.origins] == ["root"] * 3
        assert np.all(r.values < poles) and np.all(r.values[:-1] > poles[1:])
        expected = np.linalg.eigvalsh(np.diag(poles) - np.ones((3, 3)))[::-1]
        assert np.max(np.abs(r.values - expected)) <= 1e-12 * 3.0

    def test_t_zero_identity(self):
        basis = swap_basis()
        r = secular.rank1_update(basis, np.ones(2), 0.0)
        np.testing.assert_array_equal(r.values, basis.spectrum.values)
        assert all(kind == "retained" for kind, _ in r.origins)

    def test_interlacing_strict(self):
        rng = np.random.default_rng(60)
        A, x = random_instance(rng, 9)
        basis = core.eigh(A)
        for t in (-2.0, 2.0):
            sys = secular.build_secular(basis, x, t)
            roots = secular.secular_roots(sys)
            poles = sys.active_poles
            if t < 0:
                seq = np.empty(2 * len(poles))
                seq[0::2], seq[1::2] = poles, roots
            else:
                seq = np.empty(2 * len(poles))
                seq[0::2], seq[1::2] = roots, poles
            assert np.all(np.diff(seq) < 0)


    def test_bisection_midpoint_near_float_max(self):
        # (lo + hi) / 2 would overflow on this bracket; the halves do not.
        for sign in (1.0, -1.0):
            basis = core.eigh(core.SymmetricMatrix.from_array([[sign * 1e308]]))
            r = secular.rank1_update(basis, np.ones(1), sign * 1e300)
            assert r.values[0] == pytest.approx(sign * 1.00000001e308, rel=1e-13)
            np.testing.assert_array_equal(r.vectors[0], [1.0])

    def test_root_past_float_max_raises_bracket_error(self):
        # diag(1e308, -1e308) + t * J has the eigenvalue +-1e308 * (1 + sqrt 2)
        # at t = +-1e308: the walk below the lowest pole in y ends at the
        # float maximum without passing the root.
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([1e308, -1e308])))
        for t in (1e308, -1e308):
            with pytest.raises(secular.BracketError,
                               match="root 1 in y is not finite: -inf"):
                secular.rank1_update(basis, np.ones(2), t)

    @pytest.mark.parametrize("diagonal, t", [
        ((1e308, 1e308), 2.5e307),
        ((1e308, -1e308), 1e300),
        ((1e308, -1e308), -1e300),
    ])
    def test_walk_below_lowest_pole_stops_at_float_max(self, diagonal, t):
        # The walk's steps of cap pass the float maximum, where the root and
        # every eigenvalue are finite.
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag(diagonal)))
        r = secular.rank1_update(basis, np.ones(2), t)
        M = np.diag(diagonal) / 1e308 + t / 1e308 * np.ones((2, 2))
        expected = 1e308 * np.linalg.eigvalsh(M)[::-1]
        assert np.max(np.abs(r.values - expected)) <= 1e-13 * np.max(np.abs(expected))
        for val, v in zip(r.values, r.vectors):
            if v is not None:
                assert np.linalg.norm(M @ v - val / 1e308 * v) <= 1e-12

    @pytest.mark.parametrize("t", [-5e-311, 5e-311])
    def test_subnormal_pole_differences(self, t):
        # The root of 1e-310 * I3 + t * J lies a subnormal distance from the
        # pole; q / (pole - mu) would pass the float range.
        basis = core.eigh(core.SymmetricMatrix.from_array(1e-310 * np.eye(3)))
        r = secular.rank1_update(basis, np.ones(3), t)
        np.testing.assert_allclose(np.sort(r.values),
                                   np.sort([1e-310, 1e-310, 1e-310 + 3 * t]), rtol=1e-12)
        [root] = [v for v in r.vectors if v is not None]
        np.testing.assert_allclose(root, np.ones(3) / math.sqrt(3), rtol=1e-12)

    def test_tiny_update_vectors_stay_unit(self):
        # ||v||^2 of a sum over P_k x, x of norm near 1e-160, is subnormal
        # and inexact; the sums are rescaled first.
        A, x = random_instance(np.random.default_rng(61), 8)
        x, t = 1e-160 * x, -1e308
        r = secular.rank1_update(core.eigh(A), x, t)
        M = A.entries + t * np.outer(x, x)
        bound = 1e-8 * (8 * np.max(np.abs(A.entries)) + abs(t) * x @ x)
        vectors = [(val, v) for val, v in zip(r.values, r.vectors) if v is not None]
        assert len(vectors) == 8
        for val, v in vectors:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
            assert np.linalg.norm(M @ v - val * v) <= bound

    def test_non_finite_vector_raises_bracket_error(self):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([1.0, -1.0])))
        sys = secular.build_secular(basis, np.ones(2), 0.5)
        with pytest.raises(secular.BracketError, match="eigenvector is not finite"):
            secular._root_vectors(sys, [math.inf])


def assert_reference_root_vectors(basis, x, t):
    """``_root_vectors``, summed over the cluster projections, within 8 eps
    of each entry of ``oracles.reference_root_vectors``, with its signs."""
    sys = secular.build_secular(basis, x, t)
    roots = secular.secular_roots(sys)
    got = secular._root_vectors(sys, roots)
    want = oracles.reference_root_vectors(basis, sys, roots)
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps
    assert np.array_equal(np.sign(got), np.sign(want))


class TestRootVectorOracle:
    """Each root vector sums P_k x / (pole_k - mu) over the active clusters;
    the eigenvector-by-eigenvector sum rounds differently, in the last bits."""

    def test_seeded_systems_match_the_reference(self):
        # Uniform spectra, pairs 1e-7 apart and 4-fold repeated eigenvalues
        # on random orthonormal bases, at unit scale, 4^+-100 and 1e+-300.
        rng = np.random.default_rng(73)
        for k in range(24):
            n = int(rng.integers(2, 33))
            values = rng.uniform(-1, 1, n)
            if k % 3 == 1:
                values = np.repeat(values[:(n + 1) // 2], 2)[:n] + 1e-7 * (np.arange(n) % 2)
            elif k % 3 == 2:
                values = np.repeat(values[:(n + 3) // 4], 4)[:n]
            vectors, _ = np.linalg.qr(rng.uniform(-1, 1, (n, n)))
            for scale in (1.0, 4.0 ** 100, 4.0 ** -100, 1e300, 1e-300):
                spec = core.cluster_spectrum(np.sort(scale * values)[::-1])
                basis = core.EigenBasis(spec, vectors)
                x = rng.uniform(-1, 1, n)
                for t in (-0.3, 3.0):
                    assert_reference_root_vectors(basis, x, t * scale)

    @pytest.mark.parametrize("diagonal, t", [
        ((1e-310,) * 3, -5e-311),  # subnormal differences, scaled up
        ((1e308,) * 2, 2.5e307),  # differences taken in halves
    ])
    def test_extreme_rescales_match_the_reference(self, diagonal, t):
        basis = core.eigh(core.SymmetricMatrix.from_array(np.diag(diagonal)))
        assert_reference_root_vectors(basis, np.ones(len(diagonal)), t)


def zero_one_graph(rng, n, kind):
    """A random graph, the cycle C_n or the complete graph K_n."""
    if kind == "random":
        m = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    elif kind == "cycle":
        m = np.eye(n, k=1) + np.eye(n, k=1 - n) if n > 2 else np.eye(n, k=1)
    else:
        m = np.triu(np.ones((n, n)), 1)
    return m + m.T


def same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestLowestUpdatePair:
    """The theorem-main path: one bracket per shift, bit for bit rank1_update's lowest pair."""

    @pytest.mark.parametrize("scale", [4.0 ** -20, 1.0, 4.0 ** 20])
    def test_matches_rank1_update(self, scale):
        rng = np.random.default_rng(70)
        kinds = {"root": 0, "retained": 0}
        shifts = (-0.75, -1 / 16)
        for k in range(40):
            n = int(rng.integers(1, 8))
            kind = ("uniform", "random", "cycle", "complete")[k % 4]
            m = (rng.uniform(-1, 1, (n, n)) if kind == "uniform"
                 else zero_one_graph(rng, n, kind))
            basis = core.eigh(core.SymmetricMatrix.from_array(scale * (m + m.T) / 2))
            x = np.ones(n) if k % 8 < 4 else rng.uniform(-1, 1, n)
            # One system, built at a shift of its own, serves every shift.
            sys = secular.build_secular(basis, x, -scale)
            pairs = secular.lowest_update_pairs(sys, [t * scale for t in shifts])
            for t, (value, vector) in zip(shifts, pairs, strict=True):
                full = secular.rank1_update(basis, x, t * scale)
                assert same_float(value, full.values[-1])
                if full.vectors[-1] is None:
                    assert vector is None
                else:
                    assert vector.tobytes() == full.vectors[-1].tobytes()
                kinds[full.origins[-1][0]] += 1
        # Both outcomes occur: deflated and repeated lowest eigenvalues of the
        # graphs are retained below the root.
        assert min(kinds.values()) >= 20

    def test_brackets_match_the_scalar_solver(self):
        # Every bracket takes the reference search's steps: the same root or
        # the same BracketError, in secular_roots (the first failing root
        # raises) and in lowest_update_pairs for the lowest bracket alone,
        # where a batch raises the error of its first failing shift. The
        # system built at t, of either sign, serves every shift.
        rng = np.random.default_rng(71)
        failed = 0
        batch_failed = []
        for k in range(504):
            basis, x, t = secular_family(rng, k)
            sys = secular.build_secular(basis, x, t)
            s, poles, f = oracles.reflect(sys)
            found = [outcome(lambda: s * oracles.bracket_root(f, poles, j, sys.cap))
                     for j in range(len(poles))]
            errors = [r for r in found if isinstance(r, str)]
            if errors:
                failed += 1
                with pytest.raises(secular.BracketError) as exc:
                    secular.secular_roots(sys)
                assert str(exc.value) == errors[0]
            else:
                assert secular.secular_roots(sys).tobytes() == b"".join(sorted(
                    found, key=lambda r: -np.frombuffer(r)[0]))

            def lowest(ts):
                return outcome(lambda: secular.lowest_update_pairs(sys, ts)[0][0])

            if t < 0.0:
                want = found[-1]
                retained = basis.spectrum.values[secular._retained(sys)]
                low = float(np.min(retained, initial=math.inf))
                if not isinstance(want, str) and low < np.frombuffer(want)[0]:
                    want = np.float64(low).tobytes()
                assert lowest([t]) == want
            if k % 6 == 3:
                # At 1e6 scale the small shifts leave some brackets unopened.
                shifts = (-0.5, -1e-7, -1e-9)
                alone = [lowest([u]) for u in shifts]
                first = next((r for r in alone if isinstance(r, str)), None)
                batch_failed.append(first is not None)
                assert lowest(shifts) == (first or alone[0])
        assert failed >= 5
        assert sum(batch_failed) >= 20  # 24 of 84 at seed 71

    def test_shifts_must_be_negative_and_finite(self):
        sys = secular.build_secular(swap_basis(), np.ones(2), -1.0)
        for t in (0.0, 0.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match="t must be negative and finite"):
                secular.lowest_update_pairs(sys, [-0.5, t])

    def test_tie_goes_to_the_root(self):
        # A deflated eigenvalue placed exactly on the lowest root of the
        # undeflated update: the stable sort of rank1_update puts the root
        # last. The walk to the root's bracket steps by the spread, which the
        # placed value sets, so it is placed again until it stays put.
        x = np.array([1.0, 1.0, 0.0])
        two = core.eigh(core.SymmetricMatrix.from_array(np.diag([1.0, -1.0])))
        [(mu, _)] = secular.lowest_update_pairs(secular.build_secular(two, x[:2], -0.5),
                                                [-0.5])
        for _ in range(10):
            basis = core.eigh(core.SymmetricMatrix.from_array(np.diag([1.0, -1.0, mu])))
            sys = secular.build_secular(basis, x, -0.5)
            [(value, vector)] = secular.lowest_update_pairs(sys, [-0.5])
            if value == mu:
                break
            mu = value
        full = secular.rank1_update(basis, x, -0.5)
        assert sorted(full.values[-2:]) == [mu, mu]
        assert full.origins[-1][0] == "root"
        assert vector.tobytes() == full.vectors[-1].tobytes()


class TestDetIdentity:
    def test_t_zero(self):
        rep = secular.verify_det_identity(
            core.SymmetricMatrix.from_array([[0, 1], [1, 0]]), np.ones(2), 0.0)
        assert rep.max_rel_dev <= 1e-12

    def test_2x2_closed_form(self):
        # det(A + tJ - lam I) at lam=0 equals -(1+2t) on both sides.
        basis = swap_basis()
        for t in (0.5, -0.25, 2.0):
            sys = secular.build_secular(basis, np.ones(2), t)
            A = np.array([[0.0, 1.0], [1.0, 0.0]])
            lhs = np.linalg.det(0.0 * np.eye(2) - (A + t * np.ones((2, 2))))
            rhs = char_poly_eval(basis.spectrum, 0.0) * \
                secular.secular_eval(sys, 0.0)
            assert lhs == pytest.approx(-(1 + 2 * t), abs=1e-12)
            assert rhs == pytest.approx(lhs, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_probe_rule(self, n):
        # One probe in each gap of a simple spectrum and one beyond each end,
        # within half a spread: n + 1 points, enough to prove the identity.
        A, x = random_instance(np.random.default_rng(61), n)
        rep = secular.verify_det_identity(A, x, -0.9)
        vals = core.eigh(A).spectrum.values
        half = (vals[0] - vals[-1]) / 2
        probes = np.array(rep.probes)
        assert len(probes) == n + 1
        assert probes[0] <= vals[0] + half and probes[-1] >= vals[-1] - half
        assert np.all(probes[:-1] > vals) and np.all(probes[1:] < vals)
        assert rep.passed and rep.max_rel_dev <= 1e-9

    def test_one_probe_per_cluster_gap(self):
        # Star K1,3: sqrt 3, 0 (twice), -sqrt 3 make three clusters.
        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 1.0
        A = core.SymmetricMatrix.from_array(star)
        rep = secular.verify_det_identity(A, np.arange(1.0, 5.0), 0.7)
        r3 = math.sqrt(3)
        np.testing.assert_allclose(rep.probes, [2 * r3, r3 / 2, -r3 / 2, -2 * r3],
                                   rtol=1e-15)
        assert rep.max_rel_dev <= 1e-9

    def test_probe_on_a_root_of_the_update(self):
        # C4 - J/4 has eigenvalue 1, the midpoint of the gap between C4's
        # clusters 2 and 0 (twice): both sides vanish at that probe.
        c4 = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
        rep = secular.verify_det_identity(core.SymmetricMatrix.from_array(c4),
                                          np.ones(4), -0.25)
        assert rep.probes[1] == pytest.approx(1.0, abs=1e-15)
        assert rep.passed and rep.max_rel_dev <= 1e-12

    def test_corrupted_update_caught_at_small_scale(self, monkeypatch):
        # The probes sit among the eigenvalues at any scale, so a 1e-6
        # relative error in the updated spectrum of P3 * 1e-12 shows.
        P3 = core.SymmetricMatrix.from_array(
            1e-12 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        assert secular.verify_det_identity(P3, np.ones(3), -0.5e-12).passed
        solve = secular.eigh_stack

        def corrupted(matrices):
            basis, updated = solve(matrices)
            values = core.cluster_spectrum(updated.spectrum.values * (1 + 1e-6))
            return basis, core.EigenBasis(values, updated.vectors)

        monkeypatch.setattr(secular, "eigh_stack", corrupted)
        rep = secular.verify_det_identity(P3, np.ones(3), -0.5e-12)
        assert not rep.passed
        assert rep.max_rel_dev >= 1e-7
        assert max(abs(p) for p in rep.probes) <= 3e-12


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("c", [0.0, 0.7])
class TestZeroAndScalarMatrices:
    """c * I at extreme scales: one cluster, so the update has one root and
    det-check has no gap to place its probes by."""

    def instance(self, scale, n, c):
        x = np.random.default_rng(200 + n).uniform(-1, 1, n)
        return core.SymmetricMatrix.from_array(c * scale * np.eye(n)), x

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_rank1_update_matches_numpy(self, scale, n, c, sign):
        A, x = self.instance(scale, n, c)
        t = sign * 0.3 * scale
        r = secular.rank1_update(core.eigh(A), x, t)
        M = A.entries + t * np.outer(x, x)
        expected = np.linalg.eigvalsh(M)[::-1]
        assert np.max(np.abs(r.values - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert [kind for kind, _ in r.origins].count("root") == 1
        bound = 1e-8 * (n * c + 0.3 * x @ x)
        for val, v in zip(r.values, r.vectors):
            if v is not None:
                assert np.linalg.norm((M @ v - val * v) / scale) <= bound

    @pytest.mark.parametrize("t", [-0.3, 0.0, 0.3])
    def test_det_identity(self, scale, n, c, t):
        A, x = self.instance(scale, n, c)
        rep = secular.verify_det_identity(A, x, t * scale)
        assert len(rep.probes) == 2
        assert rep.probes[0] > c * scale > rep.probes[1]
        assert rep.passed and rep.max_rel_dev <= 1e-12

"""Each n x n decomposition is computed once per operation, and the
secular brackets of an operation are opened in one call.

Every solve goes through the kernel ``core._jacobi`` (``eigh``, ``deck``,
``eigh_stack`` and ``verify_gm`` all call it), so of the solvers only the
kernel is wrapped. Solved matrices are counted by their entries, so deck
cards (zero-padded submatrices of A) do not count as A. Every secular
bracket is opened by ``secular._solve_brackets`` and bisected by
``secular._bisect_all``, both wrapped too. ``secular_roots`` evaluates each
live bracket through ``secular.secular_eval`` once per bisection step.
Spectra are clustered by ``core.cluster_spectrum``: a deck clusters its
cards only when ``card_spectra`` is read. Vectors are projected onto a basis
only by ``secular.build_secular``, wrapped in every namespace that binds
it: ``verify_gm`` and ``verify_theorem_main`` build one all-ones system per
basis.
"""

import numpy as np
import pytest

from eigenrecon import core, secular, squares, verify
from oracles import delete
from test_core import HARD_CASES, hard_matrices


@pytest.fixture
def solved(monkeypatch):
    stacks = []
    original = core._jacobi

    def counting_jacobi(stack):
        stacks.append(stack.copy())
        return original(stack)

    monkeypatch.setattr(core, "_jacobi", counting_jacobi)

    def count(target):
        return sum(np.array_equal(m, target) for stack in stacks for m in stack)

    count.calls = stacks
    return count


def random_symmetric(seed, n):
    m = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


def test_square_table_decomposes_matrix_once(solved):
    A = random_symmetric(5, 6)
    squares.square_table(A)
    assert solved(A.entries) == 1


@pytest.fixture
def clustered(monkeypatch):
    """The length of each spectrum passed to ``core.cluster_spectrum``."""
    lengths = []
    original = core.cluster_spectrum

    def counting_cluster_spectrum(values):
        lengths.append(len(values))
        return original(values)

    monkeypatch.setattr(core, "cluster_spectrum", counting_cluster_spectrum)
    return lengths


def test_verify_gm_clusters_only_the_two_parents(clustered):
    A, B = random_symmetric(6, 5), random_symmetric(7, 5)
    verify.verify_gm(A, B)
    verify.verify_gm(A, B, multiset_deck=True)
    assert clustered == [5, 5, 5, 5]


def test_square_table_clusters_only_the_parent(clustered):
    squares.square_table(random_symmetric(5, 6))
    assert clustered == [6]


@pytest.mark.parametrize("n, name", HARD_CASES)
def test_card_spectra_match_eager_clustering(clustered, n, name):
    A = core.SymmetricMatrix.from_array(hard_matrices(n, 41)[name])
    d = core.deck(A)
    assert clustered == [n]
    assert d.cards.shape == (n, n - 1) and not d.cards.flags.writeable
    spectra = d.card_spectra
    assert clustered == [n] + [n - 1] * n
    assert d.card_spectra is spectra  # clustered once, on first read
    for m, (row, card) in enumerate(zip(d.cards, spectra, strict=True)):
        eager = core.cluster_spectrum(row)
        direct = core.eigh(delete(A, m)).spectrum
        for want in (eager, direct):
            assert card.values.tobytes() == want.values.tobytes()
            assert card.clusters == want.clusters


@pytest.mark.parametrize("check", ["det-check", "probe-tau"])
def test_two_matrix_checks_solve_one_stack(monkeypatch, check):
    # det-check solves A and A + t*x*x^T, probe-tau A and B, together.
    stacks = []
    original = core._jacobi

    def recording_jacobi(stack):
        stacks.append(stack.copy())
        return original(stack)

    monkeypatch.setattr(core, "_jacobi", recording_jacobi)
    A, B = random_symmetric(8, 5), random_symmetric(9, 5)
    if check == "det-check":
        x = np.arange(1.0, 6.0)
        secular.verify_det_identity(A, x, -0.3)
        second = A.entries + -0.3 * np.outer(x, x)
    else:
        verify.probe_permutation_conjecture(A, B, 0)
        second = B.entries
    assert len(stacks) == 1
    assert np.array_equal(stacks[0], [A.entries, second])


@pytest.fixture
def opened(monkeypatch):
    """The shifts t, in the caller's unit, and the root indices j of each
    call of the bracket solver."""
    calls = []
    original = secular._solve_brackets

    def recording_solve_brackets(sys, tu, upper, lower, j, f=None):
        calls.append((tuple(np.ldexp(tu, -2 * sys.a).tolist()), tuple(j.tolist())))
        return original(sys, tu, upper, lower, j, f)

    monkeypatch.setattr(secular, "_solve_brackets", recording_solve_brackets)
    return calls


def test_rank1_update_opens_every_bracket_in_one_call(opened):
    A = random_symmetric(12, 6)
    secular.rank1_update(core.eigh(A), np.arange(1.0, 7.0), -0.4)
    assert opened == [((-0.4,) * 6, tuple(range(6)))]


@pytest.fixture
def bisected(monkeypatch):
    """The rows of each call of the lockstep bisection."""
    calls = []
    original = secular._bisect_all

    def recording_bisect_all(f, rows, lo, hi, unit):
        calls.append(tuple(rows.tolist()))
        return original(f, rows, lo, hi, unit)

    monkeypatch.setattr(secular, "_bisect_all", recording_bisect_all)
    return calls


@pytest.mark.parametrize("t", [-0.4, 0.4])
def test_rank1_update_bisects_every_bracket_in_one_call(bisected, t):
    # One row per active pole, for either sign of t (t > 0 by reflection).
    A = random_symmetric(12, 6)
    secular.rank1_update(core.eigh(A), np.arange(1.0, 7.0), t)
    assert bisected == [tuple(range(6))]


def test_rank1_update_evaluates_the_secular_function_as_often_as_before():
    # One secular_eval call per scalar bisection step; the counts are
    # those of the evaluator through np.any and np.sum.
    calls = []
    original = secular.secular_eval

    def counting_secular_eval(sys, t, lam):
        calls.append(lam)
        return original(sys, t, lam)

    basis = core.eigh(random_symmetric(32, 32))
    x = np.random.default_rng(33).uniform(-1, 1, 32)
    counts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secular, "secular_eval", counting_secular_eval)
        for t in (-0.3, 3.0):
            calls.clear()
            secular.rank1_update(basis, x, t)
            counts.append(len(calls))
    assert counts == [1309, 1307]


def test_verify_gm_decomposes_each_matrix_once(solved, opened):
    # A and B once each, with their decks, in one _jacobi call; theorem-main
    # is decided in closed form, so no A + tJ is solved and no secular
    # bracket is opened.
    A, B = random_symmetric(6, 5), random_symmetric(7, 5)
    verify.verify_gm(A, B)
    assert solved(A.entries) == solved(B.entries) == 1
    assert len(solved.calls) == 1
    assert len(solved.calls[0]) == 2 * (5 + 1)
    assert opened == []


@pytest.fixture
def built(monkeypatch):
    """(basis, x, system) of each ``secular.build_secular`` call."""
    calls = []
    original = secular.build_secular

    def recording_build_secular(basis, x):
        sys = original(basis, x)
        calls.append((basis, np.array(x, dtype=float), sys))
        return sys

    for module in (secular, verify):
        if getattr(module, "build_secular", None) is original:
            monkeypatch.setattr(module, "build_secular", recording_build_secular)
    return calls


def assert_ones_systems_of(built, *matrices):
    """One all-ones system per matrix, built on its basis, in order."""
    assert [b.spectrum.values.tobytes() for b, _, _ in built] == [
        core.eigh(M).spectrum.values.tobytes() for M in matrices]
    assert all(np.array_equal(x, np.ones(len(x))) for _, x, _ in built)


def test_verify_gm_builds_one_ones_system_per_basis(built):
    # Projections, signs and t* all read the one system of each basis.
    A, B = random_symmetric(6, 5), random_symmetric(7, 5)
    for multiset_deck in (False, True):
        built.clear()
        verify.verify_gm(A, B, multiset_deck=multiset_deck)
        assert_ones_systems_of(built, A, B)


def path4():
    # Its lowest eigenvector is orthogonal to 1: a non-main lowest cluster,
    # so theorem-main adds the shifts 2 t* and t*/2 of P4.
    return core.SymmetricMatrix.from_array(np.eye(4, k=1) + np.eye(4, k=-1))


def test_theorem_main_solves_each_matrix_once(solved):
    # A and B in one _jacobi call, which gives t*, then every A + tJ and
    # B + tJ in another: 16 default shifts and 2 derived from P4.
    A, B = path4(), random_symmetric(10, 4)
    assert len(verify.verify_theorem_main(A, B)) == 18
    assert solved(A.entries) == solved(B.entries) == 1
    assert [len(stack) for stack in solved.calls] == [2, 2 * 18]


def test_theorem_main_solves_one_bracket_per_nonzero_shift(monkeypatch, opened, bisected):
    # Only the bracket of the lowest root of A + tJ, the last in y, for
    # every shift, all negative, opened in one lockstep call and bisected
    # in another; rank1_update is never called.
    def forbidden(*args, **kwargs):
        raise AssertionError("theorem-main called rank1_update")

    monkeypatch.setattr(secular, "rank1_update", forbidden)
    A, B = path4(), random_symmetric(11, 4)
    samples = verify.verify_theorem_main(A, B)
    [(ts, js)] = opened
    assert ts == tuple(r.t for r in samples) and max(ts) < 0.0
    assert js == (1,) * 18  # two clusters of P4 are main
    assert bisected == [tuple(range(18))]


def test_theorem_main_builds_one_ones_system_per_basis(monkeypatch, built):
    # t* of each matrix reads its system, and every secular pair reads A's.
    passed = []
    original = verify.lowest_update_pairs

    def recording_lowest_update_pairs(sys, ts):
        passed.append(sys)
        return original(sys, ts)

    monkeypatch.setattr(verify, "lowest_update_pairs", recording_lowest_update_pairs)
    A, B = path4(), random_symmetric(11, 4)
    verify.verify_theorem_main(A, B)
    assert_ones_systems_of(built, A, B)
    assert len(passed) == 1 and passed[0] is built[0][2]

"""Each n x n decomposition is computed once per operation.

Every solve goes through the kernel ``core._jacobi`` (``eigh``, ``deck`` and
``eigh_stack`` all call it), so only the kernel is wrapped. Solved matrices
are counted by their entries, so deck cards (zero-padded submatrices of A)
do not count as A.
"""

import numpy as np
import pytest

from eigenrecon import core, secular, squares, verify


@pytest.fixture
def solved(monkeypatch):
    matrices = []
    original = core._jacobi

    def counting_jacobi(stack):
        matrices.extend(stack.copy())
        return original(stack)

    monkeypatch.setattr(core, "_jacobi", counting_jacobi)
    return lambda target: sum(np.array_equal(m, target) for m in matrices)


def random_symmetric(seed, n):
    m = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


def test_square_table_decomposes_matrix_once(solved):
    A = random_symmetric(5, 6)
    squares.square_table(A)
    assert solved(A.entries) == 1


def test_verify_gm_decomposes_each_matrix_once(solved):
    # A and B once each (from their decks), A once more in the theorem-main
    # sweep, and A + tJ and B + tJ for every shift t.
    A, B = random_symmetric(6, 5), random_symmetric(7, 5)
    t_samples = (-0.75, -0.5, -0.25)
    verify.verify_gm(A, B, t_samples=t_samples)
    J = np.ones((5, 5))
    shifted = [M.entries + t * J for t in t_samples for M in (A, B)]
    count = sum(solved(m) for m in [A.entries, B.entries, *shifted])
    assert count == 3 + 2 * len(t_samples)


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

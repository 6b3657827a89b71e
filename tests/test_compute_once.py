"""Each n x n decomposition is computed once per operation.

Both solvers are wrapped: ``eigh`` in every module namespace that binds it,
and the stacked kernel ``core._jacobi`` that ``deck`` and ``eigh_stack`` run.
Solved matrices are counted by their entries, so deck cards (copies of A with
one row and column zeroed) do not count as A.
"""

import numpy as np
import pytest

from eigenrecon import core, squares, verify


@pytest.fixture
def solved(monkeypatch):
    matrices = []
    original_eigh, original_jacobi = core.eigh, core._jacobi

    def counting_eigh(A, *args, **kwargs):
        matrices.append(A.entries.copy())
        return original_eigh(A, *args, **kwargs)

    def counting_jacobi(stack, *args, **kwargs):
        matrices.extend(stack.copy())
        return original_jacobi(stack, *args, **kwargs)

    for module in (core, squares, verify):
        monkeypatch.setattr(module, "eigh", counting_eigh, raising=False)
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

"""Each n x n decomposition is computed once per operation.

``eigh`` is wrapped in every module namespace that binds it, and only calls
on matrices of the input's size are counted: the deck cards are (n-1) x (n-1).
"""

import numpy as np
import pytest

from eigenrecon import core, squares, verify


@pytest.fixture
def full_size_eigh_calls(monkeypatch):
    calls = []
    original = core.eigh

    def counting(A, *args, **kwargs):
        calls.append(A.n)
        return original(A, *args, **kwargs)

    for module in (core, squares, verify):
        monkeypatch.setattr(module, "eigh", counting, raising=False)
    return lambda n: calls.count(n)


def random_symmetric(seed, n):
    m = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    return core.SymmetricMatrix.from_array((m + m.T) / 2)


def test_square_table_decomposes_matrix_once(full_size_eigh_calls):
    squares.square_table(random_symmetric(5, 6))
    assert full_size_eigh_calls(6) == 1


def test_verify_gm_decomposes_each_matrix_once(full_size_eigh_calls):
    # One eigh each for A and B (from their decks), one more for A in the
    # theorem-main sweep, and A + tJ and B + tJ for every shift t.
    A, B = random_symmetric(6, 5), random_symmetric(7, 5)
    t_samples = (-0.75, -0.5, -0.25)
    verify.verify_gm(A, B, t_samples=t_samples)
    assert full_size_eigh_calls(5) == 3 + 2 * len(t_samples)

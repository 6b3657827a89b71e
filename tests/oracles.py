"""Characteristic-polynomial oracles evaluated from a spectrum, for the tests."""

import numpy as np


def char_poly_eval(spec, lam: float) -> float:
    """det(lam*I - M) = prod_k (lam - lambda_k), monic convention."""
    return float(np.prod(lam - spec.values))


def char_poly_derivative_eval(spec, lam: float) -> float:
    """d/dlam of det(lam*I - M), as the sum of leave-one-out products."""
    return sum(float(np.prod(np.delete(lam - spec.values, k)))
               for k in range(len(spec.values)))

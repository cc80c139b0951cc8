"""Helpers the tests share and the package does not need."""

import numpy as np

from modinv.poly import Poly, monomial_index, num_monomials


def poly_to_vec(f: Poly, degree: int) -> np.ndarray:
    """Coordinate row of a homogeneous polynomial in its degree slice."""
    if not f.is_zero() and f.homogeneous_degree() != degree:
        raise ValueError(f"polynomial has degree {f.homogeneous_degree()}, expected {degree}")
    idx = monomial_index(f.nvars, degree)
    v = np.zeros(num_monomials(f.nvars, degree), dtype=np.uint8)
    for mono, c in f.terms.items():
        v[idx[mono]] = c
    return v

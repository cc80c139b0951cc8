"""Helpers the tests share and the package does not need."""

from functools import lru_cache

import numpy as np

from modinv.poly import Poly, monomials_of_degree, num_monomials


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict:
    """Position of each degree-``degree`` monomial in the enumeration order:
    the dictionary the package's rank is checked against."""
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, degree))}


def poly_to_vec(f: Poly, degree: int) -> np.ndarray:
    """Coordinate row of a homogeneous polynomial in its degree slice."""
    if not f.is_zero() and f.homogeneous_degree() != degree:
        raise ValueError(f"polynomial has degree {f.homogeneous_degree()}, expected {degree}")
    idx = monomial_index(f.nvars, degree)
    v = np.zeros(num_monomials(f.nvars, degree), dtype=np.uint8)
    for mono, c in f.terms.items():
        v[idx[mono]] = c
    return v

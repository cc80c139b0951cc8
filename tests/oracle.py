"""Helpers the tests share and the package does not need."""

from functools import lru_cache

import numpy as np

from modinv.depthlab import _prefix_modules
from modinv.poly import Poly, num_monomials
from modinv.rep import sigma


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, in descending
    lexicographic order, built tuple by tuple: the enumeration that
    ``gradedla.exponents`` is checked against."""
    if nvars < 1 or degree < 0:
        raise ValueError(f"bad monomial enumeration request ({nvars=}, {degree=})")
    if nvars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        out.extend((e,) + rest for rest in monomials_of_degree(nvars - 1, degree - e))
    return tuple(out)


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


def transfer(rep, f: Poly) -> Poly:
    """Sum of f over the whole group orbit of generator powers: the
    polynomial-level reference for the transfer slices."""
    rep.check_poly(f)
    out = f
    for k in range(1, rep.p.value):
        out = out + sigma(rep, f, k)
    return out


def ideal_modules(rep, gens, max_degree: int):
    """The ideal generated by invariant elements inside the invariant ring,
    and the invariant ring modulo that ideal, as graded modules over the
    ring: the last pair of the package's prefix chain."""
    pairs = list(_prefix_modules(rep, gens, max_degree))
    if not pairs:
        raise ValueError("an ideal needs at least one generator")
    return pairs[-1]

"""Helpers the tests share and the package does not need."""

from functools import lru_cache

import numpy as np

from modinv import gradedla as la
from modinv.depthlab import _prefix_modules, _regular_candidate_degree, _regular_report, ring_module
from modinv.gradedla import GradedBasis, MatFp
from modinv.invariants import invariant_slice
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


def oracle_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """Classic textbook Gauss-Jordan over F_p on lists of ints.  Written
    without numpy so it shares nothing with the implementation under test."""
    mat = [[v % p for v in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if src is None:
            continue
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        inv = pow(mat[pivot_row][col], p - 2, p)
        mat[pivot_row] = [(v * inv) % p for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [row for row in mat if any(row)]


def oracle_pivots(rows: list[list[int]]) -> list[int]:
    return [row.index(next(v for v in row if v)) for row in rows]


def oracle_left_kernel(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Canonical basis of {u : u @ A = 0} for the k x ``ncols`` matrix A
    with the given rows, with no numpy: the null space of A^T, one vector
    per free column of its RREF (1 there, zero on the other free columns,
    minus that column of the RREF on the pivots), then brought to RREF.
    The reference the package's one-elimination left kernel is checked
    against."""
    k = len(rows)
    transposed = oracle_rref([[rows[i][j] for i in range(k)] for j in range(ncols)], p)
    pivots = oracle_pivots(transposed)
    null = []
    for free in (c for c in range(k) if c not in pivots):
        u = [0] * k
        u[free] = 1
        for row, c in zip(transposed, pivots):
            u[c] = -row[free] % p
        null.append(u)
    return oracle_rref(null, p)


def product_rows(rows: list[list[int]], f: Poly, degree: int) -> list[list[int]]:
    """f times each degree-``degree`` row, one polynomial product at a
    time, each row read on the tuple enumeration: the reference the
    package's multiplication maps are checked against."""
    monos = monomials_of_degree(f.nvars, degree)
    target = degree + f.homogeneous_degree()
    return [poly_to_vec(Poly(f.p, f.nvars, {m: c for m, c in zip(monos, row) if c}) * f, target).tolist()
            for row in rows]


def sigma_power(rep, f: Poly, k: int) -> Poly:
    """The generator applied k times: the reference for its k-th power."""
    for _ in range(k):
        f = sigma(rep, f)
    return f


def transfer(rep, f: Poly) -> Poly:
    """Sum of f over the whole group orbit of generator powers: the
    polynomial-level reference for the transfer slices."""
    rep.check_poly(f)
    out = image = f
    for _ in range(1, rep.p):
        image = sigma(rep, image)
        out = out + image
    return out


def ideal_modules(rep, gens, max_degree: int):
    """The ideal generated by invariant elements inside the invariant ring,
    and the invariant ring modulo that ideal, as graded modules over the
    ring: the last pair of the package's prefix chain."""
    pairs = list(_prefix_modules(ring_module(rep, max_degree), gens))
    if not pairs:
        raise ValueError("an ideal needs at least one generator")
    return pairs[-1]


def rows_off_pivots(num: MatFp, sub: MatFp) -> MatFp | None:
    """The rows of canonical ``num`` off the pivots of canonical ``sub``;
    None when a pivot of ``sub`` is no pivot of ``num``, so ``sub`` is not
    inside ``num``.  Otherwise each such row is zero on every pivot of
    ``sub``, so the rows are their own residues modulo ``sub`` and equal the
    RREF of the reduced ``num``, with no elimination: the quotient rows the
    package's module views (``GradedModuleView.quotient_mat``) are checked
    against."""
    sub_pivots = set(sub.pivots)
    if not sub_pivots.issubset(num.pivots):
        return None
    keep = [i for i, c in enumerate(num.pivots) if c not in sub_pivots]
    return MatFp(num.p, num.a[keep], tuple(num.pivots[i] for i in keep))


def kernel(mat: MatFp) -> MatFp:
    """Canonical basis of the right null space {v : v @ mat.T = 0}, i.e. of
    row vectors v with mat @ v = 0, returned as rows in echelon form: the
    reference the package's one-elimination left kernel
    (``gradedla.rref_left_kernel``) is checked against.

    Read off the canonical RREF: each free column f gives the null vector
    with 1 at f, zero on the other free columns and minus column f of the
    RREF on the pivot columns."""
    r = la.rref(mat)
    ncols = mat.ncols
    piv = list(r.pivots)
    pivset = set(piv)
    free = [c for c in range(ncols) if c not in pivset]
    if not free:
        return MatFp(mat.p, np.zeros((0, ncols), dtype=np.uint8), ())
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    if piv:
        out[:, piv] = (-r.a[:, free].astype(np.int64).T) % mat.p
    return la.rref(MatFp(mat.p, out.astype(np.uint8)))


@lru_cache(maxsize=None)
def stacked_generators(rep, bound: int, degree: int) -> tuple:
    """Degree-``degree`` generators of the invariant ring from one RREF of
    every product of a lower-degree generator (of this reference's own) with
    the invariants, stacked at full width: the invariant rows off its
    pivots.  The construction ``depthlab._generators`` is checked against."""
    inv = invariant_slice(rep, bound)
    p, here = inv.p, inv.mat(degree)
    products = [la.mult_map(inv.mat(degree - k), g, degree - k).a
                for k in range(1, degree) for g in stacked_generators(rep, bound, k)]
    decomposable = la.rref(MatFp(p, np.vstack([here.a[:0]] + products)))
    fresh = rows_off_pivots(here, decomposable)
    if fresh is None:
        raise RuntimeError(f"degree-{degree} products of generators are not invariants")
    return tuple(la.vec_to_poly(p, rep.nvars, degree, row) for row in fresh.a)


def subspace_le(inner: MatFp, outer: MatFp) -> bool:
    """Row space inclusion: inner <= outer exactly when every inner row
    reduces to zero modulo the canonical form of ``outer``, which is
    eliminated only if it is not canonical already: the reference for
    inclusions the package proves by construction."""
    if inner.p != outer.p or inner.ncols != outer.ncols:
        raise ValueError("subspace test on mismatched spaces")
    outer = outer if outer.is_rref else la.rref(outer)
    return not la.reduce_rows(inner.a, outer).any()


def graded_le(inner: GradedBasis, outer: GradedBasis) -> bool:
    """Degreewise row-space inclusion over the common stored range."""
    if inner.p != outer.p or inner.nvars != outer.nvars or inner.max_degree != outer.max_degree:
        raise ValueError("graded inclusion test on mismatched gradings")
    return all(subspace_le(inner.mats[d], outer.mats[d]) for d in range(inner.max_degree + 1))


def is_regular_element(view, f: Poly):
    """The complete regular-element report of a validated f on a module
    view: every degree 0..D-deg(f) is rank-tested even after a failure, and
    each failing degree carries an annihilated class.  The package reaches
    the same report through ``verify_regular_sequence``."""
    return _regular_report(view, f, _regular_candidate_degree(view.rep, f))

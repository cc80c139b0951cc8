"""Exact linear algebra over prime fields on degreewise coordinate spaces.

Matrices follow the row convention: a row is a vector, and a linear map
sends ``v`` to ``v @ A``.  Coordinates in degree ``d`` are indexed by
``poly.monomials_of_degree``.  Mod-2 elimination runs on bit-packed rows;
odd primes go through exact float64 matrix products (all intermediate sums
stay far below 2**53).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .poly import Mono, Poly, mono_mul, monomial_index, monomials_of_degree, num_monomials


class MatFp:
    """A matrix over the field with ``p`` elements, entries in uint8, so
    ``p`` may be at most 251, the largest prime below 256.

    ``pivots`` is set (a tuple of pivot column indices) exactly when the
    matrix is a canonical reduced row echelon form with zero rows dropped.
    """

    __slots__ = ("p", "a", "pivots")

    def __init__(self, p: int, a: np.ndarray, pivots: tuple[int, ...] | None = None):
        if a.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if p > 251:
            raise ValueError(f"p = {p} is above 251: matrix entries are stored as uint8, "
                             "so the largest supported prime is 251")
        self.p = p
        self.a = np.ascontiguousarray(a, dtype=np.uint8)
        self.pivots = pivots

    @classmethod
    def from_rows(cls, p: int, rows: Iterable[Sequence[int]], cols: int | None = None) -> MatFp:
        data = [list(r) for r in rows]
        if not data:
            if cols is None:
                raise ValueError("column count required for an empty matrix")
            return cls(p, np.zeros((0, cols), dtype=np.uint8))
        return cls(p, np.asarray(data, dtype=np.int64) % p)

    @classmethod
    def zeros(cls, p: int, nrows: int, ncols: int) -> MatFp:
        return cls(p, np.zeros((nrows, ncols), dtype=np.uint8))

    @classmethod
    def identity(cls, p: int, n: int) -> MatFp:
        return cls(p, np.eye(n, dtype=np.uint8), pivots=tuple(range(n)))

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @property
    def is_rref(self) -> bool:
        return self.pivots is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatFp):
            return NotImplemented
        return self.p == other.p and self.a.shape == other.a.shape and bool(np.array_equal(self.a, other.a))

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatFp(p={self.p}, shape={self.a.shape}, rref={self.is_rref})"


def _rref_p2(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return np.zeros((0, ncols), dtype=np.uint8), ()
    packed = np.packbits(a, axis=1)
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        byte, bit = divmod(col, 8)
        mask = np.uint8(0x80 >> bit)
        below = np.nonzero(packed[rank:, byte] & mask)[0]
        if below.size == 0:
            continue
        piv = rank + int(below[0])
        if piv != rank:
            packed[[rank, piv]] = packed[[piv, rank]]
        hits = np.nonzero(packed[:, byte] & mask)[0]
        hits = hits[hits != rank]
        if hits.size:
            packed[hits] ^= packed[rank]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    out = np.unpackbits(packed[:rank], axis=1, count=ncols)
    return np.ascontiguousarray(out), tuple(pivots)


def _rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return np.zeros((0, ncols), dtype=np.uint8), ()
    m = a.astype(np.int64)
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        below = np.nonzero(m[rank:, col])[0]
        if below.size == 0:
            continue
        piv = rank + int(below[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        if inv != 1:
            m[rank] = (m[rank] * inv) % p
        hits = np.nonzero(m[:, col])[0]
        hits = hits[hits != rank]
        if hits.size:
            m[hits] = (m[hits] - np.outer(m[hits, col], m[rank])) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank].astype(np.uint8), tuple(pivots)


def _invert_modp(u: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a small invertible matrix, by Gauss-Jordan on [U | I]."""
    k = u.shape[0]
    aug = np.concatenate([u.astype(np.int64) % p, np.eye(k, dtype=np.int64)], axis=1)
    reduced, pivots = _rref_modp(aug, p)
    if pivots[:k] != tuple(range(k)):
        raise ValueError("matrix is singular")
    return reduced[:, k:].astype(np.int64)


def _rref_modp_blocked(a: np.ndarray, p: int, panel: int = 64) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF for odd p with panel pivoting and BLAS trailing updates.

    Each panel finds its pivots with classic elimination on a small copy,
    reduces the pivot rows with one k x k inverse, then clears the pivot
    columns of every other row with a single exact float64 product.
    """
    nrows, ncols = a.shape
    m = a.astype(np.int64) % p
    rank = 0
    pivots: list[int] = []
    for start in range(0, ncols, panel):
        if rank >= nrows:
            break
        stop = min(start + panel, ncols)
        probe = m[rank:, start:stop].copy()
        rowids = np.arange(rank, nrows)
        k = 0
        local_pivots: list[int] = []
        for c in range(stop - start):
            below = np.nonzero(probe[k:, c])[0]
            if below.size == 0:
                continue
            piv = k + int(below[0])
            if piv != k:
                probe[[k, piv]] = probe[[piv, k]]
                rowids[[k, piv]] = rowids[[piv, k]]
            inv = pow(int(probe[k, c]), p - 2, p)
            if inv != 1:
                probe[k] = (probe[k] * inv) % p
            hits = k + 1 + np.nonzero(probe[k + 1:, c])[0]
            if hits.size:
                probe[hits] = (probe[hits] - np.outer(probe[hits, c], probe[k])) % p
            local_pivots.append(start + c)
            k += 1
            if rank + k == nrows:
                break
        if k == 0:
            continue
        pivrows = rowids[:k]
        pivcols = np.asarray(local_pivots)
        u = m[pivrows][:, pivcols]
        np_rows = matmul_mod(_invert_modp(u, p), m[pivrows], p).astype(np.int64)
        keep = np.ones(nrows, dtype=bool)
        keep[pivrows] = False
        coeffs = m[keep][:, pivcols]
        m[keep] = (m[keep] - matmul_mod(coeffs, np_rows, p).astype(np.int64)) % p
        # reassemble: finished rows stay on top, new pivot rows follow,
        # untouched rows keep their relative order underneath
        rest = np.nonzero(keep)[0]
        rest_top = rest[rest < rank]
        rest_bottom = rest[rest >= rank]
        m = np.concatenate([m[rest_top], np_rows, m[rest_bottom]])
        pivots.extend(local_pivots)
        rank += k
    return m[:rank].astype(np.uint8), tuple(pivots)


_BLOCKED_THRESHOLD = 200_000


def rref(mat: MatFp) -> MatFp:
    """Canonical reduced row echelon form: unit pivots, zeros above and
    below, zero rows dropped, rows ordered by pivot column."""
    if mat.is_rref:
        return mat
    if mat.p == 2:
        reduced, pivots = _rref_p2(mat.a)
    elif mat.a.size >= _BLOCKED_THRESHOLD:
        reduced, pivots = _rref_modp_blocked(mat.a, mat.p)
    else:
        reduced, pivots = _rref_modp(mat.a, mat.p)
    return MatFp(mat.p, reduced, pivots)


def rank(mat: MatFp) -> int:
    """Rank, eliminating on the narrow side: rank(A) = rank(A^T)."""
    if not mat.is_rref and mat.nrows < mat.ncols:
        mat = MatFp(mat.p, mat.a.T)
    return len(rref(mat).pivots)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p through float64; valid while the inner dimension
    times (p-1)**2 stays below 2**53."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    if a.shape[1] * (p - 1) ** 2 >= 2**53:
        raise ValueError("inner dimension too large for exact float64 product")
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return (np.rint(prod).astype(np.int64) % p).astype(np.uint8)


def reduce_rows(vectors: np.ndarray, basis: MatFp) -> np.ndarray:
    """Residuals of the given row vectors modulo the row space of ``basis``
    (which must be in echelon form).  A zero residual means membership."""
    if not basis.is_rref:
        raise ValueError("basis must be in reduced row echelon form")
    v = np.ascontiguousarray(vectors, dtype=np.uint8)
    if v.ndim != 2 or v.shape[1] != basis.ncols:
        raise ValueError(f"vector width {v.shape} does not match basis width {basis.ncols}")
    if v.shape[0] == 0 or basis.nrows == 0:
        return v.copy()
    if basis.p == 2:
        vp = np.packbits(v, axis=1)
        bp = np.packbits(basis.a, axis=1)
        for i, col in enumerate(basis.pivots):
            byte, bit = divmod(col, 8)
            mask = np.uint8(0x80 >> bit)
            hits = np.nonzero(vp[:, byte] & mask)[0]
            if hits.size:
                vp[hits] ^= bp[i]
        return np.ascontiguousarray(np.unpackbits(vp, axis=1, count=basis.ncols))
    coeffs = v[:, list(basis.pivots)].astype(np.int64)
    combo = matmul_mod(coeffs, basis.a, basis.p)
    return ((v.astype(np.int64) - combo) % basis.p).astype(np.uint8)


def kernel(mat: MatFp) -> MatFp:
    """Canonical basis of the right null space {v : v @ mat.T = 0}, i.e. of
    row vectors v with mat @ v = 0, returned as rows in echelon form."""
    r = rref(mat)
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
    return rref(MatFp(mat.p, out.astype(np.uint8)))


def image(mat: MatFp) -> MatFp:
    """Canonical basis of the row space."""
    return rref(mat)


def contains(space: MatFp, vector: np.ndarray | Sequence[int]) -> bool:
    v = np.asarray(vector, dtype=np.int64).reshape(1, -1) % space.p
    return not reduce_rows(v.astype(np.uint8), rref(space)).any()


def subspace_le(inner: MatFp, outer: MatFp) -> bool:
    """Row space inclusion test."""
    if inner.p != outer.p or inner.ncols != outer.ncols:
        raise ValueError("subspace test on mismatched spaces")
    if inner.nrows == 0:
        return True
    return not reduce_rows(inner.a, rref(outer)).any()


@lru_cache(maxsize=None)
def _mult_colmap(nvars: int, degree: int, mono: Mono) -> np.ndarray:
    """Index map of multiplication by one monomial: position i in degree
    ``degree`` goes to position map[i] in degree ``degree + sum(mono)``."""
    target = monomial_index(nvars, degree + sum(mono))
    src = monomials_of_degree(nvars, degree)
    return np.asarray([target[mono_mul(m, mono)] for m in src], dtype=np.intp)


def mult_map(basis: MatFp, f: Poly, degree: int) -> MatFp:
    """Matrix of multiplication by homogeneous ``f`` applied to each basis
    row of the degree-``degree`` slice; rows land in degree
    ``degree + deg f``.  The zero polynomial gives the zero map."""
    shift = f.homogeneous_degree()
    nvars = f.nvars
    if basis.p != f.p:
        raise ValueError("field mismatch between basis and polynomial")
    if basis.ncols != num_monomials(nvars, degree):
        raise ValueError(f"basis width {basis.ncols} is not the degree-{degree} slice of {nvars} variables")
    wide = num_monomials(nvars, degree + shift)
    acc = np.zeros((basis.nrows, wide), dtype=np.int64)
    for mono, c in f.terms.items():
        colmap = _mult_colmap(nvars, degree, mono)
        acc[:, colmap] += c * basis.a.astype(np.int64)
    return MatFp(f.p, (acc % f.p).astype(np.uint8))


def poly_to_vec(f: Poly, degree: int) -> np.ndarray:
    """Coordinate row of a homogeneous polynomial in its degree slice."""
    if not f.is_zero() and f.homogeneous_degree() != degree:
        raise ValueError(f"polynomial has degree {f.homogeneous_degree()}, expected {degree}")
    idx = monomial_index(f.nvars, degree)
    v = np.zeros(num_monomials(f.nvars, degree), dtype=np.uint8)
    for mono, c in f.terms.items():
        v[idx[mono]] = c
    return v


def vec_to_poly(p: int, nvars: int, degree: int, row: np.ndarray | Sequence[int]) -> Poly:
    monos = monomials_of_degree(nvars, degree)
    data = np.asarray(row, dtype=np.int64) % p
    if data.shape != (len(monos),):
        raise ValueError(f"row length {data.shape} does not match degree-{degree} slice")
    return Poly(p, nvars, {monos[i]: int(c) for i, c in enumerate(data) if c})


class GradedBasis:
    """Echelonized bases for the degree slices 0..D of a graded subspace of
    the polynomial ring."""

    __slots__ = ("p", "nvars", "max_degree", "mats")

    def __init__(self, p: int, nvars: int, mats: Sequence[MatFp]):
        self.p = p
        self.nvars = nvars
        self.max_degree = len(mats) - 1
        checked = []
        for d, m in enumerate(mats):
            if m.p != p or m.ncols != num_monomials(nvars, d):
                raise ValueError(f"degree-{d} slice has wrong shape or field")
            checked.append(m if m.is_rref else rref(m))
        self.mats = tuple(checked)

    @classmethod
    def zero(cls, p: int, nvars: int, max_degree: int) -> GradedBasis:
        return cls(p, nvars, [MatFp(p, np.zeros((0, num_monomials(nvars, d)), dtype=np.uint8), ())
                              for d in range(max_degree + 1)])

    @classmethod
    def full(cls, p: int, nvars: int, max_degree: int) -> GradedBasis:
        return cls(p, nvars, [MatFp.identity(p, num_monomials(nvars, d))
                              for d in range(max_degree + 1)])

    def mat(self, degree: int) -> MatFp:
        if not 0 <= degree <= self.max_degree:
            raise ValueError(f"degree {degree} outside stored range 0..{self.max_degree}")
        return self.mats[degree]

    def dim(self, degree: int) -> int:
        return self.mat(degree).nrows

    def dims(self) -> list[int]:
        return [m.nrows for m in self.mats]

    def row_polys(self, degree: int) -> list[Poly]:
        m = self.mat(degree)
        return [vec_to_poly(self.p, self.nvars, degree, m.a[i]) for i in range(m.nrows)]

    def contains_poly(self, f: Poly) -> bool:
        if f.is_zero():
            return True
        d = f.homogeneous_degree()
        return contains(self.mat(d), poly_to_vec(f, d))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedBasis):
            return NotImplemented
        return (self.p == other.p and self.nvars == other.nvars
                and self.max_degree == other.max_degree and all(a == b for a, b in zip(self.mats, other.mats)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedBasis(p={self.p}, nvars={self.nvars}, dims={self.dims()})"


def graded_le(inner: GradedBasis, outer: GradedBasis) -> bool:
    """Degreewise row-space inclusion over the common stored range."""
    if inner.p != outer.p or inner.nvars != outer.nvars or inner.max_degree != outer.max_degree:
        raise ValueError("graded inclusion test on mismatched gradings")
    return all(subspace_le(inner.mats[d], outer.mats[d]) for d in range(inner.max_degree + 1))


def graded_sum(a: GradedBasis, b: GradedBasis) -> GradedBasis:
    """Degreewise span of the union."""
    if a.p != b.p or a.nvars != b.nvars or a.max_degree != b.max_degree:
        raise ValueError("graded sum of mismatched gradings")
    mats = [rref(MatFp(a.p, np.vstack([a.mats[d].a, b.mats[d].a])))
            for d in range(a.max_degree + 1)]
    return GradedBasis(a.p, a.nvars, mats)

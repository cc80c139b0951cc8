"""Exact linear algebra over prime fields on degreewise coordinate spaces.

Matrices follow the row convention: a row is a vector, and a linear map
sends ``v`` to ``v @ A``.  Coordinates in degree ``d`` are indexed by the
rows of ``exponents``, the one monomial enumeration (descending
lexicographic order).  This is the only layer that branches on the
characteristic.  Mod-2 elimination keeps each row as one Python integer;
odd primes use one classic elimination on int32 (exact for p <= 251:
entries stay below p and each update term is at most (p-1)**2) that
updates only the columns from the pivot on.  A left kernel comes from the
same elimination as the RREF, of the matrix beside an identity block
(``rref_left_kernel``); mod 2 the identity bits are set in the rows'
integers as they are read, so no wider matrix is formed.  One reduction
kernel, ``_subtract``, takes coefficients times basis rows off vectors on
the columns a caller asks for: mod 2 in one gathered XOR, odd p in one
float64 product of the basis rows the vectors need, on those columns where
the rows are nonzero.  ``reduce_rows`` reduces vectors modulo a canonical
basis with it.  ``extend`` adds rows to a canonical basis and eliminates
only their residues off its pivots, merging them in with
``merge_residues`` (mod 2, the canonical rows enter the one elimination
with no XOR).  One product layout serves every p: a multiplication map
scatters the transposed basis through each term's column map, one
contiguous uint8 row per target monomial (``_product_t``).
``reduced_product`` is a product reduced modulo a canonical basis, as
quotient coordinates need it: the product stays transposed, so the
vectors' coefficients and the kept columns are row gathers.  Every
monomial position is a binomial rank of exponent rows
(``monomial_positions``).  A graded subspace (``GradedBasis``) holds one
canonical echelon basis per degree; it takes them as they are, with no
elimination.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .poly import Mono, Poly, num_monomials


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


def _rref_p2(a: np.ndarray, identity: bool = False) -> tuple[np.ndarray, tuple[int, ...]]:
    """GF(2) RREF with each row held as one Python int, column 0 the top
    bit.  With ``identity`` it is the RREF of [a | I_k], k the number of
    rows: row i's int gets its identity bit as it is read, so the wider
    matrix is never formed.  Each input row is reduced by XORing in the
    stored pivot row of its highest pivot bit until no pivot bit is left; a
    nonzero remainder is stored under its leading bit.  The stored rows are
    back-reduced once at the end, lowest pivot first."""
    nrows, ncols = a.shape
    wide = ncols + nrows if identity else ncols
    if nrows == 0 or wide == 0:
        return np.zeros((0, wide), dtype=np.uint8), ()
    have, width = (ncols + 7) // 8, (wide + 7) // 8
    shift = 8 * (width - have)
    unit = 1 << (8 * width - 1 - ncols) if identity else 0  # row 0's identity bit
    data = np.packbits(a, axis=1).tobytes()
    piv: dict[int, int] = {}
    pmask = 0
    for i in range(nrows):
        x = int.from_bytes(data[i * have:i * have + have], "big") << shift | unit >> i
        y = x & pmask
        while y:
            x ^= piv[y.bit_length() - 1]
            y = x & pmask
        if x:
            top = x.bit_length() - 1
            piv[top] = x
            pmask |= 1 << top
    order = sorted(piv)
    for top in order:
        # lower pivot rows are already reduced, so each XOR clears one bit
        x = piv[top]
        y = (x & pmask) ^ (1 << top)
        while y:
            bit = y.bit_length() - 1
            x ^= piv[bit]
            y ^= 1 << bit
        piv[top] = x
    order.reverse()
    packed = np.frombuffer(b"".join([piv[top].to_bytes(width, "big") for top in order]),
                           dtype=np.uint8).reshape(len(order), width)
    out = np.unpackbits(packed, axis=1, count=wide)
    return out, tuple([8 * width - 1 - top for top in order])


def _rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan over F_p for odd p.  The pivot row is zero left of its
    pivot column, so scaling it and clearing the other rows touch only the
    columns from the pivot on."""
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return np.zeros((0, ncols), dtype=np.uint8), ()
    m = a.astype(np.int32) % p
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
            m[rank, col:] = (m[rank, col:] * inv) % p
        hits = np.nonzero(m[:, col])[0]
        hits = hits[hits != rank]
        if hits.size:
            m[hits, col:] = (m[hits, col:] - np.outer(m[hits, col], m[rank, col:])) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank].astype(np.uint8), tuple(pivots)


def rref(mat: MatFp) -> MatFp:
    """Canonical reduced row echelon form: unit pivots, zeros above and
    below, zero rows dropped, rows ordered by pivot column."""
    if mat.is_rref:
        return mat
    if mat.p == 2:
        reduced, pivots = _rref_p2(mat.a)
    else:
        reduced, pivots = _rref_modp(mat.a, mat.p)
    return MatFp(mat.p, reduced, pivots)


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


def _subtract(out: np.ndarray, coeffs: np.ndarray, basis_rows: np.ndarray,
              cols: np.ndarray | slice, p: int) -> None:
    """``out -= coeffs @ basis_rows[:, cols]`` over F_p, in place.  Each
    gather takes the rows first and then the columns.  Mod 2 every vector
    XORs in the rows its coefficients select, in one gathered reduction per
    vector; odd p multiplies only the rows some vector needs, on the columns
    where they are nonzero."""
    if p == 2:
        vec, piv = np.nonzero(coeffs)
        if vec.size:
            first = np.ones(vec.size, dtype=bool)
            first[1:] = vec[1:] != vec[:-1]
            starts = np.flatnonzero(first)
            out[vec[starts]] ^= np.bitwise_xor.reduceat(basis_rows[piv][:, cols], starts, axis=0)
        return
    used = np.flatnonzero(coeffs.any(axis=0))
    rows = basis_rows[used][:, cols]
    hit = np.flatnonzero(rows.any(axis=0))
    out[:, hit] = (out[:, hit].astype(np.int16) - matmul_mod(coeffs[:, used], rows[:, hit], p)) % p


def reduce_rows(vectors: np.ndarray, basis: MatFp, cols: Sequence[int] | None = None) -> np.ndarray:
    """Residues of the given row vectors modulo the row space of ``basis``
    (which must be canonical), on the columns ``cols`` only (default: all).
    A zero residue means membership.  The pivot columns of ``basis`` are
    unit vectors, so a vector's coefficients are its pivot entries and its
    residue is v - v[:, pivots] @ basis (``_subtract``)."""
    if not basis.is_rref:
        raise ValueError("basis must be in reduced row echelon form")
    v = np.ascontiguousarray(vectors, dtype=np.uint8)
    if v.ndim != 2 or v.shape[1] != basis.ncols:
        raise ValueError(f"vector width {v.shape} does not match basis width {basis.ncols}")
    cols = slice(None) if cols is None else np.asarray(cols, dtype=np.intp)
    out = v[:, cols].copy()
    _subtract(out, v[:, list(basis.pivots)], basis.a, cols, basis.p)
    return out


def extend(basis: MatFp, rows: np.ndarray) -> MatFp:
    """Canonical RREF of canonical ``basis`` stacked with ``rows``.

    Mod 2 eliminates the stack once; the canonical rows come first and
    insert with no XOR.  Odd p reduces the rows modulo ``basis`` on the
    columns off its pivots only, eliminates those residues, back-reduces
    the old rows on the columns off both pivot sets and merges the two by
    pivot."""
    if not basis.is_rref:
        raise ValueError("basis must be in reduced row echelon form")
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[1] != basis.ncols:
        raise ValueError(f"row width {rows.shape} does not match basis width {basis.ncols}")
    p = basis.p
    if rows.shape[0] == 0:
        return basis
    if p == 2:
        return rref(MatFp(2, np.vstack([basis.a, rows])))
    off = np.ones(basis.ncols, dtype=bool)
    off[list(basis.pivots)] = False
    free = np.flatnonzero(off)
    return merge_residues(basis, free, rref(MatFp(p, reduce_rows(rows, basis, free))))


def merge_residues(basis: MatFp, free: np.ndarray, r: MatFp) -> MatFp:
    """Canonical RREF of canonical ``basis`` stacked with rows whose
    residues on ``free``, the ascending columns off its pivots, have the
    canonical RREF ``r`` (of width len(free)).  r's rows placed on ``free``
    are zero on the old pivots; the old rows are back-reduced on the free
    columns r leaves, cleared at r's pivots, and the two are merged by
    pivot."""
    if r.nrows == 0:
        return basis
    p = basis.p
    left = np.ones(len(free), dtype=bool)
    left[list(r.pivots)] = False
    new, rest = free[~left], free[left]
    placed = np.zeros((r.nrows, basis.ncols), dtype=np.uint8)
    placed[:, free] = r.a
    old = basis.a.copy()
    old[:, rest] = reduce_rows(old, MatFp(p, placed, tuple(new.tolist())), rest)
    old[:, new] = 0
    pivots = np.concatenate([np.asarray(basis.pivots, dtype=np.intp), new])
    order = np.argsort(pivots)
    return MatFp(p, np.vstack([old, placed])[order], tuple(pivots[order].tolist()))


def rref_left_kernel(mat: MatFp) -> tuple[MatFp, MatFp]:
    """The canonical RREF of ``mat`` and the canonical basis of its left
    kernel {u : u @ mat = 0}, from one elimination of [mat | I_k], k the
    number of rows.  The rows of that RREF with a pivot among the columns
    of ``mat`` are rref(mat), each beside the combination of rows that
    gives it; the others are zero on those columns, so their identity part
    is the canonical left kernel.  Mod 2 the identity bits go straight into
    the rows the elimination holds; odd p eliminates the stacked block."""
    k, n = mat.a.shape
    if mat.p == 2:
        r, pivots = _rref_p2(mat.a, identity=True)
    else:
        r, pivots = _rref_modp(np.hstack([mat.a, np.eye(k, dtype=np.uint8)]), mat.p)
    split = bisect_left(pivots, n)
    return (MatFp(mat.p, r[:split, :n], pivots[:split]),
            MatFp(mat.p, r[split:, n:], tuple(c - n for c in pivots[split:])))


@lru_cache(maxsize=None)
def exponents(nvars: int, degree: int) -> np.ndarray:
    """The degree slice's exponent vectors as rows, in descending
    lexicographic order: the coordinate order of every slice.  Cached, so
    read-only; only the requested slices are kept.

    Built column by column, with no fewer-variable slice: the prefixes
    (e_1..e_j) come in order, each extended by e_(j+1) = what it leaves of
    the degree, down to 0, and column j repeats each e_(j+1) once per
    completion of its prefix, C(left + free, free) for the ``free``
    coordinates between e_(j+1) and the last, which takes what is left."""
    if nvars < 1 or degree < 0:
        raise ValueError(f"bad monomial enumeration request ({nvars=}, {degree=})")
    exps = np.empty((comb(degree + nvars - 1, nvars - 1), nvars), dtype=np.int64)
    left = np.array([degree], dtype=np.int64)  # what each prefix leaves
    for j in range(nvars - 1):
        # each prefix extended by e = left..0, leaving 0..left
        runs = left + 1
        ends = np.cumsum(runs)
        value = np.repeat(left, runs)
        left = np.arange(ends[-1]) - np.repeat(ends - runs, runs)
        value -= left
        free = nvars - j - 2
        if free:
            value = np.repeat(value, np.array([comb(r + free, free) for r in range(degree + 1)])[left])
        exps[:, j] = value
    exps[:, nvars - 1] = left
    exps.setflags(write=False)
    return exps


@lru_cache(maxsize=None)
def _rank_table(nvars: int, degree: int) -> np.ndarray:
    """table[m, s] = C(s - 1 + m, m), the number of monomials of degree
    below s in m variables, for m < nvars and s <= degree."""
    return np.array([[comb(s - 1 + m, m) if s else 0 for s in range(degree + 1)]
                     for m in range(nvars)], dtype=np.int64)


def monomial_positions(exps: np.ndarray) -> np.ndarray:
    """Positions of exponent rows of one common degree in that degree's
    slice, the only place a position is computed.

    In descending lexicographic order, the monomials before one whose
    exponents leave s_i of the degree after position i are, summed over i,
    those agreeing before i with a larger exponent at i: C(s_i - 1 + m, m)
    of them, m = nvars - 1 - i.  Every partial sum is below the slice
    width, so the int64 rank is exact."""
    totals = np.cumsum(exps, axis=1)
    degree = int(totals[0, -1]) if len(totals) else 0
    if (totals[:, -1] != degree).any():
        raise ValueError("exponent rows of differing degrees have no common slice")
    m = np.arange(exps.shape[1] - 1, 0, -1)
    return _rank_table(exps.shape[1], degree)[m, degree - totals[:, :-1]].sum(axis=1, dtype=np.intp)


@lru_cache(maxsize=None)
def _mult_colmap(nvars: int, degree: int, mono: Mono) -> np.ndarray:
    """Index map of multiplication by one monomial: position i in degree
    ``degree`` goes to position map[i] in degree ``degree + sum(mono)``."""
    return monomial_positions(exponents(nvars, degree) + np.asarray(mono, dtype=np.int64))


def _term_maps(basis: MatFp, f: Poly, degree: int) -> tuple[list[tuple[np.ndarray, int]], int]:
    """Each term of f as (column map, coefficient), and the width of the
    target slice, for f times rows of the degree-``degree`` slice."""
    shift = f.homogeneous_degree()
    nvars = f.nvars
    if basis.p != f.p:
        raise ValueError("field mismatch between basis and polynomial")
    if basis.ncols != num_monomials(nvars, degree):
        raise ValueError(f"basis width {basis.ncols} is not the degree-{degree} slice of {nvars} variables")
    maps = [(_mult_colmap(nvars, degree, mono), c) for mono, c in f.terms.items()]
    return maps, num_monomials(nvars, degree + shift)


def _product_t(basis: MatFp, maps: list[tuple[np.ndarray, int]], wide: int) -> np.ndarray:
    """The basis rows times the polynomial whose terms' column maps and
    coefficients are ``maps``, transposed: one row per target monomial of
    the ``wide`` ones, one column per basis row.  Each column map is
    injective, so scattering the transposed basis through it, one
    contiguous row per monomial, adds each term exactly once: mod 2 by XOR,
    odd p in int32 and reduced at once (each sum is below 251 + 250**2)."""
    t = np.ascontiguousarray(basis.a.T)
    out = np.zeros((wide, basis.nrows), dtype=np.uint8)
    for at, c in maps:
        if basis.p == 2:
            out[at] ^= t
        else:
            out[at] = (out[at] + np.multiply(t, c, dtype=np.int32)) % basis.p
    return out


def mult_map(basis: MatFp, f: Poly, degree: int) -> MatFp:
    """Matrix of multiplication by homogeneous ``f`` applied to each basis
    row of the degree-``degree`` slice; rows land in degree
    ``degree + deg f``.  The zero polynomial gives the zero map.

    A monic monomial's column map keeps positions in order, so it takes a
    canonical basis to a canonical matrix whose pivots are the mapped ones;
    that product is flagged canonical, and no other is."""
    maps, wide = _term_maps(basis, f, degree)
    pivots = None
    if basis.is_rref and len(maps) == 1 and maps[0][1] == 1:
        pivots = tuple(maps[0][0][list(basis.pivots)].tolist())
    return MatFp(f.p, _product_t(basis, maps, wide).T, pivots)


def reduced_product(basis: MatFp, f: Poly, degree: int, cols: np.ndarray,
                    modulo: MatFp, keep: np.ndarray) -> np.ndarray:
    """``reduce_rows(mult_map(basis, f, degree).a[:, cols], modulo, keep)``:
    the residues of f times the basis rows, on the ascending columns
    ``cols`` of degree ``degree + deg f``, modulo canonical ``modulo`` (a
    basis on those columns), on its columns ``keep`` only.

    The product stays transposed, as ``_product_t`` scatters it, so its
    columns at the pivots of ``modulo`` (the vectors' coefficients) and at
    ``keep`` are row gathers; only the latter are transposed back before
    ``_subtract`` takes the ``modulo`` rows off them."""
    if not modulo.is_rref or modulo.ncols != len(cols):
        raise ValueError("modulo must be a canonical basis on the requested columns")
    maps, wide = _term_maps(basis, f, degree)
    product = _product_t(basis, maps, wide)
    out = np.ascontiguousarray(product[cols[keep]].T)
    _subtract(out, product[cols[list(modulo.pivots)]].T, modulo.a, keep, basis.p)
    return out


def vec_to_poly(p: int, nvars: int, degree: int, row: np.ndarray | Sequence[int]) -> Poly:
    exps = exponents(nvars, degree)
    data = np.asarray(row, dtype=np.int64) % p
    if data.shape != (len(exps),):
        raise ValueError(f"row length {data.shape} does not match degree-{degree} slice")
    nonzero = np.flatnonzero(data)
    # tolist: exponents and coefficients are Python ints, as in every Poly
    return Poly(p, nvars, dict(zip(map(tuple, exps[nonzero].tolist()), data[nonzero].tolist())))


class GradedBasis:
    """Canonical echelon bases for the degree slices 0..D of a graded
    subspace of the polynomial ring.  A slice that is not canonical is
    refused, not eliminated: a caller that has rows brings their RREF."""

    __slots__ = ("p", "nvars", "max_degree", "mats")

    def __init__(self, p: int, nvars: int, mats: Sequence[MatFp]):
        self.p = p
        self.nvars = nvars
        self.max_degree = len(mats) - 1
        for d, m in enumerate(mats):
            if m.p != p or m.ncols != num_monomials(nvars, d):
                raise ValueError(f"degree-{d} slice has wrong shape or field")
            if not m.is_rref:
                raise ValueError(f"degree-{d} slice is not a canonical echelon basis")
        self.mats = tuple(mats)

    @classmethod
    def zero(cls, p: int, nvars: int, max_degree: int) -> GradedBasis:
        return cls(p, nvars, [MatFp(p, np.zeros((0, num_monomials(nvars, d)), dtype=np.uint8), ())
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedBasis):
            return NotImplemented
        return (self.p == other.p and self.nvars == other.nvars
                and self.max_degree == other.max_degree and all(a == b for a, b in zip(self.mats, other.mats)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedBasis(p={self.p}, nvars={self.nvars}, dims={self.dims()})"

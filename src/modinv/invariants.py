"""Degreewise invariant rings, transfer images, and ideal slices.

Everything is computed one degree at a time, and within a degree one block
multidegree at a time.  The generator keeps each Jordan block's degree, so
the degree-d slice is the direct sum of the pieces S^{d_1}(V_1) x ... x
S^{d_r}(V_r) with d_1 + ... + d_r = d, and on a piece the generator is the
Kronecker product of its matrices on the blocks' symmetric powers (each
assembled recursively from the previous degree).  Invariants are the fixed
vectors of the generator.  The transfer image is the row space of the orbit
sum of its powers, sum over k < p of the Kronecker products of the blocks'
k-th generator powers (each built by the same recursion from the images of
the variables under that power); in characteristic p this is
(sigma - 1)^(p-1), since (x - 1)^(p-1) = sum x^k in F_p[x].

Each piece is built from one piece of the previous degree.  x[1,j] spans
the fixed line of block j, so it is invariant, and the monomials of piece a
divisible by it are x[1,j] times those of piece a - e_j, in the same order:
both echelon forms of piece a - e_j carry up to those positions with no
elimination, and only the x[1,j]-free rows, the slab, are eliminated.  Of
the blocks with a positive degree, j is the one with the smallest slab.
The canonical echelon form of a direct sum on disjoint columns is the union
of the pieces' echelon forms ordered by pivot, so the pieces are merged
without a further elimination.  A monomial's parent is a rank in
``gradedla``, and the pieces' positions come from one index per degree
(``_pieces``): the block multidegrees of the slice's exponent rows, ranked
once and grouped by a stable sort, so no piece is ranked on its own.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gradedla as la
from .gradedla import GradedBasis, MatFp
from .poly import Poly, num_monomials
# is_invariant stays bound by name here: perfbench/selftest.py checks that
# the tracer rebinds it in this module
from .rep import CpRep, invariant_degree, is_invariant, variable_images


@lru_cache(maxsize=None)
def _mono_parents(nvars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-d monomial: the first variable with a positive
    exponent, and the position of the monomial divided by it in degree d-1."""
    if degree < 1:
        raise ValueError("parents exist only from degree 1 up")
    exps = la.exponents(nvars, degree)
    var_of = np.argmax(exps > 0, axis=1)
    return var_of, la.monomial_positions(exps - np.eye(nvars, dtype=np.int64)[var_of])


def _next_degree_matrix(rep: CpRep, degree: int, prev: np.ndarray, power: int) -> np.ndarray:
    """Matrix of the generator's ``power``-th power on the degree-d slice
    (rows act: image of monomial i is row i), built from its degree-(d-1)
    matrix: the image of a monomial is the image of its parent times the
    image of the variable divided out, a linear form."""
    p, n = rep.p, rep.nvars
    width = num_monomials(n, degree)
    var_of, parent = _mono_parents(n, degree)
    out = np.zeros((width, width), dtype=np.uint8)
    for v, image in enumerate(variable_images(rep, power)):
        rows_v = np.nonzero(var_of == v)[0]
        if rows_v.size:
            out[rows_v] = la.mult_map(MatFp(p, prev[parent[rows_v]]), image, degree - 1).a
    return out


@lru_cache(maxsize=None)
def _block_sigma(p: int, size: int, degree: int, power: int) -> np.ndarray:
    """Matrix of the generator's ``power``-th power, 1 <= power < p, on
    S^degree of one Jordan block of ``size``.  ``power`` has no default and
    is always passed positionally, so each matrix has one cache key; power 0,
    the identity, is never asked for.  The cache is unbounded: a slice build
    reads every power of every block at each degree, and a bounded one
    evicts, at large p, the matrices the next piece reads."""
    if degree == 0:
        mat = np.ones((1, 1), dtype=np.uint8)
    else:
        mat = _next_degree_matrix(CpRep.make(p, (size,)), degree,
                                  _block_sigma(p, size, degree - 1, power), power)
    mat.setflags(write=False)  # cached: shared by every caller
    return mat


def _slab_power(p: int, blocks: tuple[int, ...], multidegree: tuple[int, ...],
                peel: tuple[int, int], power: int) -> np.ndarray:
    """The generator's ``power``-th power on one piece at its slab rows, in
    int64: the Kronecker product of its powers on the blocks' symmetric
    powers, with block j's restricted to its rows from ``keep`` on, for
    ``peel`` = (j, keep)."""
    j, keep = peel
    mats = [_block_sigma(p, size, e, power) for size, e in zip(blocks, multidegree)]
    mats[j] = mats[j][keep:]
    out = mats[0].astype(np.int64)
    for mat in mats[1:]:
        # the Kronecker product, without np.kron's general-case overhead
        out = (out[:, None, :, None] * mat[None, :, None, :]).reshape(
            out.shape[0] * mat.shape[0], out.shape[1] * mat.shape[1]) % p
    return out


def _slab_transfer(p: int, blocks: tuple[int, ...], multidegree: tuple[int, ...],
                   peel: tuple[int, int], slab: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """The transfer on one piece at its slab rows: the sum of the
    generator's powers 0..p-1 there, given its first power ``sig``; power 0
    is the identity, whose slab rows are unit vectors at ``slab``."""
    total = sig.copy()
    total[np.arange(slab.size), slab] += 1
    for k in range(2, p):
        total += _slab_power(p, blocks, multidegree, peel, k)
    return total % p


def _peel(blocks: tuple[int, ...], multidegree: tuple[int, ...]) -> tuple[int, int]:
    """The block j a piece is built along and the count ``keep`` of its
    degree-a_j monomials divisible by x[1,j]: of the blocks with a_j >= 1,
    the first whose x[1,j]-free share C(n_j + a_j - 2, a_j) / C(n_j + a_j - 1,
    a_j) = (n_j - 1) / (n_j + a_j - 1) is smallest, so the slab is smallest.
    The degree-0 piece has no such block and keeps nothing."""
    grown = [i for i, e in enumerate(multidegree) if e]
    if not grown:
        return 0, 0
    # equal shares are equal floats and distinct ones of such small terms differ
    j = min(grown, key=lambda i: (blocks[i] - 1) / (blocks[i] + multidegree[i] - 1))
    return j, num_monomials(blocks[j], multidegree[j] - 1)


def _pieces(blocks: tuple[int, ...], degree: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The pieces of the degree slice: each block multidegree, in
    ``la.exponents`` order, with the ascending positions of its monomials.
    A monomial's block multidegree sums its exponent row block by block;
    ranking those sums and sorting the positions stably by rank groups them
    by piece in slice order.  That is the piece's Kronecker order (first
    block outermost): descending lex order compares block 1's exponents
    first, and each block's total is fixed inside a piece."""
    multidegrees = la.exponents(len(blocks), degree)
    starts = np.cumsum((0,) + blocks[:-1])
    rank = la.monomial_positions(np.add.reduceat(la.exponents(sum(blocks), degree), starts, axis=1))
    bounds = np.cumsum(np.bincount(rank, minlength=len(multidegrees)))[:-1]
    return list(zip(map(tuple, multidegrees.tolist()), np.split(np.argsort(rank, kind="stable"), bounds)))


def _merge_pieces(p: int, width: int, pieces: list[tuple[np.ndarray, MatFp]]) -> MatFp:
    """Scatter canonical echelon bases on disjoint increasing column sets
    of a space ``width`` wide into one canonical echelon basis; one basis
    placed on increasing columns stays canonical.  Each piece goes straight
    to the rows its pivots take in the merged order."""
    pivots = np.concatenate([cols[list(m.pivots)] for cols, m in pieces])
    order = np.argsort(pivots)
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    out = np.zeros((pivots.size, width), dtype=np.uint8)
    start = 0
    for cols, m in pieces:
        rows = at[start:start + m.nrows]
        start += m.nrows
        if m.nrows and rows[-1] - rows[0] == m.nrows - 1:
            out[rows[0]:rows[-1] + 1, cols] = m.a  # a run of rows, as one piece alone takes
        else:
            out[rows[:, None], cols] = m.a
    return MatFp(p, out, tuple(pivots[order].tolist()))


@lru_cache(maxsize=16)
def _slices(rep: CpRep, max_degree: int) -> tuple[GradedBasis, GradedBasis]:
    """One sweep computing invariant and transfer-image bases per degree,
    piece by piece over the block multidegrees, each piece from one piece
    of the previous degree.

    A piece keeps G, the canonical RREF of [sigma - 1 | I] (N x 2N, full
    rank), whose rows with a pivot at N or beyond are zero on the left and
    hold the canonical invariant basis on the right, and T, the canonical
    transfer basis.  x[1,j] is invariant, so on the monomials of piece a
    divisible by it, x[1,j] times piece a - e_j's in the same order, both
    are piece a - e_j's placed there: multiplying by a monomial keeps the
    order of positions.  Only the slab, the x[1,j]-free rows, is eliminated
    (``gradedla.extend``), with j from ``_peel``.  The pieces and their
    positions in the slice come from ``_pieces``; a piece's carried rows
    are those whose monomial x[1,j] divides.  The transfer rows at new
    pivots are proved inside the piece's invariants; with the carried rows,
    proved one degree down, they span the piece.  RuntimeError names a
    piece that fails.  Both bases are merged onto the same columns, so the
    slices' inclusion holds with no full-width check."""
    p, n, blocks = rep.p, rep.nvars, rep.blocks
    inv_mats, tra_mats = [], []
    prev: dict[tuple[int, ...], tuple[MatFp, MatFp]] = {}
    for d in range(max_degree + 1):
        inv_pieces, tra_pieces, cur = [], [], {}
        exps = la.exponents(n, d)
        for multidegree, cols in _pieces(blocks, d):
            width = cols.size
            peel = j, keep = _peel(blocks, multidegree)
            # a monomial is carried when x[1,j] divides it
            divisible = exps[cols, sum(blocks[:j])] > 0
            carried, slab = np.flatnonzero(divisible), np.flatnonzero(~divisible)
            if keep:
                below = list(multidegree)
                below[j] -= 1
                g, t = prev[tuple(below)]
            else:
                g = t = MatFp(p, np.zeros((0, 0), dtype=np.uint8), ())
            g = _merge_pieces(p, 2 * width, [(np.concatenate([carried, width + carried]), g)])
            t = _merge_pieces(p, width, [(carried, t)])
            sig = _slab_power(p, blocks, multidegree, peel, 1)
            step = np.zeros((slab.size, 2 * width), dtype=np.int64)
            step[:, :width] = sig
            step[np.arange(slab.size), slab] -= 1
            step[np.arange(slab.size), width + slab] = 1
            g = la.extend(g, step % p)
            top = bisect_left(g.pivots, width)
            inv_piece = MatFp(p, g.a[top:, width:], tuple(c - width for c in g.pivots[top:]))
            carried_pivots = set(t.pivots)
            t = la.extend(t, _slab_transfer(p, blocks, multidegree, peel, slab, sig))
            # the rows at new pivots and the carried rows span the piece
            fresh = [i for i, c in enumerate(t.pivots) if c not in carried_pivots]
            if la.reduce_rows(t.a[fresh], inv_piece).any():
                raise RuntimeError(f"the degree-{d} transfer piece of block multidegree "
                                   f"{multidegree} is not inside the invariants")
            cur[multidegree] = g, t
            inv_pieces.append((cols, inv_piece))
            tra_pieces.append((cols, t))
        prev = cur
        width = num_monomials(n, d)
        inv_mats.append(_merge_pieces(p, width, inv_pieces))
        tra_mats.append(_merge_pieces(p, width, tra_pieces))
    return GradedBasis(p, n, inv_mats), GradedBasis(p, n, tra_mats)


def invariant_slice(rep: CpRep, max_degree: int) -> GradedBasis:
    """Echelon bases of the invariant ring in degrees 0..max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    return _slices(rep, max_degree)[0]


def transfer_slice(rep: CpRep, max_degree: int) -> GradedBasis:
    """Echelon bases of the transfer image in degrees 0..max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    return _slices(rep, max_degree)[1]


def ideal_slice(rep: CpRep, max_degree: int, gens: Sequence[Poly]) -> GradedBasis:
    """Degree slices of the ideal the given invariants generate inside the
    invariant ring: each slice is spanned by generator times invariant
    basis elements of the complementary degree."""
    inv = invariant_slice(rep, max_degree)
    checked = [(g, invariant_degree(rep, g)) for g in gens]
    p, n = rep.p, rep.nvars
    mats = []
    for d in range(max_degree + 1):
        pieces = []
        for g, e in checked:
            if not g.is_zero() and e <= d and inv.dim(d - e):
                pieces.append(la.mult_map(inv.mat(d - e), g, d - e).a)
        if pieces:
            mats.append(la.rref(MatFp(p, np.vstack(pieces))))
        else:
            mats.append(MatFp(p, np.zeros((0, num_monomials(n, d)), dtype=np.uint8), ()))
    return GradedBasis(p, n, mats)


def finite_difference(values: Sequence[int], step: int, order: int) -> list[int]:
    """Iterated difference a(d) - a(d - step); entries below index
    step*order are dropped."""
    seq = [int(v) for v in values]
    for _ in range(order):
        seq = [seq[i] - seq[i - step] for i in range(step, len(seq))]
    return seq


def dimension_growth_check(dims: Sequence[int], order: int, step: int) -> tuple[bool, list[int]]:
    """Evidence that the dimension sequence is eventually a quasi-polynomial
    of degree < order with period ``step``: the order-fold step-difference,
    which exists from degree step*order on, must vanish.  Returns (ok,
    offending degrees)."""
    diffs = finite_difference(dims, step, order)
    bad = [d for d, v in enumerate(diffs, start=step * order) if v != 0]
    return not bad, bad

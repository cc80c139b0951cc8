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
(sigma - 1)^(p-1), since (x - 1)^(p-1) = sum x^k in F_p[x].  The canonical
echelon form of a direct sum on disjoint columns is the union of the pieces'
echelon forms ordered by pivot, so the pieces are eliminated separately and
merged without a further elimination.  Monomial positions (a piece's
columns, a monomial's parent) are ranks in ``gradedla``, with no loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gradedla as la
from .gradedla import GradedBasis, MatFp
from .poly import Poly, num_monomials, var_mono
from .rep import CpRep, _generator_power_images, is_invariant


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
    p, n = rep.p.value, rep.nvars
    width = num_monomials(n, degree)
    var_of, parent = _mono_parents(n, degree)
    out = np.zeros((width, width), dtype=np.uint8)
    for v, terms in enumerate(_generator_power_images(rep, power)):
        rows_v = np.nonzero(var_of == v)[0]
        if rows_v.size:
            image = Poly(p, n, {var_mono(n, target): c for target, c in terms})
            out[rows_v] = la.mult_map(MatFp(p, prev[parent[rows_v]]), image, degree - 1).a
    return out


@lru_cache(maxsize=1024)
def _block_sigma(p: int, size: int, degree: int, power: int) -> np.ndarray:
    """Matrix of the generator's ``power``-th power, 1 <= power < p, on
    S^degree of one Jordan block of ``size``.  ``power`` has no default and
    is always passed positionally, so each matrix has one cache key; power 0,
    the identity, is never asked for."""
    if degree == 0:
        mat = np.ones((1, 1), dtype=np.uint8)
    else:
        mat = _next_degree_matrix(CpRep.make(p, (size,)), degree,
                                  _block_sigma(p, size, degree - 1, power), power)
    mat.setflags(write=False)  # cached: shared by every caller
    return mat


def _piece_power(p: int, blocks: tuple[int, ...], multidegree: tuple[int, ...], power: int) -> np.ndarray:
    """The generator's ``power``-th power on one piece, in int64: the
    Kronecker product of its powers on the blocks' symmetric powers."""
    mats = [_block_sigma(p, size, e, power) for size, e in zip(blocks, multidegree)]
    out = mats[0].astype(np.int64)
    for mat in mats[1:]:
        out = np.kron(out, mat) % p
    return out


def _orbit_sum(p: int, blocks: tuple[int, ...], multidegree: tuple[int, ...],
               sig: np.ndarray) -> np.ndarray:
    """The transfer on one piece: the sum of the generator's powers 0..p-1
    there, given its first power ``sig``; power 0 is the identity."""
    total = np.eye(sig.shape[0], dtype=np.int64) + sig
    for k in range(2, p):
        total += _piece_power(p, blocks, multidegree, k)
    return total % p


def _piece_columns(blocks: tuple[int, ...], multidegree: tuple[int, ...]) -> np.ndarray:
    """Positions in the degree slice of the piece's monomials, listed in
    Kronecker order (first block outermost).  Each block lists its
    monomials in descending lex order, so the positions increase."""
    parts = [la.exponents(n, e) for n, e in zip(blocks, multidegree)]
    # row-major indices over the blocks' slices run in Kronecker order
    grid = np.indices([len(exps) for exps in parts]).reshape(len(parts), -1)
    return la.monomial_positions(np.hstack([exps[i] for exps, i in zip(parts, grid)]))


def _merge_pieces(p: int, width: int, pieces: list[tuple[np.ndarray, MatFp]]) -> MatFp:
    """Scatter echelon bases of pieces on disjoint increasing column sets
    into one canonical echelon basis of the degree slice."""
    pivots = np.concatenate([cols[list(m.pivots)] for cols, m in pieces])
    slot = np.empty(pivots.size, dtype=np.intp)
    slot[np.argsort(pivots)] = np.arange(pivots.size)
    out = np.zeros((pivots.size, width), dtype=np.uint8)
    start = 0
    for cols, m in pieces:
        out[np.ix_(slot[start:start + m.nrows], cols)] = m.a
        start += m.nrows
    return MatFp(p, out, tuple(int(c) for c in np.sort(pivots)))


@lru_cache(maxsize=16)
def _slices(rep: CpRep, max_degree: int) -> tuple[GradedBasis, GradedBasis]:
    """One sweep computing invariant and transfer-image bases per degree,
    piece by piece over the block multidegrees.  Each transfer piece is
    proved inside its invariant piece, and RuntimeError names one that is
    not; both are merged onto the same columns, so the slices' inclusion
    holds with no full-width check."""
    p, n, blocks = rep.p.value, rep.nvars, rep.blocks
    inv_mats, tra_mats = [], []
    for d in range(max_degree + 1):
        inv_pieces, tra_pieces = [], []
        # a block multidegree splits d into one part per block
        for multidegree in map(tuple, la.exponents(len(blocks), d).tolist()):
            sig = _piece_power(p, blocks, multidegree, 1)
            step = (sig - np.eye(sig.shape[0], dtype=np.int64)) % p
            cols = _piece_columns(blocks, multidegree)
            inv_piece = la.kernel(MatFp(p, step.T))
            tra_piece = la.rref(MatFp(p, _orbit_sum(p, blocks, multidegree, sig)))
            if not la.subspace_le(tra_piece, inv_piece):
                raise RuntimeError(f"the degree-{d} transfer piece of block multidegree "
                                   f"{multidegree} is not inside the invariants")
            inv_pieces.append((cols, inv_piece))
            tra_pieces.append((cols, tra_piece))
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
    checked = []
    for g in gens:
        rep.check_poly(g)
        if not g.is_homogeneous():
            raise ValueError("ideal generators must be homogeneous")
        if not is_invariant(rep, g):
            raise ValueError("ideal generators must be invariant")
        if not g.is_zero():
            checked.append(g)
    p, n = rep.p.value, rep.nvars
    mats = []
    for d in range(max_degree + 1):
        pieces = []
        for g in checked:
            e = g.homogeneous_degree()
            if e <= d and inv.dim(d - e):
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


def dimension_growth_check(dims: Sequence[int], order: int, step: int, window_start: int) -> tuple[bool, list[int]]:
    """Evidence that the dimension sequence is eventually a quasi-polynomial
    of degree < order with period ``step``: the order-fold step-difference
    must vanish from ``window_start`` on.  Returns (ok, offending degrees)."""
    diffs = finite_difference(dims, step, order)
    offset = step * order
    bad = [i + offset for i, v in enumerate(diffs) if v != 0 and i + offset >= window_start]
    return not bad, bad

import random
from itertools import product

import numpy as np
import pytest

from modinv import gradedla as la
from modinv.gradedla import GradedBasis, MatFp
from modinv import invariants
from modinv.invariants import (_block_sigma, _merge_pieces, _mono_parents, _peel, _pieces,
                               _slab_power, _slab_transfer, dimension_growth_check,
                               finite_difference, ideal_slice, invariant_slice, transfer_slice)
from modinv.poly import Poly, num_monomials
from modinv.rep import CpRep, is_invariant, sigma, top_norms, variable_images

from oracle import graded_le, kernel, monomial_index, monomials_of_degree, poly_to_vec, transfer


def oracle_invariant_dim(rep: CpRep, degree: int) -> int:
    """dim ker(sigma - id) on the degree slice, built by applying the group
    generator to every monomial directly (no recursive degree matrices)."""
    p, n = rep.p, rep.nvars
    monos = monomials_of_degree(n, degree)
    rows = []
    for m in monos:
        f = sigma(rep, Poly(p, n, {m: 1})) - Poly(p, n, {m: 1})
        rows.append(poly_to_vec(f, degree) if not f.is_zero()
                    else np.zeros(len(monos), dtype=np.uint8))
    mat = np.array(rows, dtype=np.uint8)
    return len(monos) - len(la.rref(MatFp(p, mat)).pivots)


def oracle_transfer_dim(rep: CpRep, degree: int) -> int:
    """Rank of the transfer image on the degree slice, monomial by monomial."""
    p, n = rep.p, rep.nvars
    monos = monomials_of_degree(n, degree)
    rows = []
    for m in monos:
        f = transfer(rep, Poly(p, n, {m: 1}))
        rows.append(poly_to_vec(f, degree) if not f.is_zero()
                    else np.zeros(len(monos), dtype=np.uint8))
    return len(la.rref(MatFp(p, np.array(rows, dtype=np.uint8))).pivots)


def dense_power_matrix(rep: CpRep, k: int, degree: int, prev: np.ndarray) -> np.ndarray:
    """Matrix of the k-th generator power on the whole degree-d slice (rows
    act), built from the degree-(d-1) matrix, width x width and dense."""
    p, n = rep.p, rep.nvars
    width = num_monomials(n, degree)
    var_of, parent = _mono_parents(n, degree)
    images = variable_images(rep, k)
    acc = np.zeros((width, width), dtype=np.int64)
    prev64 = prev.astype(np.int64)
    for v in range(n):
        rows_v = np.nonzero(var_of == v)[0]
        if rows_v.size == 0:
            continue
        block = prev64[parent[rows_v]]
        for mono, coeff in images[v].terms.items():
            colmap = la._mult_colmap(n, degree - 1, mono)
            acc[np.ix_(rows_v, colmap)] += coeff * block
    return (acc % p).astype(np.uint8)


def dict_mono_parents(nvars: int, degree: int) -> tuple[list[int], list[int]]:
    """First positive variable and parent position of each monomial, by
    walking the monomials and looking the parent up in a dictionary."""
    below = monomial_index(nvars, degree - 1)
    var_of, parent = [], []
    for m in monomials_of_degree(nvars, degree):
        v = next(idx for idx, e in enumerate(m) if e)
        reduced = list(m)
        reduced[v] -= 1
        var_of.append(v)
        parent.append(below[tuple(reduced)])
    return var_of, parent


def dict_piece_columns(blocks: tuple[int, ...], multidegree: tuple[int, ...]) -> list[int]:
    """Piece positions by joining the blocks' monomials in Kronecker order
    and looking each one up in a dictionary."""
    index = monomial_index(sum(blocks), sum(multidegree))
    parts = [monomials_of_degree(n, d) for n, d in zip(blocks, multidegree)]
    return [index[sum(combo, ())] for combo in product(*parts)]


@pytest.mark.parametrize("blocks", [(1, 2), (5,), (2, 2, 2, 2), (3, 4), (2, 3, 2)])
def test_positions_match_dictionary_references(blocks):
    n = sum(blocks)
    with pytest.raises(ValueError):
        _mono_parents(n, 0)
    for degree in range(1, 9):
        var_of, parent = _mono_parents(n, degree)
        assert (var_of.tolist(), parent.tolist()) == dict_mono_parents(n, degree), degree
    for degree in range(9):
        pieces = _pieces(blocks, degree)
        assert tuple(m for m, _ in pieces) == monomials_of_degree(len(blocks), degree)
        for multidegree, got in pieces:
            assert got.dtype == np.intp
            assert got.tolist() == dict_piece_columns(blocks, multidegree), multidegree
        # the pieces partition the slice
        every = np.sort(np.concatenate([cols for _, cols in pieces]))
        assert np.array_equal(every, np.arange(num_monomials(n, degree))), degree


@pytest.mark.parametrize("p", [2, 3, 5])
def test_merge_pieces_is_the_rref_of_the_placed_stack(p):
    # canonical bases placed on disjoint increasing column sets, some
    # columns in no part: one part (a carry), several, and an empty part
    rng = np.random.default_rng(70 + p)
    width = 30
    for nparts in (1, 2, 4):
        for trial in range(8):
            owner = rng.integers(0, nparts + 1, width)
            pieces = []
            for k in range(nparts):
                cols = np.flatnonzero(owner == k)
                nrows = 0 if (k, trial) in ((1, 0), (0, 1)) else int(rng.integers(1, cols.size + 2))
                pieces.append((cols, la.rref(MatFp(p, rng.integers(0, p, (nrows, cols.size)).astype(np.uint8)))))
            placed = np.zeros((sum(m.nrows for _, m in pieces), width), dtype=np.uint8)
            start = 0
            for cols, m in pieces:
                placed[start:start + m.nrows, cols] = m.a
                start += m.nrows
            got = _merge_pieces(p, width, pieces)
            want = la.rref(MatFp(p, placed))
            assert got.pivots == want.pivots, (nparts, trial)
            assert got.a.shape == want.a.shape and got.a.tobytes() == want.a.tobytes(), (nparts, trial)


def dense_slices(rep: CpRep, max_degree: int) -> tuple[GradedBasis, GradedBasis]:
    """Reference slices on the full degree slice: invariants are the kernel
    of sigma^T - 1, the transfer image is the row space of the sum of all
    p - 1 nontrivial generator powers plus the identity."""
    p, n = rep.p, rep.nvars
    inv_mats = [MatFp(p, np.ones((1, 1), dtype=np.uint8), (0,))]
    tra_mats = [MatFp(p, np.zeros((0, 1), dtype=np.uint8), ())]
    prev = {k: np.ones((1, 1), dtype=np.uint8) for k in range(1, p)}
    for d in range(1, max_degree + 1):
        cur = {k: dense_power_matrix(rep, k, d, prev[k]) for k in range(1, p)}
        width = num_monomials(n, d)
        fixed = (cur[1].astype(np.int64).T - np.eye(width, dtype=np.int64)) % p
        inv_mats.append(kernel(MatFp(p, fixed.astype(np.uint8))))
        total = np.eye(width, dtype=np.int64)
        for k in range(1, p):
            total += cur[k]
        tra_mats.append(la.rref(MatFp(p, (total % p).astype(np.uint8))))
        prev = cur
    return GradedBasis(p, n, inv_mats), GradedBasis(p, n, tra_mats)


def in_span(basis: GradedBasis, f: Poly) -> bool:
    """Membership oracle: a homogeneous polynomial lies in the span exactly
    when its coordinate row reduces to zero modulo its degree's basis."""
    if f.is_zero():
        return True
    d = f.homogeneous_degree()
    return not la.reduce_rows(poly_to_vec(f, d).reshape(1, -1), basis.mat(d)).any()


def series_coefficients(denominator_degrees: list[int], bound: int) -> list[int]:
    """Taylor coefficients of 1 / prod(1 - t^d) by iterated convolution."""
    coeffs = [1] + [0] * bound
    for d in denominator_degrees:
        # multiply by 1/(1 - t^d): running sums with stride d
        for i in range(d, bound + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


@pytest.mark.parametrize("p,blocks,bound", [(2, (2, 2), 6), (3, (3,), 6), (3, (2, 2), 5)])
def test_invariant_dims_match_direct_kernel(p, blocks, bound):
    rep = CpRep.make(p, blocks)
    inv = invariant_slice(rep, bound)
    for d in range(bound + 1):
        assert inv.dim(d) == oracle_invariant_dim(rep, d)


@pytest.mark.parametrize("p,blocks,bound", [(2, (2, 2), 6), (3, (3,), 6)])
def test_transfer_dims_match_direct_image(p, blocks, bound):
    rep = CpRep.make(p, blocks)
    tra = transfer_slice(rep, bound)
    for d in range(bound + 1):
        assert tra.dim(d) == oracle_transfer_dim(rep, d)


@pytest.mark.parametrize("p,blocks,bound", [
    (2, (2, 2, 2), 8), (3, (2, 3), 9), (3, (2, 3, 2), 6), (5, (2, 2), 10),
    (5, (3, 4), 6), (3, (3,), 9), (3, (1, 2), 8), (2, (1, 1, 2), 7),
    (7, (3, 4), 6), (5, (1, 3, 2), 6),
])
def test_slices_match_dense_construction_bytes(p, blocks, bound):
    rep = CpRep.make(p, blocks)
    want_inv, want_tra = dense_slices(rep, bound)
    got_inv = invariant_slice(rep, bound)
    got_tra = transfer_slice(rep, bound)
    for got, want in ((got_inv, want_inv), (got_tra, want_tra)):
        for d in range(bound + 1):
            assert got.mat(d).pivots == want.mat(d).pivots
            assert got.mat(d).a.shape == want.mat(d).a.shape
            assert got.mat(d).a.tobytes() == want.mat(d).a.tobytes()


def chain_transfer_piece(p, blocks, multidegree):
    """The transfer on a piece as (sigma - 1)^(p-1), a chain of p - 2 dense
    products, as the slices were built before the orbit sum."""
    sig = np.ones((1, 1), dtype=np.int64)
    for size, e in zip(blocks, multidegree):
        sig = np.kron(sig, _block_sigma(p, size, e, 1)) % p
    step = (sig - np.eye(sig.shape[0], dtype=np.int64)) % p
    total = step
    for _ in range(p - 2):
        total = la.matmul_mod(total, step, p)
    return total.astype(np.int64) % p


# block sizes run up to min(p, 4)
ORBIT_CASES = [(2, (2, 1, 2), 5), (3, (2, 3), 6), (5, (4,), 7), (5, (3, 4), 4),
               (7, (2, 4), 4), (7, (4,), 6)]


def slab_positions(blocks, multidegree):
    """The peeled block j, ``keep``, and the piece positions whose block-j
    monomial is x[1,j]-free, by walking the piece's monomials in Kronecker
    order."""
    j, keep = _peel(blocks, multidegree)
    parts = [monomials_of_degree(n, e) for n, e in zip(blocks, multidegree)]
    slab = [i for i, combo in enumerate(product(*parts)) if not multidegree[j] or combo[j][0] == 0]
    return (j, keep), np.array(slab, dtype=np.intp)


@pytest.mark.parametrize("p, blocks, bound", ORBIT_CASES)
def test_orbit_sum_equals_the_sigma_minus_one_chain(p, blocks, bound):
    rep = CpRep.make(p, blocks)
    tra = transfer_slice(rep, bound)
    for d in range(bound + 1):
        pieces = []
        for multidegree, cols in _pieces(blocks, d):
            want = chain_transfer_piece(p, blocks, multidegree)
            peel, slab = slab_positions(blocks, multidegree)
            got = _slab_transfer(p, blocks, multidegree, peel, slab,
                                 _slab_power(p, blocks, multidegree, peel, 1))
            assert got.shape == want[slab].shape and np.array_equal(got, want[slab]), (d, multidegree)
            pieces.append((cols, la.rref(MatFp(p, want))))
        want_slice = _merge_pieces(p, num_monomials(rep.nvars, d), pieces)
        assert tra.mat(d).pivots == want_slice.pivots, d
        assert tra.mat(d).a.tobytes() == want_slice.a.tobytes(), d


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_sigma_powers_are_matrix_powers(p):
    for size in range(1, min(p, 4) + 1):
        for degree in range(5):
            one = _block_sigma(p, size, degree, 1).astype(np.int64)
            power = np.eye(one.shape[0], dtype=np.int64)
            keep = _peel((size,), (degree,))[1]
            for k in range(1, p):
                power = la.matmul_mod(power, one, p).astype(np.int64)
                got = _block_sigma(p, size, degree, k)
                assert got.dtype == np.uint8 and not got.flags.writeable
                assert np.array_equal(got, power), (size, degree, k)
                # on a piece of one block, the slab power is the block power
                # from row keep on
                assert np.array_equal(_slab_power(p, (size,), (degree,), (0, 0), k), power)
                assert np.array_equal(_slab_power(p, (size,), (degree,), (0, keep), k), power[keep:])
        # sigma^p is the identity, so the powers below p are all distinct ones
        assert np.array_equal(la.matmul_mod(power, one, p), np.eye(one.shape[0]))


def test_peel_takes_the_smallest_slab():
    # x[1,j]-free shares: (n - 1) / (n + a - 1), a block of size 1 has none
    assert _peel((2, 3), (0, 0)) == (0, 0)
    assert _peel((2, 3), (1, 0)) == (0, 1)
    assert _peel((2, 3), (1, 1)) == (0, 1)      # 1/2 against 2/3
    assert _peel((2, 3), (1, 4)) == (1, 10)     # 1/2 against 2/6
    assert _peel((3, 3), (2, 2)) == (0, 3)      # a tie goes to the first block
    assert _peel((3, 1, 2), (2, 1, 1)) == (1, 1)
    for blocks, multidegree in [((2, 3), (3, 2)), ((3, 4), (2, 5)), ((1, 3, 2), (2, 3, 1))]:
        _, slab = slab_positions(blocks, multidegree)
        sizes = [num_monomials(n, e) for n, e in zip(blocks, multidegree)]
        free = [int(np.prod(sizes)) * num_monomials(n - 1, e) // num_monomials(n, e) if n > 1 else 0
                for n, e in zip(blocks, multidegree) if e]
        assert slab.size == min(free)


@pytest.mark.parametrize("p, blocks, bound", [(3, (2, 3), 8), (5, (3, 4), 6)])
def test_slices_eliminate_only_each_slab(monkeypatch, p, blocks, bound):
    """Every elimination while a piece is built has at most as many rows as
    that piece's slab, and no null space is taken."""
    calls = []
    slab_rows = [None]
    real_power, real_rref, real_left = invariants._slab_power, la.rref, la.rref_left_kernel

    def power(p, blocks, multidegree, peel, k):
        out = real_power(p, blocks, multidegree, peel, k)
        if k == 1:
            slab_rows[0] = out.shape[0]
        return out

    def rref(mat):
        calls.append(("rref", mat.nrows, slab_rows[0]))
        return real_rref(mat)

    def left_kernel(mat):
        calls.append(("left kernel", mat.nrows, slab_rows[0]))
        return real_left(mat)

    monkeypatch.setattr(invariants, "_slab_power", power)
    monkeypatch.setattr(la, "rref", rref)
    monkeypatch.setattr(la, "rref_left_kernel", left_kernel)
    invariants._slices.cache_clear()
    try:
        invariants._slices(CpRep.make(p, blocks), bound)
    finally:
        invariants._slices.cache_clear()
    assert calls and all(name == "rref" for name, _, _ in calls)
    # every elimination runs while a piece is built, on at most its slab's rows
    assert all(slab is not None and rows <= slab for _, rows, slab in calls)


def test_invariant_slice_contains_known_invariants():
    rng = random.Random(51)
    rep = CpRep.make(3, (2, 3))
    bound = 8
    inv = invariant_slice(rep, bound)
    assert in_span(inv, rep.variable(1, 1))
    assert in_span(inv, rep.variable(1, 2))
    for f in top_norms(rep):
        assert in_span(inv, f)
    for _ in range(10):
        mono = [0] * rep.nvars
        for _ in range(rng.randrange(1, 5)):
            mono[rng.randrange(rep.nvars)] += 1
        tr = transfer(rep, Poly(3, rep.nvars, {tuple(mono): 1}))
        if not tr.is_zero() and tr.homogeneous_degree() <= bound:
            assert in_span(inv, tr)
    # every basis row is genuinely invariant
    for d in range(bound + 1):
        for f in inv.row_polys(d):
            assert is_invariant(rep, f)


def test_transfer_slice_inside_invariants():
    for p, blocks in [(2, (2,)), (2, (2, 2)), (3, (3,))]:
        rep = CpRep.make(p, blocks)
        inv = invariant_slice(rep, 8)
        tra = transfer_slice(rep, 8)
        assert graded_le(tra, inv)


def test_degree_zero_slices():
    rep = CpRep.make(2, (2,))
    inv = invariant_slice(rep, 4)
    tra = transfer_slice(rep, 4)
    assert inv.dim(0) == 1
    # the transfer of a constant is p * c = 0, so degree zero is empty
    assert tra.dim(0) == 0


def test_v2_dims_match_rational_series():
    # invariants of the regular 2-dimensional block: free on degrees 1 and 2
    rep = CpRep.make(2, (2,))
    bound = 12
    inv = invariant_slice(rep, bound)
    assert inv.dims() == series_coefficients([1, 2], bound)


def test_transfer_ideal_of_v2_is_principal():
    rep = CpRep.make(2, (2,))
    bound = 12
    inv = invariant_slice(rep, bound)
    tra = transfer_slice(rep, bound)
    principal = ideal_slice(rep, bound, [rep.variable(1, 1)])
    assert tra == principal
    assert graded_le(tra, inv)
    assert [a - b for a, b in zip(inv.dims(), tra.dims())] == [1, 0] * 6 + [1]


def test_ideal_slice_validation_and_monotonicity():
    rep = CpRep.make(2, (2, 2))
    inv = invariant_slice(rep, 6)
    with pytest.raises(ValueError, match=r"^x\[2,1\] must be invariant$"):
        ideal_slice(rep, 6, [rep.variable(2, 1)])
    x11 = rep.variable(1, 1)
    with pytest.raises(ValueError, match="must be homogeneous"):
        ideal_slice(rep, 6, [x11 + x11 * x11])
    ideal = ideal_slice(rep, 6, [x11])
    assert ideal.max_degree == 6
    assert graded_le(ideal, inv)
    bigger = ideal_slice(rep, 6, [x11, rep.variable(1, 2)])
    assert graded_le(ideal, bigger)
    # the zero generator contributes nothing
    same = ideal_slice(rep, 6, [x11, Poly.zero(2, 4)])
    assert same == ideal


def test_finite_difference():
    values = [d * d for d in range(10)]
    assert finite_difference(values, 1, 1) == [2 * d - 1 for d in range(1, 10)]
    assert all(v == 2 for v in finite_difference(values, 1, 2))
    assert all(v == 0 for v in finite_difference(values, 1, 3))
    assert finite_difference([5, 7], 3, 1) == []


def test_dimension_growth_check():
    # a quasi-polynomial of period 2 and degree 1: d for even, 0 for odd
    values = [d if d % 2 == 0 else 0 for d in range(14)]
    ok, bad = dimension_growth_check(values, order=2, step=2)
    assert ok and bad == []
    ok, bad = dimension_growth_check(values, order=1, step=2)
    assert not ok
    assert bad
    # genuine invariant ring dims pass their own growth check
    rep = CpRep.make(2, (2,))
    dims = invariant_slice(rep, 12).dims()
    ok, bad = dimension_growth_check(dims, order=2, step=2)
    assert ok


def test_slices_build_each_block_matrix_once(monkeypatch):
    """At p = 251 over blocks (2, 3) up to degree 6, a slice build reads
    2 sizes x 6 degrees x 250 powers = 3,000 distinct block matrices, and
    each is built once however often the pieces read it."""
    calls = []
    real = invariants._next_degree_matrix

    def counted(rep, degree, prev, power):
        calls.append((rep.blocks, degree, power))
        return real(rep, degree, prev, power)

    monkeypatch.setattr(invariants, "_next_degree_matrix", counted)
    invariants._slices.cache_clear()
    _block_sigma.cache_clear()
    try:
        invariants._slices(CpRep.make(251, (2, 3)), 6)
    finally:
        invariants._slices.cache_clear()
        _block_sigma.cache_clear()
    assert len(calls) == len(set(calls)) == 3000


def test_slices_are_cached_and_consistent_across_bounds():
    rep = CpRep.make(2, (2, 2))
    small = invariant_slice(rep, 4)
    large = invariant_slice(rep, 7)
    for d in range(5):
        assert small.mat(d).a.tolist() == large.mat(d).a.tolist()

import random

import numpy as np
import pytest

from modinv import gradedla as la
from modinv.gradedla import GradedBasis, MatFp
from modinv.poly import Poly, num_monomials, parse

from oracle import (graded_le, kernel, monomial_index, monomials_of_degree, oracle_left_kernel,
                    oracle_pivots, oracle_rref, poly_to_vec, product_rows, rows_off_pivots,
                    subspace_le)

VARS2 = ("x[1,1]", "x[2,1]")


def in_span(basis: GradedBasis, f: Poly) -> bool:
    """Membership oracle: a homogeneous polynomial lies in the span exactly
    when its coordinate row reduces to zero modulo its degree's basis."""
    if f.is_zero():
        return True
    d = f.homogeneous_degree()
    return not la.reduce_rows(poly_to_vec(f, d).reshape(1, -1), basis.mat(d)).any()


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.uint8)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_rref_matches_oracle(p):
    rng = random.Random(1000 + p)
    for rows, cols in [(1, 1), (3, 5), (5, 3), (8, 8), (12, 7)]:
        for _ in range(10):
            a = random_matrix(rng, p, rows, cols)
            got = la.rref(MatFp(p, a))
            want = oracle_rref(a.tolist(), p)
            assert got.a.tolist() == want
            assert got.is_rref


def sparse_matrix(rng: random.Random, p: int, rows: int, cols: int, density: float) -> np.ndarray:
    return np.array([[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
                     for _ in range(rows)], dtype=np.uint8)


def large_matrix(rng: random.Random, p: int, kind: str) -> np.ndarray:
    if kind == "dense":
        return random_matrix(rng, p, 500, 420)
    if kind == "sparse":
        # tall, ~2% nonzero, rank-deficient: one whole panel of columns is
        # zero and every third column is a multiple of its left neighbour
        a = sparse_matrix(rng, p, 540, 380, 0.02)
        a[:, 64:128] = 0
        for c in range(2, a.shape[1], 3):
            a[:, c] = a[:, c - 1] * 2 % p
        return a
    # block diagonal: the first panels find pivots among the upper rows
    # while every lower row has no entry in their pivot columns
    a = np.zeros((540, 380), dtype=np.uint8)
    a[:270, :190] = sparse_matrix(rng, p, 270, 190, 0.05)
    a[270:, 190:] = sparse_matrix(rng, p, 270, 190, 0.05)
    return a


@pytest.mark.parametrize("p,kind", [
    pytest.param(2, "dense", id="2"),
    pytest.param(3, "dense", id="3"),
    pytest.param(5, "dense", id="5-dense"),
    *(pytest.param(p, kind, id=f"{p}-{kind}") for p in (2, 3, 5) for kind in ("sparse", "split")),
])
def test_rref_large_matrix_agrees_with_oracle(p, kind):
    rng = random.Random(77)
    a = large_matrix(rng, p, kind)
    got = la.rref(MatFp(p, a))
    want = oracle_rref(a.tolist(), p)
    assert got.a.tolist() == want
    assert list(got.pivots) == oracle_pivots(want)


def test_rref_pivot_structure():
    rng = random.Random(5)
    p = 3
    a = random_matrix(rng, p, 10, 14)
    r = la.rref(MatFp(p, a))
    pivots = list(r.pivots)
    assert pivots == sorted(pivots)
    for i, c in enumerate(pivots):
        assert r.a[i, c] == 1
        # the pivot column is cleared everywhere else
        assert sum(int(v) for v in r.a[:, c]) == 1
        assert not r.a[i, :c].any()


def test_rank_and_rank_nullity():
    rng = random.Random(31)

    def shapes():
        for _ in range(15):
            yield rng.randrange(1, 9), rng.randrange(1, 9)
        yield from ((3, 40), (1, 64))

    for p in (2, 3, 5):
        for rows, cols in shapes():
            a = random_matrix(rng, p, rows, cols)
            m = MatFp(p, a)
            rank = len(la.rref(m).pivots)
            assert rank == len(oracle_rref(a.tolist(), p))
            ker = kernel(m)
            assert rank + ker.nrows == m.ncols
            if ker.nrows:
                # right null space: every kernel row is killed by the matrix
                prod = la.matmul_mod(a.astype(np.int64), ker.a.T.astype(np.int64), p)
                assert not prod.any()


@pytest.mark.parametrize("width", [1, 7, 9, 63, 65, 130])
def test_rref_p2_odd_widths_and_edge_inputs(width):
    # widths off a byte boundary exercise the bit padding of the packed rows
    rng = random.Random(500 + width)
    dense = [random_matrix(rng, 2, rows, width) for rows in (1, 3, width // 2 + 1, width + 5)]
    sparse = [sparse_matrix(rng, 2, rows, width, 0.1) for rows in (4, width + 2)]
    base = random_matrix(rng, 2, 6, width)
    inputs = [
        *dense,
        *sparse,
        np.zeros((5, width), dtype=np.uint8),
        np.vstack([base, base, base[::-1]]),
        np.eye(width, dtype=np.uint8),
        np.vstack([random_matrix(rng, 2, 3, width), np.eye(width, dtype=np.uint8)]),
    ]
    for a in inputs:
        got = la.rref(MatFp(2, a))
        want = oracle_rref(a.tolist(), 2)
        assert got.a.tolist() == want
        assert list(got.pivots) == oracle_pivots(want)
        assert got.a.shape == (len(want), width)


@pytest.mark.parametrize("width", [7, 65, 130])
def test_reduce_rows_p2_matches_plain_residual(width):
    rng = random.Random(600 + width)

    def residual(v: list[int], basis: list[list[int]]) -> list[int]:
        # v - coeffs @ basis mod 2, the coefficients read off the unit pivot columns
        out = list(v)
        for row, col in zip(basis, oracle_pivots(basis)):
            if v[col]:
                out = [(a + b) % 2 for a, b in zip(out, row)]
        return out

    for rows in (1, width // 3 + 1, width + 4):
        a = random_matrix(rng, 2, rows, width)
        basis = la.rref(MatFp(2, a))
        want_basis = oracle_rref(a.tolist(), 2)
        vecs = random_matrix(rng, 2, 9, width)
        # rows with no entry in any pivot column come back unchanged
        vecs[:3, oracle_pivots(want_basis)] = 0
        got = la.reduce_rows(vecs, basis)
        assert got.tolist() == [residual(v, want_basis) for v in vecs.tolist()]
        # the basis rows are only read: a copy of them reduces the same
        assert la.reduce_rows(vecs, MatFp(2, basis.a.copy(), basis.pivots)).tolist() == got.tolist()
        assert got[:3].tolist() == vecs[:3].tolist()
        assert la.reduce_rows(vecs[:3], basis).tolist() == vecs[:3].tolist()
    empty = MatFp(2, np.zeros((0, width), dtype=np.uint8), ())
    vecs = random_matrix(rng, 2, 4, width)
    assert la.reduce_rows(vecs, empty).tolist() == vecs.tolist()
    assert la.reduce_rows(vecs[:0], basis).shape == (0, width)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_rows_on_columns_is_the_residue_there(p):
    rng = random.Random(900 + p)

    def residual(v: list[int], basis: list[list[int]]) -> list[int]:
        # v - v[pivots] @ basis mod p, in plain integers
        out = list(v)
        for row, col in zip(basis, oracle_pivots(basis)):
            out = [(a - v[col] * b) % p for a, b in zip(out, row)]
        return out

    for rows, width in [(3, 9), (7, 70), (40, 13)]:
        basis = la.rref(MatFp(p, random_matrix(rng, p, rows, width)))
        pivots = list(basis.pivots)
        vecs = random_matrix(rng, p, 8, width)
        vecs[:2, pivots] = 0  # no pivot coefficients: the residue is the row
        vecs[2] = 0
        free = [c for c in range(width) if c not in set(pivots)]
        col_sets = [[], pivots, free, sorted(rng.sample(range(width), width // 2)), [width - 1, 0]]
        empty = MatFp(p, np.zeros((0, width), dtype=np.uint8), ())
        for b in (basis, empty):
            full = la.reduce_rows(vecs, b)
            assert full.tolist() == [residual(v, b.a.tolist()) for v in vecs.tolist()]
            for cols in col_sets:
                for v in (vecs, vecs[:3], vecs[:0]):
                    got = la.reduce_rows(v, b, cols)
                    assert got.dtype == np.uint8 and got.shape == (v.shape[0], len(cols))
                    assert got.tolist() == la.reduce_rows(v, b)[:, cols].tolist(), (b.nrows, cols)
        assert not la.reduce_rows(vecs, basis, pivots).any()
        assert la.reduce_rows(vecs[:2], basis, free).tolist() == vecs[:2, free].tolist()


KERNEL_SHAPES = {
    "tall": [(40, 9), (130, 65), (12, 1), (70, 63)],
    "wide": [(9, 40), (65, 130), (1, 12), (63, 70)],
}


@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
def test_kernel_p2_is_canonical_null_space(shape):
    rng = random.Random(shape)
    for rows, cols in KERNEL_SHAPES[shape]:
        # a product through an inner dimension below cols has a wide kernel
        inner = max(1, cols // 3)
        low_rank = random_matrix(rng, 2, rows, inner).astype(np.int64) @ random_matrix(rng, 2, inner, cols)
        for a in (random_matrix(rng, 2, rows, cols), sparse_matrix(rng, 2, rows, cols, 0.05),
                  (low_rank % 2).astype(np.uint8)):
            ker = kernel(MatFp(2, a))
            assert ker.a.shape[1] == cols
            assert len(oracle_rref(a.tolist(), 2)) + ker.nrows == cols
            assert ker.a.tolist() == oracle_rref(ker.a.tolist(), 2)
            assert list(ker.pivots) == oracle_pivots(ker.a.tolist())
            prod = [[sum(x * y for x, y in zip(r, k)) % 2 for k in ker.a.tolist()] for r in a.tolist()]
            assert not any(any(row) for row in prod)


def test_matfp_refuses_primes_above_uint8_range():
    with pytest.raises(ValueError, match="251"):
        MatFp(257, np.array([[1, 1]]))
    MatFp(251, np.array([[250, 1]]))


def test_matmul_mod_exact():
    rng = random.Random(8)
    for p in (2, 3, 251):
        a = np.array([[rng.randrange(p) for _ in range(7)] for _ in range(4)], dtype=np.int64)
        b = np.array([[rng.randrange(p) for _ in range(3)] for _ in range(7)], dtype=np.int64)
        want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(7)) % p for j in range(3)]
                for i in range(4)]
        assert la.matmul_mod(a, b, p).tolist() == want
    with pytest.raises(ValueError):
        la.matmul_mod(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64), 3)


def test_reduce_rows_membership_and_residual():
    rng = random.Random(9)
    p = 5
    basis = la.rref(MatFp(p, random_matrix(rng, p, 4, 9)))
    # combinations of basis rows reduce to zero
    for _ in range(10):
        coeffs = np.array([rng.randrange(p) for _ in range(basis.nrows)], dtype=np.int64)
        vec = la.matmul_mod(coeffs.reshape(1, -1), basis.a.astype(np.int64), p)
        assert not la.reduce_rows(vec.astype(np.uint8), basis).any()
    # a residual differs from the input by something in the row space
    probe = random_matrix(rng, p, 6, 9)
    residue = la.reduce_rows(probe, basis)
    delta = (probe.astype(np.int64) - residue.astype(np.int64)) % p
    stacked = la.rref(MatFp(p, np.vstack([basis.a, delta.astype(np.uint8)])))
    assert stacked.nrows == basis.nrows
    # idempotent
    assert np.array_equal(la.reduce_rows(residue, basis), residue)


def test_reduce_rows_requires_echelon_basis():
    p = 3
    raw = MatFp(p, np.array([[2, 1], [1, 1]], dtype=np.uint8))
    with pytest.raises(ValueError):
        la.reduce_rows(np.array([[1, 0]], dtype=np.uint8), raw)


def test_image_contains_subspace_le():
    rng = random.Random(12)
    p = 3
    a = random_matrix(rng, p, 5, 8)
    img = la.rref(MatFp(p, a))
    for row in a:
        assert not la.reduce_rows(row.reshape(1, -1), img).any()
    assert subspace_le(MatFp(p, a), img)
    assert subspace_le(img, MatFp(p, a))
    bigger = MatFp(p, np.vstack([a, random_matrix(rng, p, 1, 8)]))
    if len(la.rref(bigger).pivots) > img.nrows:
        assert not subspace_le(bigger, img)


def rank_inclusion(inner: np.ndarray, outer: np.ndarray, p: int) -> bool:
    """Inclusion as the rank test: stacking inner on outer keeps the rank."""
    return la.rref(MatFp(p, np.vstack([outer, inner]))).nrows == la.rref(MatFp(p, outer)).nrows


def inclusion_inputs(a: np.ndarray, p: int) -> list[MatFp]:
    """The same row space as given (not canonical) and as its canonical form."""
    return [MatFp(p, a), la.rref(MatFp(p, a))]


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_subspace_le_matches_rank_inclusion(p, monkeypatch):
    rng = random.Random(3000 + p)
    outcomes = set()
    for cols in (1, 6, 13, 40):
        for trial in range(16):
            outer = random_matrix(rng, p, rng.randrange(cols + 1), cols).reshape(-1, cols)
            if trial % 2 and outer.shape[0]:
                # combinations of outer rows: included, usually with entries
                # on outer pivots that are not inner pivots
                coeffs = random_matrix(rng, p, rng.randrange(1, 5), outer.shape[0])
                inner = la.matmul_mod(coeffs, outer, p)
            else:
                inner = random_matrix(rng, p, rng.randrange(4), cols).reshape(-1, cols)
            want = rank_inclusion(inner, outer, p)
            outcomes.add(want)
            for a in inclusion_inputs(inner, p):
                for b in inclusion_inputs(outer, p):
                    assert subspace_le(a, b) == want, (cols, trial)
    assert outcomes == {True, False}

    # outer pivots 0 and 3; columns 1, 2, 4 and 5 are free
    u, v, w = (rng.randrange(1, p) for _ in range(3))
    outer = la.rref(MatFp(p, np.array([[1, 0, u, 0, v, w], [0, 0, 0, 1, w, u]], dtype=np.uint8)))
    cases = {
        # row 0 plus twice row 1: its pivot is 0, and it is nonzero on the
        # outer pivot 3, which is not an inner pivot
        "included": (outer.a[0].astype(np.int64) + 2 * outer.a[1].astype(np.int64), True),
        "inner pivot 1 is not an outer pivot": (np.eye(6, dtype=np.int64)[1], False),
        "agrees on every pivot, not on free column 5":
            (outer.a[0].astype(np.int64) + np.eye(6, dtype=np.int64)[5], False),
    }
    for name, (row, want) in cases.items():
        inner = (row % p).astype(np.uint8).reshape(1, -1)
        assert rank_inclusion(inner, outer.a, p) == want, name
        for a in inclusion_inputs(inner, p):
            assert subspace_le(a, outer) == want, name

    # canonical inputs are used as they are, with no elimination
    def no_rref(mat):
        raise AssertionError("rref called on a canonical input")
    monkeypatch.setattr(la, "rref", no_rref)
    assert subspace_le(la.MatFp(p, outer.a[:1], outer.pivots[:1]), outer)


def test_rows_off_pivots_selects_or_refuses():
    p = 5
    num = la.rref(MatFp(p, np.array([[1, 2, 0, 0], [0, 0, 1, 3], [0, 0, 0, 1]], dtype=np.uint8)))
    sub = la.rref(MatFp(p, num.a[1:2]))
    got = rows_off_pivots(num, sub)
    assert got.pivots == (0, 3) and got.a.tolist() == num.a[[0, 2]].tolist()
    # the quotient rows equal the RREF of num reduced modulo sub
    reduced = la.reduce_rows(num.a, sub)
    assert got == la.rref(MatFp(p, reduced))
    assert rows_off_pivots(num, la.rref(MatFp(p, num.a[:0]))) == num
    # a pivot of sub (column 1) that is no pivot of num
    assert rows_off_pivots(num, la.rref(MatFp(p, np.array([[0, 1, 0, 0]], dtype=np.uint8)))) is None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_extend_matches_rref_of_the_stack(p):
    rng = np.random.default_rng(40 + p)
    ncols = 23
    empty = np.zeros((0, ncols), dtype=np.uint8)

    def sparse(nrows):
        return (rng.integers(0, p, (nrows, ncols)) * (rng.random((nrows, ncols)) < 0.3)).astype(np.uint8)

    def check(basis, rows):
        got = la.extend(basis, rows)
        want = la.rref(MatFp(p, np.vstack([basis.a, rows])))
        assert got.is_rref and got.pivots == want.pivots
        assert got.a.shape == want.a.shape and got.a.tobytes() == want.a.tobytes()
        # the merge of the residues off the basis pivots, the step depthlab shares
        free = np.setdiff1d(np.arange(ncols), basis.pivots)
        r = la.rref(MatFp(p, la.reduce_rows(rows, basis, free)))
        merged = la.merge_residues(basis, free, r)
        assert merged.pivots == want.pivots and merged.a.tobytes() == want.a.tobytes()
        return got

    for _ in range(6):
        basis = la.rref(MatFp(p, sparse(rng.integers(1, 12))))
        rows = sparse(rng.integers(1, 9))
        check(basis, rows)
        # an empty basis is the rref of the rows, empty rows leave the basis
        assert check(la.rref(MatFp(p, empty)), rows) == la.rref(MatFp(p, rows))
        assert check(basis, empty) is basis
        # rows inside the span change nothing
        inside = la.matmul_mod(rng.integers(0, p, (4, basis.nrows)), basis.a, p)
        assert check(basis, inside) == basis
    # a stack of full rank is the identity
    full = la.rref(MatFp(p, np.eye(ncols, dtype=np.uint8)[::2]))
    rows = np.eye(ncols, dtype=np.uint8)[1::2] + np.eye(ncols, k=-1, dtype=np.uint8)[1::2]
    assert check(full, rows).a.tobytes() == np.eye(ncols, dtype=np.uint8).tobytes()
    with pytest.raises(ValueError):
        la.extend(MatFp(p, np.eye(3, dtype=np.uint8)), empty[:, :3])
    with pytest.raises(ValueError):
        la.extend(full, empty[:, :3])


def test_kernel_canonical_form():
    p = 3
    a = MatFp(p, np.array([[1, 2, 0], [0, 0, 1]], dtype=np.uint8))
    ker = kernel(a)
    # one free column -> one kernel row, echelonized
    assert ker.nrows == 1
    assert ker.is_rref
    prod = la.matmul_mod(a.a.astype(np.int64), ker.a.T.astype(np.int64), p)
    assert not prod.any()


def test_mult_map_matches_polynomial_multiplication():
    rng = random.Random(14)
    p = 3
    nvars = 2
    degree = 3
    monos = monomials_of_degree(nvars, degree)
    basis_rows = []
    polys = []
    for _ in range(4):
        f = Poly.zero(p, nvars)
        for _ in range(3):
            f = f + Poly(p, nvars, {monos[rng.randrange(len(monos))]: rng.randrange(p)})
        polys.append(f)
        basis_rows.append(poly_to_vec(f, degree))
    g = parse("x[1,1]^2 + 2*x[2,1]^2", VARS2, p)
    basis = MatFp(p, np.array(basis_rows, dtype=np.uint8))
    out = la.mult_map(basis, g, degree)
    for row, f in zip(out.a, polys):
        assert la.vec_to_poly(p, nvars, degree + 2, row) == f * g


def test_mult_map_zero_polynomial():
    p = 2
    basis = MatFp(p, np.eye(2, dtype=np.uint8))
    out = la.mult_map(basis, Poly.zero(p, 2), 1)
    assert not out.a.any()
    # both characteristic paths: zero multiplier, and a basis with no rows
    nvars, degree = 3, 2
    width = num_monomials(nvars, degree)
    for p in (2, 3):
        basis = MatFp(p, random_matrix(random.Random(50 + p), p, 4, width))
        zero = la.mult_map(basis, Poly.zero(p, nvars), degree)
        assert zero.a.shape == (4, width) and not zero.a.any()
        empty = MatFp(p, np.zeros((0, width), dtype=np.uint8))
        f = Poly.variable(p, nvars, 0) + Poly.variable(p, nvars, 1)
        assert la.mult_map(empty, f, degree).a.shape == (0, num_monomials(nvars, degree + 1))


def dict_colmap(nvars: int, degree: int, mono: tuple[int, ...]) -> np.ndarray:
    """Column map of multiplication by a monomial, looked up one product at
    a time in the target degree's index dictionary."""
    target = monomial_index(nvars, degree + sum(mono))
    src = monomials_of_degree(nvars, degree)
    return np.asarray([target[tuple(a + b for a, b in zip(m, mono))] for m in src],
                      dtype=np.intp)


def test_mult_colmap_matches_dictionary_lookup():
    cases = [(nvars, degree, mono) for nvars in range(1, 6) for degree in range(6)
             for e in range(4) for mono in monomials_of_degree(nvars, e)]
    # 41 variables: a mixed-radix key of the degree-2 targets would need 3**40 > 2**63
    n = 41
    x0, x40 = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    x20_x40 = (0,) * 20 + (1,) + (0,) * 19 + (1,)
    cases += [(n, 1, x0), (n, 1, x40), (n, 0, x20_x40), (n, 2, (0,) * n), (n, 2, x0), (n, 2, x40)]
    cases += [(8, 7, (3, 0, 1, 0, 0, 2, 0, 1))]
    for nvars, degree, mono in cases:
        got = la._mult_colmap(nvars, degree, mono)
        want = dict_colmap(nvars, degree, mono)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), (nvars, degree, mono)


@pytest.mark.parametrize("nvars", range(1, 9))
def test_monomial_positions_are_enumeration_indices(nvars):
    for degree in range(13):
        exps = la.exponents(nvars, degree)
        assert exps.tolist() == [list(m) for m in monomials_of_degree(nvars, degree)]
        got = la.monomial_positions(exps)
        assert got.dtype == np.intp and got.tolist() == list(range(len(exps))), degree
        # rows in any order: each row gets its own position
        assert la.monomial_positions(exps[::-1]).tolist() == list(range(len(exps)))[::-1]
    assert la.monomial_positions(np.zeros((0, nvars), dtype=np.int64)).tolist() == []
    # no variables, or a negative degree: no slice to enumerate
    for bad_nvars, bad_degree in ((0, nvars), (nvars, -1)):
        with pytest.raises(ValueError, match="bad monomial enumeration request"):
            la.exponents(bad_nvars, bad_degree)


def test_exponents_cache_keeps_only_the_requested_slices():
    # the fewer-variable slices are built inside the call, not cached
    la.exponents.cache_clear()
    exps = la.exponents(7, 9)
    assert la.exponents.cache_info().currsize == 1
    assert not exps.flags.writeable and exps.flags.c_contiguous
    assert la.exponents(7, 9) is exps


def test_monomial_positions_refuse_mixed_degrees():
    with pytest.raises(ValueError, match="differing degrees"):
        la.monomial_positions(np.array([[2, 0], [0, 1]], dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3])
def test_mult_map_rows_match_polynomial_products(p):
    rng = random.Random(40 + p)
    nvars, degree = 3, 2
    x = [Poly.variable(p, nvars, i) for i in range(nvars)]
    # the terms x0 and x1 send the basis monomials x1*x2 and x0*x2 to the
    # same product x0*x1*x2, so over GF(2) the row x0*x2 + x1*x2 cancels there
    f = x[0] + x[1] + Poly.constant(p, nvars, p - 1) * x[2]
    crossing = x[0] * x[2] + x[1] * x[2]
    rows = [poly_to_vec(crossing, degree)]
    rows += [random_matrix(rng, p, 1, num_monomials(nvars, degree))[0] for _ in range(6)]
    basis = MatFp(p, np.array(rows, dtype=np.uint8))
    out = la.mult_map(basis, f, degree)
    assert out.a.shape == (basis.nrows, num_monomials(nvars, degree + 1))
    assert out.a.tolist() == product_rows(basis.a.tolist(), f, degree)
    if p == 2:
        assert (1, 1, 1) not in la.vec_to_poly(p, nvars, degree + 1, out.a[0]).terms
    # a degree-2 multiplier with several terms on the same rows
    g = x[0] * x[0] + Poly.constant(p, nvars, 2) * x[0] * x[1] + x[1] * x[2]
    assert la.mult_map(basis, g, degree).a.tolist() == product_rows(basis.a.tolist(), g, degree)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mult_map_on_columns_is_the_full_product_there(p):
    # a reduced product modulo nothing, on some columns, is the product there
    rng = random.Random(60 + p)
    nvars, degree = 3, 3
    x = [Poly.variable(p, nvars, i) for i in range(nvars)]
    wide = num_monomials(nvars, degree + 2)
    basis = MatFp(p, random_matrix(rng, p, 5, num_monomials(nvars, degree)))
    for f in (x[0] * x[1], x[0] * x[0] + Poly.constant(p, nvars, p - 1) * x[1] * x[2],
              x[2] * x[2] + x[0] * x[2] + x[1] * x[1]):
        full = la.mult_map(basis, f, degree)
        assert full.pivots is None
        for cols in (np.arange(wide), np.array([], dtype=np.intp), np.array([0, wide - 1]),
                     np.sort(rng.sample(range(wide), wide // 3)).astype(np.intp)):
            nothing = MatFp(p, np.zeros((0, len(cols)), dtype=np.uint8), ())
            out = la.reduced_product(basis, f, degree, cols, nothing, np.arange(len(cols)))
            assert out.dtype == full.a.dtype and out.shape == (basis.nrows, len(cols))
            assert out.tobytes() == full.a[:, cols].tobytes()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monic_monomial_product_of_a_canonical_basis_is_canonical(p):
    rng = random.Random(70 + p)
    nvars, degree = 3, 3
    x = [Poly.variable(p, nvars, i) for i in range(nvars)]
    a = random_matrix(rng, p, 6, num_monomials(nvars, degree))
    a[3] = (2 * a[0] + a[1]) % p  # rank-deficient before the RREF
    canon = la.rref(MatFp(p, a))
    for f in (x[0], x[1] * x[2], x[2] ** 3):
        out = la.mult_map(canon, f, degree)
        assert out.pivots is not None
        want = la.rref(MatFp(p, out.a))
        assert out.pivots == want.pivots and out.a.tobytes() == want.a.tobytes()
    # an empty canonical basis gives an empty canonical product
    empty = MatFp(p, a[:0], ())
    assert la.mult_map(empty, x[0], degree).pivots == ()
    # not canonical: the basis, a coefficient other than 1, or two terms
    assert la.mult_map(MatFp(p, canon.a), x[0], degree).pivots is None
    if p > 2:
        assert la.mult_map(canon, Poly.constant(p, nvars, 2) * x[0], degree).pivots is None
    assert la.mult_map(canon, x[0] + x[1], degree).pivots is None


LEFT_KERNEL_SHAPES = [(0, 0), (0, 5), (4, 0), (3, 7), (7, 3), (6, 6), (12, 20)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_left_kernel_is_rref_and_the_oracle_left_kernel(p):
    rng = random.Random(80 + p)

    def rand(rows, cols):
        return random_matrix(rng, p, rows, cols).reshape(rows, cols)

    def cases():
        for rows, cols in LEFT_KERNEL_SHAPES:
            yield rand(rows, cols)                                       # full row rank when wide
            yield np.zeros((rows, cols), dtype=np.uint8)                 # the zero matrix
            inner = max(1, min(rows, cols) // 2)
            low = rand(rows, inner).astype(np.int64) @ rand(inner, cols)
            yield (low % p).astype(np.uint8)                             # rank-deficient
        yield np.eye(5, 8, dtype=np.uint8)                               # full row rank

    seen = set()
    for a in cases():
        image, left = la.rref_left_kernel(MatFp(p, a))
        want, ker = la.rref(MatFp(p, a)), kernel(MatFp(p, a.T))
        for got, ref in ((image, want), (left, ker)):
            assert got.a.dtype == ref.a.dtype and got.a.shape == ref.a.shape
            assert got.a.tobytes() == ref.a.tobytes() and got.pivots == ref.pivots
        assert image.ncols == a.shape[1] and left.ncols == a.shape[0]
        assert image.nrows + left.nrows == a.shape[0]
        seen.add((a.shape[0] == 0, a.shape[1] == 0, image.nrows == a.shape[0], not a.any()))
    # empty rows, empty columns, full row rank, deficient and zero were all met
    assert {(True, False, True, True), (False, True, False, True), (False, False, True, False),
            (False, False, False, False), (False, False, False, True)} <= seen


# widths on both sides of a byte once the identity bits are added
P2_KERNEL_SHAPES = [(0, 0), (0, 6), (3, 0), (1, 1), (1, 9), (3, 5), (2, 7), (8, 8), (9, 4), (17, 23)]


def test_p2_rref_left_kernel_matches_the_pure_oracle():
    # the identity bits live in the eliminated rows themselves; the oracle
    # takes the null space of the transpose with no numpy
    rng = random.Random(91)

    def cases():
        for rows, cols in P2_KERNEL_SHAPES:
            yield random_matrix(rng, 2, rows, cols).reshape(rows, cols)
            if rows >= 3 and cols:
                low = random_matrix(rng, 2, rows, cols)
                low[2] = low[0] ^ low[1]                     # rank-deficient
                yield low
            full = np.triu(random_matrix(rng, 2, rows, cols).reshape(rows, cols), 1)
            full[np.arange(min(rows, cols)), np.arange(min(rows, cols))] = 1
            yield full                                       # full rank

    seen = set()
    for a in cases():
        k, n = a.shape
        image, left = la.rref_left_kernel(MatFp(2, a))
        want = oracle_rref(a.tolist(), 2)
        ker = oracle_left_kernel(a.tolist(), n, 2)
        assert image.a.shape == (len(want), n) and image.a.tolist() == want
        assert image.pivots == tuple(oracle_pivots(want))
        assert left.a.shape == (len(ker), k) and left.a.tolist() == ker
        assert left.pivots == tuple(oracle_pivots(ker))
        seen.add((k == 0, n == 0, k == 1, image.nrows == min(k, n), image.nrows < k))
    # no rows, no columns, one row, full rank and rank-deficient all met
    assert {(True, False, False, True, False), (False, True, False, True, True),
            (False, False, True, True, False), (False, False, False, True, False),
            (False, False, False, False, True)} <= seen


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_products_and_reduced_products_match_the_pure_oracle(p):
    # mult_map, on all columns and on some, and reduced_product against
    # polynomial products reduced by hand modulo a canonical basis
    rng = random.Random(93 + p)
    nvars, degree = 3, 3
    x = [Poly.variable(p, nvars, i) for i in range(nvars)]
    width = num_monomials(nvars, degree)
    for f in (x[0] * x[1], x[0] + x[1] + Poly.constant(p, nvars, p - 1) * x[2],
              x[0] * x[0] + x[1] * x[2] + x[2] * x[2], Poly.zero(p, nvars)):
        wide = num_monomials(nvars, degree + f.homogeneous_degree())
        for k in (0, 1, 7):
            rows = random_matrix(rng, p, k, width).reshape(k, width)
            basis = MatFp(p, rows)
            want = product_rows(rows.tolist(), f, degree)
            full = la.mult_map(basis, f, degree)
            assert full.a.shape == (k, wide) and full.a.tolist() == want
            for cols in (np.arange(wide), np.array([], dtype=np.intp),
                         np.sort(rng.sample(range(wide), wide // 2)).astype(np.intp)):
                on = [[row[c] for c in cols] for row in want]
                got = full.a[:, cols]
                assert got.shape == (k, len(cols)) and got.tolist() == on
                m = len(cols)
                for r in (0, 1, m // 2):
                    canon = oracle_rref(random_matrix(rng, p, r, m).tolist(), p)
                    pivots = oracle_pivots(canon)
                    modulo = MatFp(p, np.array(canon, dtype=np.uint8).reshape(len(canon), m), tuple(pivots))
                    keep = np.array([c for c in range(m) if c not in pivots], dtype=np.intp)
                    residue = [[(v[c] - sum(v[j] * b[c] for j, b in zip(pivots, canon))) % p for c in keep]
                               for v in on]
                    out = la.reduced_product(basis, f, degree, cols, modulo, keep)
                    assert out.dtype == np.uint8 and out.shape == (k, len(keep))
                    assert out.tolist() == residue, (str(f), k, m, r)


def test_poly_vec_round_trip():
    rng = random.Random(21)
    p = 5
    for degree in (0, 1, 4):
        monos = monomials_of_degree(3, degree)
        row = np.array([rng.randrange(p) for _ in monos], dtype=np.int64)
        f = la.vec_to_poly(p, 3, degree, row)
        assert poly_to_vec(f, degree).tolist() == row.tolist()
    with pytest.raises(ValueError):
        poly_to_vec(parse("x[1,1]^2", VARS2, p), 3)


def test_graded_basis_refuses_a_slice_that_is_not_canonical():
    p = 3
    canonical = [la.rref(MatFp(p, np.eye(num_monomials(2, d), dtype=np.uint8))) for d in range(3)]
    assert GradedBasis(p, 2, canonical).mats == tuple(canonical)
    # the same rows with no RREF flag, and rows that are not reduced
    for raw in (MatFp(p, canonical[2].a), MatFp(p, np.array([[2, 1, 0], [0, 1, 0]], dtype=np.uint8))):
        with pytest.raises(ValueError, match="degree-2 slice is not a canonical echelon basis"):
            GradedBasis(p, 2, canonical[:2] + [raw])


def test_graded_basis_accessors():
    p = 2
    full = GradedBasis(p, 2, [la.rref(MatFp(p, np.eye(num_monomials(2, d), dtype=np.uint8)))
                              for d in range(5)])
    zero = GradedBasis.zero(p, 2, 4)
    assert full.dims() == [1, 2, 3, 4, 5]
    assert zero.dims() == [0] * 5
    assert graded_le(zero, full)
    assert not graded_le(full, zero)
    f = parse("x[1,1]*x[2,1] + x[2,1]^2", VARS2, p)
    assert in_span(full, f)
    assert not in_span(zero, f)
    assert in_span(zero, Poly.zero(p, 2))


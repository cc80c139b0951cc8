import random

import numpy as np
import pytest

from modinv import gradedla as la
from modinv.gradedla import GradedBasis, MatFp
from modinv.poly import Poly, monomials_of_degree, parse

VARS2 = ("x[1,1]", "x[2,1]")


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


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.uint8)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_oracle(p):
    rng = random.Random(1000 + p)
    for rows, cols in [(1, 1), (3, 5), (5, 3), (8, 8), (12, 7)]:
        for _ in range(10):
            a = random_matrix(rng, p, rows, cols)
            got = la.rref(MatFp(p, a))
            want = oracle_rref(a.tolist(), p)
            assert got.a.tolist() == want
            assert got.is_rref


@pytest.mark.parametrize("p", [2, 3])
def test_rref_large_matrix_agrees_with_oracle(p):
    # large enough to cross into the panel-elimination path for odd p
    rng = random.Random(77)
    a = random_matrix(rng, p, 500, 420)
    got = la.rref(MatFp(p, a))
    want = oracle_rref(a.tolist(), p)
    assert got.a.tolist() == want


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
        # wide shapes: rank eliminates the transpose
        yield from ((3, 40), (1, 64))

    for p in (2, 3, 5):
        for rows, cols in shapes():
            a = random_matrix(rng, p, rows, cols)
            m = MatFp(p, a)
            assert la.rank(m) == len(oracle_rref(a.tolist(), p))
            ker = la.kernel(m)
            assert la.rank(m) + ker.nrows == m.ncols
            if ker.nrows:
                # right null space: every kernel row is killed by the matrix
                prod = la.matmul_mod(a.astype(np.int64), ker.a.T.astype(np.int64), p)
                assert not prod.any()


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
    img = la.image(MatFp(p, a))
    for row in a:
        assert la.contains(img, row)
    assert la.subspace_le(MatFp(p, a), img)
    assert la.subspace_le(img, MatFp(p, a))
    bigger = MatFp(p, np.vstack([a, random_matrix(rng, p, 1, 8)]))
    if la.rank(bigger) > la.rank(img):
        assert not la.subspace_le(bigger, img)


def test_kernel_canonical_form():
    p = 3
    a = MatFp(p, np.array([[1, 2, 0], [0, 0, 1]], dtype=np.uint8))
    ker = la.kernel(a)
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
            f = f + Poly.monomial(p, nvars, monos[rng.randrange(len(monos))], rng.randrange(p))
        polys.append(f)
        basis_rows.append(la.poly_to_vec(f, degree))
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


def test_poly_vec_round_trip():
    rng = random.Random(21)
    p = 5
    for degree in (0, 1, 4):
        monos = monomials_of_degree(3, degree)
        row = np.array([rng.randrange(p) for _ in monos], dtype=np.int64)
        f = la.vec_to_poly(p, 3, degree, row)
        assert la.poly_to_vec(f, degree).tolist() == row.tolist()
    with pytest.raises(ValueError):
        la.poly_to_vec(parse("x[1,1]^2", VARS2, p), 3)


def test_graded_basis_accessors():
    p = 2
    full = GradedBasis.full(p, 2, 4)
    zero = GradedBasis.zero(p, 2, 4)
    assert full.dims() == [1, 2, 3, 4, 5]
    assert zero.dims() == [0] * 5
    assert la.graded_le(zero, full)
    assert not la.graded_le(full, zero)
    f = parse("x[1,1]*x[2,1] + x[2,1]^2", VARS2, p)
    assert full.contains_poly(f)
    assert not zero.contains_poly(f)
    assert zero.contains_poly(Poly.zero(p, 2))
    summed = la.graded_sum(zero, full)
    assert summed == full


def test_graded_sum_merges_spans():
    p = 3
    mats_a, mats_b = [], []
    for d in range(3):
        n = len(monomials_of_degree(2, d))
        a = np.zeros((1, n), dtype=np.uint8)
        b = np.zeros((1, n), dtype=np.uint8)
        a[0, 0] = 1
        b[0, -1] = 1
        mats_a.append(la.rref(MatFp(p, a)))
        mats_b.append(la.rref(MatFp(p, b)))
    ga = GradedBasis(p, 2, mats_a)
    gb = GradedBasis(p, 2, mats_b)
    merged = la.graded_sum(ga, gb)
    assert merged.dims() == [1, 2, 2]

import random

import pytest

from modinv.poly import Poly, parse, render
from modinv.rep import (CpRep, TrivialSummandError, is_invariant, norm,
                        norm_decompose, sigma, top_norms)

from oracle import transfer


def random_poly(rng: random.Random, rep: CpRep, max_deg: int, terms: int) -> Poly:
    p, n = rep.p, rep.nvars
    out = Poly.zero(p, n)
    for _ in range(terms):
        mono = [0] * n
        for _ in range(rng.randrange(0, max_deg + 1)):
            mono[rng.randrange(n)] += 1
        out = out + Poly(p, n, {tuple(mono): rng.randrange(p)})
    return out


def random_invariant(rng: random.Random, rep: CpRep, max_deg: int) -> Poly:
    """Invariant by construction: fixed variables, norms, and transfers."""
    p = rep.p
    pieces = [rep.variable(1, j + 1) for j in range(rep.num_blocks)]
    pieces += list(top_norms(rep))
    pieces.append(transfer(rep, random_poly(rng, rep, max(1, max_deg - 1), 3)))
    out = Poly.zero(p, rep.nvars)
    for _ in range(3):
        term = Poly.constant(p, rep.nvars, rng.randrange(p))
        for _ in range(rng.randrange(1, 3)):
            term = term * pieces[rng.randrange(len(pieces))]
        if all(sum(m) <= max_deg for m in term.terms):
            out = out + term
    return out


def test_rep_construction_and_indexing():
    rep = CpRep.make(3, (3, 2))
    assert rep.nvars == 5
    assert rep.num_blocks == 2
    assert rep.varnames == ["x[1,1]", "x[2,1]", "x[3,1]", "x[1,2]", "x[2,2]"]
    assert rep.var_index(1, 1) == 0
    assert rep.var_index(3, 1) == 2
    assert rep.var_index(2, 2) == 4
    with pytest.raises(ValueError):
        rep.var_index(4, 1)
    with pytest.raises(ValueError):
        CpRep.make(3, (4,))
    with pytest.raises(ValueError):
        CpRep.make(3, ())
    for p, blocks in ((4, (2,)), (1, (1,))):
        with pytest.raises(ValueError):
            CpRep.make(p, blocks)


def test_require_nontrivial():
    CpRep.make(2, (2, 2)).require_nontrivial()
    with pytest.raises(TrivialSummandError):
        CpRep.make(2, (2, 1)).require_nontrivial()


def test_generator_moves_variables_down_the_block():
    rep = CpRep.make(5, (3,))
    x1, x2, x3 = (rep.variable(i, 1) for i in (1, 2, 3))
    assert sigma(rep, x1) == x1
    assert sigma(rep, x2) == x2 + x1
    assert sigma(rep, x3) == x3 + x2


def test_generator_powers_binomial():
    rep = CpRep.make(5, (3,))
    x3 = rep.variable(3, 1)
    # sigma^k on x3 adds binomial multiples of the lower rows
    for k in range(5):
        expect = parse(f"x[3,1] + {k}*x[2,1] + {k * (k - 1) // 2}*x[1,1]",
                       rep.varnames, 5)
        assert sigma(rep, x3, k) == expect


def test_action_is_ring_homomorphism():
    rng = random.Random(42)
    for p, blocks in [(2, (2, 2)), (3, (3, 2))]:
        rep = CpRep.make(p, blocks)
        for _ in range(10):
            f = random_poly(rng, rep, 4, 4)
            g = random_poly(rng, rep, 4, 4)
            assert sigma(rep, f * g) == sigma(rep, f) * sigma(rep, g)
            assert sigma(rep, f + g) == sigma(rep, f) + sigma(rep, g)


def test_action_has_order_p():
    rng = random.Random(43)
    for p, blocks in [(2, (2,)), (3, (2, 3)), (5, (4,))]:
        rep = CpRep.make(p, blocks)
        f = random_poly(rng, rep, 3, 4)
        g = f
        for _ in range(p):
            g = sigma(rep, g)
        assert g == f
        # iterating the generator matches the direct power
        h = f
        for k in range(p):
            assert sigma(rep, f, k) == h
            h = sigma(rep, h)
    with pytest.raises(ValueError):
        sigma(rep, f, p)
    with pytest.raises(ValueError):
        sigma(rep, f, -1)


def test_is_invariant():
    rep = CpRep.make(3, (3, 2))
    assert is_invariant(rep, rep.variable(1, 1))
    assert is_invariant(rep, rep.variable(1, 2))
    assert not is_invariant(rep, rep.variable(2, 1))
    assert is_invariant(rep, Poly.zero(3, 5))
    rng = random.Random(44)
    for _ in range(10):
        assert is_invariant(rep, random_invariant(rng, rep, 6))


def test_transfer_lands_in_invariants_and_is_linear():
    rng = random.Random(45)
    for p, blocks in [(2, (2, 2)), (3, (3,))]:
        rep = CpRep.make(p, blocks)
        f = random_poly(rng, rep, 4, 4)
        g = random_poly(rng, rep, 4, 4)
        assert is_invariant(rep, transfer(rep, f))
        assert transfer(rep, f + g) == transfer(rep, f) + transfer(rep, g)
        # direct definition: sum over the whole group orbit
        total = Poly.zero(p, rep.nvars)
        for k in range(p):
            total = total + sigma(rep, f, k)
        assert transfer(rep, f) == total


def test_norm_is_the_orbit_product():
    for p, blocks in [(2, (2, 2)), (3, (3,)), (5, (3,)), (7, (4,))]:
        rep = CpRep.make(p, blocks)
        for row in range(2, blocks[0] + 1):
            x = rep.variable(row, 1)
            product = Poly.one(p, rep.nvars)
            for k in range(p):
                product = product * sigma(rep, x, k)
            got = norm(rep, row, 1)
            assert got == product
            assert is_invariant(rep, got)
            assert got.degree_in(rep.var_index(row, 1)) == p
            assert got.homogeneous_degree() == p


def test_second_row_norm_closed_form():
    # N(x_2) = x_2^p - x_2 * x_1^(p-1)
    for p in (2, 3, 5, 7):
        rep = CpRep.make(p, (2,))
        expect = parse(f"x[2,1]^{p} - x[2,1]*x[1,1]^{p - 1}" if p > 2
                       else "x[2,1]^2 - x[2,1]*x[1,1]", rep.varnames, p)
        assert norm(rep, 2, 1) == expect


def test_norm_of_fixed_variable_is_its_p_power():
    rep = CpRep.make(3, (3, 1))
    assert norm(rep, 1, 1) == rep.variable(1, 1) ** 3
    with pytest.raises(ValueError):
        norm(rep, 4, 1)
    # a size-1 block still has a top norm, the p-th power of its variable
    assert top_norms(rep)[1] == rep.variable(1, 2) ** 3


def test_top_norms_cover_every_block():
    rep = CpRep.make(3, (2, 3))
    norms = top_norms(rep)
    assert len(norms) == 2
    assert norms[0] == norm(rep, 2, 1)
    assert norms[1] == norm(rep, 3, 2)


def oracle_divide(rep: CpRep, f: Poly, order: list[int]) -> Poly:
    """Remainder after dividing by the top norms in the given block order,
    reimplemented with repeated single-variable division."""
    p = rep.p
    rem = f
    for j in order:
        top = rep.var_index(rep.blocks[j - 1], j)
        divisor = norm(rep, rep.blocks[j - 1], j)
        while rem.degree_in(top) >= p:
            # peel the highest slice in the top variable
            terms = [(m, c) for m, c in rem.sorted_terms() if m[top] == rem.degree_in(top)]
            lead = Poly.zero(p, rep.nvars)
            for m, c in terms:
                lowered = list(m)
                lowered[top] -= p
                lead = lead + Poly(p, rep.nvars, {tuple(lowered): c})
            rem = rem - lead * divisor
    return rem


def test_norm_decompose_reconstruction_and_bounds():
    rng = random.Random(46)
    for p, blocks in [(2, (2, 2)), (3, (2, 3))]:
        rep = CpRep.make(p, blocks)
        for _ in range(25):
            f = random_poly(rng, rep, 7, 5)
            result = norm_decompose(rep, f)
            assert result.reconstruct(rep) == f
            for j in result.block_indices:
                top = rep.var_index(rep.blocks[j - 1], j)
                assert result.remainder.degree_in(top) < p


def test_norm_decompose_remainder_unique_under_reordering():
    rng = random.Random(47)
    rep = CpRep.make(2, (2, 2, 2))
    for _ in range(25):
        f = random_poly(rng, rep, 6, 5)
        result = norm_decompose(rep, f)
        for order in ([3, 2, 1], [2, 1, 3]):
            assert oracle_divide(rep, f, order) == result.remainder


def test_norm_decompose_invariant_inputs_have_invariant_parts():
    rng = random.Random(48)
    for p, blocks in [(2, (2, 2)), (3, (3,))]:
        rep = CpRep.make(p, blocks)
        for _ in range(10):
            f = random_invariant(rng, rep, 8)
            result = norm_decompose(rep, f)
            assert is_invariant(rep, result.remainder)
            for q in result.quotients:
                assert is_invariant(rep, q)


def test_norm_decompose_block_subsets():
    rep = CpRep.make(2, (2, 2))
    f = norm(rep, 2, 1) * norm(rep, 2, 2)
    result = norm_decompose(rep, f, (1,))
    assert result.block_indices == (1,)
    assert result.quotients[0] == norm(rep, 2, 2)
    assert result.remainder.is_zero()
    with pytest.raises(ValueError):
        norm_decompose(rep, f, (2, 1))
    with pytest.raises(ValueError):
        norm_decompose(rep, f, (0,))


def test_decompose_examples_by_hand():
    rep = CpRep.make(2, (2,))
    # x2^2 = 1 * N(x2) + x1 * x2
    f = parse("x[2,1]^2", rep.varnames, 2)
    result = norm_decompose(rep, f)
    assert result.quotients[0] == Poly.one(2, 2)
    assert result.remainder == parse("x[1,1]*x[2,1]", rep.varnames, 2)


def test_variable_and_render_round_trip():
    rep = CpRep.make(3, (2, 2))
    for j in (1, 2):
        for i in (1, 2):
            v = rep.variable(i, j)
            assert parse(render(v, rep.varnames), rep.varnames, 3) == v

import math
import random

import pytest

from modinv.poly import Poly, PolyParseError, check_prime, num_monomials, parse, render

from oracle import monomial_index, monomials_of_degree

VARS2 = ("x[1,1]", "x[2,1]")
VARS3 = ("x[1,1]", "x[2,1]", "x[1,2]")


def naive_mul(a: dict, b: dict, p: int) -> dict:
    """Dictionary convolution, written independently of Poly internals."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(i + j for i, j in zip(ma, mb))
            out[key] = (out.get(key, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def naive_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def as_dict(f: Poly) -> dict:
    return {m: c for m, c in f.sorted_terms()}


def random_poly(rng: random.Random, p: int, nvars: int, max_deg: int, terms: int) -> Poly:
    out = Poly.zero(p, nvars)
    for _ in range(terms):
        mono = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        out = out + Poly(p, nvars, {mono: rng.randrange(0, p)})
    return out


def test_prime_validation():
    for good in (2, 3, 5, 7, 11, 97):
        assert check_prime(good) == good
    for bad in (-3, 0, 1, 4, 9, 91):
        with pytest.raises(ValueError):
            check_prime(bad)


@pytest.mark.parametrize("nvars,degree", [(1, 5), (2, 4), (3, 6), (4, 3)])
def test_monomial_enumeration(nvars, degree):
    monos = monomials_of_degree(nvars, degree)
    # stars and bars count
    assert len(monos) == math.comb(degree + nvars - 1, nvars - 1)
    assert num_monomials(nvars, degree) == len(monos)
    assert all(sum(m) == degree for m in monos)
    assert len(set(monos)) == len(monos)
    # descending order, and the index map is its inverse
    assert list(monos) == sorted(monos, reverse=True)
    index = monomial_index(nvars, degree)
    assert all(index[m] == i for i, m in enumerate(monos))


def test_arithmetic_matches_dict_model():
    rng = random.Random(20240811)
    for p in (2, 3, 5):
        for _ in range(40):
            f = random_poly(rng, p, 3, 4, 4)
            g = random_poly(rng, p, 3, 4, 4)
            assert as_dict(f + g) == naive_add(as_dict(f), as_dict(g), p)
            assert as_dict(f * g) == naive_mul(as_dict(f), as_dict(g), p)
            assert as_dict(f - g) == naive_add(as_dict(f), {m: -c % p for m, c in as_dict(g).items()}, p)


def test_pow_is_repeated_multiplication():
    rng = random.Random(7)
    for p in (2, 5):
        f = random_poly(rng, p, 2, 3, 3)
        acc = Poly.one(p, 2)
        for k in range(6):
            assert f ** k == acc
            acc = acc * f
    with pytest.raises(ValueError):
        f ** -1


def test_ring_axioms_spot_checks():
    rng = random.Random(99)
    p = 3
    f, g, h = (random_poly(rng, p, 2, 3, 4) for _ in range(3))
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + Poly.zero(p, 2) == f
    assert f * Poly.one(p, 2) == f
    assert f - f == Poly.zero(p, 2)


def test_degree_bookkeeping():
    p = 5
    f = parse("x[1,1]^3 * x[2,1] + 2*x[2,1]^2", VARS2, p)
    assert f.degree_in(0) == 3
    assert f.degree_in(1) == 2
    with pytest.raises(ValueError, match="must be homogeneous"):
        f.homogeneous_degree()
    # zero polynomial: degree 0 by convention
    assert Poly.zero(p, 2).homogeneous_degree() == 0


def test_render_parse_round_trip():
    rng = random.Random(20240812)
    for p in (2, 3, 7):
        for _ in range(30):
            f = random_poly(rng, p, 3, 4, 5)
            text = render(f, VARS3)
            assert parse(text, VARS3, p) == f
            # canonical form is stable under another round trip
            assert render(parse(text, VARS3, p), VARS3) == text


def test_render_fixed_forms():
    p = 3
    assert render(Poly.zero(p, 2), VARS2) == "0"
    assert render(Poly.one(p, 2), VARS2) == "1"
    f = Poly(p, 2, {(2, 1): 2, (0, 1): 1})
    assert render(f, VARS2) == "2*x[1,1]^2*x[2,1] + x[2,1]"


def test_parse_accepts_spec_forms():
    p = 5
    f = parse("x[1,1] + 4*x[2,1]", VARS2, p)
    assert as_dict(f) == {(1, 0): 1, (0, 1): 4}
    # binary minus folds into the coefficient
    g = parse("x[1,1]^2 - x[2,1]", VARS2, p)
    assert as_dict(g) == {(2, 0): 1, (0, 1): 4}
    # whitespace inside the bracket form is tolerated
    h = parse("x[ 1 , 1 ]", VARS2, p)
    assert as_dict(h) == {(1, 0): 1}
    assert as_dict(parse("7", VARS2, p)) == {(0, 0): 2}


@pytest.mark.parametrize("text", [
    "", "x[3,1]", "x[1,1] +", "* x[1,1]", "x[1,1]^0", "x[1,1]^-2",
    "-x[1,1]", "2 x[1,1]", "x[1,1]**2",
])
def test_parse_rejections(text):
    with pytest.raises(PolyParseError):
        parse(text, VARS2, 5)


def test_parse_error_reports_position():
    with pytest.raises(PolyParseError) as info:
        parse("x[1,1] + x[9,9]", VARS2, 5)
    assert info.value.position == 9


def test_cross_characteristic_mixing_rejected():
    f = Poly.one(2, 2)
    g = Poly.one(3, 2)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * Poly.one(2, 3)

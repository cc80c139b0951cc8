import random

import pytest

from modinv.monoalg import (PRESETS, FreeDecomp, MonoAlgebra, _congruent,
                            hilbert_enumeration_check, mono2_str,
                            non_factorial_witness, run_preset,
                            verify_free_decomp, verify_height_witness)

EX1 = MonoAlgebra([(2, 0), (1, 1), (0, 2)])       # x^2, xy, y^2
EX2 = MonoAlgebra([(4, 0), (3, 1), (1, 3), (0, 4)])  # x^4, x^3 y, x y^3, y^4
SQUARES = MonoAlgebra([(2, 0), (0, 2)])           # x^2, y^2


def bfs_members(generators, degree_cap):
    """Semigroup by breadth-first closure, an implementation with nothing
    in common with the recursive membership test."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                s = (m[0] + g[0], m[1] + g[1])
                if s[0] + s[1] <= degree_cap and s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


@pytest.mark.parametrize("alg,gens", [
    (EX1, [(2, 0), (1, 1), (0, 2)]),
    (EX2, [(4, 0), (3, 1), (1, 3), (0, 4)]),
    (SQUARES, [(2, 0), (0, 2)]),
])
def test_membership_matches_bfs_closure(alg, gens):
    cap = 16
    members = bfs_members(gens, cap)
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            assert alg.is_member((i, j)) == ((i, j) in members)


def test_even_total_degree_characterizes_first_example():
    # x^2, xy, y^2 generate exactly the even-total-degree monomials
    for i in range(13):
        for j in range(13 - i):
            assert EX1.is_member((i, j)) == ((i + j) % 2 == 0)


def test_componentwise_parity_characterizes_squares():
    for i in range(13):
        for j in range(13 - i):
            assert SQUARES.is_member((i, j)) == (i % 2 == 0 and j % 2 == 0)


def test_specific_memberships():
    assert EX1.is_member((0, 0))
    # x^3 y factors as x^2 * xy, so it belongs to the three-generator algebra
    assert EX1.is_member((3, 1))
    # but a parity argument rules it out of the two-square subalgebra
    assert not SQUARES.is_member((3, 1))
    assert EX2.is_member((8, 4))  # x^8 y^4 = (x^4)^2 * y^4
    assert EX2.is_member((5, 3))  # x^5 y^3 = x^4 * x y^3
    assert not EX2.is_member((2, 2))


def test_membership_is_multiplicative():
    rng = random.Random(61)
    members = sorted(bfs_members(EX2.generators, 12))
    for _ in range(50):
        a = members[rng.randrange(len(members))]
        b = members[rng.randrange(len(members))]
        assert EX2.is_member((a[0] + b[0], a[1] + b[1]))


def test_exponent_map_is_additive():
    from modinv.monoalg import mono2_mul
    for i in range(5):
        for j in range(5):
            for k in range(5):
                for l in range(5):
                    assert mono2_mul((i, j), (k, l)) == (i + k, j + l)


def test_atoms():
    assert EX1.is_atom((2, 0)) and EX1.is_atom((1, 1)) and EX1.is_atom((0, 2))
    assert not EX1.is_atom((2, 2))  # x^2 y^2 = x^2 * y^2
    assert not EX1.is_atom((0, 0))
    assert not EX1.is_atom((1, 0))  # not even a member
    for g in EX2.generators:
        assert EX2.is_atom(g)
    assert not EX2.is_atom((4, 4))  # x^4 y^4 splits two ways


def test_membership_far_from_the_origin():
    # a fresh algebra, so no smaller degree is memoized: the walk from
    # x^4000 down to the unit is 2000 steps deep
    alg = MonoAlgebra([(2, 0), (1, 1), (0, 2)])
    assert alg.is_member((4000, 0))
    assert not alg.is_member((4001, 0))


FIVE = [(3, 0), (2, 1), (0, 3), (1, 4), (4, 2)]  # x^4 y^2 = (x^2 y)^2 is no atom


@pytest.mark.parametrize("alg", [EX1, EX2, SQUARES, MonoAlgebra(FIVE)])
def test_atoms_match_brute_force_splits(alg):
    cap = 14
    members = bfs_members(alg.generators, cap)
    nonunit = members - {(0, 0)}
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            m = (i, j)
            splits = any((i - a[0], j - a[1]) in nonunit for a in nonunit)
            assert alg.is_atom(m) == (m in nonunit and not splits), m


def test_generator_validation():
    with pytest.raises(ValueError):
        MonoAlgebra([])
    with pytest.raises(ValueError):
        MonoAlgebra([(0, 0)])
    with pytest.raises(ValueError):
        MonoAlgebra([(1, -1)])
    with pytest.raises(ValueError):
        MonoAlgebra([(1, 2, 3)])
    # the public membership tests validate their argument
    for bad in ((1, -1), (1, 2, 3)):
        with pytest.raises(ValueError):
            EX1.is_member(bad)
        with pytest.raises(ValueError):
            EX1.is_atom(bad)


def test_mono2_str():
    assert mono2_str((0, 0)) == "1"
    assert mono2_str((1, 0)) == "x"
    assert mono2_str((4, 3)) == "x^4*y^3"
    assert mono2_str((0, 1)) == "y"


def test_lattice_membership_by_brute_force():
    square = ((4, 0), (0, 4))
    for u in range(-8, 9):
        for v in range(-8, 9):
            # congruence to the origin is membership in the lattice
            assert _congruent(square, (u + 8, v + 8), (8, 8)) == (u % 4 == 0 and v % 4 == 0)
    skew = ((2, 1), (1, 2))
    spanned = {(a * 2 + b, a + b * 2) for a in range(-10, 11) for b in range(-10, 11)}
    for u in range(-6, 7):
        for v in range(-6, 7):
            assert _congruent(skew, (u, v), (0, 0)) == ((u, v) in spanned)
    with pytest.raises(ValueError, match="linearly dependent"):
        _congruent(((2, 1), (4, 2)), (0, 0), (0, 0))


def test_free_decomposition_of_bundled_examples():
    report = verify_free_decomp(EX1, PRESETS["example-1"].ideal_decomp,
                                PRESETS["example-1"].ideal_gens)
    assert report.passed
    report = verify_free_decomp(EX2, PRESETS["example-2"].ideal_decomp,
                                PRESETS["example-2"].ideal_gens)
    assert report.passed
    table = report.witnesses[-1]["closure_table"]
    assert len(table) == 16  # 4 algebra generators times 4 module generators
    assert all("cofactor" in row for row in table)


def test_free_decomposition_detects_class_collision():
    # x^2 and x^4 share a class modulo the lattice of (x^2, y^2)
    decomp = FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((2, 0), (4, 0)))
    report = verify_free_decomp(EX1, decomp, [(2, 0)])
    assert not report.passed
    assert any("same class" in w.get("problem", "") for w in report.witnesses)


def test_free_decomposition_detects_missing_summand():
    # one module generator cannot carry the ideal (x^2, xy)
    decomp = FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((1, 1),))
    report = verify_free_decomp(EX1, decomp, [(2, 0), (1, 1)])
    assert not report.passed
    assert any("compatible summands" in w.get("problem", "") for w in report.witnesses)


@pytest.mark.parametrize("module_gens,ideal_gens,outside", [
    # (x^2, xy) claimed as k[x^2, y^2]*1 + k[x^2, y^2]*xy: 1 is no element of the ideal
    (((0, 0), (1, 1)), [(2, 0), (1, 1)], "1"),
    # (x^2) claimed as k[x^2, y^2]*x^2 + k[x^2, y^2]*xy: xy is not a multiple of x^2
    (((2, 0), (1, 1)), [(2, 0)], "x*y"),
])
def test_free_decomposition_detects_summand_outside_the_ideal(module_gens, ideal_gens, outside):
    decomp = FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=module_gens)
    report = verify_free_decomp(EX1, decomp, ideal_gens)
    assert not report.passed
    problems = [w for w in report.witnesses if "problem" in w]
    assert problems == [{"module_generator": outside, "problem": "not in the ideal"}]


def test_free_decomposition_input_validation():
    with pytest.raises(ValueError):
        verify_free_decomp(EX1, FreeDecomp(hsop=((1, 0), (0, 2)), module_gens=((1, 1),)),
                           [(1, 1)])  # hsop element outside the algebra
    with pytest.raises(ValueError):
        verify_free_decomp(EX1, FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((1, 0),)),
                           [(1, 1)])  # module generator outside the algebra
    with pytest.raises(ValueError, match="linearly dependent"):
        verify_free_decomp(EX1, FreeDecomp(hsop=((2, 0), (4, 0)), module_gens=((1, 1),)),
                           [(1, 1)])


def test_height_witness_paths():
    report = verify_height_witness(EX1, [(2, 0), (1, 1)], (2, 0), [1, 2])
    assert report.passed
    # (xy)^2 = y^2 * x^2: the recorded cofactor is y^2
    assert report.witnesses[1]["cofactor"] == "y^2"
    report = verify_height_witness(EX2, [(4, 0), (3, 1)], (4, 0), [1, 4])
    assert report.passed
    assert report.witnesses[1]["generator_power"] == "x^12*y^4"
    assert report.witnesses[1]["cofactor"] == "x^8*y^4"
    # power too small: x^3 y is not divisible by x^4
    report = verify_height_witness(EX2, [(3, 1)], (4, 0), [1])
    assert not report.passed
    # divisible, but the cofactor x^2 y^2 is not a member
    report = verify_height_witness(EX2, [(3, 1)], (4, 0), [2])
    assert not report.passed
    assert any(w.get("problem") == "cofactor is outside the algebra"
               for w in report.witnesses)
    with pytest.raises(ValueError):
        verify_height_witness(EX1, [(2, 0)], (1, 0), [1])
    with pytest.raises(ValueError):
        verify_height_witness(EX1, [(2, 0)], (2, 0), [1, 2])
    with pytest.raises(ValueError):
        verify_height_witness(EX1, [(2, 0)], (2, 0), [0])


def test_non_factorial_witnesses():
    report = non_factorial_witness(EX1, ((2, 0), (0, 2), (1, 1), (1, 1)))
    assert report.passed
    assert report.params["distinct_factorizations"]
    report = non_factorial_witness(EX2, ((4, 0), (0, 4), (3, 1), (1, 3)))
    assert report.passed
    assert report.params["distinct_factorizations"]
    # same multiset on both sides: the equation holds but shows nothing
    report = non_factorial_witness(EX1, ((2, 0), (0, 2), (0, 2), (2, 0)))
    assert report.passed
    assert not report.params["distinct_factorizations"]
    # sides that do not multiply to the same monomial
    report = non_factorial_witness(EX1, ((2, 0), (0, 2), (1, 1), (2, 0)))
    assert not report.passed
    # a non-atom factor is flagged
    report = non_factorial_witness(EX1, ((2, 2), (0, 0), (1, 1), (1, 1)))
    assert not report.passed


def test_hilbert_enumeration_identity(monkeypatch):
    # each degree of the hsop subalgebra is counted once, not once per
    # module generator
    counted_degrees = []
    members_of_degree = MonoAlgebra.members_of_degree
    monkeypatch.setattr(MonoAlgebra, "members_of_degree",
                        lambda self, d: counted_degrees.append(d) or members_of_degree(self, d))
    for name in PRESETS:
        preset = PRESETS[name]
        alg = MonoAlgebra(preset.algebra)
        counted_degrees.clear()
        report = hilbert_enumeration_check(alg, preset.ideal_decomp,
                                           preset.ideal_gens, 24)
        assert report.passed
        assert report.params["counted"] == report.params["predicted"]
        assert counted_degrees == list(range(25)), name


def test_hilbert_enumeration_catches_wrong_decomposition():
    preset = PRESETS["example-2"]
    alg = MonoAlgebra(preset.algebra)
    broken = FreeDecomp(hsop=preset.ideal_decomp.hsop,
                        module_gens=preset.ideal_decomp.module_gens[:-1])
    report = hilbert_enumeration_check(alg, broken, preset.ideal_gens, 16)
    assert not report.passed
    assert report.witnesses


def test_run_preset_bundles():
    reports = run_preset("example-1")
    names = [r.name for r in reports]
    assert names == ["free-decomposition", "hilbert-enumeration",
                     "free-decomposition", "hilbert-enumeration",
                     "height-witness", "non-factorial-witness"]
    assert all(r.passed for r in reports)
    reports = run_preset("example-2")
    assert [r.name for r in reports] == ["free-decomposition", "hilbert-enumeration",
                                         "height-witness", "non-factorial-witness"]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_preset("example-3")

"""Acceptance gate: the ten headline checks, one test per criterion, each
announcing a single PASS/FAIL line.  All arithmetic is exact, so every
comparison below is equality, never approximate."""

import functools
import io
import json
import random
import time

import pytest

from modinv import gradedla as la
from modinv.cli import run as cli_run
from modinv.depthlab import (DepthInstance, bounded_depth, canonical_sequence,
                             depth_inequality_audit, expected_depth,
                             norm_reduction_check, ring_module, socle_search,
                             transfer_quotient_check, transfer_quotient_module,
                             verify_regular_sequence)
from modinv.invariants import ideal_slice, invariant_slice, transfer_slice
from modinv.monoalg import run_preset
from modinv.poly import Poly
from modinv.rep import CpRep, is_invariant, norm, norm_decompose, top_norms

from oracle import ideal_modules, poly_to_vec, transfer

BOUND = 10
INSTANCES = [(2, (2,)), (2, (2, 2)), (2, (2, 2, 2)), (3, (3,)), (3, (2, 3))]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number}: FAIL - {description}")
                raise
            print(f"CRITERION {number}: PASS - {description}")
        return wrapped
    return decorate


@pytest.fixture(scope="module")
def canonical_results():
    """Canonical-sequence certificates for all five instances, with the
    wall-clock cost of producing them."""
    start = time.monotonic()
    out = {}
    for p, blocks in INSTANCES:
        rep = CpRep.make(p, blocks)
        ring = ring_module(rep, BOUND)
        out[(p, blocks)] = (rep, verify_regular_sequence(ring, canonical_sequence(rep)))
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def transfer_results():
    out = {}
    for p, blocks in INSTANCES:
        rep = CpRep.make(p, blocks)
        bound = 12 if (p, blocks) == (3, (2, 3)) else BOUND
        out[(p, blocks)] = transfer_quotient_check(rep, bound)
    return out


@pytest.fixture(scope="module")
def depth_audit_22():
    """Ring/ideal/quotient depth evidence for every prefix of the canonical
    sequence of the two-block instance, plus the inequality audit."""
    rep = CpRep.make(2, (2, 2))
    seq = canonical_sequence(rep)
    ring_ev = bounded_depth(ring_module(rep, BOUND))
    triples = []
    instances = []
    for k in range(1, len(seq) + 1):
        ideal, quotient = ideal_modules(rep, seq[:k], BOUND)
        ideal_ev = bounded_depth(ideal)
        quot_ev = bounded_depth(quotient)
        triples.append((k, ideal_ev, quot_ev))
        instances.append(DepthInstance(
            label=f"first {k} canonical elements",
            ring=ring_ev,
            ideal=ideal_ev,
            quotient=quot_ev,
            ring_cm_domain=ring_ev.maximal and ring_ev.lower == rep.nvars,
            ideal_regseq_length=k,
        ))
    return rep, ring_ev, triples, depth_inequality_audit(instances)


@pytest.fixture(scope="module")
def norm_reduction_22():
    rep = CpRep.make(2, (2, 2))
    return norm_reduction_check(ring_module(rep, BOUND))


@criterion(1, "canonical sequences verified on all five instances inside the time budget")
def test_criterion_01_canonical_sequences(canonical_results):
    results, elapsed = canonical_results
    for (p, blocks), (rep, cert) in results.items():
        assert cert.passed, (p, blocks)
        want = min(rep.num_blocks + 2, rep.nvars)
        assert len(cert.elements) == want and cert.verified_length == want, (p, blocks)
        assert want == expected_depth(rep)
    assert elapsed < 180.0


@criterion(2, "ideal depth drops by one per extra generator of the canonical sequence")
def test_criterion_02_prefix_ideal_depths(depth_audit_22):
    rep, ring_ev, triples, audit = depth_audit_22
    assert ring_ev.interval() == (4, 4)
    for k, ideal_ev, quot_ev in triples:
        # two-sided evidence, exactly depth(R) + 1 - k
        assert ideal_ev.interval() == (4 + 1 - k, 4 + 1 - k), k
        assert quot_ev.interval() == (4 - k, 4 - k), k
    assert audit.passed
    assert audit.witnesses == []


@criterion(3, "transfer quotient checks pass on all five instances")
def test_criterion_03_transfer_quotient(transfer_results):
    for (p, blocks), reports in transfer_results.items():
        assert all(r.passed for r in reports), (p, blocks)
        l = len(blocks)
        steps = [r for r in reports
                 if r.name == "regular-element"
                 and r.params["module"].startswith("invariants mod transfer ideal")]
        assert len(steps) == l, (p, blocks)
        vanishing = next(r for r in reports if r.name == "transfer-quotient-vanishing")
        assert vanishing.params["window_start"] == l * p + 1
        nonneg = next(r for r in reports
                      if r.name == "transfer-quotient-hilbert-nonnegativity")
        assert all(v >= 0 for v in nonneg.params["series_numerator"])
        depth = next(r for r in reports if r.name == "transfer-ideal-depth")
        assert depth.params["lower_bound"] == l + 1, (p, blocks)
        assert depth.params["maximal"], (p, blocks)


@criterion(4, "three-block instance: sequence of five passes and a socle witness "
              "certifies no sixth element inside the bound")
def test_criterion_04_socle_witness(canonical_results):
    rep, cert = canonical_results[0][(2, (2, 2, 2))]
    assert cert.passed and cert.verified_length == 5
    assert rep.nvars == 6 and expected_depth(rep) == 5
    witness, report = socle_search(cert.final_view)
    assert report.passed and witness is not None
    assert set(range(1, 9)) <= set(witness.annihilator_degrees)
    # replay: every invariant of degree <= 8 annihilates the witness class
    view = cert.final_view
    inv = invariant_slice(rep, BOUND)
    vec = poly_to_vec(witness.element, witness.degree).reshape(1, -1)
    assert la.reduce_rows(vec, view.den.mat(witness.degree)).any()
    for e in range(1, 9):
        for u in inv.row_polys(e):
            product = u * witness.element
            pv = poly_to_vec(product, witness.degree + e).reshape(1, -1)
            assert not la.reduce_rows(pv, view.den.mat(witness.degree + e)).any()
    # bounded evidence, reported as such
    assert any("not a proof" in n for n in report.notes)


@criterion(5, "two transfers extend the two norms to a maximal sequence: "
              "depth equals grade plus block count")
def test_criterion_05_grade_identity(norm_reduction_22):
    reports = norm_reduction_22
    assert all(r.passed for r in reports)
    grade = next(r for r in reports if r.name == "grade-search")
    assert grade.params["length"] == 2
    assert grade.params["pool"] == "transfer-image basis elements"
    summary = reports[-1]
    assert summary.name == "norm-reduction"
    assert summary.params["grade_lower"] == 2
    assert summary.params["depth_lower"] == 4
    assert summary.params["depth_maximal"]
    assert summary.params["blocks"] == 2


def random_poly(rng, rep, max_deg, max_terms):
    p, n = rep.p, rep.nvars
    out = Poly.zero(p, n)
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = [0] * n
        for _ in range(rng.randrange(0, max_deg + 1)):
            mono[rng.randrange(n)] += 1
        out = out + Poly(p, n, {tuple(mono): rng.randrange(p)})
    return out


def random_invariant(rng, rep, max_deg):
    p = rep.p
    pieces = [rep.variable(1, j + 1) for j in range(rep.num_blocks)]
    pieces += list(top_norms(rep))
    pieces.append(transfer(rep, random_poly(rng, rep, max_deg - 1, 3)))
    out = Poly.zero(p, rep.nvars)
    for _ in range(3):
        term = Poly.constant(p, rep.nvars, rng.randrange(p))
        for _ in range(rng.randrange(1, 3)):
            term = term * pieces[rng.randrange(len(pieces))]
        if all(sum(m) <= max_deg for m in term.terms):
            out = out + term
    return out


def oracle_remainder(rep, f, order):
    """Independent re-division: peel leading slices by hand, blocks visited
    in the given order."""
    p = rep.p
    rem = f
    for j in order:
        top = rep.var_index(rep.blocks[j - 1], j)
        divisor = norm(rep, rep.blocks[j - 1], j)
        while rem.degree_in(top) >= p:
            lead = Poly.zero(p, rep.nvars)
            high = rem.degree_in(top)
            for m, c in rem.sorted_terms():
                if m[top] == high:
                    lowered = list(m)
                    lowered[top] -= p
                    lead = lead + Poly(p, rep.nvars, {tuple(lowered): c})
            rem = rem - lead * divisor
    return rem


@criterion(6, "norm decomposition: reconstruction, degree bounds, uniqueness, "
              "and invariance on random inputs")
def test_criterion_06_norm_decomposition():
    rng = random.Random(20260815)
    for p, blocks in INSTANCES:
        rep = CpRep.make(p, blocks)
        tops = [rep.var_index(rep.blocks[j - 1], j) for j in range(1, rep.num_blocks + 1)]
        reverse_order = list(range(rep.num_blocks, 0, -1))
        for _ in range(500):
            f = random_poly(rng, rep, 8, 5)
            result = norm_decompose(rep, f)
            assert result.reconstruct(rep) == f
            for top in tops:
                assert result.remainder.degree_in(top) < p
            assert oracle_remainder(rep, f, reverse_order) == result.remainder
        for _ in range(60):
            f = random_invariant(rng, rep, 8)
            result = norm_decompose(rep, f)
            assert is_invariant(rep, result.remainder)
            for q in result.quotients:
                assert is_invariant(rep, q)


@criterion(7, "every verified regular step satisfies the Hilbert-series drop exactly")
def test_criterion_07_hilbert_consistency(canonical_results, transfer_results,
                                          norm_reduction_22, depth_audit_22):
    steps = []
    for rep, cert in canonical_results[0].values():
        steps.extend(cert.steps)
    for reports in transfer_results.values():
        steps.extend(r for r in reports if r.name == "regular-element")
    steps.extend(r for r in norm_reduction_22 if r.name == "regular-element")
    _, _, triples, _ = depth_audit_22
    for _, ideal_ev, quot_ev in triples:
        steps.extend(ideal_ev.cert.steps)
        steps.extend(quot_ev.cert.steps)
    checked = 0
    for step in steps:
        if not step.passed or "hilbert_after" not in step.params:
            continue
        before = step.params["hilbert_before"]
        after = step.params["hilbert_after"]
        e = step.params["element_degree"]
        assert len(before) == len(after)
        for d in range(len(before)):
            assert after[d] == before[d] - (before[d - e] if d >= e else 0), step.params
        checked += 1
    assert checked >= 30  # the suite produced a real population of steps


@criterion(8, "both bundled monomial examples verify completely inside ten seconds")
def test_criterion_08_monomial_examples():
    start = time.monotonic()
    one = run_preset("example-1")
    two = run_preset("example-2")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert all(r.passed for r in one) and all(r.passed for r in two)

    # ring and ideal decompositions of the first example
    names = [r.name for r in one]
    assert names == ["free-decomposition", "hilbert-enumeration",
                     "free-decomposition", "hilbert-enumeration",
                     "height-witness", "non-factorial-witness"]
    ring_decomp, ideal_decomp = one[0], one[2]
    assert ring_decomp.params["module_generators"] == ["1", "x*y"]
    assert ideal_decomp.params["module_generators"] == ["x^2", "x*y"]
    assert one[4].witnesses[1]["cofactor"] == "y^2"           # (xy)^2 = y^2 * x^2
    assert one[5].params["distinct_factorizations"]           # x^2 y^2 = (xy)(xy)

    # second example: the four-summand decomposition and its closure table
    decomp = two[0]
    assert decomp.params["module_generators"] == ["x^4", "x^5*y^3", "x^3*y", "x^6*y^2"]
    classes = {(4 % 4, 0 % 4), (5 % 4, 3 % 4), (3 % 4, 1 % 4), (6 % 4, 2 % 4)}
    assert classes == {(0, 0), (1, 3), (3, 1), (2, 2)}
    table = {(row["factor"], row["summand_generator"]): (row["target_summand"], row["cofactor"])
             for row in decomp.witnesses[-1]["closure_table"]}
    assert table[("x^3*y", "x^4")] == ("x^3*y", "x^4")
    assert table[("x*y^3", "x^4")] == ("x^5*y^3", "1")
    assert table[("x^3*y", "x^5*y^3")] == ("x^4", "x^4*y^4")
    assert table[("x*y^3", "x^5*y^3")] == ("x^6*y^2", "y^4")
    assert table[("x^3*y", "x^3*y")] == ("x^6*y^2", "1")
    assert table[("x*y^3", "x^3*y")] == ("x^4", "y^4")
    assert table[("x^3*y", "x^6*y^2")] == ("x^5*y^3", "x^4")
    assert table[("x*y^3", "x^6*y^2")] == ("x^3*y", "x^4*y^4")

    height = two[2]
    assert height.witnesses[1]["generator_power"] == "x^12*y^4"
    assert height.witnesses[1]["cofactor"] == "x^8*y^4"       # (x^3 y)^4 = y^4 x^8 * x^4
    assert two[3].params["distinct_factorizations"]           # x^4 y^4 = (x^3 y)(x y^3)

    # the enumeration identity ran to degree 24 in all three decompositions
    for report in (one[1], one[3], two[1]):
        assert report.params["degree_cap"] == 24
        assert report.params["counted"] == report.params["predicted"]


def series_coefficients(denominator_degrees, bound):
    coeffs = [1] + [0] * bound
    for d in denominator_degrees:
        for i in range(d, bound + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


@criterion(9, "regular block sanity: series dimensions, principal transfer ideal, "
              "alternating quotient")
def test_criterion_09_sanity_oracles():
    rep = CpRep.make(2, (2,))
    bound = 12
    inv = invariant_slice(rep, bound)
    assert inv.dims() == series_coefficients([1, 2], bound)
    tra = transfer_slice(rep, bound)
    assert tra == ideal_slice(rep, bound, [rep.variable(1, 1)])
    assert transfer_quotient_module(rep, bound).dims() == [1, 0] * 6 + [1]


@criterion(10, "two identical depth-report invocations emit byte-identical JSON")
def test_criterion_10_determinism():
    argv = ["depth-report", "--p", "2", "--blocks", "2,2", "--max-degree", "10"]
    first, second = io.StringIO(), io.StringIO()
    assert cli_run(argv, stdout=first) == 0
    assert cli_run(argv, stdout=second) == 0
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().encode("utf-8") == second.getvalue().encode("utf-8")
    doc = json.loads(first.getvalue())
    assert doc["summary"]["all_passed"]

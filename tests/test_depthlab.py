import numpy as np
import pytest

from modinv import gradedla as la
from modinv.depthlab import (BoundTooSmallError, DepthEvidence, DepthInstance,
                             RegSeqCert, ZeroModuleError, _generators, bounded_depth,
                             bounded_grade, canonical_sequence,
                             depth_inequality_audit, depth_report, expected_depth,
                             ideal_module, is_regular_element, norm_reduction_check,
                             quotient_module, ring_module, socle_search,
                             transfer_ideal_module, transfer_quotient_check,
                             transfer_quotient_module, verify_regular_sequence)
from modinv.gradedla import MatFp
from modinv.invariants import invariant_slice
from modinv.poly import Poly, parse, render
from modinv.rep import CpRep, is_invariant, norm, top_norms
from modinv.report import CheckReport


def in_denominator(view, f):
    if f.is_zero():
        return True
    d = f.homogeneous_degree()
    vec = la.poly_to_vec(f, d).reshape(1, -1)
    return not la.reduce_rows(vec, view.den.mat(d)).any()


def test_ring_module_is_the_invariant_ring():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 6)
    inv = invariant_slice(rep, 6)
    assert ring.dims() == inv.basis.dims()
    assert not ring.is_zero()
    assert ring.max_degree == 6


def test_quotient_by_requires_invariance():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 6)
    with pytest.raises(ValueError):
        ring.quotient_by(rep.variable(2, 1))


def test_regular_element_pass_and_hilbert_drop():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 8)
    x11 = rep.variable(1, 1)
    report = is_regular_element(ring, x11)
    assert report.passed
    assert report.degrees_checked == list(range(8))
    quotient = ring.quotient_by(x11)
    before, after = ring.dims(), quotient.dims()
    assert all(after[d] == before[d] - (before[d - 1] if d else 0) for d in range(9))


def test_regular_element_failure_carries_replayable_witness():
    rep = CpRep.make(2, (2,))
    x11 = rep.variable(1, 1)
    view = ring_module(rep, 8).quotient_by(x11)
    report = is_regular_element(view, x11)
    assert not report.passed
    # multiplication by x11 is zero on the quotient, so every nonzero degree fails
    nonzero_degrees = [d for d in range(8) if view.dim(d) > 0]
    assert [w["degree"] for w in report.witnesses] == nonzero_degrees
    for w in report.witnesses:
        f = parse(w["annihilated"], rep.varnames, 2)
        assert not in_denominator(view, f)      # a genuinely nonzero class
        assert in_denominator(view, f * x11)    # that the element kills


def test_regular_element_rejects_bad_candidates():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 6)
    with pytest.raises(ValueError):
        is_regular_element(ring, Poly.zero(2, 2))
    with pytest.raises(ValueError):
        is_regular_element(ring, Poly.one(2, 2))
    with pytest.raises(ValueError):
        is_regular_element(ring, rep.variable(2, 1))


def test_regular_element_vacuous_and_out_of_bound_notes():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 6)
    zero_view = ring.quotient_by(Poly.one(2, 2))
    assert zero_view.is_zero()
    report = is_regular_element(zero_view, rep.variable(1, 1))
    assert report.passed
    assert any(n.startswith("vacuous") for n in report.notes)
    big = norm(rep, 2, 1) ** 4  # degree 8 > bound 6
    report = is_regular_element(ring, big)
    assert report.degrees_checked == []
    assert any("nothing was checkable" in n for n in report.notes)


def test_workers_do_not_change_the_report():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 8)
    f = norm(rep, 2, 1)
    solo = is_regular_element(ring, f, workers=1)
    multi = is_regular_element(ring, f, workers=4)
    assert solo.to_json_dict() == multi.to_json_dict()


def test_verify_regular_sequence_bookkeeping():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 10)
    cert = verify_regular_sequence(ring, canonical_sequence(rep))
    assert cert.passed
    assert cert.verified_length == 4
    for step in cert.steps:
        before = step.params["hilbert_before"]
        after = step.params["hilbert_after"]
        e = step.params["element_degree"]
        assert after == [before[d] - (before[d - e] if d >= e else 0)
                         for d in range(len(before))]
    assert cert.final_view.dims()[0] == 1


def test_verify_regular_sequence_stops_at_first_failure():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 8)
    x11 = rep.variable(1, 1)
    cert = verify_regular_sequence(ring, [x11, x11, norm(rep, 2, 1)])
    assert not cert.passed
    assert cert.verified_length == 1
    assert len(cert.steps) == 2  # the failing step is kept, nothing after it runs


def test_socle_search_on_finite_quotient():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 10)
    cert = verify_regular_sequence(ring, canonical_sequence(rep))
    witness, report = socle_search(cert.final_view)
    assert report.passed and witness is not None
    # replay: every invariant of checkable degree kills the witness class
    view = cert.final_view
    inv = invariant_slice(rep, view.max_degree)
    assert not in_denominator(view, witness.element)
    for e in witness.annihilator_degrees:
        for u in inv.basis.row_polys(e):
            assert in_denominator(view, u * witness.element)


def test_socle_search_respects_witness_cap():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 8)
    witness, report = socle_search(ring, witness_degree_cap=3)
    # the invariant ring itself has no socle in low degrees
    assert witness is None
    assert not report.passed
    assert report.degrees_checked == [0, 1, 2, 3]


def socle_search_all_rows(view, witness_degree_cap=None):
    """Reference socle search: multiplies the candidates by every invariant
    basis row of every checkable degree, not only by the generators."""
    rep = view.rep
    bound = view.max_degree
    cap = bound - 2 if witness_degree_cap is None else min(witness_degree_cap, bound)
    inv = invariant_slice(rep, bound)
    report = CheckReport(name="socle-search",
                         params={"module": view.label, "witness_degree_cap": cap, "max_degree": bound},
                         passed=False)
    p = view.num.p
    for d in range(0, cap + 1):
        report.degrees_checked.append(d)
        candidates = view.quotient_mat(d).a
        if candidates.shape[0] == 0:
            continue
        ann_degrees = [e for e in range(1, bound - d + 1) if inv.basis.dim(e)]
        for e in ann_degrees:
            for u in inv.basis.row_polys(e):
                if candidates.shape[0] == 0:
                    break
                product = la.mult_map(MatFp(p, candidates), u, d)
                residue = la.reduce_rows(product.a, view.den.mat(d + e))
                if not residue.any():
                    continue
                left = la.kernel(MatFp(p, residue.T))
                candidates = la.matmul_mod(left.a.astype(np.int64), candidates.astype(np.int64), p)
        if candidates.shape[0] and ann_degrees:
            vec = la.rref(MatFp(p, candidates)).a[0]
            rendered = render(la.vec_to_poly(p, view.num.nvars, d, vec), rep.varnames)
            report.passed = True
            report.witnesses.append({"degree": d, "element": rendered, "annihilator_degrees": ann_degrees})
            report.notes.append(f"witness killed by all invariants of degree 1..{ann_degrees[-1]}; "
                                "evidence is bounded, not a proof")
            return report
    report.notes.append(f"no socle element found for witness degrees 0..{cap}; "
                        "maximality evidence is missing")
    return report


MODULE_CONSTRUCTORS = {
    "ring": ring_module,
    "ideal": lambda rep, bound: ideal_module(rep, canonical_sequence(rep)[:2], bound),
    "quotient": lambda rep, bound: quotient_module(rep, canonical_sequence(rep), bound),
    "transfer-ideal": transfer_ideal_module,
    "transfer-quotient": transfer_quotient_module,
    "quotient-by": lambda rep, bound: quotient_module(
        rep, canonical_sequence(rep)[:3], bound).quotient_by(canonical_sequence(rep)[3]),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", sorted(MODULE_CONSTRUCTORS))
def test_socle_search_over_generators_matches_all_rows(p, kind):
    rep = CpRep.make(p, (2, 2))
    bound = 8
    view = MODULE_CONSTRUCTORS[kind](rep, bound)
    # precondition of the generator shortcut: the denominator is closed
    # under multiplication by the generators within the bound
    for e in range(1, bound + 1):
        for g in _generators(rep, bound, e):
            for d in range(bound - e + 1):
                assert la.subspace_le(la.mult_map(view.den.mat(d), g, d), view.den.mat(d + e)), (e, d)
    witness, report = socle_search(view)
    want = socle_search_all_rows(view)
    assert report.to_json_dict() == want.to_json_dict()
    assert (witness is not None) == want.passed
    if witness is not None:
        assert want.witnesses[0]["element"] == witness.rendered


def test_generator_counts_are_the_indecomposable_dimensions():
    # dim (R+/R+^2)_e, independent of which generators are picked
    for p, blocks, bound, want in [(2, (2, 2, 2), 6, {1: 3, 2: 6, 3: 1}),
                                   (3, (2, 3), 10, {1: 2, 2: 2, 3: 5, 4: 2, 5: 1})]:
        rep = CpRep.make(p, blocks)
        counts = {e: len(_generators(rep, bound, e)) for e in range(1, bound + 1)}
        assert counts == {e: want.get(e, 0) for e in range(1, bound + 1)}


def test_bounded_depth_of_invariant_rings():
    for p, blocks, expected in [(2, (2,), 2), (2, (2, 2), 4), (3, (3,), 3)]:
        rep = CpRep.make(p, blocks)
        evidence = bounded_depth(ring_module(rep, 10))
        assert evidence.lower == expected
        assert evidence.maximal
        assert evidence.interval() == (expected, expected)
        assert expected == expected_depth(rep)


def test_bounded_depth_rejects_zero_module():
    rep = CpRep.make(2, (2,))
    view = ring_module(rep, 6).quotient_by(Poly.one(2, 2))
    with pytest.raises(ZeroModuleError):
        bounded_depth(view)
    with pytest.raises(ZeroModuleError):
        bounded_grade(view, [], "empty")


def test_bounded_grade_records_failures():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 8)
    # the quotient by the full parameter system has grade zero
    view = ring.quotient_by(rep.variable(1, 1)).quotient_by(norm(rep, 2, 1))
    pool = [rep.variable(1, 1), norm(rep, 2, 1)]
    result = bounded_grade(view, pool, "parameter system")
    assert result.length == 0
    assert len(result.failures) == 2
    assert result.report.params["pool"] == "parameter system"


def test_canonical_sequence_shapes():
    rep1 = CpRep.make(2, (2,))
    assert canonical_sequence(rep1) == [rep1.variable(1, 1), norm(rep1, 2, 1)]
    rep2 = CpRep.make(3, (3,))
    assert canonical_sequence(rep2) == [rep2.variable(1, 1), norm(rep2, 2, 1),
                                        norm(rep2, 3, 1)]
    rep3 = CpRep.make(2, (2, 2, 2))
    seq = canonical_sequence(rep3)
    assert seq[:2] == [rep3.variable(1, 1), rep3.variable(1, 2)]
    assert seq[2:] == top_norms(rep3)
    assert [len(canonical_sequence(CpRep.make(p, b))) for p, b in
            [(2, (2,)), (2, (2, 2)), (2, (2, 2, 2)), (3, (3,)), (3, (2, 3))]] \
        == [2, 4, 5, 3, 4]


def test_expected_depth_caps_at_dimension():
    assert expected_depth(CpRep.make(2, (2,))) == 2
    assert expected_depth(CpRep.make(2, (2, 2))) == 4
    assert expected_depth(CpRep.make(2, (2, 2, 2))) == 5
    assert expected_depth(CpRep.make(5, (3, 2))) == 4


def test_ideal_and_quotient_modules_split_the_ring():
    rep = CpRep.make(2, (2, 2))
    bound = 8
    gens = [rep.variable(1, 1), rep.variable(1, 2)]
    ring = ring_module(rep, bound)
    ideal = ideal_module(rep, gens, bound)
    quotient = quotient_module(rep, gens, bound)
    for d in range(bound + 1):
        assert ideal.dim(d) + quotient.dim(d) == ring.dim(d)
    assert ideal.label == "ideal (x[1,1], x[1,2])"


def test_transfer_modules_split_the_ring():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 8)
    ideal = transfer_ideal_module(rep, 8)
    quotient = transfer_quotient_module(rep, 8)
    for d in range(9):
        assert ideal.dim(d) + quotient.dim(d) == ring.dim(d)


def test_transfer_quotient_check_bound_guard():
    rep = CpRep.make(2, (2, 2))
    with pytest.raises(BoundTooSmallError):
        transfer_quotient_check(rep, 3)


def test_transfer_quotient_check_passes_on_regular_block():
    rep = CpRep.make(2, (2,))
    reports = transfer_quotient_check(rep, 10)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert names[0] == "regular-element"
    assert "transfer-quotient-vanishing" in names
    assert "transfer-quotient-hilbert-nonnegativity" in names
    assert names[-1] == "transfer-ideal-depth"
    vanishing = next(r for r in reports if r.name == "transfer-quotient-vanishing")
    assert vanishing.params["window_start"] == 3
    depth = next(r for r in reports if r.name == "transfer-ideal-depth")
    assert depth.params["lower_bound"] == 2
    assert depth.params["maximal"]


def test_norm_reduction_on_regular_block():
    rep = CpRep.make(2, (2,))
    reports = norm_reduction_check(ring_module(rep, 10))
    summary = reports[-1]
    assert summary.name == "norm-reduction"
    assert summary.passed
    # the transfer ideal is principal here, so the grade search finds one
    # element and depth 2 = 1 + 1 block closes the relation
    assert summary.params["grade_lower"] == 1
    assert summary.params["depth_lower"] == 2
    assert summary.params["depth_maximal"]


def _fake_evidence(rep, lower, maximal):
    view = ring_module(rep, 2)
    cert = RegSeqCert(elements=(), rendered=[], max_degree=2, steps=[],
                      passed=True, final_view=view)
    return DepthEvidence(lower=lower, maximal=maximal, cert=cert)


def test_depth_audit_verifies_consistent_instances():
    rep = CpRep.make(2, (2,))
    inst = DepthInstance(
        label="ok",
        ring=_fake_evidence(rep, 4, True),
        ideal=_fake_evidence(rep, 4, True),
        quotient=_fake_evidence(rep, 3, True),
        ring_cm_domain=True,
        ideal_regseq_length=1,
    )
    report = depth_inequality_audit([inst])
    assert report.passed
    assert not report.witnesses
    statements = [entry["check"] for entry in report.params["verified"]]
    assert "depth(I) = depth(R/I) + 1" in statements
    assert any("regular-sequence ideal" in s for s in statements)


def test_depth_audit_flags_violations():
    rep = CpRep.make(2, (2,))
    inst = DepthInstance(
        label="broken",
        ring=_fake_evidence(rep, 4, True),
        ideal=_fake_evidence(rep, 1, True),
        quotient=_fake_evidence(rep, 3, True),
    )
    report = depth_inequality_audit([inst])
    assert not report.passed
    assert any(w["status"] == "violated" for w in report.witnesses)


def test_depth_audit_marks_one_sided_evidence_inconclusive():
    rep = CpRep.make(2, (2,))
    inst = DepthInstance(
        label="open",
        ring=_fake_evidence(rep, 2, False),
        ideal=_fake_evidence(rep, 1, False),
        quotient=_fake_evidence(rep, 1, False),
        ideal_regseq_length=2,
    )
    report = depth_inequality_audit([inst])
    assert report.passed  # nothing definite is violated
    assert any("inconclusive" in n for n in report.notes)


def test_depth_report_composition():
    rep = CpRep.make(2, (2,))
    reports = depth_report(rep, 8)
    names = [r.name for r in reports]
    assert "canonical-sequence" in names
    assert names[-1] == "depth-inequality-audit"
    assert all(r.passed for r in reports)
    canonical = next(r for r in reports if r.name == "canonical-sequence")
    assert canonical.params["verified_length"] == 2
    audit = reports[-1]
    labels = [entry["label"] for entry in audit.params["instances"]]
    assert labels == ["first 1 canonical elements", "first 2 canonical elements",
                      "transfer ideal"]

import copy

import numpy as np
import pytest

from modinv import depthlab
from modinv import gradedla as la
from modinv.depthlab import (BoundTooSmallError, DepthEvidence, DepthInstance,
                             GradedModuleView, RegSeqCert, ZeroModuleError,
                             _candidate_pool, _generators, _greedy_regular,
                             _shortfall, _witness, bounded_depth,
                             bounded_grade, canonical_sequence,
                             depth_inequality_audit, depth_report, expected_depth,
                             norm_reduction_check, ring_module, socle_search, transfer_ideal_module,
                             transfer_quotient_check, transfer_quotient_module,
                             verify_regular_sequence)
from modinv.gradedla import GradedBasis, MatFp
from modinv.invariants import ideal_slice, invariant_slice, transfer_slice
from modinv.poly import Poly, num_monomials, parse, render
from modinv.rep import CpRep, is_invariant, norm, top_norms
from modinv.report import CheckReport

from oracle import (graded_le, ideal_modules, is_regular_element, kernel, poly_to_vec,
                    rows_off_pivots, stacked_generators, subspace_le)


def in_denominator(view, f):
    if f.is_zero():
        return True
    d = f.homogeneous_degree()
    vec = poly_to_vec(f, d).reshape(1, -1)
    return not la.reduce_rows(vec, view.den.mat(d)).any()


def test_ring_module_is_the_invariant_ring():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 6)
    inv = invariant_slice(rep, 6)
    assert ring.dims() == inv.dims()
    # with nothing to divide by, the quotient basis is the numerator's own
    assert all(ring.quotient_mat(d) is inv.mat(d) for d in range(7))
    assert not ring.is_zero()
    assert ring.max_degree == 6


def test_module_view_of_a_callers_bases():
    # the view runs no full-width inclusion test; the oracle confirms the one
    # this caller's bases satisfy
    rep = CpRep.make(2, (2,))
    inv = invariant_slice(rep, 4)
    full = GradedBasis(2, 2, [la.rref(MatFp(2, np.eye(num_monomials(2, d), dtype=np.uint8)))
                              for d in range(5)])
    assert graded_le(inv, full)
    view = GradedModuleView(rep, full, inv, "polynomials mod invariants")
    assert view.dims() == [full.dim(d) - inv.dim(d) for d in range(5)]


def test_quotient_by_requires_invariance():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 6)
    x11 = rep.variable(1, 1)
    with pytest.raises(ValueError, match=r"^x\[2,1\] must be invariant$"):
        ring.quotient_by(rep.variable(2, 1))
    with pytest.raises(ValueError, match="must be homogeneous"):
        ring.quotient_by(x11 + x11 * x11)


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
        for u in inv.row_polys(e):
            assert in_denominator(view, u * witness.element)


def test_socle_search_without_witness_is_inconclusive():
    rep = CpRep.make(2, (2, 2))
    ring = ring_module(rep, 8)
    witness, report = socle_search(ring)
    # the invariant ring itself has no socle below the bound: missing
    # maximality evidence is no failure
    assert witness is None
    assert report.passed
    assert report.witnesses == []
    assert report.params["witness_degree_cap"] == 6
    assert report.degrees_checked == list(range(7))
    assert report.notes == ["inconclusive: no socle element found for witness degrees 0..6; "
                            "maximality evidence is missing"]


def socle_search_all_rows(view):
    """Reference socle search: multiplies the candidates by every invariant
    basis row of every checkable degree, not only by the generators."""
    rep = view.rep
    bound = view.max_degree
    cap = bound - 2
    inv = invariant_slice(rep, bound)
    report = CheckReport(name="socle-search",
                         params={"module": view.label, "witness_degree_cap": cap, "max_degree": bound},
                         passed=True)
    p = view.num.p
    for d in range(0, cap + 1):
        report.degrees_checked.append(d)
        candidates = view.quotient_mat(d).a
        if candidates.shape[0] == 0:
            continue
        ann_degrees = [e for e in range(1, bound - d + 1) if inv.dim(e)]
        for e in ann_degrees:
            for u in inv.row_polys(e):
                if candidates.shape[0] == 0:
                    break
                product = la.mult_map(MatFp(p, candidates), u, d)
                residue = la.reduce_rows(product.a, view.den.mat(d + e))
                if not residue.any():
                    continue
                left = kernel(MatFp(p, residue.T))
                candidates = la.matmul_mod(left.a.astype(np.int64), candidates.astype(np.int64), p)
        if candidates.shape[0] and ann_degrees:
            vec = la.rref(MatFp(p, candidates)).a[0]
            rendered = render(la.vec_to_poly(p, view.num.nvars, d, vec), rep.varnames)
            report.witnesses.append({"degree": d, "element": rendered, "annihilator_degrees": ann_degrees})
            report.notes.append(f"witness killed by all invariants of degree 1..{ann_degrees[-1]}; "
                                "evidence is bounded, not a proof")
            return report
    report.notes.append(f"inconclusive: no socle element found for witness degrees 0..{cap}; "
                        "maximality evidence is missing")
    return report


MODULE_CONSTRUCTORS = {
    "ring": ring_module,
    "ideal": lambda rep, bound: ideal_modules(rep, canonical_sequence(rep)[:2], bound)[0],
    "quotient": lambda rep, bound: ideal_modules(rep, canonical_sequence(rep), bound)[1],
    "transfer-ideal": transfer_ideal_module,
    "transfer-quotient": transfer_quotient_module,
    "quotient-by": lambda rep, bound: ideal_modules(
        rep, canonical_sequence(rep)[:3], bound)[1].quotient_by(canonical_sequence(rep)[3]),
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
                assert subspace_le(la.mult_map(view.den.mat(d), g, d), view.den.mat(d + e)), (e, d)
    witness, report = socle_search(view)
    want = socle_search_all_rows(view)
    assert report.to_json_dict() == want.to_json_dict()
    assert (witness is not None) == bool(want.witnesses)
    if witness is not None:
        assert want.witnesses[0]["element"] == witness.rendered


def eliminating_quotient_mat(view, d):
    """The quotient rows as elimination gives them: the numerator reduced
    modulo the denominator, then brought to canonical RREF."""
    if view.den.dim(d) == 0:
        return view.num.mat(d)
    return la.rref(MatFp(view.num.p, la.reduce_rows(view.num.mat(d).a, view.den.mat(d))))


def full_numerator_denominators(view, f):
    """quotient_by's denominators built from f times every numerator row."""
    e = f.homogeneous_degree()
    mats = []
    for d in range(view.max_degree + 1):
        if e <= d and view.num.dim(d - e):
            extra = la.mult_map(view.num.mat(d - e), f, d - e).a
            mats.append(la.rref(MatFp(view.num.p, np.vstack([view.den.mat(d).a, extra]))))
        else:
            mats.append(view.den.mat(d))
    return mats


def full_width_regular_step(view, f, e, d):
    """A regularity step with the left kernel taken of the full-width residue."""
    q = eliminating_quotient_mat(view, d)
    if q.nrows == 0:
        return d, 0, None
    p = view.num.p
    residue = la.reduce_rows(la.mult_map(q, f, d).a, view.den.mat(d + e))
    left = kernel(MatFp(p, residue.T))
    if left.nrows == 0:
        return d, q.nrows, None
    row = la.matmul_mod(left.a[:1].astype(np.int64), q.a.astype(np.int64), p)[0]
    return d, q.nrows, la.vec_to_poly(p, view.num.nvars, d, row)


def coordinate_modules(rep, bound):
    seq = canonical_sequence(rep)
    ideal = ideal_slice(rep, bound, seq[:2])
    zero = GradedBasis.zero(rep.p, rep.nvars, bound)
    return {
        "ring": ring_module(rep, bound),
        "ideal": GradedModuleView(rep, ideal, zero, "ideal"),
        "quotient": GradedModuleView(rep, invariant_slice(rep, bound), ideal, "quotient"),
        "transfer-ideal": transfer_ideal_module(rep, bound),
        "transfer-quotient": transfer_quotient_module(rep, bound),
        "quotient-by chain": ring_module(rep, bound).quotient_by(seq[0]).quotient_by(seq[1]),
    }


def checked_product_coords(calls):
    """_product_coords checked on every call against the residue of the
    full-width product modulo the denominator, restricted to the quotient
    pivots."""
    real = depthlab._product_coords

    def check(view, rows, f, e, d):
        got = real(view, rows, f, e, d)
        product = la.mult_map(MatFp(view.num.p, rows), f, d).a
        residue = la.reduce_rows(product, view.den.mat(d + e))
        want = residue[:, list(eliminating_quotient_mat(view, d + e).pivots)]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (view.label, d + e)
        # zero coordinates mean a zero residue (products lie in the numerator)
        assert got.any() == residue.any(), (view.label, d + e)
        # whether the denominator term mattered: entries on its pivots
        calls.append(bool(product[:, list(view.den.mat(d + e).pivots)].any()))
        return got
    return check


QUOTIENT_COORDINATE_CASES = [(2, (2, 2, 2), 6), (3, (2, 3), 8), (5, (2, 2), 8)]


@pytest.mark.parametrize("p, blocks, bound", QUOTIENT_COORDINATE_CASES)
def test_quotient_coordinates_match_elimination(p, blocks, bound, monkeypatch):
    rep = CpRep.make(p, blocks)
    pool = _candidate_pool(rep, bound, min(p, bound))
    outcomes = set()
    calls = []
    monkeypatch.setattr(depthlab, "_product_coords", checked_product_coords(calls))
    for name, view in coordinate_modules(rep, bound).items():
        # the socle search's candidate products, stage by stage
        witness, report = socle_search(view)
        assert report.to_json_dict() == socle_search_all_rows(view).to_json_dict(), name
        for d in range(bound + 1):
            got, want = view.quotient_mat(d), eliminating_quotient_mat(view, d)
            assert got.a.dtype == want.a.dtype and got.a.tobytes() == want.a.tobytes(), (name, d)
            assert got.a.shape == want.a.shape and got.pivots == want.pivots, (name, d)
        for f in canonical_sequence(rep)[:2] + top_norms(rep)[-1:]:
            dens = view.quotient_by(f).den.mats
            assert dens == tuple(full_numerator_denominators(view, f)), (name, render(f, rep.varnames))
            assert all(a.pivots == b.pivots
                       for a, b in zip(dens, full_numerator_denominators(view, f)))
        for f, e in pool:
            for d in range(bound - e + 1):
                short = _shortfall(view, f, e, d)
                witness = None if short is None else _witness(view, short, d)
                got = (d, view.dim(d), witness)
                assert got == full_width_regular_step(view, f, e, d), (name, render(f, rep.varnames), d)
                outcomes.add(short is None)
    # both injective and annihilating steps were compared
    assert outcomes == {True, False}
    # and the denominator term was needed in some of the coordinates
    assert any(calls)


def stacked_rref_quotient(num, den, f):
    """The quotient step that re-eliminates the whole denominator: the old
    degree-d denominator stacked with f times the degree-(d - e) quotient
    rows, brought to canonical RREF at full slice width."""
    e = f.homogeneous_degree()
    mats = []
    for d in range(num.max_degree + 1):
        if e <= d and num.dim(d) - den.dim(d) and num.dim(d - e) - den.dim(d - e):
            q = rows_off_pivots(num.mat(d - e), den.mat(d - e))
            extra = la.mult_map(q, f, d - e).a
            mats.append(la.rref(MatFp(num.p, np.vstack([den.mat(d).a, extra]))))
        else:
            mats.append(den.mat(d))
    return GradedBasis(num.p, num.nvars, mats)


def same_echelon(a, b):
    return (a.a.shape, a.pivots, a.a.tobytes()) == (b.a.shape, b.pivots, b.a.tobytes())


CHAIN_CASES = [(2, (2, 2)), (3, (2, 3)), (5, (2, 2))]
CHAIN_MODULES = {
    "ring": ring_module,
    "transfer-quotient": transfer_quotient_module,
    "prefix ideal": lambda rep, bound: ideal_modules(rep, canonical_sequence(rep)[:2], bound)[0],
}


def unchecked(view):
    """The same module state with a fresh memo, as if nothing had been
    checked on it."""
    twin = copy.copy(view)
    twin._memo = depthlab._Memo()
    return twin


def record_eliminations(monkeypatch, shapes):
    """Record the shape of every matrix the elimination kernels reduce, an
    identity block counted as the columns it is."""
    real_p2, real_modp = la._rref_p2, la._rref_modp

    def rref_p2(a, identity=False):
        shapes.append((a.shape[0], a.shape[1] + a.shape[0] * identity))
        return real_p2(a, identity)

    def rref_modp(a, p, identity=False):
        shapes.append((a.shape[0], a.shape[1] + a.shape[0] * identity))
        return real_modp(a, p, identity)

    monkeypatch.setattr(la, "_rref_p2", rref_p2)
    monkeypatch.setattr(la, "_rref_modp", rref_modp)


@pytest.mark.parametrize("p, blocks", CHAIN_CASES)
@pytest.mark.parametrize("kind", sorted(CHAIN_MODULES))
def test_quotient_chain_matches_stacked_rref(p, blocks, kind, monkeypatch):
    # a chain of quotient steps in numerator coordinates against the
    # full-width stacked RREF: denominators, quotient rows, dimensions and
    # every quotient-coordinate call, for a quotient with no check before
    # it and for one after a check, which reads the memo's RREFs
    rep = CpRep.make(p, blocks)
    bound = 8
    view = CHAIN_MODULES[kind](rep, bound)
    dens = {view: view.den}
    real = depthlab._product_coords
    calls = []

    def check(v, rows, g, e, d):
        got = real(v, rows, g, e, d)
        den = dens[v].mat(d + e)
        want = la.reduce_rows(la.mult_map(MatFp(v.num.p, rows), g, d).a, den,
                              rows_off_pivots(v.num.mat(d + e), den).pivots)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        calls.append(d + e)
        return got

    monkeypatch.setattr(depthlab, "_product_coords", check)
    seq = canonical_sequence(rep)
    assert len(seq) >= 3
    changed = reused = 0
    for f in seq:
        e = f.homogeneous_degree()
        want = stacked_rref_quotient(view.num, dens[view], f)
        fresh = unchecked(view)
        dens[fresh] = dens[view]
        report = depthlab._regular_report(view, f, e)
        held = view._step(f).rrefs
        steps = [fresh._quotient_by(f), view._quotient_by(f)]
        if report.passed:
            # every RREF the step needs was held, and is dropped after it
            assert held and view._step(f).rrefs is None
            reused += 1
        for nxt in steps:
            dens[nxt] = want
            assert nxt.dims() == [view.num.dim(d) - want.dim(d) for d in range(bound + 1)]
            for d in range(bound + 1):
                # the stored denominator is canonical in numerator coordinates
                local = want.mat(d).a[:, list(view.num.mat(d).pivots)]
                assert nxt._slices[d].local.a.tobytes() == local.tobytes(), (render(f, rep.varnames), d)
                assert same_echelon(nxt.den.mat(d), want.mat(d)), (render(f, rep.varnames), d)
                quotient = rows_off_pivots(view.num.mat(d), want.mat(d))
                assert same_echelon(nxt.quotient_mat(d), quotient), (render(f, rep.varnames), d)
        changed += want != dens[view]
        view = steps[0]
    assert changed >= 2 and reused and calls


@pytest.mark.parametrize("p, blocks", CHAIN_CASES)
@pytest.mark.parametrize("kind", ["ring", "transfer-quotient"])
def test_quotient_step_eliminates_only_the_new_classes(p, blocks, kind, monkeypatch):
    # with no check before it, each elimination of a quotient step is the
    # new classes' quotient coordinates beside the identity, k x (dim(d) + k)
    # for k = dim(d - e), never the denominator; after a passing check the
    # step eliminates nothing
    rep = CpRep.make(p, blocks)
    bound = 8
    view = CHAIN_MODULES[kind](rep, bound)
    shapes = []
    passed = 0
    for f in canonical_sequence(rep):
        e = f.homogeneous_degree()
        degrees = [d for d in range(e, bound + 1) if view.dim(d) and view.dim(d - e)]
        shapes.clear()
        with monkeypatch.context() as m:
            record_eliminations(m, shapes)
            nxt = unchecked(view)._quotient_by(f)
        assert shapes == [(view.dim(d - e), view.dim(d) + view.dim(d - e)) for d in degrees]
        if depthlab._regular_report(view, f, e).passed:
            shapes.clear()
            with monkeypatch.context() as m:
                record_eliminations(m, shapes)
                checked = view._quotient_by(f)
            assert shapes == [] and checked.dims() == nxt.dims()
            passed += 1
        view = nxt
    assert passed


def test_quotient_mat_refuses_a_denominator_outside_the_numerator():
    rep = CpRep.make(3, (2, 2))
    # the invariant ring is not inside the transfer ideal: degree 0 is 1 vs 0
    with pytest.raises(RuntimeError, match="'inverted'.*degree-0"):
        GradedModuleView(rep, transfer_slice(rep, 4), invariant_slice(rep, 4), "inverted")


@pytest.mark.parametrize("p", [2, 5])
def test_slice_of_selects_the_quotient_rows_or_refuses(p):
    # num and its subspaces as degree 1 of four variables, under a unit degree 0
    rep = CpRep.make(p, (2, 2))
    num = la.rref(MatFp(p, np.array([[1, 2, 0, 0], [0, 0, 1, 3], [0, 0, 0, 1]], dtype=np.uint8) % p))
    one = la.rref(MatFp(p, np.ones((1, 1), dtype=np.uint8)))
    for sub in (num.a[:0], num.a[1:2], num.a[[0, 2]], num.a):
        sub = la.rref(MatFp(p, sub))
        s = depthlab._Slice.of(num, sub)
        view = GradedModuleView(rep, GradedBasis(p, 4, [one, num]), GradedBasis(p, 4, [one, sub]), "sub")
        want = rows_off_pivots(num, sub)
        assert same_echelon(view.quotient_mat(1), want) and s.cols.tolist() == list(num.pivots)
        # with nothing divided out, the quotient basis is the numerator itself
        assert (view.quotient_mat(1) is num) == (sub.nrows == 0)
        assert s.cols[s.keep].tolist() == list(want.pivots)
        # the denominator on the numerator's pivot columns, canonical there
        assert same_echelon(s.local, la.rref(MatFp(p, sub.a[:, s.cols])))
    # a pivot of the subspace (column 1) that is no pivot of num
    assert depthlab._Slice.of(num, la.rref(MatFp(p, np.array([[0, 1, 0, 0]], dtype=np.uint8)))) is None


def test_module_view_refuses_degrees_outside_the_bound():
    # a negative degree is not an index from the end
    view = ring_module(CpRep.make(2, (2, 2)), 6)
    for degree in (-1, 7):
        for read in (view.dim, view.quotient_mat, view.num.mat):
            with pytest.raises(ValueError, match=rf"^degree {degree} outside stored range 0\.\.6$"):
                read(degree)


def element_key(f):
    return tuple(sorted(f.terms.items()))


def test_depth_report_runs_each_rank_test_and_quotient_step_once(monkeypatch):
    # the canonical-sequence check, the greedy searches and the prefix
    # quotients of one report walk one shared chain of module states
    rank_tests, steps, searches, memos = [], [], [], []
    real_test, real_divided, real_socle = (depthlab._rank_test, GradedModuleView._divided,
                                           depthlab._socle_witness)
    real_extended = depthlab._Slice.extended
    eliminations, dividing, kernels, divided_kernels = [], [], [], []

    def rank_test(view, f, e, d):
        memos.append(view._memo)  # held, so no state's id is reused
        rank_tests.append((id(view._memo), element_key(f), d))
        return real_test(view, f, e, d)

    def divided(self, f):
        memos.append(self._memo)
        steps.append((id(self._memo), element_key(f)))
        dividing.append(True)
        before = len(kernels)
        try:
            return real_divided(self, f)
        finally:
            dividing.pop()
            divided_kernels.extend(kernels[before:])

    def socle(view, cap):
        memos.append(view._memo)
        searches.append(id(view._memo))
        return real_socle(view, cap)

    def extended(self, r):
        # the generators' own extensions are cached across tests, so count only quotient steps'
        if dividing:
            eliminations.append(r.nrows)
        return real_extended(self, r)

    monkeypatch.setattr(depthlab, "_rank_test", rank_test)
    monkeypatch.setattr(GradedModuleView, "_divided", divided)
    monkeypatch.setattr(depthlab, "_socle_witness", socle)
    monkeypatch.setattr(depthlab._Slice, "extended", extended)
    record_eliminations(monkeypatch, kernels)
    reports = depth_report(CpRep.make(2, (2, 2, 2)), 6)
    assert sum(r.name == "depth-evidence" for r in reports) == 13
    assert len(set(rank_tests)) == len(rank_tests) == 575
    assert len(set(steps)) == len(steps)
    assert len(eliminations) == 119
    assert len(set(searches)) == len(searches) == 8
    # every quotient step follows a passing check of its element on its
    # state, so it reads the memo's RREFs and eliminates nothing
    assert steps and kernels and divided_kernels == []


def test_depth_report_builds_only_the_reports_it_prints(monkeypatch):
    # a rejected candidate keeps no report and no witness: each step report
    # and each witness string built is one the output prints, and the lazy
    # failure walk runs the same rank tests as a full check would
    counts = dict.fromkeys(["_rank_test", "_regular_report", "_witness"], 0)
    for name in counts:
        def counting(*args, real=getattr(depthlab, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(depthlab, name, counting)
    reports = depth_report(CpRep.make(2, (2, 2, 2)), 6)
    checks = [r for r in reports if r.name == "regular-element"]
    annihilated = [w["annihilated"] for r in checks for w in r.witnesses]
    records = [w["witness"] for r in reports if r.name == "depth-evidence"
               for w in r.witnesses if "witness" in w]
    assert counts == {"_rank_test": 575, "_regular_report": len(checks),
                      "_witness": len(annihilated) + len(records)}
    assert (len(checks), len(annihilated), len(records)) == (42, 0, 158)


def same_slices(a, b):
    return all((s.cols.tobytes(), s.keep.tobytes()) == (t.cols.tobytes(), t.keep.tobytes())
               and same_echelon(s.local, t.local)
               and same_echelon(a.quotient_mat(d), b.quotient_mat(d))
               for d, (s, t) in enumerate(zip(a._slices, b._slices, strict=True)))


@pytest.mark.parametrize("p, blocks", [(2, (2, 2)), (3, (2, 3))])
def test_memoized_quotient_is_a_relabeled_copy(p, blocks):
    rep = CpRep.make(p, blocks)
    bound = 8
    ring = ring_module(rep, bound)
    f = canonical_sequence(rep)[0]
    first = ring._quotient_by(f, "first")
    again = ring._quotient_by(f, "again")
    # a relabeled copy of the ring shares its memo, so it hits too
    twin = ring._quotient_by(f, "ring")._quotient_by(f, "twin")
    assert (first.label, again.label) == ("first", "again")
    assert ring._quotient_by(f).label == f"invariant ring / ({render(f, rep.varnames)})"
    assert first is not again and again._memo is first._memo is not ring._memo
    assert twin._memo is not again._memo
    # the same slices as a view built from scratch with the ideal as denominator
    fresh = GradedModuleView(rep, ring.num, ideal_slice(rep, bound, [f]), "fresh")
    assert same_slices(again, fresh) and same_slices(first, fresh)
    assert again.den == fresh.den


def test_relabeled_final_view_gets_the_same_socle_witness(monkeypatch):
    rep = CpRep.make(2, (2, 2, 2))
    ring = ring_module(rep, 6)
    evidence = bounded_depth(ring)
    final = evidence.cert.final_view
    # the same state reached through the memo under another label
    other = ring
    for f in evidence.cert.elements:
        other = other._quotient_by(f, "relabeled")
    assert other is not final and other._memo is final._memo
    kernels = []
    real = la.rref_left_kernel
    monkeypatch.setattr(la, "rref_left_kernel", lambda mat: kernels.append(mat) or real(mat))
    witness, report = socle_search(other)
    assert kernels == []  # the search ran once, inside bounded_depth
    first, first_report = socle_search(final)
    assert witness is first is not None
    assert report.params["module"] == "relabeled" != final.label == first_report.params["module"]
    assert report.witnesses == first_report.witnesses and report.notes == first_report.notes
    assert report.degrees_checked == first_report.degrees_checked


def test_generator_counts_are_the_indecomposable_dimensions():
    # dim (R+/R+^2)_e, independent of which generators are picked
    for p, blocks, bound, want in [(2, (2, 2, 2), 6, {1: 3, 2: 6, 3: 1}),
                                   (3, (2, 3), 10, {1: 2, 2: 2, 3: 5, 4: 2, 5: 1})]:
        rep = CpRep.make(p, blocks)
        counts = {e: len(_generators(rep, bound, e)) for e in range(1, bound + 1)}
        assert counts == {e: want.get(e, 0) for e in range(1, bound + 1)}


def eliminating_generators(rep, bound, degree):
    """_generators' step as elimination gives it: the invariants reduced
    modulo the decomposable products, then brought to canonical RREF."""
    inv = invariant_slice(rep, bound)
    p, here = inv.p, inv.mat(degree).a
    products = [la.mult_map(inv.mat(degree - k), g, degree - k).a
                for k in range(1, degree) for g in _generators(rep, bound, k)]
    decomposable = la.rref(MatFp(p, np.vstack([here[:0]] + products)))
    fresh = la.rref(MatFp(p, la.reduce_rows(here, decomposable)))
    return tuple(la.vec_to_poly(p, rep.nvars, degree, row) for row in fresh.a)


@pytest.mark.parametrize("p, blocks, bound", QUOTIENT_COORDINATE_CASES)
def test_generators_match_elimination(p, blocks, bound):
    rep = CpRep.make(p, blocks)
    for degree in range(1, bound + 1):
        assert _generators(rep, bound, degree) == eliminating_generators(rep, bound, degree), degree


GENERATOR_CASES = [(2, (2, 2, 2), 6), (3, (2, 3), 10), (5, (2, 2), 10)]


@pytest.mark.parametrize("p, blocks, bound", GENERATOR_CASES)
def test_generators_match_the_stacked_rref(p, blocks, bound):
    # the seeded, block-by-block construction against one RREF of every
    # product stacked at full width, with the reference's own generators
    rep = CpRep.make(p, blocks)
    for degree in range(1, bound + 1):
        assert _generators(rep, bound, degree) == stacked_generators(rep, bound, degree), degree
    # the seed, x[1,1] times the invariants, is canonical as it is formed
    inv = invariant_slice(rep, bound)
    first = _generators(rep, bound, 1)[0]
    assert first == rep.variable(1, 1)
    seed = la.mult_map(inv.mat(bound - 1), first, bound - 1)
    assert seed.pivots is not None and seed.pivots == la.rref(MatFp(p, seed.a)).pivots


def test_generators_refuse_products_outside_the_invariants(monkeypatch):
    rep = CpRep.make(2, (2, 2))
    real = _generators.__wrapped__

    def with_a_non_invariant(rep, bound, degree):
        # x[2,1] is not invariant, so its products leave the invariant ring
        return (rep.variable(2, 1),) if degree == 1 else real(rep, bound, degree)

    monkeypatch.setattr(depthlab, "_generators", with_a_non_invariant)
    with pytest.raises(RuntimeError, match="degree-2 products of generators are not invariants"):
        real(rep, 6, 2)


def test_validated_elements_are_not_checked_again(monkeypatch):
    rep = CpRep.make(2, (2, 2))
    calls = []

    def counting(rep, f):
        calls.append(f)
        return is_invariant(rep, f)

    monkeypatch.setattr("modinv.rep.is_invariant", counting)
    ring = ring_module(rep, 8)
    seq = canonical_sequence(rep)
    # one check per element, as it is validated, none in the quotient step
    assert verify_regular_sequence(ring, seq).passed
    assert len(calls) == len(seq)
    # the greedy search takes validated pairs and checks nothing
    calls.clear()
    cert, _ = _greedy_regular(ring, [(f, f.homogeneous_degree()) for f in seq])
    assert cert.elements == tuple(seq) and calls == []
    # the public quotient step keeps its check
    ring.quotient_by(seq[0])
    assert calls == [seq[0]]


def oracle_witness(view, f, e, d):
    """The witness as a separate left kernel gives it: the first row of the
    oracle's kernel of rref(c^T), c the full-width product's quotient
    coordinates, times the quotient rows."""
    p = view.num.p
    q = eliminating_quotient_mat(view, d)
    coords = la.reduce_rows(la.mult_map(q, f, d).a, view.den.mat(d + e),
                            eliminating_quotient_mat(view, d + e).pivots)
    left = kernel(la.rref(MatFp(p, coords.T)))
    row = la.matmul_mod(left.a[:1], q.a, p)[0]
    return la.vec_to_poly(p, view.num.nvars, d, row)


@pytest.mark.parametrize("p", [2, 3])
def test_left_kernels_are_taken_only_for_reported_witnesses(p, monkeypatch):
    # each rank test is one elimination of [c | I], which gives the left
    # kernel too; no regularity check eliminates anything else, so a
    # reported witness costs no elimination of its own
    rep = CpRep.make(p, (2, 2))
    bound = 8
    views = [ring_module(rep, bound), *ideal_modules(rep, canonical_sequence(rep)[:2], bound),
             transfer_quotient_module(rep, bound)]
    pool = _candidate_pool(rep, bound, p)
    real_left = la.rref_left_kernel
    eliminations, tests = [], []

    def left_kernel(mat):
        tests.append(mat.a.shape)
        return real_left(mat)

    record_eliminations(monkeypatch, eliminations)
    monkeypatch.setattr(la, "rref_left_kernel", left_kernel)
    reported = []
    for view in views:
        _greedy_regular(view, pool)
        assert tests, view.label
        assert eliminations == [(k, m + k) for k, m in tests], view.label
        for f, e in pool:
            eliminations.clear()
            tests.clear()
            report = is_regular_element(view, f)
            assert eliminations == [(k, m + k) for k, m in tests], (view.label, render(f, rep.varnames))
            reported.append((view, f, e, report))
        eliminations.clear()
        tests.clear()
    monkeypatch.undo()
    failing = 0
    for view, f, e, report in reported:
        for w in report.witnesses:
            want = oracle_witness(view, f, e, w["degree"])
            assert w["annihilated"] == render(want, rep.varnames), (view.label, render(f, rep.varnames))
        failing += len(report.witnesses) > 1
    # some full checks reported several witnesses
    assert failing


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


@pytest.mark.parametrize("p, blocks, bound", [(2, (2, 2), 8), (3, (2, 2, 2), 7)])
def test_greedy_search_keeps_the_lowest_nonzero_degree(p, blocks, bound, monkeypatch):
    # an accepted f of degree e adds nothing in the lowest nonzero degree m,
    # as the module is zero in degree m - e, so no search empties its module
    # and every depth job reaches its socle search
    rep = CpRep.make(p, blocks)
    runs = []
    real = depthlab.bounded_depth

    def recording(view, search_degree_cap=None):
        evidence = real(view, search_degree_cap)
        runs.append((view, evidence))
        return evidence

    monkeypatch.setattr(depthlab, "bounded_depth", recording)
    depth_report(rep, bound)
    assert len(runs) == 3 + 2 * len(canonical_sequence(rep))
    for view, evidence in runs:
        start, final = view.dims(), evidence.cert.final_view.dims()
        m = next(d for d, v in enumerate(start) if v)
        assert final[:m] == start[:m] and final[m] == start[m] > 0, view.label
        assert evidence.reports[-2].name == "socle-search", view.label


def test_bounded_grade_records_failures():
    rep = CpRep.make(2, (2,))
    ring = ring_module(rep, 8)
    # the quotient by the full parameter system has grade zero
    view = ring.quotient_by(rep.variable(1, 1)).quotient_by(norm(rep, 2, 1))
    pool = [rep.variable(1, 1), norm(rep, 2, 1)]
    cert, report = bounded_grade(view, pool, "parameter system")
    assert len(cert.elements) == 0
    assert len(report.witnesses) == 2
    assert report.params["pool"] == "parameter system"


def reference_greedy(view, pool):
    """Exhaustive reference of the greedy search: every round runs the
    complete ``oracle.is_regular_element`` on every pool element not yet
    taken, then takes the first one that passes on a nonzero degree."""
    varnames = view.rep.varnames
    current, found, steps = view, [], []
    while not current.is_zero():
        tried = [(f, is_regular_element(current, f)) for f in pool
                 if not any(f == g for g in found)]
        accepted = [(f, r) for f, r in tried if r.passed and not any(
            note.startswith(("vacuous", "element degree")) for note in r.notes)]
        if not accepted:
            records = []
            for f, r in tried:
                record = {"element": render(f, varnames)}
                if r.passed:
                    record["skipped"] = "no checkable degree"
                else:
                    record["failing_degrees"] = [w["degree"] for w in r.witnesses]
                    record["witness"] = r.witnesses[0]["annihilated"]
                records.append(record)
            return found, steps, records
        f, report = accepted[0]
        report.params["hilbert_before"] = current.dims()
        current = current.quotient_by(f)
        report.params["hilbert_after"] = current.dims()
        steps.append(report)
        found.append(f)
    return found, steps, [{"note": "module is zero up to the bound; search stopped"}]


def assert_same_search(view, pool, search):
    """Compare a search wrapper with the reference; a sequence longer than
    n must make the greedy search refuse the bound, naming the length the
    reference found."""
    found, steps, records = reference_greedy(view, pool)
    if len(found) > view.rep.nvars:
        with pytest.raises(BoundTooSmallError, match=f"length {len(found)} was verified"):
            search()
        return records
    cert, failures = search()
    assert cert.rendered == [render(f, view.rep.varnames) for f in found]
    # whole step reports, params included
    assert [s.to_json_dict() for s in cert.steps] == [s.to_json_dict() for s in steps]
    assert failures == records
    return records


@pytest.mark.parametrize("p, blocks, bound", [(2, (2, 2, 2), 6), (3, (2, 3), 8), (5, (2, 2), 8)])
def test_greedy_search_matches_exhaustive_reference(p, blocks, bound):
    rep = CpRep.make(p, blocks)
    ideal, quotient = ideal_modules(rep, canonical_sequence(rep)[:2], bound)
    pool = [f for f, _ in _candidate_pool(rep, bound, min(p, bound))]
    records = []
    for view in (ring_module(rep, bound), ideal, quotient, transfer_ideal_module(rep, bound)):
        def depth_search(view=view):
            evidence = bounded_depth(view)
            return evidence.cert, evidence.reports[-1].witnesses
        records += assert_same_search(view, pool, depth_search)
    # the grade search of the norm-reduction check: transfer elements on the
    # ring modulo the top norms
    reduced = verify_regular_sequence(ring_module(rep, bound), top_norms(rep)).final_view
    transfer = transfer_slice(rep, bound)
    transfer_pool = [f for e in range(1, min(p, bound) + 1) for f in transfer.row_polys(e)]

    def grade_search():
        cert, report = bounded_grade(reduced, transfer_pool, "transfer-image basis elements")
        return cert, report.witnesses
    records += assert_same_search(reduced, transfer_pool, grade_search)
    assert any("failing_degrees" in r for r in records)
    if p == 5:
        # degree-5 pool elements see only degrees 0..3, where the transfer
        # ideal is zero
        assert any("skipped" in r for r in records)


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
    ideal, quotient = ideal_modules(rep, gens, bound)
    for d in range(bound + 1):
        assert ideal.dim(d) + quotient.dim(d) == ring.dim(d)
    assert ideal.label == "ideal (x[1,1], x[1,2])"
    assert quotient.label == "invariant ring mod (x[1,1], x[1,2])"
    # both views rest on the same ideal slice
    assert quotient.den is ideal.num


@pytest.mark.parametrize("p, blocks, bound", [(2, (2, 2, 2), 6), (3, (2, 3), 8), (5, (2, 2), 8)])
def test_ideal_modules_match_the_from_scratch_ideal_slice(p, blocks, bound):
    # the quotient chain against ideal_slice, which multiplies every
    # generator by the whole invariant basis and eliminates once
    rep = CpRep.make(p, blocks)
    seq = canonical_sequence(rep)
    for k in range(1, len(seq) + 1):
        want = ideal_slice(rep, bound, seq[:k])
        ideal, quotient = ideal_modules(rep, seq[:k], bound)
        for got in (ideal.num, quotient.den):
            for d, (a, b) in enumerate(zip(got.mats, want.mats, strict=True)):
                assert (a.a.shape, a.pivots, a.a.tobytes()) == (b.a.shape, b.pivots, b.a.tobytes()), (k, d)


def test_ideal_modules_validate_and_skip_zero_generators():
    rep = CpRep.make(2, (2, 2))
    x11 = rep.variable(1, 1)
    with pytest.raises(ValueError, match=r"^x\[2,1\] must be invariant$"):
        ideal_modules(rep, [rep.variable(2, 1)], 6)
    with pytest.raises(ValueError, match="must be homogeneous"):
        ideal_modules(rep, [x11 + x11 * x11], 6)
    with pytest.raises(ValueError, match="at least one generator"):
        ideal_modules(rep, [], 6)
    ideal, quotient = ideal_modules(rep, [x11, Poly.zero(2, 4)], 6)
    assert ideal.num == ideal_modules(rep, [x11], 6)[0].num
    assert quotient.label == "invariant ring mod (x[1,1], 0)"


def test_greedy_search_rechecks_the_dimension_bookkeeping(monkeypatch):
    # a quotient that forgets to divide is a defect of the accepted step,
    # caught in the greedy search as in verify_regular_sequence
    monkeypatch.setattr(GradedModuleView, "_quotient_by", lambda self, f, label=None: self)
    with pytest.raises(RuntimeError, match="dimension bookkeeping broke"):
        bounded_depth(ring_module(CpRep.make(2, (2, 2)), 6))


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


# transfer-quotient configs whose transfer-ideal depth evidence disagrees
# with blocks + 1 inside the bound (the socle witness's products with the
# degree-p norms leave it), and configs where it agrees: (p, blocks, bound)
TRANSFER_IDEAL_DEPTH_INCONCLUSIVE = [
    (3, (2,), 3), (3, (2,), 4), (5, (2,), 5), (5, (2,), 6), (7, (2,), 7), (7, (2,), 8),
    (3, (3,), 3), (5, (3,), 5), (5, (3,), 6), (7, (3,), 7),
]
TRANSFER_IDEAL_DEPTH_AGREES = [
    (3, (2,), 5), (3, (2,), 6), (3, (2,), 8), (3, (2,), 10), (3, (2,), 12),
    (5, (2,), 10), (5, (2,), 14), (5, (2,), 20), (5, (3,), 8),
    (3, (2, 3), 6), (3, (2, 3), 7), (5, (2, 2), 10), (5, (2, 3), 10),
    (2, (2, 2, 2), 6), (3, (2, 2), 6),
]


@pytest.mark.parametrize("p, blocks, bound",
                         TRANSFER_IDEAL_DEPTH_INCONCLUSIVE + TRANSFER_IDEAL_DEPTH_AGREES)
def test_transfer_ideal_depth_disagreement_is_inconclusive(p, blocks, bound):
    reports = transfer_quotient_check(CpRep.make(p, blocks), bound)
    summary = reports[-1]
    assert summary.name == "transfer-ideal-depth"
    assert all(r.passed for r in reports)
    if (p, blocks, bound) in TRANSFER_IDEAL_DEPTH_AGREES:
        assert (summary.params["lower_bound"], summary.params["maximal"]) == (len(blocks) + 1, True)
        assert summary.notes == ["expected depth is blocks + 1"]
    else:
        assert summary.params["lower_bound"] == 1
        assert summary.notes[1].startswith("inconclusive: depth evidence 1")
        assert summary.notes[1].endswith(f"verified only up to degree {bound}")


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
    # at D = blocks*p = 2 the vanishing window is empty, and the report says so
    for bound, window, notes in (
            (2, [], ["vacuous: no degree above blocks*p = 2 lies inside the bound 2"]),
            (3, [3], [])):
        vanishing = next(r for r in transfer_quotient_check(rep, bound)
                         if r.name == "transfer-quotient-vanishing")
        assert (vanishing.passed, vanishing.degrees_checked, vanishing.notes) == (True, window, notes)


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
    cert = RegSeqCert(elements=(), rendered=[], steps=[], passed=True, final_view=view)
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
    # every endpoint holds only up to the degree bound: a violation is a note
    assert report.passed and not report.witnesses
    assert ("broken: depth(I) >= min(depth(R), depth(R/I) + 1): violated on bounded "
            "evidence; inconclusive") in report.notes


@pytest.mark.parametrize("statement, depths, side", [
    # (ring, ideal, quotient) depths: the ideal deeper than the ring, then the quotient
    ("depth(R/I) = depth(R)", (2, 3, 2), "quotient"),
    ("depth(I) = depth(R)", (2, 2, 3), "ideal"),
])
def test_depth_audit_checks_equality_with_the_ring_when_one_side_is_deeper(statement, depths, side):
    rep = CpRep.make(2, (2,))

    def audit(label, shift=0, open_side=None):
        depth = dict(zip(("ring", "ideal", "quotient"), depths))
        depth[side] += shift
        return depth_inequality_audit([DepthInstance(label=label, **{
            name: _fake_evidence(rep, d, name != open_side) for name, d in depth.items()})])

    report = audit("equal")
    assert {"instance": "equal", "check": statement, "status": "holds"} in report.params["verified"]
    assert not report.notes
    # one less on the side that must equal the ring: a violation, noted
    report = audit("lower", shift=-1)
    assert report.passed
    assert f"lower: {statement}: violated on bounded evidence; inconclusive" in report.notes
    # without maximality on that side the equality is undecided
    report = audit("open", open_side=side)
    assert f"open: {statement}: inconclusive on bounded evidence" in report.notes
    # without it on the ring's, no side is definitely deeper: not checked
    report = audit("ring open", open_side="ring")
    checked = [note.split(": ")[1] for note in report.notes]
    checked += [entry["check"] for entry in report.params.get("verified", [])]
    assert statement not in checked


def test_depth_audit_of_the_transfer_ideal_is_inconclusive_at_low_bound():
    # up to degree 4 a socle witness caps the transfer ideal's depth at 1,
    # though the ideal (x^2) of the polynomial ring k[x, N(y)] has depth 2
    reports = depth_report(CpRep.make(3, (2,)), 4)
    assert all(r.passed for r in reports)
    assert reports[-1].notes == [
        f"transfer ideal: {statement}: violated on bounded evidence; inconclusive"
        for statement in ("depth(I) >= min(depth(R), depth(R/I) + 1)", "depth(I) = depth(R/I) + 1")]


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


# Sigma dims of the ring and of the transfer ideal modulo the hsop h, at
# D = sigma = (n - r)(p - 1), and whether the ring is Cohen-Macaulay
HSOP_QUOTIENTS = [
    (2, (2, 2), 2, 3, True),
    (3, (2, 2), 3, 6, True),
    (5, (2, 2), 5, 15, True),
    (3, (3,), 3, 4, True),
    (2, (2, 2, 2), 5, 7, False),
    (3, (2, 3), 11, 13, False),
]


@pytest.mark.parametrize("p, blocks, ring_sum, ideal_sum, cm", HSOP_QUOTIENTS)
def test_quotients_by_the_hsop_count_the_rank(p, blocks, ring_sum, ideal_sum, cm):
    # h: each block's fixed variable x[1,j], then the norms N(x[i,j]) for
    # i >= 2; on a ring that is not CM, h is no regular sequence, so some
    # steps divide by an element that is not regular
    rep = CpRep.make(p, blocks)
    n, r = rep.nvars, rep.num_blocks
    sigma = (n - r) * (p - 1)
    h = [rep.variable(1, j) for j in range(1, r + 1)]
    h += [norm(rep, i, j) for j in range(1, r + 1) for i in range(2, blocks[j - 1] + 1)]
    sums = []
    for module in (ring_module(rep, sigma), transfer_ideal_module(rep, sigma)):
        for f in h:
            module = module.quotient_by(f)
        sums.append(sum(module.dims()))
    assert sums == [ring_sum, ideal_sum]
    # the same count from scratch: the ring less the ideal h generates
    reference = ideal_slice(rep, sigma, h)
    assert ring_sum == sum(invariant_slice(rep, sigma).dims()) - sum(reference.dims())
    # the rank over k[h] is prod(deg h) / p = p^(n - r - 1); a CM ring is
    # free, so its count is the rank, and a larger count proves it is not CM
    rank = p ** (n - r - 1)
    assert ring_sum == rank if cm else ring_sum > rank

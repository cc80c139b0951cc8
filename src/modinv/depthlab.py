"""Bounded verification of regular sequences, depth, grade, and socle
witnesses on degreewise-truncated graded modules.

Nothing here proves statements about the full module: a passing check is
evidence up to the stated degree bound, and the reports say so.  A failing
check, by contrast, is exact: it always carries a concrete certificate
(an element annihilated into the denominator, or a socle element killed by
every checkable invariant).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from . import gradedla as la
from .gradedla import GradedBasis, MatFp
from .invariants import InvariantRingSlice, ideal_slice, invariant_slice, transfer_slice
from .poly import Poly, render
from .rep import CpRep, is_invariant, norm, top_norms
from .report import CheckReport, timed

DEFAULT_MAX_DEGREE = 10


class BoundTooSmallError(ValueError):
    """The requested degree bound cannot support the check's window."""


class ZeroModuleError(ValueError):
    """The module is zero in every stored degree, so the statement under
    test is vacuous; callers must be told rather than handed a pass."""


class GradedModuleView:
    """A graded module presented as numerator/denominator subspace bases.

    The view only stores slices up to a bound; all verification semantics
    are relative to that bound.  The numerator must be closed under
    multiplication by the invariants that get applied to it, and the
    denominator under multiplication by every invariant, within the bound:
    ``socle_search`` relies on the latter to test only the generators of
    the invariant ring.
    """

    def __init__(self, rep: CpRep, num: GradedBasis, den: GradedBasis,
                 label: str, check_inclusion: bool = True):
        if num.p != rep.p.value or num.nvars != rep.nvars:
            raise ValueError("numerator does not match the representation")
        if num.p != den.p or num.nvars != den.nvars or num.max_degree != den.max_degree:
            raise ValueError("numerator and denominator gradings differ")
        if check_inclusion and not la.graded_le(den, num):
            raise ValueError(f"denominator is not contained in numerator for module {label!r}")
        self.rep = rep
        self.num = num
        self.den = den
        self.label = label
        self._quotients: dict[int, MatFp] = {}

    @property
    def max_degree(self) -> int:
        return self.num.max_degree

    def dim(self, degree: int) -> int:
        return self.num.dim(degree) - self.den.dim(degree)

    def dims(self) -> list[int]:
        return [self.dim(d) for d in range(self.max_degree + 1)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.dims())

    def quotient_mat(self, degree: int) -> MatFp:
        """Echelon representatives of the degree slice modulo the
        denominator."""
        got = self._quotients.get(degree)
        if got is None:
            residues = la.reduce_rows(self.num.mat(degree).a, self.den.mat(degree))
            got = la.rref(MatFp(self.num.p, residues))
            self._quotients[degree] = got
        return got

    def quotient_by(self, f: Poly, label: str | None = None) -> GradedModuleView:
        """The module modulo f times it; f must be invariant homogeneous."""
        self.rep.check_poly(f)
        if not is_invariant(self.rep, f):
            raise ValueError("can only quotient by an invariant element")
        e = f.homogeneous_degree()
        mats = []
        for d in range(self.max_degree + 1):
            if e <= d and not f.is_zero() and self.num.dim(d - e):
                extra = la.mult_map(self.num.mat(d - e), f, d - e).a
                mats.append(la.rref(MatFp(self.num.p, np.vstack([self.den.mat(d).a, extra]))))
            else:
                mats.append(self.den.mat(d))
        new_label = label if label is not None else f"{self.label} / ({render(f, self.rep.varnames)})"
        return GradedModuleView(self.rep, self.num, GradedBasis(self.num.p, self.num.nvars, mats),
                                new_label, check_inclusion=False)


def ring_module(rep: CpRep, max_degree: int) -> GradedModuleView:
    """The invariant ring as a module over itself, up to a degree bound."""
    inv = invariant_slice(rep, max_degree)
    zero = GradedBasis.zero(rep.p.value, rep.nvars, max_degree)
    return GradedModuleView(rep, inv.basis, zero, "invariant ring", check_inclusion=False)


def is_regular_element(view: GradedModuleView, f: Poly, workers: int = 1) -> CheckReport:
    """Check that multiplication by f is injective on every checkable
    degree slice of the module.  Failure carries an explicit nonzero
    element whose product with f falls into the denominator.

    All degrees 0..D-deg(f) are examined even after a failure, so the
    report does not depend on evaluation order.
    """
    rep = view.rep
    rep.check_poly(f)
    e = f.homogeneous_degree()
    if f.is_zero() or e < 1:
        raise ValueError("regularity candidate must be nonzero, homogeneous, of positive degree")
    if not is_invariant(rep, f):
        raise ValueError("regularity candidate must be invariant")
    bound = view.max_degree
    degrees = list(range(0, bound - e + 1))
    report = CheckReport(
        name="regular-element",
        params={
            "element": render(f, rep.varnames),
            "element_degree": e,
            "module": view.label,
            "max_degree": bound,
        },
        passed=True,
        degrees_checked=degrees,
    )
    with timed(report):
        p = view.num.p
        inputs = [(d, view.quotient_mat(d), view.den.mat(d + e)) for d in degrees]

        def check_one(item: tuple[int, MatFp, MatFp]) -> tuple[int, int, Poly | None]:
            d, q, den_mat = item
            if q.nrows == 0:
                return d, 0, None
            product = la.mult_map(q, f, d)
            residue = la.reduce_rows(product.a, den_mat)
            if la.rank(MatFp(p, residue)) == q.nrows:
                return d, q.nrows, None
            left = la.kernel(MatFp(p, residue.T))
            wit_row = la.matmul_mod(left.a[:1].astype(np.int64), q.a.astype(np.int64), p)
            return d, q.nrows, la.vec_to_poly(p, view.num.nvars, d, wit_row[0])

        if workers > 1 and len(inputs) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(check_one, inputs))
        else:
            results = [check_one(item) for item in inputs]

        nonzero_seen = False
        for d, dim_d, witness in sorted(results):
            nonzero_seen = nonzero_seen or dim_d > 0
            if witness is not None:
                report.passed = False
                report.witnesses.append({
                    "degree": d,
                    "annihilated": render(witness, rep.varnames),
                    "product_in_denominator": True,
                })
        if not degrees:
            report.notes.append(
                f"element degree {e} exceeds the bound {bound}; nothing was checkable")
        elif not nonzero_seen:
            report.notes.append("vacuous: the module is zero in every checked degree")
        if degrees and report.passed:
            report.notes.append(
                f"regular on degrees 0..{degrees[-1]}; higher degrees are outside the bound")
    return report


def _report_is_vacuous(report: CheckReport) -> bool:
    return any(note.startswith("vacuous") or note.startswith("element degree") for note in report.notes)


@dataclass
class SocleWitness:
    """A nonzero class killed by every invariant of every checkable positive
    degree: bounded evidence that no further regular element exists."""

    degree: int
    element: Poly
    rendered: str
    annihilator_degrees: list[int]


@dataclass
class RegSeqCert:
    """Outcome of verifying one sequence: per-step reports, the surviving
    quotient, and optional socle evidence that the sequence is maximal."""

    elements: tuple[Poly, ...]
    rendered: list[str]
    max_degree: int
    steps: list[CheckReport]
    passed: bool
    final_view: GradedModuleView
    socle: SocleWitness | None = None

    @property
    def verified_length(self) -> int:
        return sum(1 for s in self.steps if s.passed)


def verify_regular_sequence(view: GradedModuleView, elements: Sequence[Poly],
                            workers: int = 1) -> RegSeqCert:
    """Verify elements in order, quotienting after each verified step.

    Each passing step records the module dimensions before and after; the
    after-dimensions must equal h(d) - h(d - deg f), which is re-checked
    here and available to consumers in the step parameters.
    """
    current = view
    steps: list[CheckReport] = []
    ok = True
    for f in elements:
        rpt = is_regular_element(current, f, workers=workers)
        before = current.dims()
        rpt.params["hilbert_before"] = before
        if not rpt.passed:
            steps.append(rpt)
            ok = False
            break
        nxt = current.quotient_by(f)
        after = nxt.dims()
        rpt.params["hilbert_after"] = after
        e = f.homogeneous_degree()
        expected = [before[d] - (before[d - e] if d >= e else 0) for d in range(len(before))]
        if after != expected:
            raise RuntimeError(
                f"dimension bookkeeping broke quotienting by {render(f, view.rep.varnames)}: "
                f"{after} != {expected}")
        steps.append(rpt)
        current = nxt
    return RegSeqCert(
        elements=tuple(elements),
        rendered=[render(f, view.rep.varnames) for f in elements],
        max_degree=view.max_degree,
        steps=steps,
        passed=ok,
        final_view=current,
    )


@lru_cache(maxsize=256)
def _generators(rep: CpRep, bound: int, degree: int) -> tuple[Poly, ...]:
    """Degree-``degree`` generators of the invariant ring: a basis of the
    invariants of that degree modulo the products of lower-degree
    generators with invariants.  Each degree is computed on first use."""
    inv = invariant_slice(rep, bound).basis
    p, here = inv.p, inv.mat(degree).a
    products = [la.mult_map(inv.mat(degree - k), g, degree - k).a
                for k in range(1, degree) for g in _generators(rep, bound, k)]
    decomposable = la.rref(MatFp(p, np.vstack([here[:0]] + products)))
    fresh = la.rref(MatFp(p, la.reduce_rows(here, decomposable)))
    return tuple(la.vec_to_poly(p, rep.nvars, degree, row) for row in fresh.a)


def socle_search(view: GradedModuleView,
                 witness_degree_cap: int | None = None) -> tuple[SocleWitness | None, CheckReport]:
    """Look for a nonzero class annihilated by every invariant of every
    positive degree that still fits under the bound.  Returns the
    lowest-degree witness, if any survives all checkable constraints.

    Candidates are multiplied only by the generators of the invariant ring
    in those degrees.  That kills the same classes as every invariant
    provided the denominator is closed under multiplication by invariants
    within the bound: if c*g lies in the denominator, so does c*g*h, and the
    products of generators with invariants span every positive degree."""
    rep = view.rep
    bound = view.max_degree
    cap = bound - 2 if witness_degree_cap is None else min(witness_degree_cap, bound)
    inv = invariant_slice(rep, bound)
    report = CheckReport(
        name="socle-search",
        params={"module": view.label, "witness_degree_cap": cap, "max_degree": bound},
        passed=False,
    )
    witness: SocleWitness | None = None
    with timed(report):
        p = view.num.p
        for d in range(0, cap + 1):
            report.degrees_checked.append(d)
            q = view.quotient_mat(d)
            if q.nrows == 0:
                continue
            candidates = q.a.astype(np.uint8)
            ann_degrees = [e for e in range(1, bound - d + 1) if inv.basis.dim(e)]
            for e in ann_degrees:
                for u in _generators(rep, bound, e):
                    if candidates.shape[0] == 0:
                        break
                    product = la.mult_map(MatFp(p, candidates), u, d)
                    residue = la.reduce_rows(product.a, view.den.mat(d + e))
                    if not residue.any():
                        continue
                    left = la.kernel(MatFp(p, residue.T))
                    if left.nrows == 0:
                        candidates = candidates[:0]
                        break
                    candidates = la.matmul_mod(left.a.astype(np.int64),
                                               candidates.astype(np.int64), p)
                if candidates.shape[0] == 0:
                    break
            if candidates.shape[0] and ann_degrees:
                vec = la.rref(MatFp(p, candidates)).a[0]
                poly = la.vec_to_poly(p, view.num.nvars, d, vec)
                witness = SocleWitness(
                    degree=d,
                    element=poly,
                    rendered=render(poly, rep.varnames),
                    annihilator_degrees=ann_degrees,
                )
                report.passed = True
                report.witnesses.append({
                    "degree": d,
                    "element": witness.rendered,
                    "annihilator_degrees": ann_degrees,
                })
                report.notes.append(
                    f"witness killed by all invariants of degree 1..{ann_degrees[-1]}; "
                    "evidence is bounded, not a proof")
                break
        if witness is None:
            report.notes.append(
                f"no socle element found for witness degrees 0..{cap}; "
                "maximality evidence is missing")
    return witness, report


def _candidate_pool(rep: CpRep, inv: InvariantRingSlice, degree_cap: int) -> list[Poly]:
    """Search pool for depth-style greedy searches: the fixed variables
    and the variable norms first, then the invariant basis elements by
    degree, duplicates dropped."""
    pool: list[Poly] = []

    def push(f: Poly) -> None:
        if f.homogeneous_degree() <= degree_cap and not any(f == g for g in pool):
            pool.append(f)

    for j in range(1, rep.num_blocks + 1):
        push(rep.variable(1, j))
    for j in range(1, rep.num_blocks + 1):
        for i in range(2, rep.blocks[j - 1] + 1):
            push(norm(rep, i, j))
    for e in range(1, degree_cap + 1):
        for f in inv.basis.row_polys(e):
            push(f)
    pool.sort(key=lambda f: f.homogeneous_degree())
    return pool


def _greedy_regular(view: GradedModuleView, pool: Sequence[Poly],
                    workers: int = 1) -> tuple[list[Poly], list[CheckReport], list[dict], GradedModuleView]:
    """Extend a regular sequence greedily from the pool until nothing
    works.  Returns the failure records of the final, exhausted round."""
    current = view
    found: list[Poly] = []
    steps: list[CheckReport] = []
    last_failures: list[dict] = []
    varnames = view.rep.varnames
    while True:
        if current.is_zero():
            last_failures = [{"note": "module is zero up to the bound; search stopped"}]
            break
        progressed = False
        round_failures: list[dict] = []
        for f in pool:
            if any(f == g for g in found):
                continue
            rpt = is_regular_element(current, f, workers=workers)
            if rpt.passed and not _report_is_vacuous(rpt):
                rpt.params["hilbert_before"] = current.dims()
                nxt = current.quotient_by(f)
                rpt.params["hilbert_after"] = nxt.dims()
                steps.append(rpt)
                found.append(f)
                current = nxt
                progressed = True
                break
            record = {"element": render(f, varnames)}
            if rpt.passed:
                record["skipped"] = "no checkable degree"
            else:
                record["failing_degrees"] = [w["degree"] for w in rpt.witnesses]
                record["witness"] = rpt.witnesses[0]["annihilated"]
            round_failures.append(record)
        if not progressed:
            last_failures = round_failures
            break
    return found, steps, last_failures, current


@dataclass
class DepthEvidence:
    """Bounded two-sided depth estimate: a verified regular sequence gives
    the lower bound; a socle witness on the quotient closes the gap."""

    lower: int
    maximal: bool
    cert: RegSeqCert
    reports: list[CheckReport] = field(default_factory=list)

    @property
    def upper(self) -> int | None:
        return self.lower if self.maximal else None

    def interval(self) -> tuple[int, int | None]:
        return self.lower, self.upper


def bounded_depth(view: GradedModuleView, search_degree_cap: int | None = None,
                  witness_degree_cap: int | None = None, workers: int = 1) -> DepthEvidence:
    """Greedy depth evidence for a module: longest regular sequence the
    pool yields, then a socle search on the quotient for maximality."""
    rep = view.rep
    if view.is_zero():
        raise ZeroModuleError(f"module {view.label!r} is zero up to degree {view.max_degree}")
    cap = rep.p.value if search_degree_cap is None else search_degree_cap
    cap = min(cap, view.max_degree)
    inv = invariant_slice(rep, view.max_degree)
    pool = _candidate_pool(rep, inv, cap)
    found, steps, failures, final = _greedy_regular(view, pool, workers=workers)
    cert = RegSeqCert(
        elements=tuple(found),
        rendered=[render(f, rep.varnames) for f in found],
        max_degree=view.max_degree,
        steps=steps,
        passed=True,
        final_view=final,
    )
    reports = list(steps)
    maximal = False
    if final.is_zero():
        summary_notes = ["quotient vanished inside the bound; depth may continue above it"]
    else:
        witness, socle_report = socle_search(final, witness_degree_cap)
        cert.socle = witness
        reports.append(socle_report)
        maximal = witness is not None
        summary_notes = []
    summary = CheckReport(
        name="depth-evidence",
        params={
            "module": view.label,
            "sequence": list(cert.rendered),
            "lower_bound": len(found),
            "maximal": maximal,
            "search_degree_cap": cap,
            "max_degree": view.max_degree,
        },
        passed=True,
        witnesses=failures,
        notes=["depth bounds are certified only up to the degree bound"] + summary_notes,
    )
    reports.append(summary)
    return DepthEvidence(lower=len(found), maximal=maximal, cert=cert, reports=reports)


@dataclass
class GradeResult:
    """Bounded grade evidence: a maximal-within-bounds regular sequence on
    the module drawn from a spanning pool of the ideal."""

    length: int
    cert: RegSeqCert
    failures: list[dict]
    report: CheckReport


def bounded_grade(view: GradedModuleView, pool: Sequence[Poly], pool_label: str,
                  workers: int = 1) -> GradeResult:
    """Longest regular sequence on the module found inside the pool; when
    the scan exhausts, the per-element failure certificates are kept."""
    if view.is_zero():
        raise ZeroModuleError(f"module {view.label!r} is zero up to degree {view.max_degree}")
    found, steps, failures, final = _greedy_regular(view, pool, workers=workers)
    cert = RegSeqCert(
        elements=tuple(found),
        rendered=[render(f, view.rep.varnames) for f in found],
        max_degree=view.max_degree,
        steps=steps,
        passed=True,
        final_view=final,
    )
    report = CheckReport(
        name="grade-search",
        params={
            "module": view.label,
            "pool": pool_label,
            "length": len(found),
            "sequence": list(cert.rendered),
            "max_degree": view.max_degree,
        },
        passed=True,
        witnesses=failures,
        notes=["grade evidence is a lower bound certified up to the degree bound"],
    )
    return GradeResult(length=len(found), cert=cert, failures=failures, report=report)


def canonical_sequence(rep: CpRep) -> list[Poly]:
    """The standard maximal regular sequence for the invariant ring: with
    several blocks, the fixed variables of the first two blocks followed by
    the top-variable norm of every block; with one block, the fixed
    variable, the norm of row 2, and (when the block is larger) the norm of
    the top row."""
    rep.require_nontrivial()
    if rep.num_blocks == 1:
        seq = [rep.variable(1, 1), norm(rep, 2, 1)]
        if rep.blocks[0] > 2:
            seq.append(norm(rep, rep.blocks[0], 1))
        return seq
    seq = [rep.variable(1, 1), rep.variable(1, 2)]
    seq.extend(top_norms(rep))
    return seq


def expected_depth(rep: CpRep) -> int:
    """min(number of blocks + 2, dimension), the known depth of the
    invariant ring when no block is trivial."""
    return min(rep.num_blocks + 2, rep.dim)


def ideal_module(rep: CpRep, gens: Sequence[Poly], max_degree: int,
                 label: str | None = None) -> GradedModuleView:
    """The ideal generated by invariant elements inside the invariant
    ring, as a graded module over that ring."""
    inv = invariant_slice(rep, max_degree)
    basis = ideal_slice(inv, gens)
    zero = GradedBasis.zero(rep.p.value, rep.nvars, max_degree)
    name = label if label is not None else (
        "ideal (" + ", ".join(render(g, rep.varnames) for g in gens) + ")")
    return GradedModuleView(rep, basis, zero, name, check_inclusion=False)


def quotient_module(rep: CpRep, gens: Sequence[Poly], max_degree: int,
                    label: str | None = None) -> GradedModuleView:
    """The invariant ring modulo the ideal the given invariants generate."""
    inv = invariant_slice(rep, max_degree)
    basis = ideal_slice(inv, gens)
    name = label if label is not None else (
        "invariant ring mod (" + ", ".join(render(g, rep.varnames) for g in gens) + ")")
    return GradedModuleView(rep, inv.basis, basis, name, check_inclusion=False)


def transfer_quotient_module(rep: CpRep, max_degree: int) -> GradedModuleView:
    """Invariant ring modulo the transfer ideal, as a graded module."""
    inv = invariant_slice(rep, max_degree)
    tra = transfer_slice(rep, max_degree)
    return GradedModuleView(rep, inv.basis, tra.basis, "invariants mod transfer ideal")


def transfer_ideal_module(rep: CpRep, max_degree: int) -> GradedModuleView:
    """The transfer ideal as a module over the invariant ring."""
    tra = transfer_slice(rep, max_degree)
    zero = GradedBasis.zero(rep.p.value, rep.nvars, max_degree)
    return GradedModuleView(rep, tra.basis, zero, "transfer ideal", check_inclusion=False)


def transfer_quotient_check(rep: CpRep, max_degree: int = DEFAULT_MAX_DEGREE,
                            workers: int = 1) -> list[CheckReport]:
    """Certify the Cohen-Macaulay picture of the invariant ring modulo the
    transfer ideal: the top-variable norms form a regular sequence on it,
    the quotient by those norms vanishes above (number of blocks) * p, the
    quotient's Hilbert series times (1 - t^p)^blocks stays non-negative,
    and the transfer ideal itself has depth evidence blocks + 1."""
    rep.require_nontrivial()
    p = rep.p.value
    blocks = rep.num_blocks
    if max_degree < blocks * p:
        raise BoundTooSmallError(
            f"bound {max_degree} is below blocks*p = {blocks * p}; the vanishing window is empty")
    module = transfer_quotient_module(rep, max_degree)
    norms = top_norms(rep)
    cert = verify_regular_sequence(module, norms, workers=workers)
    reports = list(cert.steps)

    final_dims = cert.final_view.dims()
    window = list(range(blocks * p + 1, max_degree + 1))
    offenders = [d for d in window if final_dims[d] != 0]
    vanishing = CheckReport(
        name="transfer-quotient-vanishing",
        params={"window_start": blocks * p + 1, "max_degree": max_degree,
                "final_dims": final_dims},
        passed=cert.passed and not offenders,
        degrees_checked=window,
        witnesses=[{"degree": d, "dim": final_dims[d]} for d in offenders],
    )
    if not cert.passed:
        vanishing.notes.append("norm sequence failed; vanishing not evaluated on the full quotient")
    reports.append(vanishing)

    dims = module.dims()
    numerator = []
    for d in range(max_degree + 1):
        value = sum((-1) ** k * comb(blocks, k) * dims[d - k * p]
                    for k in range(blocks + 1) if d - k * p >= 0)
        numerator.append(value)
    negative = [d for d, v in enumerate(numerator) if v < 0]
    hilbert = CheckReport(
        name="transfer-quotient-hilbert-nonnegativity",
        params={"series_numerator": numerator, "max_degree": max_degree},
        passed=not negative,
        degrees_checked=list(range(max_degree + 1)),
        witnesses=[{"degree": d, "coefficient": numerator[d]} for d in negative],
        notes=["coefficients of the quotient series times (1 - t^p)^blocks"],
    )
    reports.append(hilbert)

    ideal_depth = bounded_depth(transfer_ideal_module(rep, max_degree), workers=workers)
    expected = blocks + 1
    summary = CheckReport(
        name="transfer-ideal-depth",
        params={
            "lower_bound": ideal_depth.lower,
            "maximal": ideal_depth.maximal,
            "expected": expected,
            "sequence": list(ideal_depth.cert.rendered),
        },
        passed=ideal_depth.lower == expected and ideal_depth.maximal,
        notes=["expected depth is blocks + 1"],
    )
    reports.extend(ideal_depth.reports)
    reports.append(summary)
    return reports


def norm_reduction_check(view: GradedModuleView, search_degree_cap: int | None = None,
                         workers: int = 1) -> list[CheckReport]:
    """Certify depth(M) = grade(transfer ideal on M mod norms) + blocks:
    verify the top norms are regular on M, measure both sides with bounded
    evidence, and compare."""
    rep = view.rep
    rep.require_nontrivial()
    if view.is_zero():
        raise ZeroModuleError(f"module {view.label!r} is zero up to degree {view.max_degree}")
    norms = top_norms(rep)
    cert = verify_regular_sequence(view, norms, workers=workers)
    reports = list(cert.steps)
    if not cert.passed:
        reports.append(CheckReport(
            name="norm-reduction",
            params={"module": view.label},
            passed=False,
            notes=["the top-variable norms are not a regular sequence on the module; "
                   "the depth-grade relation was not evaluated"],
        ))
        return reports

    depth_ev = bounded_depth(view, search_degree_cap=search_degree_cap, workers=workers)
    reports.extend(depth_ev.reports)

    reduced = cert.final_view
    tra = transfer_slice(rep, view.max_degree)
    cap = rep.p.value if search_degree_cap is None else search_degree_cap
    pool = [f for e in range(1, min(cap, view.max_degree) + 1)
            for f in tra.basis.row_polys(e)]
    grade_res = bounded_grade(reduced, pool, "transfer-image basis elements", workers=workers)
    reports.extend(grade_res.cert.steps)
    reports.append(grade_res.report)

    # the grade side is a lower bound; equality is certified when the depth
    # side is two-sided and matches
    blocks = rep.num_blocks
    if depth_ev.maximal:
        consistent = depth_ev.lower == grade_res.length + blocks
    else:
        consistent = depth_ev.lower >= grade_res.length + blocks
    summary = CheckReport(
        name="norm-reduction",
        params={
            "module": view.label,
            "depth_lower": depth_ev.lower,
            "depth_maximal": depth_ev.maximal,
            "grade_lower": grade_res.length,
            "blocks": blocks,
            "relation": "depth(M) = grade + blocks",
        },
        passed=consistent,
        notes=[f"depth evidence {depth_ev.lower}{'' if depth_ev.maximal else '+'} vs "
               f"grade evidence {grade_res.length} + {blocks} blocks"],
    )
    reports.append(summary)
    return reports


def depth_report(rep: CpRep, max_degree: int = DEFAULT_MAX_DEGREE,
                 search_degree_cap: int | None = None, workers: int = 1) -> list[CheckReport]:
    """One bundled depth audit for a representation: verify the canonical
    sequence on the invariant ring, collect two-sided depth evidence for
    the ring, for the ideal of each sequence prefix with its quotient, and
    for the transfer ideal with its quotient, then run every applicable
    depth inequality over the assembled evidence."""
    rep.require_nontrivial()
    seq = canonical_sequence(rep)
    ring = ring_module(rep, max_degree)
    cert = verify_regular_sequence(ring, seq, workers=workers)
    reports = list(cert.steps)
    reports.append(CheckReport(
        name="canonical-sequence",
        params={
            "sequence": list(cert.rendered),
            "verified_length": cert.verified_length,
            "expected_length": expected_depth(rep),
        },
        passed=cert.passed and cert.verified_length == expected_depth(rep),
        notes=["fixed variables and top norms; length should be min(blocks + 2, dim)"],
    ))

    ring_ev = bounded_depth(ring, search_degree_cap=search_degree_cap, workers=workers)
    reports.extend(ring_ev.reports)
    # the invariant ring is a subring of a polynomial ring, so a domain;
    # Cohen-Macaulayness is taken from the evidence, not assumed
    ring_cm_domain = ring_ev.maximal and ring_ev.lower == rep.dim

    instances = []
    for k in range(1, len(seq) + 1):
        prefix = seq[:k]
        ideal_ev = bounded_depth(ideal_module(rep, prefix, max_degree),
                                 search_degree_cap=search_degree_cap, workers=workers)
        quot_ev = bounded_depth(quotient_module(rep, prefix, max_degree),
                                search_degree_cap=search_degree_cap, workers=workers)
        reports.extend(ideal_ev.reports)
        reports.extend(quot_ev.reports)
        instances.append(DepthInstance(
            label=f"first {k} canonical elements",
            ring=ring_ev,
            ideal=ideal_ev,
            quotient=quot_ev,
            ring_cm_domain=ring_cm_domain,
            ideal_regseq_length=k,
        ))

    transfer_ideal_ev = bounded_depth(transfer_ideal_module(rep, max_degree),
                                      search_degree_cap=search_degree_cap, workers=workers)
    transfer_quot_ev = bounded_depth(transfer_quotient_module(rep, max_degree),
                                     search_degree_cap=search_degree_cap, workers=workers)
    reports.extend(transfer_ideal_ev.reports)
    reports.extend(transfer_quot_ev.reports)
    instances.append(DepthInstance(
        label="transfer ideal",
        ring=ring_ev,
        ideal=transfer_ideal_ev,
        quotient=transfer_quot_ev,
        ring_cm_domain=ring_cm_domain,
    ))

    reports.append(depth_inequality_audit(instances))
    return reports


Interval = tuple[int, int | None]


def _interval_ge(a: Interval, b: Interval) -> str:
    """Definite comparison a >= b on [lo, hi] data, hi None meaning open."""
    a_lo, a_hi = a
    b_lo, b_hi = b
    if b_hi is not None and a_lo >= b_hi:
        return "holds"
    if a_hi is not None and a_hi < b_lo:
        return "violated"
    return "inconclusive"


def _interval_eq(a: Interval, b: Interval) -> str:
    a_lo, a_hi = a
    b_lo, b_hi = b
    if a_lo == a_hi and b_lo == b_hi and a_lo == b_lo:
        return "holds"
    if (a_hi is not None and a_hi < b_lo) or (b_hi is not None and b_hi < a_lo):
        return "violated"
    return "inconclusive"


def _interval_min(a: Interval, b: Interval) -> Interval:
    lo = min(a[0], b[0])
    if a[1] is None:
        hi = b[1]
    elif b[1] is None:
        hi = a[1]
    else:
        hi = min(a[1], b[1])
    return lo, hi


def _interval_shift(a: Interval, offset: int) -> Interval:
    return a[0] + offset, None if a[1] is None else a[1] + offset


def _interval_gt(a: Interval, b: Interval) -> bool:
    """Definitely a > b."""
    return b[1] is not None and a[0] > b[1]


def _fmt_interval(a: Interval) -> str:
    return f"{a[0]}" if a[1] == a[0] else f">={a[0]}"


@dataclass
class DepthInstance:
    """Depth evidence for one (ring, ideal, quotient) triple, feeding the
    inequality audit."""

    label: str
    ring: DepthEvidence
    ideal: DepthEvidence
    quotient: DepthEvidence
    ring_cm_domain: bool = False
    ideal_regseq_length: int | None = None


def depth_inequality_audit(instances: Sequence[DepthInstance]) -> CheckReport:
    """Check every applicable standard depth relation on the supplied
    evidence.  Missing maximality turns a value into a one-sided bound;
    checks that cannot be decided are recorded, never silently passed."""
    report = CheckReport(name="depth-inequality-audit", params={"instances": []}, passed=True)
    with timed(report):
        for inst in instances:
            r = inst.ring.interval()
            i = inst.ideal.interval()
            q = inst.quotient.interval()
            report.params["instances"].append({
                "label": inst.label,
                "depth_ring": _fmt_interval(r),
                "depth_ideal": _fmt_interval(i),
                "depth_quotient": _fmt_interval(q),
            })
            checks: list[tuple[str, str]] = [
                ("depth(R) >= min(depth(I), depth(R/I))", _interval_ge(r, _interval_min(i, q))),
                ("depth(I) >= min(depth(R), depth(R/I) + 1)",
                 _interval_ge(i, _interval_min(r, _interval_shift(q, 1)))),
                ("depth(R/I) >= min(depth(I) - 1, depth(R))",
                 _interval_ge(q, _interval_min(_interval_shift(i, -1), r))),
            ]
            if _interval_gt(r, i) or _interval_gt(r, q) or inst.ring_cm_domain:
                checks.append(("depth(I) = depth(R/I) + 1",
                               _interval_eq(i, _interval_shift(q, 1))))
            if _interval_gt(i, r):
                checks.append(("depth(R/I) = depth(R)", _interval_eq(q, r)))
            if _interval_gt(q, r):
                checks.append(("depth(I) = depth(R)", _interval_eq(i, r)))
            if inst.ideal_regseq_length is not None:
                checks.append((
                    f"depth(I) = depth(R) + 1 - {inst.ideal_regseq_length} (regular-sequence ideal)",
                    _interval_eq(i, _interval_shift(r, 1 - inst.ideal_regseq_length))))
            for statement, status in checks:
                entry = {"instance": inst.label, "check": statement, "status": status}
                if status == "violated":
                    report.passed = False
                    report.witnesses.append(entry)
                elif status == "inconclusive":
                    report.notes.append(f"{inst.label}: {statement}: inconclusive on bounded evidence")
                else:
                    report.params.setdefault("verified", []).append(entry)
    return report

"""Bounded verification of regular sequences, depth, grade, and socle
witnesses on degreewise-truncated graded modules.

Nothing here proves statements about the full module: a passing check is
evidence up to the stated degree bound, and the reports say so.  A failing
regularity check is exact: it carries an element annihilated into the
denominator.  Every regularity check is one rank test per degree
(``_shortfall``): one elimination of the quotient coordinates beside an
identity block gives both their RREF and their left kernel, and a witness
a report prints is read off that left kernel.  The failing degrees are
walked lazily (``_failures``), so a greedy search tests a candidate only up
to its first failure, and builds only what it prints: the step report of an
accepted element and the witness of each final-round failure record.
A socle search with no witness passes as inconclusive, and so does a
``norm-reduction`` whose depth and grade sides disagree, or a
``transfer-ideal-depth`` whose evidence disagrees with blocks + 1: both are
found up to the degree bound, and a higher bound can lower the grade, as
from ``grade --p 5 --blocks 2,3 --max-degree 10`` to ``--max-degree 12``,
or raise the transfer ideal's depth evidence, as from
``transfer-quotient --p 3 --blocks 2 --max-degree 4`` to ``--max-degree 5``.

A module's denominator is held in numerator coordinates
(``GradedModuleView``), so a quotient step adds only the classes of f times
the quotient rows, never eliminating the whole denominator again, and the
RREF of their coordinates is the one a passing regularity check of f
already computed, so the step eliminates nothing more.  A state stores
quotient positions into the numerator its chain shares, never its rows.

Each module state carries one memo (``_Memo``), so a run checks and
quotients each (state, element) pair once, however many searches walk the
same quotient chain: the rank test of each degree (``_shortfall``), the
quotient by the element (``_quotient_by``) and the socle search.  A depth
report's canonical-sequence check, greedy searches and prefix quotients all
divide the ring by the same elements, so they share one chain.  A memo lives
as long as its state: a state keeps every quotient built from it alive,
and every failing degree's left kernel, but a passing rank test's RREF
only until the element fails a degree or its quotient exists.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import gradedla as la
from .gradedla import GradedBasis, MatFp
# ideal_slice is not called here: perfbench/selftest.py checks its binding
from .invariants import finite_difference, ideal_slice, invariant_slice, transfer_slice
from .poly import Poly, render
# is_invariant stays bound by name here: perfbench/selftest.py checks that
# the tracer rebinds it in this module
from .rep import CpRep, invariant_degree, is_invariant, norm, top_norms
from .report import CheckReport

DEFAULT_MAX_DEGREE = 10


class BoundTooSmallError(ValueError):
    """The requested degree bound cannot support the check's window."""


class ZeroModuleError(ValueError):
    """The module is zero in every stored degree, so the statement under
    test is vacuous; callers must be told rather than handed a pass."""


class _Slice(NamedTuple):
    """One degree of a view in numerator coordinates, built once: ``cols``,
    the numerator's pivot columns; ``local``, the canonical denominator on
    those columns (den_d[:, cols], so den_d = local @ num_d), of width
    dim num_d; and ``keep``, the quotient positions, the numerator pivots
    that are not denominator pivots, as indices into ``cols``, whose rows
    are the quotient's canonical basis (``GradedModuleView.quotient_mat``)."""

    cols: np.ndarray
    local: MatFp
    keep: np.ndarray

    @classmethod
    def of(cls, num: MatFp, den: MatFp) -> _Slice | None:
        """The record of canonical ``den`` inside canonical ``num``; None
        when a pivot of ``den`` is no pivot of ``num``, so ``den`` is not
        inside it."""
        where = {c: i for i, c in enumerate(num.pivots)}
        if not where.keys() >= set(den.pivots):
            return None
        cols = np.asarray(num.pivots, dtype=np.intp)
        piv = tuple(where[c] for c in den.pivots)
        keep = np.delete(np.arange(len(cols)), piv)
        return cls(cols, MatFp(num.p, den.a.take(cols, axis=1), piv), keep)

    def extended(self, r: MatFp) -> _Slice:
        """The slice with the new classes added, r being the canonical RREF
        of their coordinates on ``keep`` (``la.merge_residues``).  The new
        quotient positions are the old ones but r's pivots."""
        return _Slice(self.cols, la.merge_residues(self.local, self.keep, r),
                      np.delete(self.keep, list(r.pivots)))


@dataclass
class _Step:
    """What one module state knows about one element f: the outcome of the
    rank test of each degree checked (``_shortfall``), the canonical left
    kernel where f is not injective and None where it is, and, once built,
    the quotient by f.  The quotient step is the one reader of a passing
    test's RREF of the quotient coordinates, and only after f passed every
    degree, so ``rrefs`` holds them only until f fails a degree or its
    quotient exists (None after)."""

    tests: dict[int, MatFp | None] = field(default_factory=dict)
    rrefs: dict[int, MatFp] | None = field(default_factory=dict)
    child: GradedModuleView | None = None


@dataclass
class _Memo:
    """One module state's computations: a ``_Step`` per element, keyed by
    its terms (a ``Poly`` is unhashable), and the socle search's witness,
    held as a 1-tuple once searched."""

    steps: dict[tuple, _Step] = field(default_factory=dict)
    socle: tuple[SocleWitness | None] | None = None


class GradedModuleView:
    """A graded module presented as numerator/denominator subspace bases.

    The view only stores slices up to a bound; all verification semantics
    are relative to that bound.  In each degree the denominator lies inside
    the numerator and both are canonical echelon bases, so every denominator
    pivot is a numerator pivot, and the numerator rows on the other pivots
    are the canonical basis of the quotient (``quotient_mat``), found
    without elimination.

    The view holds one record per degree (``_Slice``), all built by the
    constructor: the denominator in numerator coordinates, its canonical
    echelon matrix on the numerator's pivot columns, of width dim num_d;
    and the quotient positions, the numerator pivots it leaves, whose rows,
    the quotient basis, are read off the numerator and never stored.  The
    constructor's one inclusion guard is that pivot test: a denominator
    pivot that is no numerator pivot means the denominator left the
    numerator, and it raises RuntimeError.  Every caller has proved the
    inclusion already, so no full-width test runs.  A quotient step derives
    its records from these; the full-width ``den`` of a quotient step is
    built only when something reads it.

    The numerator must be closed under multiplication by the invariants
    that get applied to it, and the denominator under multiplication by
    every invariant, within the bound.  Products of quotient rows then lie
    in the numerator, so regularity and socle checks compute only the
    coordinates of their classes in the quotient rows of the target degree
    (``_product_coords``); ``quotient_by`` multiplies only the quotient
    rows and eliminates only those coordinates; and ``socle_search`` tests
    only the generators of the invariant ring.

    The constructor gives the view an empty memo (``_Memo``); every quotient
    step's new state gets a fresh one, and a relabeled shallow copy shares
    its original's, since labels are not part of the math.  The memo holds
    the rank tests, the quotients and the socle witness computed on this
    state, so it keeps every quotient built from the state alive as long as
    the state itself.
    """

    def __init__(self, rep: CpRep, num: GradedBasis, den: GradedBasis, label: str):
        if num.p != rep.p or num.nvars != rep.nvars:
            raise ValueError("numerator does not match the representation")
        if num.p != den.p or num.nvars != den.nvars or num.max_degree != den.max_degree:
            raise ValueError("numerator and denominator gradings differ")
        self.rep = rep
        self.num = num
        self.label = label
        self._den: GradedBasis | None = den
        self._slices: list[_Slice] = []
        for d, (n, m) in enumerate(zip(num.mats, den.mats)):
            s = _Slice.of(n, m)
            if s is None:
                raise RuntimeError(f"module {label!r}: the degree-{d} denominator "
                                   "is not inside the numerator")
            self._slices.append(s)
        self._memo = _Memo()

    @property
    def max_degree(self) -> int:
        return self.num.max_degree

    @property
    def den(self) -> GradedBasis:
        """The full-width canonical denominator, built on first access from
        the numerator coordinates: each row is the numerator row at its
        pivot plus its quotient-position entries times the quotient rows.
        That sum is the residue, modulo those rows (``la.reduce_rows``), of
        the numerator row with the negated entries on their pivots, which
        are then set back to the entries themselves."""
        if self._den is None:
            p, mats = self.num.p, []
            for d in range(self.max_degree + 1):
                s, num = self._slices[d], self.num.mat(d)
                entries, at = s.local.a[:, s.keep], s.cols[s.keep]
                rows = num.a[list(s.local.pivots)]
                rows[:, at] = (p - entries) % p
                rows = la.reduce_rows(rows, self.quotient_mat(d))
                rows[:, at] = entries
                mats.append(MatFp(p, rows, tuple(num.pivots[i] for i in s.local.pivots)))
            self._den = GradedBasis(p, self.num.nvars, mats)
        return self._den

    def _at(self, degree: int) -> _Slice:
        if not 0 <= degree < len(self._slices):
            raise ValueError(f"degree {degree} outside stored range 0..{self.max_degree}")
        return self._slices[degree]

    def dim(self, degree: int) -> int:
        return len(self._at(degree).keep)

    def dims(self) -> list[int]:
        return [len(s.keep) for s in self._slices]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.dims())

    def quotient_mat(self, degree: int) -> MatFp:
        """Canonical echelon basis of the degree slice's classes modulo the
        denominator: the numerator rows at the quotient positions, gathered
        with no elimination, or the numerator itself where none is dropped."""
        s, num = self._at(degree), self.num.mat(degree)
        if len(s.keep) == num.nrows:
            return num
        return MatFp(num.p, num.a[s.keep], tuple(s.cols[s.keep].tolist()))

    def _step(self, f: Poly) -> _Step:
        """The memo's record of f on this state, made empty on first use."""
        key = tuple(sorted(f.terms.items()))
        step = self._memo.steps.get(key)
        if step is None:
            step = self._memo.steps[key] = _Step()
        return step

    def quotient_by(self, f: Poly, label: str | None = None) -> GradedModuleView:
        """The module modulo f times it; f must be invariant homogeneous.

        The new degree-d denominator is spanned by the old one and f times
        the degree-(d - e) quotient rows: f times the old denominator adds
        nothing, as the denominator is closed under invariants.  Degrees
        where the module is zero keep their denominator."""
        invariant_degree(self.rep, f)
        return self._quotient_by(f, label)

    def _quotient_by(self, f: Poly, label: str | None = None) -> GradedModuleView:
        """``quotient_by`` for an f its caller has already validated.  The
        inclusion is not re-checked: the old denominator lies in the
        numerator, and so do f times the quotient rows, by closure.

        The new state is built once per state and f, on the first call, and
        memoized; every call returns a copy of it under its own label."""
        step = self._step(f)
        if step.child is None:
            step.child, step.rrefs = self._divided(f), None
        view = copy.copy(step.child)
        view.label = label if label is not None else f"{self.label} / ({render(f, self.rep.varnames)})"
        return view

    def _divided(self, f: Poly) -> GradedModuleView:
        """The new state of ``_quotient_by``, with a fresh memo.  Each degree
        d adds the classes of f times the degree-(d - e) quotient rows, from
        the RREF of their quotient coordinates: the one a passing rank test
        of f on this state holds (``_Step.rrefs``), with no elimination, or
        else a rank test run now, whose outcome the memo records."""
        e = f.homogeneous_degree()
        step = self._step(f)
        held = step.rrefs or {}
        slices = []
        for d in range(self.max_degree + 1):
            s = self._slices[d]
            if e <= d and not f.is_zero() and len(s.keep) and self.dim(d - e):
                r = held.get(d - e)
                if r is None:
                    r, step.tests[d - e] = _rank_test(self, f, e, d - e)
                s = s.extended(r)
            slices.append(s)
        view = copy.copy(self)
        view._den, view._slices, view._memo = None, slices, _Memo()
        return view


def ring_module(rep: CpRep, max_degree: int) -> GradedModuleView:
    """The invariant ring as a module over itself, up to a degree bound."""
    zero = GradedBasis.zero(rep.p, rep.nvars, max_degree)
    return GradedModuleView(rep, invariant_slice(rep, max_degree), zero, "invariant ring")


def _regular_candidate_degree(rep: CpRep, f: Poly) -> int:
    """Validate a regularity candidate and return its degree."""
    e = invariant_degree(rep, f)
    if f.is_zero() or e < 1:
        raise ValueError("regularity candidate must be nonzero, of positive degree")
    return e


def _product_coords(view: GradedModuleView, rows: np.ndarray, f: Poly, e: int, d: int) -> np.ndarray:
    """The quotient coordinates of f, of degree e, times degree-d rows: the
    classes' coordinates in the quotient rows of degree d + e, which are
    the product's residues modulo the denominator, on the quotient
    positions only, computed in numerator coordinates
    (``la.reduced_product``).  The product is read on the numerator pivot
    columns alone.

    Precondition (closure): the products lie in the numerator, so their
    entries on its pivots are their numerator coordinates.  Their residues
    modulo the denominator then lie in the numerator too and are zero on
    the denominator pivots, so they lie in the span of the quotient rows,
    and a residue's entries on the quotient positions are its coordinates;
    the other entries follow from those, so dropping them loses nothing."""
    s = view._slices[d + e]
    return la.reduced_product(MatFp(view.num.p, rows), f, d, s.cols, s.local, s.keep)


def _shortfall(view: GradedModuleView, f: Poly, e: int, d: int) -> MatFp | None:
    """None if multiplication by f, of degree e, is injective on degree d
    (or the module is zero there); else the canonical left kernel of the
    quotient coordinates of f times the degree-d quotient rows q, whose rows
    combine rows of q into annihilated classes.

    Memoized per state, f and d (``_Step``), with the RREF of a passing
    degree's coordinates, which the quotient by f reads; those are dropped
    once f fails a degree or the quotient by f exists."""
    if view.dim(d) == 0:
        return None
    step = view._step(f)
    if d not in step.tests:
        r, step.tests[d] = _rank_test(view, f, e, d)
        if step.tests[d] is not None:
            step.rrefs = None
        elif step.rrefs is not None:
            step.rrefs[d] = r
    return step.tests[d]


def _rank_test(view: GradedModuleView, f: Poly, e: int, d: int) -> tuple[MatFp, MatFp | None]:
    """``_shortfall`` computed: the quotient coordinates c of f times the
    degree-d quotient rows (``_product_coords``) and one elimination of
    [c | I], which gives both rref(c) and the left kernel of c, None when
    it is zero: f is injective on degree d exactly when c has full row
    rank."""
    coords = _product_coords(view, view.quotient_mat(d).a, f, e, d)
    r, left = la.rref_left_kernel(MatFp(view.num.p, coords))
    return r, (left if left.nrows else None)


def _witness(view: GradedModuleView, left: MatFp, d: int) -> Poly:
    """The first row of the canonical left kernel times the degree-d
    quotient rows."""
    row = la.matmul_mod(left.a[:1], view.quotient_mat(d).a, view.num.p)[0]
    return la.vec_to_poly(view.num.p, view.num.nvars, d, row)


def _failures(view: GradedModuleView, f: Poly, e: int) -> Iterator[tuple[int, MatFp]]:
    """The degrees up to D-e where f is not injective, lowest first, each
    with its left kernel.  A degree is rank-tested only when the walk
    reaches it, so the first failure costs no test above it."""
    for d in range(view.max_degree - e + 1):
        left = _shortfall(view, f, e, d)
        if left is not None:
            yield d, left


def _regular_report(view: GradedModuleView, f: Poly, e: int) -> CheckReport:
    """The regular-element report over degrees 0..D-e, with one witness
    per failing degree.  A passing check leaves the RREFs its quotient step
    reads in the memo."""
    rep = view.rep
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
    for d, left in _failures(view, f, e):
        report.passed = False
        report.witnesses.append({
            "degree": d,
            "annihilated": render(_witness(view, left, d), rep.varnames),
            "product_in_denominator": True,
        })
    if not degrees:
        report.notes.append(
            f"element degree {e} exceeds the bound {bound}; nothing was checkable")
    elif not any(view.dim(d) for d in degrees):
        report.notes.append("vacuous: the module is zero in every checked degree")
    if degrees and report.passed:
        report.notes.append(
            f"regular on degrees 0..{degrees[-1]}; higher degrees are outside the bound")
    return report


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
    """Outcome of verifying one sequence: per-step reports and the
    surviving quotient."""

    elements: tuple[Poly, ...]
    rendered: list[str]
    steps: list[CheckReport]
    passed: bool
    final_view: GradedModuleView

    @property
    def verified_length(self) -> int:
        return sum(1 for s in self.steps if s.passed)

    @property
    def vacuity_notes(self) -> list[str]:
        """The summary's note on the steps that checked no degree, whose
        passes count in ``verified_length``; empty when there are none."""
        unchecked = [r for r, s in zip(self.rendered, self.steps) if not s.degrees_checked]
        if not unchecked:
            return []
        return [f"vacuous: nothing was checkable up to the bound {self.final_view.max_degree} "
                f"for {', '.join(unchecked)}"]


def _accept_step(current: GradedModuleView, f: Poly, e: int, rpt: CheckReport) -> GradedModuleView:
    """Quotient by a validated f of degree e that passed every degree, from
    the RREFs its check left in the memo, and record the dimensions before
    and after, re-checked as h(d) - h(d - e)."""
    before = current.dims()
    nxt = current._quotient_by(f)
    after = nxt.dims()
    expected = [before[d] - (before[d - e] if d >= e else 0) for d in range(len(before))]
    if after != expected:
        raise RuntimeError(
            f"dimension bookkeeping broke quotienting by {render(f, current.rep.varnames)}: "
            f"{after} != {expected}")
    rpt.params["hilbert_before"] = before
    rpt.params["hilbert_after"] = after
    return nxt


def verify_regular_sequence(view: GradedModuleView, elements: Sequence[Poly]) -> RegSeqCert:
    """Verify elements in order, quotienting after each verified step.

    Each step records the module dimensions before it; a passing step also
    records them after, re-checked against h(d) - h(d - deg f).
    """
    current = view
    steps: list[CheckReport] = []
    ok = True
    for f in elements:
        e = _regular_candidate_degree(current.rep, f)
        rpt = _regular_report(current, f, e)
        steps.append(rpt)
        if not rpt.passed:
            rpt.params["hilbert_before"] = current.dims()
            ok = False
            break
        current = _accept_step(current, f, e, rpt)
    return RegSeqCert(
        elements=tuple(elements),
        rendered=[render(f, view.rep.varnames) for f in elements],
        steps=steps,
        passed=ok,
        final_view=current,
    )


@lru_cache(maxsize=256)
def _generators(rep: CpRep, bound: int, degree: int) -> tuple[Poly, ...]:
    """Degree-``degree`` generators of the invariant ring: a basis of the
    invariants of that degree modulo the decomposables, the products of
    lower-degree generators with invariants.  Each degree is computed on
    first use.

    The invariants modulo the decomposables are a module view's quotient
    (``_Slice``).  The first product, by the first degree-1 generator, a
    fixed variable, is canonical as ``la.mult_map`` builds it, so it seeds
    the denominator with no elimination; a seed pivot that is no invariant
    pivot means the products left the invariants.  Every other product is
    read on the invariants' pivot columns and reduced off the seed there
    (``la.reduced_product``), block by block, into one stack of quotient
    coordinates, which is eliminated once and added as a quotient step adds
    its classes.  The generators are the invariant rows left at the quotient
    positions (they are invariants, so no further elimination is needed)."""
    inv = invariant_slice(rep, bound)
    p, here = inv.p, inv.mat(degree)
    products = [(inv.mat(degree - k), g, degree - k) for k in range(1, degree)
                for g in _generators(rep, bound, k)]
    seed = la.rref(la.mult_map(*products[0])) if products else MatFp(p, here.a[:0], ())
    s = _Slice.of(here, seed)
    if s is None:
        raise RuntimeError(f"degree-{degree} products of generators are not invariants")
    coords = np.empty((sum(m.nrows for m, _, _ in products[1:]), len(s.keep)), dtype=np.uint8)
    at = 0
    for m, g, d in products[1:]:
        block = la.reduced_product(m, g, d, s.cols, s.local, s.keep)
        coords[at:at + len(block)] = block
        at += len(block)
    keep = s.extended(la.rref(MatFp(p, coords))).keep
    return tuple(la.vec_to_poly(p, rep.nvars, degree, row) for row in here.a[keep])


def socle_search(view: GradedModuleView) -> tuple[SocleWitness | None, CheckReport]:
    """Look for a nonzero class of degree at most D-2 annihilated by every
    invariant of every positive degree that still fits under the bound.
    Returns the lowest-degree witness, if any; finding none is inconclusive.

    Candidates are multiplied only by the generators of the invariant ring
    in those degrees.  That kills the same classes as every invariant
    provided the denominator is closed under multiplication by invariants
    within the bound: if c*g lies in the denominator, so does c*g*h, and the
    products of generators with invariants span every positive degree.

    The search runs once per module state (``_Memo``); each call builds
    its report under the caller's label.  A bound below 2 leaves no witness
    degree and is refused."""
    cap = view.max_degree - 2
    if cap < 0:
        raise BoundTooSmallError(
            f"a socle search needs a degree bound of at least 2, got {view.max_degree}: "
            f"its witness-degree cap D - 2 = {cap} leaves no degree")
    report = CheckReport(
        name="socle-search",
        params={"module": view.label, "witness_degree_cap": cap, "max_degree": view.max_degree},
        passed=True,
    )
    if view._memo.socle is None:
        view._memo.socle = (_socle_witness(view, cap),)
    witness, = view._memo.socle
    if witness is None:
        report.degrees_checked.extend(range(cap + 1))
        report.notes.append(
            f"inconclusive: no socle element found for witness degrees 0..{cap}; "
            "maximality evidence is missing")
    else:
        ann_degrees = witness.annihilator_degrees
        report.degrees_checked.extend(range(witness.degree + 1))
        report.witnesses.append({
            "degree": witness.degree,
            "element": witness.rendered,
            "annihilator_degrees": list(ann_degrees),
        })
        report.notes.append(
            f"witness killed by all invariants of degree 1..{ann_degrees[-1]}; "
            "evidence is bounded, not a proof")
    return witness, report


def _socle_witness(view: GradedModuleView, cap: int) -> SocleWitness | None:
    """``socle_search``'s lowest-degree witness of degree at most cap."""
    rep = view.rep
    bound = view.max_degree
    inv = invariant_slice(rep, bound)
    p = view.num.p
    for d in range(0, cap + 1):
        q = view.quotient_mat(d)
        if q.nrows == 0:
            continue
        candidates = q.a
        ann_degrees = [e for e in range(1, bound - d + 1) if inv.dim(e)]
        for e in ann_degrees:
            for u in _generators(rep, bound, e):
                coords = _product_coords(view, candidates, u, e, d)
                if not coords.any():
                    continue
                left = la.rref_left_kernel(MatFp(p, coords))[1]
                if left.nrows == 0:
                    candidates = candidates[:0]
                    break
                candidates = la.matmul_mod(left.a, candidates, p)
            if candidates.shape[0] == 0:
                break
        if candidates.shape[0] and ann_degrees:
            vec = la.rref(MatFp(p, candidates)).a[0]
            poly = la.vec_to_poly(p, view.num.nvars, d, vec)
            return SocleWitness(degree=d, element=poly, rendered=render(poly, rep.varnames),
                                annihilator_degrees=ann_degrees)
    return None


@lru_cache(maxsize=64)
def _candidate_pool(rep: CpRep, bound: int, degree_cap: int) -> tuple[tuple[Poly, int], ...]:
    """Search pool for depth-style greedy searches: the fixed variables
    and the variable norms first, then the invariant basis elements by
    degree, duplicates dropped.  Each element is validated once, here, and
    paired with its degree; the tuple is shared by every search with the
    same representation, bound and cap."""
    inv = invariant_slice(rep, bound)
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
        for f in inv.row_polys(e):
            push(f)
    pool.sort(key=lambda f: f.homogeneous_degree())
    return tuple((f, _regular_candidate_degree(rep, f)) for f in pool)


def _greedy_regular(view: GradedModuleView,
                    candidates: Sequence[tuple[Poly, int]]) -> tuple[RegSeqCert, list[dict]]:
    """Extend a regular sequence greedily from the candidates, validated
    pool elements paired with their degrees, until nothing works.  Returns
    the certificate of the sequence found and the failure records of the
    final, exhausted round.

    Within a round a candidate is rank-tested up to its first failing degree
    (``_failures``), and a rejected one keeps nothing else.  Only an
    accepted element gets a step report, the complete one
    ``verify_regular_sequence`` gives, read off the memo with no new rank
    test.  Only the final round, whose records reach the report, walks its
    rejected candidates' later degrees, and renders one witness each, at the
    first failing degree.  A zero module is refused, and so is a sequence
    longer than n = dim V: none is regular, so the bound is too small.

    The search never empties the module: an accepted f of degree e keeps
    the lowest nonzero degree m, as the module is zero in degree m - e
    (``_accept_step`` checks the dimensions), so only a round that rejects
    every candidate ends it."""
    if view.is_zero():
        raise ZeroModuleError(f"module {view.label!r} is zero up to degree {view.max_degree}")
    varnames = view.rep.varnames
    current = view
    found: list[Poly] = []
    steps: list[CheckReport] = []
    while True:
        rejected = []
        for f, e in candidates:
            if any(f == g for g in found):
                continue
            # a pass on degrees where the module is zero is vacuous
            if (next(_failures(current, f, e), None) is None
                    and any(current.dim(d) for d in range(current.max_degree - e + 1))):
                rpt = _regular_report(current, f, e)
                current = _accept_step(current, f, e, rpt)  # the pool is validated
                steps.append(rpt)
                found.append(f)
                break
            rejected.append((f, e))
        else:
            break
    last_failures = []
    for f, e in rejected:
        record = {"element": render(f, varnames)}
        failures = list(_failures(current, f, e))
        if failures:
            d, left = failures[0]
            record["failing_degrees"] = [d for d, _ in failures]
            record["witness"] = render(_witness(current, left, d), varnames)
        else:
            record["skipped"] = "no checkable degree"
        last_failures.append(record)
    n = view.rep.nvars
    if len(found) > n:
        raise BoundTooSmallError(
            f"module {view.label!r}: a regular sequence of length {len(found)} was "
            f"verified up to degree {view.max_degree}, but no sequence longer than n = {n} "
            "is regular; the degree bound is too small")
    cert = RegSeqCert(
        elements=tuple(found),
        rendered=[render(f, varnames) for f in found],
        steps=steps,
        passed=True,
        final_view=current,
    )
    return cert, last_failures


@dataclass
class DepthEvidence:
    """Bounded two-sided depth estimate: a verified regular sequence gives
    the lower bound; a socle witness on the quotient closes the gap."""

    lower: int
    maximal: bool
    cert: RegSeqCert
    reports: list[CheckReport] = field(default_factory=list)

    def interval(self) -> Interval:
        """[lower, upper], the upper end infinite until a socle witness
        closes it."""
        return self.lower, self.lower if self.maximal else math.inf


def bounded_depth(view: GradedModuleView, search_degree_cap: int | None = None) -> DepthEvidence:
    """Greedy depth evidence for a module: longest regular sequence the
    pool yields, then a socle search on the quotient for maximality.  The
    greedy search never empties the module, so the quotient always has a
    class to search."""
    rep = view.rep
    cap = rep.p if search_degree_cap is None else search_degree_cap
    cap = min(cap, view.max_degree)
    cert, failures = _greedy_regular(view, _candidate_pool(rep, view.max_degree, cap))
    witness, socle_report = socle_search(cert.final_view)
    maximal = witness is not None
    summary = CheckReport(
        name="depth-evidence",
        params={
            "module": view.label,
            "sequence": list(cert.rendered),
            "lower_bound": len(cert.elements),
            "maximal": maximal,
            "search_degree_cap": cap,
            "max_degree": view.max_degree,
        },
        passed=True,
        witnesses=failures,
        notes=["depth bounds are certified only up to the degree bound"],
    )
    return DepthEvidence(lower=len(cert.elements), maximal=maximal, cert=cert,
                         reports=[*cert.steps, socle_report, summary])


def bounded_grade(view: GradedModuleView, pool: Sequence[Poly],
                  pool_label: str) -> tuple[RegSeqCert, CheckReport]:
    """Longest regular sequence on the module found inside the pool, with
    its grade-search report; when the scan exhausts, the report keeps the
    per-element failure certificates."""
    cert, failures = _greedy_regular(
        view, [(f, _regular_candidate_degree(view.rep, f)) for f in pool])
    report = CheckReport(
        name="grade-search",
        params={
            "module": view.label,
            "pool": pool_label,
            "length": len(cert.elements),
            "sequence": list(cert.rendered),
            "max_degree": view.max_degree,
        },
        passed=True,
        witnesses=failures,
        notes=["grade evidence is a lower bound certified up to the degree bound"],
    )
    return cert, report


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
    return min(rep.num_blocks + 2, rep.nvars)


def _prefix_modules(rep: CpRep, gens: Sequence[Poly], max_degree: int,
                    ring: GradedModuleView | None = None
                    ) -> Iterator[tuple[GradedModuleView, GradedModuleView]]:
    """For every prefix g_1..g_k of the generators, the ideal it generates
    inside the invariant ring and the ring modulo that ideal, as graded
    modules over the ring, from one chain: the k-th quotient is the
    (k-1)-th one by g_k, and its denominator is the ideal.  The chain starts
    at ``ring``, the invariant ring's view up to max_degree, when given, so
    that its memo serves the chain; else at a new one.  Each generator is
    validated once.  The ideal views have zero denominators."""
    zero = GradedBasis.zero(rep.p, rep.nvars, max_degree)
    quotient = ring_module(rep, max_degree) if ring is None else ring
    names = []
    for g in gens:
        invariant_degree(rep, g)
        names.append(render(g, rep.varnames))
        label = ", ".join(names)
        quotient = quotient._quotient_by(g, f"invariant ring mod ({label})")
        yield GradedModuleView(rep, quotient.den, zero, f"ideal ({label})"), quotient


def transfer_quotient_module(rep: CpRep, max_degree: int) -> GradedModuleView:
    """Invariant ring modulo the transfer ideal, as a graded module.  The
    slices were built with each transfer piece proved inside its invariant
    piece, so the view adds only its pivot test."""
    return GradedModuleView(rep, invariant_slice(rep, max_degree), transfer_slice(rep, max_degree),
                            "invariants mod transfer ideal")


def transfer_ideal_module(rep: CpRep, max_degree: int) -> GradedModuleView:
    """The transfer ideal as a module over the invariant ring."""
    zero = GradedBasis.zero(rep.p, rep.nvars, max_degree)
    return GradedModuleView(rep, transfer_slice(rep, max_degree), zero, "transfer ideal")


def transfer_quotient_check(rep: CpRep, max_degree: int = DEFAULT_MAX_DEGREE) -> list[CheckReport]:
    """Certify the Cohen-Macaulay picture of the invariant ring modulo the
    transfer ideal: the top-variable norms form a regular sequence on it,
    the quotient by those norms vanishes above (number of blocks) * p, the
    quotient's Hilbert series times (1 - t^p)^blocks stays non-negative,
    and the transfer ideal itself has depth evidence blocks + 1."""
    rep.require_nontrivial()
    p = rep.p
    blocks = rep.num_blocks
    if max_degree < blocks * p:
        raise BoundTooSmallError(
            f"bound {max_degree} is below blocks*p = {blocks * p}; the vanishing window is empty")
    module = transfer_quotient_module(rep, max_degree)
    cert = verify_regular_sequence(module, top_norms(rep))
    reports = list(cert.steps)
    passed, dims, final_dims = cert.passed, module.dims(), cert.final_view.dims()
    # the module's memo holds the whole norm chain: free it before the
    # transfer ideal is searched
    del module, cert

    window = list(range(blocks * p + 1, max_degree + 1))
    offenders = [d for d in window if final_dims[d] != 0]
    vanishing = CheckReport(
        name="transfer-quotient-vanishing",
        params={"window_start": blocks * p + 1, "max_degree": max_degree,
                "final_dims": final_dims},
        passed=passed and not offenders,
        degrees_checked=window,
        witnesses=[{"degree": d, "dim": final_dims[d]} for d in offenders],
    )
    if not window:
        vanishing.notes.append(f"vacuous: no degree above blocks*p = {blocks * p} lies inside "
                               f"the bound {max_degree}")
    if not passed:
        vanishing.notes.append("norm sequence failed; vanishing not evaluated on the full quotient")
    reports.append(vanishing)

    # (1 - t^p)^blocks times the series: zeros stand for negative degrees
    numerator = finite_difference([0] * (blocks * p) + dims, p, blocks)
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

    ideal_depth = bounded_depth(transfer_ideal_module(rep, max_degree))
    expected = blocks + 1
    summary = CheckReport(
        name="transfer-ideal-depth",
        params={
            "lower_bound": ideal_depth.lower,
            "maximal": ideal_depth.maximal,
            "expected": expected,
            "sequence": list(ideal_depth.cert.rendered),
        },
        passed=True,
        notes=["expected depth is blocks + 1"],
    )
    # both the sequence and the socle witness hold only up to the bound, so
    # evidence that disagrees with blocks + 1 is inconclusive, not failed
    if not (ideal_depth.lower == expected and ideal_depth.maximal):
        summary.notes.append(
            f"inconclusive: depth evidence {ideal_depth.lower}{'' if ideal_depth.maximal else '+'} "
            f"disagrees with blocks + 1 = {expected}; it is verified only up to degree {max_degree}")
    reports.extend(ideal_depth.reports)
    reports.append(summary)
    return reports


def norm_reduction_check(view: GradedModuleView, search_degree_cap: int | None = None) -> list[CheckReport]:
    """Certify depth(M) = grade(transfer ideal on M mod norms) + blocks:
    verify the top norms are regular on M, measure both sides with bounded
    evidence, and compare.  Only norms that are not regular fail, with an
    exact witness; sides that disagree pass as inconclusive."""
    rep = view.rep
    rep.require_nontrivial()
    norms = top_norms(rep)
    cert = verify_regular_sequence(view, norms)
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

    depth_ev = bounded_depth(view, search_degree_cap=search_degree_cap)
    reports.extend(depth_ev.reports)

    reduced = cert.final_view
    tra = transfer_slice(rep, view.max_degree)
    cap = rep.p if search_degree_cap is None else search_degree_cap
    pool = [f for e in range(1, min(cap, view.max_degree) + 1)
            for f in tra.row_polys(e)]
    grade_cert, grade_report = bounded_grade(reduced, pool, "transfer-image basis elements")
    reports.extend(grade_cert.steps)
    reports.append(grade_report)
    grade = len(grade_cert.elements)

    # the grade side is a lower bound; equality is certified when the depth
    # side is two-sided and matches.  Both sides are bounded evidence, so a
    # disagreement is inconclusive rather than failed
    blocks = rep.num_blocks
    expected = grade + blocks
    agree = depth_ev.lower == expected if depth_ev.maximal else depth_ev.lower >= expected
    note = (f"depth evidence {depth_ev.lower}{'' if depth_ev.maximal else '+'} vs "
            f"grade evidence {grade} + {blocks} blocks")
    if not agree:
        note = f"inconclusive: {note} disagree; both sides are verified only up to degree {view.max_degree}"
    summary = CheckReport(
        name="norm-reduction",
        params={
            "module": view.label,
            "depth_lower": depth_ev.lower,
            "depth_maximal": depth_ev.maximal,
            "grade_lower": grade,
            "blocks": blocks,
            "relation": "depth(M) = grade + blocks",
        },
        passed=True,
        notes=[note],
    )
    reports.append(summary)
    return reports


def depth_report(rep: CpRep, max_degree: int = DEFAULT_MAX_DEGREE,
                 search_degree_cap: int | None = None) -> list[CheckReport]:
    """One bundled depth audit for a representation: verify the canonical
    sequence on the invariant ring, collect two-sided depth evidence for
    the ring, for the ideal of each sequence prefix with its quotient, and
    for the transfer ideal with its quotient, then run every applicable
    depth inequality over the assembled evidence."""
    rep.require_nontrivial()
    seq = canonical_sequence(rep)
    ring = ring_module(rep, max_degree)
    cert = verify_regular_sequence(ring, seq)
    reports = list(cert.steps)
    reports.append(CheckReport(
        name="canonical-sequence",
        params={
            "sequence": list(cert.rendered),
            "verified_length": cert.verified_length,
            "expected_length": expected_depth(rep),
        },
        passed=cert.passed and cert.verified_length == expected_depth(rep),
        notes=["fixed variables and top norms; length should be min(blocks + 2, dim)",
               *cert.vacuity_notes],
    ))

    ring_ev = bounded_depth(ring, search_degree_cap=search_degree_cap)
    reports.extend(ring_ev.reports)
    # the invariant ring is a subring of a polynomial ring, so a domain;
    # Cohen-Macaulayness is taken from the evidence, not assumed
    ring_cm_domain = ring_ev.maximal and ring_ev.lower == rep.nvars

    instances = []
    for k, (ideal, quotient) in enumerate(_prefix_modules(rep, seq, max_degree, ring), 1):
        ideal_ev = bounded_depth(ideal, search_degree_cap=search_degree_cap)
        quot_ev = bounded_depth(quotient, search_degree_cap=search_degree_cap)
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
                                      search_degree_cap=search_degree_cap)
    transfer_quot_ev = bounded_depth(transfer_quotient_module(rep, max_degree),
                                     search_degree_cap=search_degree_cap)
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


Interval = tuple[int, float]


def _interval_ge(a: Interval, b: Interval) -> str:
    """Definite comparison a >= b on [lo, hi] data, hi inf meaning open."""
    a_lo, a_hi = a
    b_lo, b_hi = b
    if a_lo >= b_hi:
        return "holds"
    if a_hi < b_lo:
        return "violated"
    return "inconclusive"


def _interval_eq(a: Interval, b: Interval) -> str:
    a_lo, a_hi = a
    b_lo, b_hi = b
    if a_lo == a_hi == b_lo == b_hi:
        return "holds"
    if a_hi < b_lo or b_hi < a_lo:
        return "violated"
    return "inconclusive"


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
    checks that cannot be decided are recorded, never silently passed.
    Every interval endpoint holds only up to the degree bound, so a
    violated relation is a note and the audit never fails."""
    report = CheckReport(name="depth-inequality-audit", params={"instances": []}, passed=True)
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
        (r_lo, r_hi), (i_lo, i_hi), (q_lo, q_hi) = r, i, q
        checks: list[tuple[str, str]] = [
            ("depth(R) >= min(depth(I), depth(R/I))",
             _interval_ge(r, (min(i_lo, q_lo), min(i_hi, q_hi)))),
            ("depth(I) >= min(depth(R), depth(R/I) + 1)",
             _interval_ge(i, (min(r_lo, q_lo + 1), min(r_hi, q_hi + 1)))),
            ("depth(R/I) >= min(depth(I) - 1, depth(R))",
             _interval_ge(q, (min(i_lo - 1, r_lo), min(i_hi - 1, r_hi)))),
        ]
        # "definitely greater": the lower end passes the other's upper end
        if r_lo > i_hi or r_lo > q_hi or inst.ring_cm_domain:
            checks.append(("depth(I) = depth(R/I) + 1", _interval_eq(i, (q_lo + 1, q_hi + 1))))
        if i_lo > r_hi:
            checks.append(("depth(R/I) = depth(R)", _interval_eq(q, r)))
        if q_lo > r_hi:
            checks.append(("depth(I) = depth(R)", _interval_eq(i, r)))
        if inst.ideal_regseq_length is not None:
            k = 1 - inst.ideal_regseq_length
            checks.append((
                f"depth(I) = depth(R) + 1 - {inst.ideal_regseq_length} (regular-sequence ideal)",
                _interval_eq(i, (r_lo + k, r_hi + k))))
        for statement, status in checks:
            if status == "violated":
                report.notes.append(f"{inst.label}: {statement}: violated on bounded evidence; "
                                    "inconclusive")
            elif status == "inconclusive":
                report.notes.append(f"{inst.label}: {statement}: inconclusive on bounded evidence")
            else:
                report.params.setdefault("verified", []).append(
                    {"instance": inst.label, "check": statement, "status": status})
    return report

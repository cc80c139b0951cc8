"""Monomial subalgebras of a two-variable polynomial ring: membership,
free decompositions over an hsop pair, height and factoriality witnesses,
and brute-force Hilbert enumeration cross-checks.

Monomials are exponent pairs.  Freeness is certified combinatorially: every
summand generator lies in the ideal (the span is inside it); every ideal
generator, and every product of an algebra generator with a summand
generator, falls into the uniquely compatible summand (the ideal is inside
the span); and the summand generators lie in distinct congruence classes
modulo the lattice the hsop spans (the sum is direct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .report import CheckReport

Mono2 = tuple[int, int]

UNIT: Mono2 = (0, 0)

DEFAULT_DEGREE_CAP = 24


def mono2_degree(m: Mono2) -> int:
    return m[0] + m[1]


def mono2_mul(a: Mono2, b: Mono2) -> Mono2:
    return (a[0] + b[0], a[1] + b[1])


def mono2_div(a: Mono2, b: Mono2) -> Mono2 | None:
    out = (a[0] - b[0], a[1] - b[1])
    return None if out[0] < 0 or out[1] < 0 else out


def mono2_str(m: Mono2) -> str:
    if m == UNIT:
        return "1"
    parts = []
    for name, e in zip("xy", m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _as_mono2(value: Sequence[int]) -> Mono2:
    m = tuple(int(v) for v in value)
    if len(m) != 2 or m[0] < 0 or m[1] < 0:
        raise ValueError(f"not a two-variable monomial exponent pair: {value!r}")
    return m  # type: ignore[return-value]


class MonoAlgebra:
    """Subalgebra of K[x,y] generated by monomials, none of them the unit."""

    def __init__(self, generators: Sequence[Sequence[int]]):
        gens = tuple(sorted({_as_mono2(g) for g in generators}))
        if not gens:
            raise ValueError("need at least one generator")
        if UNIT in gens:
            raise ValueError("the unit monomial is not allowed as a generator")
        self.generators: tuple[Mono2, ...] = gens
        self._member: dict[Mono2, bool] = {UNIT: True}

    def is_member(self, mono: Sequence[int]) -> bool:
        """Whether the monomial is a product of generators."""
        return self._is_member(_as_mono2(mono))

    def _is_member(self, m: Mono2) -> bool:
        """`is_member` of a validated exponent pair: a member is the unit or
        a member times a generator.  Undecided quotients wait on an explicit
        stack, so no exponent is too large for the walk."""
        memo = self._member
        stack = [m]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            quotients = [q for g in self.generators if (q := mono2_div(top, g)) is not None]
            if any(memo.get(q, False) for q in quotients):
                memo[top] = True
                continue
            undecided = [q for q in quotients if q not in memo]
            if undecided:
                stack.extend(undecided)
            else:
                memo[top] = False
        return memo[m]

    def is_atom(self, mono: Sequence[int]) -> bool:
        """Whether the monomial is a non-unit member with no factorization
        into two non-unit members.

        Only the quotients m / g by the generators g need a test.  If
        m = a * b with a and b non-unit members, some generator g divides
        a with a / g a member, and then m / g = (a / g) * b is a non-unit
        member; conversely a non-unit member m / g splits m as g * (m / g).
        """
        m = _as_mono2(mono)
        if m == UNIT or not self._is_member(m):
            return False
        return not any(q is not None and q != UNIT and self._is_member(q)
                       for q in (mono2_div(m, g) for g in self.generators))

    def members_of_degree(self, degree: int) -> list[Mono2]:
        return [(i, degree - i) for i in range(degree + 1) if self._is_member((i, degree - i))]

    def __repr__(self) -> str:
        return f"MonoAlgebra({', '.join(mono2_str(g) for g in self.generators)})"


def _congruent(hsop: Sequence[Mono2], a: Mono2, b: Mono2) -> bool:
    """Whether a - b lies in the lattice the two hsop exponent vectors
    span: Cramer's rule with divisibility checks."""
    (p, q), (r, s) = hsop
    det = p * s - r * q
    if det == 0:
        raise ValueError("hsop exponents are linearly dependent")
    u, v = a[0] - b[0], a[1] - b[1]
    return (u * s - r * v) % det == 0 and (p * v - u * q) % det == 0


def _in_ideal(alg: MonoAlgebra, gens: Sequence[Mono2], m: Mono2) -> bool:
    """Whether the monomial lies in the ideal of the algebra that the
    generators span: some generator divides it with a member cofactor."""
    return any((q := mono2_div(m, g)) is not None and alg._is_member(q) for g in gens)


@dataclass(frozen=True)
class FreeDecomp:
    """Candidate free decomposition: a module is claimed to be the direct
    sum of the hsop subalgebra times each module generator."""

    hsop: tuple[Mono2, Mono2]
    module_gens: tuple[Mono2, ...]


def verify_free_decomp(alg: MonoAlgebra, decomp: FreeDecomp,
                       ideal_gens: Sequence[Sequence[int]]) -> CheckReport:
    """Certify that the span of the decomposition equals the ideal the
    given generators cut out of the algebra, and that the sum is direct.

    Span inside the ideal: every module generator is in the ideal.  Ideal
    inside the span: every ideal generator lands in its unique compatible
    summand, and so does every product of an algebra generator with a
    module generator, with the cofactor a member of the hsop subalgebra
    (closure; the full table is reported).  Directness: the exponent
    classes of the module generators are pairwise distinct modulo the hsop
    lattice.
    """
    hsop = tuple(_as_mono2(h) for h in decomp.hsop)
    module_gens = tuple(_as_mono2(g) for g in decomp.module_gens)
    gens = tuple(_as_mono2(g) for g in ideal_gens)
    for role, monos in (("hsop element", hsop), ("module generator", module_gens),
                        ("ideal generator", gens)):
        for m in monos:
            if not alg._is_member(m):
                raise ValueError(f"{role} {mono2_str(m)} is not in the algebra")
    _congruent(hsop, UNIT, UNIT)  # refuses dependent hsop exponents before any check
    sub = MonoAlgebra(hsop)
    collisions = [
        {"pair": [mono2_str(a), mono2_str(b)], "problem": "same class modulo the hsop lattice"}
        for i, a in enumerate(module_gens) for b in module_gens[i + 1:]
        if _congruent(hsop, a, b)
    ]
    outside = [{"module_generator": mono2_str(g), "problem": "not in the ideal"}
               for g in module_gens if not _in_ideal(alg, gens, g)]
    report = CheckReport(
        name="free-decomposition",
        params={
            "algebra": [mono2_str(g) for g in alg.generators],
            "hsop": [mono2_str(h) for h in hsop],
            "module_generators": [mono2_str(g) for g in module_gens],
            "ideal_generators": [mono2_str(g) for g in gens],
        },
        passed=not (collisions or outside),
        witnesses=collisions + outside,
        notes=["module generator classes are pairwise distinct: sum is direct"
               if not collisions else "directness fails"],
    )

    def place(m: Mono2, entry: dict, summand_key: str) -> dict:
        """Record the one summand m falls into, with its cofactor, or why
        there is none."""
        targets = [g for g in module_gens if _congruent(hsop, m, g)]
        cofactor = mono2_div(m, targets[0]) if len(targets) == 1 else None
        if len(targets) != 1:
            entry["problem"] = f"{len(targets)} compatible summands"
        elif cofactor is None:
            entry["problem"] = "does not divide the summand generator"
        elif not sub._is_member(cofactor):
            entry["problem"] = "cofactor is outside the hsop subalgebra"
        else:
            entry[summand_key] = mono2_str(targets[0])
            entry["cofactor"] = mono2_str(cofactor)
        report.passed = report.passed and "problem" not in entry
        return entry

    report.witnesses.extend(place(g, {"ideal_generator": mono2_str(g)}, "summand")
                            for g in gens)
    table = []
    for r in alg.generators:
        for g in module_gens:
            product = mono2_mul(r, g)
            table.append(place(product, {"factor": mono2_str(r), "summand_generator": mono2_str(g),
                                         "product": mono2_str(product)}, "target_summand"))
    report.witnesses.append({"closure_table": table})
    return report


def verify_height_witness(alg: MonoAlgebra, ideal_gens: Sequence[Sequence[int]],
                          element: Sequence[int], powers: Sequence[int]) -> CheckReport:
    """Certify that a power of every ideal generator is divisible by the
    element with cofactor inside the algebra, placing the ideal inside the
    radical of a principal ideal (height at most one)."""
    f = _as_mono2(element)
    gens = tuple(_as_mono2(g) for g in ideal_gens)
    if not alg._is_member(f):
        raise ValueError(f"witness element {mono2_str(f)} is not in the algebra")
    if len(powers) != len(gens):
        raise ValueError("need exactly one power per ideal generator")
    report = CheckReport(
        name="height-witness",
        params={
            "element": mono2_str(f),
            "ideal_generators": [mono2_str(g) for g in gens],
            "powers": [int(k) for k in powers],
        },
        passed=True,
        notes=["each generator power falls into the principal ideal of the element"],
    )
    for g, k in zip(gens, powers):
        if k < 1:
            raise ValueError("powers must be positive")
        power = (g[0] * k, g[1] * k)
        cofactor = mono2_div(power, f)
        entry = {"generator": mono2_str(g), "power": int(k), "generator_power": mono2_str(power)}
        if cofactor is None:
            entry["problem"] = "the element does not divide the generator power"
            report.passed = False
        elif not alg._is_member(cofactor):
            entry["problem"] = "cofactor is outside the algebra"
            entry["cofactor"] = mono2_str(cofactor)
            report.passed = False
        else:
            entry["cofactor"] = mono2_str(cofactor)
        report.witnesses.append(entry)
    return report


def non_factorial_witness(alg: MonoAlgebra,
                          relation: tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]) -> CheckReport:
    """Certify a relation m1 * m2 = m3 * m4 between atoms of the algebra;
    when the two sides differ as multisets, unique factorization fails."""
    m1, m2, m3, m4 = (_as_mono2(m) for m in relation)
    report = CheckReport(
        name="non-factorial-witness",
        params={"left": [mono2_str(m1), mono2_str(m2)], "right": [mono2_str(m3), mono2_str(m4)]},
        passed=True,
    )
    product_left = mono2_mul(m1, m2)
    product_right = mono2_mul(m3, m4)
    if product_left != product_right:
        report.passed = False
        report.witnesses.append({
            "problem": "the two sides are different monomials",
            "left_product": mono2_str(product_left),
            "right_product": mono2_str(product_right),
        })
    for m in (m1, m2, m3, m4):
        if not alg.is_atom(m):
            report.passed = False
            report.witnesses.append({"problem": "factor is not an atom of the algebra",
                                     "factor": mono2_str(m)})
    distinct = sorted([m1, m2]) != sorted([m3, m4])
    report.params["distinct_factorizations"] = distinct
    if distinct:
        report.notes.append("two different atom factorizations of "
                            f"{mono2_str(product_left)}: the algebra is not factorial")
    else:
        report.notes.append("both sides are the same factorization; no non-uniqueness exhibited")
    return report


def hilbert_enumeration_check(alg: MonoAlgebra, decomp: FreeDecomp,
                              ideal_gens: Sequence[Sequence[int]],
                              degree_cap: int = DEFAULT_DEGREE_CAP) -> CheckReport:
    """Compare brute-force monomial counts of the ideal against the counts
    the free decomposition predicts, degree by degree."""
    gens = tuple(_as_mono2(g) for g in ideal_gens)
    module_gens = tuple(_as_mono2(g) for g in decomp.module_gens)
    sub = MonoAlgebra(decomp.hsop)
    degrees = range(degree_cap + 1)
    counted = [sum(1 for i in range(d + 1) if _in_ideal(alg, gens, (i, d - i))) for d in degrees]
    sub_counts = [len(sub.members_of_degree(d)) for d in degrees]
    predicted = [sum(sub_counts[d - mono2_degree(g)] for g in module_gens if mono2_degree(g) <= d)
                 for d in degrees]
    mismatches = [d for d in degrees if counted[d] != predicted[d]]
    return CheckReport(
        name="hilbert-enumeration",
        params={
            "degree_cap": degree_cap,
            "counted": counted,
            "predicted": predicted,
            "ideal_generators": [mono2_str(g) for g in gens],
        },
        passed=not mismatches,
        degrees_checked=list(degrees),
        witnesses=[{"degree": d, "counted": counted[d], "predicted": predicted[d]}
                   for d in mismatches],
        notes=["counts from raw membership tests vs the free decomposition"],
    )


@dataclass(frozen=True)
class MonoPreset:
    """A bundled example: algebra, a candidate Cohen-Macaulay ideal with
    its free decomposition, a height witness, and a factoriality relation."""

    algebra: tuple[Mono2, ...]
    ring_decomp: FreeDecomp | None
    ideal_gens: tuple[Mono2, ...]
    ideal_decomp: FreeDecomp
    height_element: Mono2
    height_powers: tuple[int, ...]
    relation: tuple[Mono2, Mono2, Mono2, Mono2]


PRESETS: dict[str, MonoPreset] = {
    "example-1": MonoPreset(
        algebra=((2, 0), (1, 1), (0, 2)),
        ring_decomp=FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((0, 0), (1, 1))),
        ideal_gens=((2, 0), (1, 1)),
        ideal_decomp=FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((2, 0), (1, 1))),
        height_element=(2, 0),
        height_powers=(1, 2),
        relation=((2, 0), (0, 2), (1, 1), (1, 1)),
    ),
    "example-2": MonoPreset(
        algebra=((4, 0), (3, 1), (1, 3), (0, 4)),
        ring_decomp=None,
        ideal_gens=((4, 0), (3, 1)),
        ideal_decomp=FreeDecomp(hsop=((4, 0), (0, 4)),
                                module_gens=((4, 0), (5, 3), (3, 1), (6, 2))),
        height_element=(4, 0),
        height_powers=(1, 4),
        relation=((4, 0), (0, 4), (3, 1), (1, 3)),
    ),
}


def run_preset(name: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> list[CheckReport]:
    """All checks for one bundled example: the free decompositions with
    their Hilbert cross-checks, the height witness, and the factoriality
    relation."""
    preset = PRESETS.get(name)
    if preset is None:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    alg = MonoAlgebra(preset.algebra)
    reports: list[CheckReport] = []
    if preset.ring_decomp is not None:
        reports.append(verify_free_decomp(alg, preset.ring_decomp, [UNIT]))
        reports.append(hilbert_enumeration_check(alg, preset.ring_decomp, [UNIT], degree_cap))
    reports.append(verify_free_decomp(alg, preset.ideal_decomp, preset.ideal_gens))
    reports.append(hilbert_enumeration_check(alg, preset.ideal_decomp, preset.ideal_gens, degree_cap))
    reports.append(verify_height_witness(alg, preset.ideal_gens, preset.height_element,
                                         preset.height_powers))
    reports.append(non_factorial_witness(alg, preset.relation))
    return reports

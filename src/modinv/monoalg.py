"""Monomial subalgebras of a two-variable polynomial ring: membership,
free decompositions over an hsop pair, height and factoriality witnesses,
and brute-force Hilbert enumeration cross-checks.

Monomials are exponent pairs.  Freeness is certified combinatorially: the
exponent map sends the candidate summands into distinct congruence classes
modulo the lattice the hsop spans (directness), and a full multiplication
table pushes every product of an algebra generator with a summand
generator into the uniquely compatible summand (closure).
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
        m = _as_mono2(mono)
        got = self._member.get(m)
        if got is None:
            got = any(mono2_div(m, g) is not None and self.is_member(mono2_div(m, g))
                      for g in self.generators)
            self._member[m] = got
        return got

    def is_atom(self, mono: Sequence[int]) -> bool:
        """Whether the monomial is a non-unit member with no factorization
        into two non-unit members."""
        m = _as_mono2(mono)
        if m == UNIT or not self.is_member(m):
            return False
        for i in range(m[0] + 1):
            for j in range(m[1] + 1):
                part = (i, j)
                if part in (UNIT, m):
                    continue
                rest = (m[0] - i, m[1] - j)
                if self.is_member(part) and self.is_member(rest):
                    return False
        return True

    def members_of_degree(self, degree: int) -> list[Mono2]:
        return [(i, degree - i) for i in range(degree + 1) if self.is_member((i, degree - i))]

    def __repr__(self) -> str:
        return f"MonoAlgebra({', '.join(mono2_str(g) for g in self.generators)})"


@dataclass(frozen=True)
class Lattice2:
    """The subgroup of the exponent plane spanned by two independent
    vectors; membership by Cramer's rule with divisibility checks."""

    v1: Mono2
    v2: Mono2

    def __post_init__(self) -> None:
        if self.det == 0:
            raise ValueError("lattice generators are linearly dependent")

    @property
    def det(self) -> int:
        return self.v1[0] * self.v2[1] - self.v2[0] * self.v1[1]

    def contains(self, u: tuple[int, int]) -> bool:
        d = self.det
        alpha = u[0] * self.v2[1] - self.v2[0] * u[1]
        beta = self.v1[0] * u[1] - u[0] * self.v1[1]
        return alpha % d == 0 and beta % d == 0

    def congruent(self, a: Mono2, b: Mono2) -> bool:
        return self.contains((a[0] - b[0], a[1] - b[1]))


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

    Directness: exponent classes of the module generators are pairwise
    distinct modulo the hsop lattice.  Generation: every ideal generator
    lands in its unique compatible summand.  Closure: every product of an
    algebra generator with a module generator divides back, with the
    cofactor a member of the hsop subalgebra; the full table is reported.
    """
    hsop = tuple(_as_mono2(h) for h in decomp.hsop)
    module_gens = tuple(_as_mono2(g) for g in decomp.module_gens)
    gens = tuple(_as_mono2(g) for g in ideal_gens)
    for h in hsop:
        if not alg.is_member(h):
            raise ValueError(f"hsop element {mono2_str(h)} is not in the algebra")
    for g in module_gens:
        if not alg.is_member(g):
            raise ValueError(f"module generator {mono2_str(g)} is not in the algebra")
    for g in gens:
        if g != UNIT and not alg.is_member(g):
            raise ValueError(f"ideal generator {mono2_str(g)} is not in the algebra")
    lattice = Lattice2(*hsop)
    sub = MonoAlgebra(hsop)
    report = CheckReport(
        name="free-decomposition",
        params={
            "algebra": [mono2_str(g) for g in alg.generators],
            "hsop": [mono2_str(h) for h in hsop],
            "module_generators": [mono2_str(g) for g in module_gens],
            "ideal_generators": [mono2_str(g) for g in gens],
        },
        passed=True,
    )
    collisions = [
        {"pair": [mono2_str(a), mono2_str(b)], "problem": "same class modulo the hsop lattice"}
        for i, a in enumerate(module_gens) for b in module_gens[i + 1:]
        if lattice.congruent(a, b)
    ]
    if collisions:
        report.passed = False
        report.witnesses.extend(collisions)
    report.notes.append("module generator classes are pairwise distinct: sum is direct"
                        if not collisions else "directness fails")

    def summand_of(m: Mono2) -> tuple[int | None, Mono2 | None, str | None]:
        targets = [k for k, g in enumerate(module_gens) if lattice.congruent(m, g)]
        if len(targets) != 1:
            return None, None, f"{len(targets)} compatible summands"
        k = targets[0]
        cofactor = mono2_div(m, module_gens[k])
        if cofactor is None:
            return k, None, "does not divide the summand generator"
        if not sub.is_member(cofactor):
            return k, None, "cofactor is outside the hsop subalgebra"
        return k, cofactor, None

    for g in gens:
        k, cofactor, problem = summand_of(g)
        entry = {"ideal_generator": mono2_str(g)}
        if problem is not None:
            entry["problem"] = problem
            report.passed = False
        else:
            entry["summand"] = mono2_str(module_gens[k])
            entry["cofactor"] = mono2_str(cofactor)
        report.witnesses.append(entry)

    table = []
    for r in alg.generators:
        for g in module_gens:
            product = mono2_mul(r, g)
            k, cofactor, problem = summand_of(product)
            row = {
                "factor": mono2_str(r),
                "summand_generator": mono2_str(g),
                "product": mono2_str(product),
            }
            if problem is not None:
                row["problem"] = problem
                report.passed = False
            else:
                row["target_summand"] = mono2_str(module_gens[k])
                row["cofactor"] = mono2_str(cofactor)
            table.append(row)
    report.witnesses.append({"closure_table": table})
    return report


def verify_height_witness(alg: MonoAlgebra, ideal_gens: Sequence[Sequence[int]],
                          element: Sequence[int], powers: Sequence[int]) -> CheckReport:
    """Certify that a power of every ideal generator is divisible by the
    element with cofactor inside the algebra, placing the ideal inside the
    radical of a principal ideal (height at most one)."""
    f = _as_mono2(element)
    gens = tuple(_as_mono2(g) for g in ideal_gens)
    if not alg.is_member(f):
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
        elif not alg.is_member(cofactor):
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
    sub = MonoAlgebra(tuple(_as_mono2(h) for h in decomp.hsop))

    def in_ideal(m: Mono2) -> bool:
        return any(mono2_div(m, g) is not None and alg.is_member(mono2_div(m, g))
                   for g in gens)

    counted = []
    predicted = []
    for d in range(degree_cap + 1):
        counted.append(sum(1 for i in range(d + 1) if in_ideal((i, d - i))))
        predicted.append(sum(len(sub.members_of_degree(d - mono2_degree(g)))
                             for g in module_gens if mono2_degree(g) <= d))
    mismatches = [d for d in range(degree_cap + 1) if counted[d] != predicted[d]]
    return CheckReport(
        name="hilbert-enumeration",
        params={
            "degree_cap": degree_cap,
            "counted": counted,
            "predicted": predicted,
            "ideal_generators": [mono2_str(g) for g in gens],
        },
        passed=not mismatches,
        degrees_checked=list(range(degree_cap + 1)),
        witnesses=[{"degree": d, "counted": counted[d], "predicted": predicted[d]}
                   for d in mismatches],
        notes=["counts from raw membership tests vs the free decomposition"],
    )


@dataclass(frozen=True)
class MonoPreset:
    """A bundled example: algebra, a candidate Cohen-Macaulay ideal with
    its free decomposition, a height witness, and a factoriality relation."""

    name: str
    algebra: tuple[Mono2, ...]
    ring_decomp: FreeDecomp | None
    ideal_gens: tuple[Mono2, ...]
    ideal_decomp: FreeDecomp
    height_element: Mono2
    height_powers: tuple[int, ...]
    relation: tuple[Mono2, Mono2, Mono2, Mono2]


PRESETS: dict[str, MonoPreset] = {
    "example-1": MonoPreset(
        name="example-1",
        algebra=((2, 0), (1, 1), (0, 2)),
        ring_decomp=FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((0, 0), (1, 1))),
        ideal_gens=((2, 0), (1, 1)),
        ideal_decomp=FreeDecomp(hsop=((2, 0), (0, 2)), module_gens=((2, 0), (1, 1))),
        height_element=(2, 0),
        height_powers=(1, 2),
        relation=((2, 0), (0, 2), (1, 1), (1, 1)),
    ),
    "example-2": MonoPreset(
        name="example-2",
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

"""Sparse multivariate polynomials over a prime field.

Exponent vectors are plain tuples of non-negative ints, one slot per
variable.  Coefficients are residues in ``range(p)``; zero coefficients are
never stored.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Mapping, Sequence

Mono = tuple[int, ...]


def check_prime(n: int) -> int:
    """Return ``n`` if it is a prime modulus; refuse anything else."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
    if any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        raise ValueError(f"modulus {n} is not prime")
    return n


def var_mono(nvars: int, index: int) -> Mono:
    """Exponent vector of the single variable at ``index`` (0-based)."""
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range for {nvars} variables")
    return tuple(1 if i == index else 0 for i in range(nvars))


def num_monomials(nvars: int, degree: int) -> int:
    return math.comb(degree + nvars - 1, nvars - 1)


class Poly:
    """Polynomial over the prime field, stored as {exponent tuple: residue}.

    Instances are treated as immutable; every operation returns a new one.
    """

    __slots__ = ("p", "nvars", "_terms")

    def __init__(self, p: int, nvars: int, terms: Mapping[Mono, int] | None = None):
        pv = check_prime(p)
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[Mono, int] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r} for {nvars} variables")
            c = coeff % pv
            if c:
                clean[tuple(mono)] = c
        object.__setattr__(self, "p", pv)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _raw(cls, p: int, nvars: int, terms: dict[Mono, int]) -> Poly:
        # internal fast path: terms already normalized
        f = object.__new__(cls)
        object.__setattr__(f, "p", p)
        object.__setattr__(f, "nvars", nvars)
        object.__setattr__(f, "_terms", terms)
        return f

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> Mapping[Mono, int]:
        return self._terms

    @classmethod
    def zero(cls, p: int, nvars: int) -> Poly:
        return cls(p, nvars)

    @classmethod
    def one(cls, p: int, nvars: int) -> Poly:
        return cls(p, nvars, {tuple([0] * nvars): 1})

    @classmethod
    def constant(cls, p: int, nvars: int, value: int) -> Poly:
        return cls(p, nvars, {tuple([0] * nvars): value})

    @classmethod
    def variable(cls, p: int, nvars: int, index: int) -> Poly:
        return cls(p, nvars, {var_mono(nvars, index): 1})

    def is_zero(self) -> bool:
        return not self._terms

    def degree_in(self, index: int) -> int:
        """Largest exponent of one variable; 0 for the zero polynomial."""
        return max((m[index] for m in self._terms), default=0)

    def homogeneous_degree(self) -> int:
        """Common degree of all terms.  Zero polynomial counts as degree 0."""
        degrees = {sum(m) for m in self._terms}
        if len(degrees) > 1:
            raise ValueError(f"polynomial must be homogeneous, has term degrees {sorted(degrees)}")
        return degrees.pop() if degrees else 0

    def _check(self, other: Poly) -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError(
                "polynomial mismatch: "
                f"(p={self.p}, nvars={self.nvars}) vs (p={other.p}, nvars={other.nvars})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.p == other.p and self.nvars == other.nvars and self._terms == other._terms

    __hash__ = None  # mutable-looking container semantics; not for dict keys

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        out = dict(self._terms)
        p = self.p
        for mono, c in other._terms.items():
            s = (out.get(mono, 0) + c) % p
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly._raw(p, self.nvars, out)

    def __neg__(self) -> Poly:
        p = self.p
        return Poly._raw(p, self.nvars, {m: p - c for m, c in self._terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        p = self.p
        out: dict[Mono, int] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                s = (out.get(mono, 0) + ca * cb) % p
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Poly._raw(p, self.nvars, out)

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.p, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sorted_terms(self) -> Iterator[tuple[Mono, int]]:
        """Terms by descending total degree, then descending lexicographic
        exponent order.  This is the canonical rendering order."""
        return iter(sorted(self._terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {c}" for m, c in self.sorted_terms())
        return f"Poly(p={self.p}, nvars={self.nvars}, {{{inner}}})"


class PolyParseError(ValueError):
    """Syntax or naming error in polynomial text, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _longest_beginning(first: str, *rest: str) -> str:
    """A pattern for ``first`` followed by as many of ``rest``, in order, as
    the text goes on with, whitespace allowed before each: on text that
    breaks off, a match ends where the text stops beginning the whole."""
    pattern = ""
    for part in reversed(rest):
        pattern = rf"(?:\s*{part}{pattern})?"
    return first + pattern


# a variable power x[i,j]^e; it is whole when "]" matched and "^", if
# present, has its exponent
_POWER = _longest_beginning(r"(?P<x>x)", r"\[", r"(?P<i>\d+)", ",", r"(?P<j>\d+)", r"(?P<close>\])",
                            r"(?P<caret>\^)", r"(?P<exp>\d+)")
_FIRST = re.compile(rf"\s*(?:(?P<coeff>\d+)|{_POWER})")  # a term's first item
_MORE = re.compile(rf"\s*\*(?:\s*{_POWER})?")  # a further factor
_NEXT = re.compile(r"\s*(?:(?P<sign>[+-])|\Z)")  # a sign or the end


def parse(text: str, varnames: Sequence[str], p: int) -> Poly:
    """Parse polynomial text.

    Grammar: an expression is terms joined by ``+`` or ``-``; a term is an
    optional integer coefficient followed by ``*``-separated variable powers
    ``x[i,j]^e``; ``-`` means adding ``p - 1`` times the following term.
    Whitespace is insignificant.  Raises :class:`PolyParseError`: text
    outside the grammar at the end of its longest prefix that can still
    begin a text of the grammar, naming what was expected there; text of
    the grammar with an unknown variable or a zero exponent at the first
    such variable or exponent.
    """
    check_prime(p)
    nvars = len(varnames)
    index_of = {name: i for i, name in enumerate(varnames)}
    terms: dict[Mono, int] = {}  # reduced mod p by the constructor
    naming: list[PolyParseError] = []  # raised only once the text is in the grammar

    def refuse(expected: str, end: int) -> PolyParseError:
        pos = len(text) - len(text[end:].lstrip())
        got = f", got {text[pos]!r}" if pos < len(text) else ""
        return PolyParseError(f"expected {expected}{got}", pos)

    def multiply(m: re.Match, exps: list[int]) -> None:
        if not m["close"]:
            raise refuse("a variable", m.end())
        if m["caret"] and not m["exp"]:
            raise refuse("an exponent after '^'", m.end())
        name, exponent = f"x[{m['i']},{m['j']}]", int(m["exp"] or 1)
        if name not in index_of:
            naming.append(PolyParseError(f"unknown variable {name!r}", m.start("x")))
        elif exponent < 1:
            naming.append(PolyParseError("exponent must be a positive integer", m.start("exp")))
        else:
            exps[index_of[name]] += exponent

    pos, sign = 0, 1
    while True:
        m = _FIRST.match(text, pos)
        if m is None:
            raise refuse("a term", pos)
        exps = [0] * nvars
        if not m["coeff"]:
            multiply(m, exps)
        coeff = int(m["coeff"] or 1) * sign
        while more := _MORE.match(text, m.end()):
            multiply(more, exps)
            m = more
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
        end = _NEXT.match(text, m.end())
        if end is None:
            raise refuse("'+', '-' or end of input", m.end())
        if not end["sign"]:
            break
        pos, sign = end.end(), 1 if end["sign"] == "+" else -1
    if naming:
        raise naming[0]
    return Poly(p, nvars, terms)


def render(f: Poly, varnames: Sequence[str]) -> str:
    """Canonical text form: terms in :meth:`Poly.sorted_terms` order joined
    by ``' + '``, coefficients as residues, factors in variable order.
    ``parse(render(f)) == f`` and rendering is idempotent."""
    if len(varnames) != f.nvars:
        raise ValueError(f"{len(varnames)} names for {f.nvars} variables")
    if f.is_zero():
        return "0"
    parts = []
    for mono, coeff in f.sorted_terms():
        factors = []
        for v, e in enumerate(mono):
            if e == 1:
                factors.append(varnames[v])
            elif e > 1:
                factors.append(f"{varnames[v]}^{e}")
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(coeff)] + factors))
    return " + ".join(parts)

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


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
    | (?P<int>\d+)
    | (?P<var>x\s*\[\s*(?P<vi>\d+)\s*,\s*(?P<vj>\d+)\s*\])
    | (?P<op>[+\-*^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            if m.lastgroup == "var":
                canonical = f"x[{m.group('vi')},{m.group('vj')}]"
                tokens.append(("var", canonical, pos))
            elif m.lastgroup == "int":
                tokens.append(("int", m.group(), pos))
            else:
                tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str, varnames: Sequence[str], p: int) -> Poly:
    """Parse polynomial text.

    Grammar: an expression is terms joined by ``+`` or ``-``; a term is an
    optional integer coefficient followed by ``*``-separated variable powers
    ``x[i,j]^e``; ``-`` means adding ``p - 1`` times the following term.
    Whitespace is insignificant.  Raises :class:`PolyParseError` with the
    offending position on malformed text or unknown variable names.
    """
    pv = check_prime(p)
    nvars = len(varnames)
    index_of = {name: i for i, name in enumerate(varnames)}
    tokens = _tokenize(text)
    cursor = 0

    def peek() -> tuple[str, str, int]:
        return tokens[cursor]

    def advance() -> tuple[str, str, int]:
        nonlocal cursor
        tok = tokens[cursor]
        cursor += 1
        return tok

    def parse_factor() -> tuple[int, int]:
        kind, value, pos = advance()
        if kind != "var":
            raise PolyParseError(f"expected a variable, got {value!r}" if value else "expected a variable", pos)
        if value not in index_of:
            raise PolyParseError(f"unknown variable {value!r}", pos)
        var = index_of[value]
        exponent = 1
        if peek()[:2] == ("op", "^"):
            advance()
            kind, value, pos = advance()
            if kind != "int":
                raise PolyParseError("expected an exponent after '^'", pos)
            exponent = int(value)
            if exponent < 1:
                raise PolyParseError("exponent must be a positive integer", pos)
        return var, exponent

    def parse_term(sign: int) -> tuple[Mono, int]:
        exps = [0] * nvars
        kind, value, pos = peek()
        if kind == "int":
            advance()
            coeff = int(value) % pv
        elif kind == "var":
            coeff = 1
            var, e = parse_factor()
            exps[var] += e
        else:
            raise PolyParseError(
                f"expected a term, got {value!r}" if value else "expected a term", pos
            )
        while peek()[:2] == ("op", "*"):
            advance()
            var, e = parse_factor()
            exps[var] += e
        return tuple(exps), (coeff * sign) % pv

    terms: dict[Mono, int] = {}

    def accumulate(mono: Mono, coeff: int) -> None:
        s = (terms.get(mono, 0) + coeff) % pv
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)

    accumulate(*parse_term(1))
    while True:
        kind, value, pos = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            accumulate(*parse_term(1 if value == "+" else pv - 1))
        else:
            raise PolyParseError(f"expected '+', '-' or end of input, got {value!r}", pos)
    return Poly._raw(pv, nvars, terms)


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

"""The cyclic group of order p acting on a direct sum of Jordan blocks in
characteristic p, with norms and norm decomposition.

Variables are labeled ``x[i,j]``: row ``i`` inside block ``j``, both
1-based.  The generator adds each variable's predecessor in its block and
fixes the bottom row, so ``x[1,j]`` spans the fixed line of block ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .poly import Poly, check_prime, render, var_mono


class TrivialSummandError(ValueError):
    """Raised by operations whose guarantees assume every block has size
    at least 2."""


@dataclass(frozen=True)
class CpRep:
    """A representation of the cyclic group of prime order: one Jordan
    block of size ``blocks[j]`` per summand, each with 1 <= size <= p."""

    p: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        if not self.blocks:
            raise ValueError("need at least one block")
        for n in self.blocks:
            if not 1 <= n <= self.p:
                raise ValueError(f"block size {n} outside 1..{self.p}")

    @classmethod
    def make(cls, p: int, blocks: tuple[int, ...] | list[int]) -> CpRep:
        return cls(p, tuple(blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def nvars(self) -> int:
        return sum(self.blocks)

    def var_index(self, row: int, block: int) -> int:
        """Flat 0-based index of ``x[row,block]`` (arguments 1-based)."""
        if not 1 <= block <= self.num_blocks:
            raise ValueError(f"block {block} outside 1..{self.num_blocks}")
        if not 1 <= row <= self.blocks[block - 1]:
            raise ValueError(f"row {row} outside 1..{self.blocks[block - 1]} in block {block}")
        return sum(self.blocks[: block - 1]) + row - 1

    @property
    def varnames(self) -> list[str]:
        return [f"x[{i},{j}]" for j in range(1, self.num_blocks + 1)
                for i in range(1, self.blocks[j - 1] + 1)]

    def variable(self, row: int, block: int) -> Poly:
        return Poly.variable(self.p, self.nvars, self.var_index(row, block))

    def require_nontrivial(self) -> None:
        if 1 in self.blocks:
            raise TrivialSummandError(
                f"blocks {self.blocks} contain a size-1 summand; "
                "this operation needs every block size >= 2"
            )

    def check_poly(self, f: Poly) -> None:
        if f.p != self.p or f.nvars != self.nvars:
            raise ValueError(
                f"polynomial over (p={f.p}, nvars={f.nvars}) does not match "
                f"representation (p={self.p}, nvars={self.nvars})"
            )


@lru_cache(maxsize=None)
def variable_images(rep: CpRep, k: int) -> tuple[Poly, ...]:
    """Image of each variable under the k-th power of the generator, a
    linear form: row i goes to the sum of binomial(k, m) times row i - m
    over 0 <= m < i within its block."""
    p, n = rep.p, rep.nvars
    images: list[Poly] = []
    for size in rep.blocks:
        start = len(images)  # the index of the block's x[1,j]
        images += [Poly(p, n, {var_mono(n, start + row - m): math.comb(k, m) for m in range(row + 1)})
                   for row in range(size)]
    return tuple(images)


def sigma(rep: CpRep, f: Poly) -> Poly:
    """Apply the group generator."""
    rep.check_poly(f)
    if f.is_zero():
        return f
    images = variable_images(rep, 1)
    p, nvars = f.p, f.nvars
    power_cache: dict[tuple[int, int], Poly] = {}

    def var_power(v: int, e: int) -> Poly:
        got = power_cache.get((v, e))
        if got is None:
            got = images[v] ** e
            power_cache[(v, e)] = got
        return got

    out = Poly.zero(p, nvars)
    for mono, coeff in f.terms.items():
        term = Poly.constant(p, nvars, coeff)
        for v, e in enumerate(mono):
            if e:
                term = term * var_power(v, e)
        out = out + term
    return out


def is_invariant(rep: CpRep, f: Poly) -> bool:
    return sigma(rep, f) == f


def invariant_degree(rep: CpRep, f: Poly) -> int:
    """The degree of f, refusing an f that is not a homogeneous invariant
    of this representation; the zero polynomial has degree 0."""
    rep.check_poly(f)
    e = f.homogeneous_degree()
    if not is_invariant(rep, f):
        raise ValueError(f"{render(f, rep.varnames)} must be invariant")
    return e


@lru_cache(maxsize=None)
def norm(rep: CpRep, row: int, block: int) -> Poly:
    """Product of one variable's orbit; monic of degree p in that variable."""
    index = rep.var_index(row, block)
    out = rep.variable(row, block)
    for k in range(1, rep.p):
        out = out * variable_images(rep, k)[index]
    return out


def top_norms(rep: CpRep) -> list[Poly]:
    """The norm of the top variable of each block, in block order."""
    return [norm(rep, rep.blocks[j - 1], j) for j in range(1, rep.num_blocks + 1)]


@dataclass(frozen=True)
class DecompResult:
    """Outcome of sequential division by top-variable norms: quotients in
    block order plus a remainder whose degree in each divided block's top
    variable stays below p."""

    quotients: tuple[Poly, ...]
    remainder: Poly
    block_indices: tuple[int, ...]

    def reconstruct(self, rep: CpRep) -> Poly:
        """Recombine quotients and remainder; equals the decomposed input."""
        out = self.remainder
        for q, j in zip(self.quotients, self.block_indices):
            out = out + q * norm(rep, rep.blocks[j - 1], j)
        return out


def _divide_monic_in_var(f: Poly, divisor: Poly, var: int, var_degree: int) -> tuple[Poly, Poly]:
    """Single-variable division by a divisor monic of degree ``var_degree``
    in variable ``var``: returns (quotient, remainder) with the remainder's
    degree in ``var`` strictly below ``var_degree``."""
    p, nvars = f.p, f.nvars
    quotient = Poly.zero(p, nvars)
    rem = f
    while True:
        top = rem.degree_in(var)
        if top < var_degree or rem.is_zero():
            return quotient, rem
        lead = {tuple(e - var_degree if v == var else e for v, e in enumerate(m)): c
                for m, c in rem.terms.items() if m[var] == top}
        piece = Poly._raw(p, nvars, lead)
        quotient = quotient + piece
        rem = rem - piece * divisor


def norm_decompose(rep: CpRep, f: Poly, block_indices: tuple[int, ...] | list[int] | None = None) -> DecompResult:
    """Divide sequentially by the top-variable norm of each listed block
    (default: all blocks, in order).  Division order is increasing block
    index; the remainder is the unique one with all listed top-variable
    degrees below p, and invariant inputs yield invariant parts."""
    rep.check_poly(f)
    if block_indices is None:
        block_indices = tuple(range(1, rep.num_blocks + 1))
    blocks = tuple(block_indices)
    if any(not 1 <= j <= rep.num_blocks for j in blocks):
        raise ValueError(f"block indices {blocks} outside 1..{rep.num_blocks}")
    if any(a >= b for a, b in zip(blocks, blocks[1:])):
        raise ValueError(f"block indices {blocks} must be strictly increasing")
    quotients = []
    rem = f
    for j in blocks:
        top_var = rep.var_index(rep.blocks[j - 1], j)
        q, rem = _divide_monic_in_var(rem, norm(rep, rep.blocks[j - 1], j), top_var, rep.p)
        quotients.append(q)
    return DecompResult(tuple(quotients), rem, blocks)

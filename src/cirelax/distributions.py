"""Explicit joint distributions and exact entropy computations.

Distributions are full probability tables over small finite domains.  Two
arithmetic modes exist: exact tables hold ``Fraction`` probabilities and
produce exact entropies whenever every marginal probability is a power of
two (uniform, product, and parity constructions all are); float tables use
ordinary doubles.  Base-2 logarithms throughout, so parity constructions
land exactly on integer bit counts.  Entropy tables are built by summing
out one variable at a time, each marginal from one with a variable more,
rather than by a pass over the joint per subset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, mul
from typing import Sequence

from .core import (
    CapExceeded,
    CIError,
    CITriple,
    ParseError,
    Universe,
    _payload_lines,
    check_fits,
    members,
)
from .polymatroids import PolymatroidTable

MAX_OUTCOMES = 1 << 20
MAX_MEASURE_VARIABLES = 12
SUM_TOLERANCE = 1e-12

# Sampling scheme "exp-spacing v1": Mersenne Twister seeded with an int,
# i.i.d. exponential weights normalized onto the simplex.
SAMPLER_NAME = "mt19937-exp-spacing-v1"


def _strides(sizes: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides: the last index is fastest."""
    return tuple(math.prod(sizes[i + 1:]) for i in range(len(sizes)))


@dataclass(frozen=True)
class JointDistribution:
    """A probability per outcome tuple, stored row-major (last index fastest)."""

    domain_sizes: tuple[int, ...]
    probs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain_sizes", tuple(self.domain_sizes))
        object.__setattr__(self, "probs", tuple(self.probs))
        if any(s < 1 for s in self.domain_sizes):
            raise CIError("domain sizes must be at least 1")
        count = math.prod(self.domain_sizes)
        if count > MAX_OUTCOMES:
            raise CapExceeded(f"at most {MAX_OUTCOMES} outcomes are supported")
        if len(self.probs) != count:
            raise CIError(f"expected {count} probabilities, got {len(self.probs)}")
        if not all(p >= 0 for p in self.probs):  # NaN >= 0 is false: NaN is rejected too
            raise CIError("probabilities must be non-negative numbers")
        object.__setattr__(
            self, "_exact", all(isinstance(p, (Fraction, int)) for p in self.probs)
        )
        total = sum(self.probs)
        if self.exact:
            if total != 1:
                raise CIError(f"probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > SUM_TOLERANCE:
            raise CIError(f"probabilities sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.domain_sizes)

    @property
    def exact(self) -> bool:
        return self._exact  # type: ignore[attr-defined]

    def as_float(self) -> "JointDistribution":
        if not self.exact:
            return self
        return JointDistribution(self.domain_sizes, tuple(float(p) for p in self.probs))

    def __repr__(self) -> str:
        return f"JointDistribution(sizes={self.domain_sizes}, exact={self.exact})"


def _dyadic_log2(p: Fraction) -> int:
    """k such that p == 2**-k, or raise when no such integer exists."""
    num, den = p.numerator, p.denominator
    if num == 1 and den & (den - 1) == 0:
        return den.bit_length() - 1
    raise CIError(
        f"entropy term for probability {p} is irrational; use as_float() for a numeric value"
    )


def _entropy_of(probs, exact: bool):
    """H of a list of probabilities, in bits, skipping zero cells.

    Exact mode sums ``p * k`` with ``p == 2**-k`` and raises ``CIError``
    on any non-dyadic cell; float mode sums ``-p * log2(p)``.
    """
    nonzero = list(filter(None, probs))
    if exact:
        return sum(map(mul, nonzero, map(_dyadic_log2, nonzero)), Fraction(0))
    return -sum(map(mul, nonzero, map(math.log2, nonzero)))


def entropy(d: JointDistribution, alpha: int):
    """H of the marginal on the variable mask ``alpha``, in bits; H(0) = 0.

    Exact tables yield an exact ``Fraction`` (every marginal probability
    must be a power of two); float tables yield a float.  The marginal is
    made by summing out each variable outside ``alpha``, highest first, so
    the variables below it keep their row-major positions.
    """
    check_fits(alpha, d.n)
    if not alpha:
        return Fraction(0) if d.exact else 0.0
    sizes = d.domain_sizes
    cells = list(d.probs)
    for v in reversed(range(d.n)):
        if not alpha >> v & 1:
            cells = _sum_out(cells, math.prod(sizes[:v]), sizes[v])
    return _entropy_of(cells, d.exact)


def _sum_out(parent: list, outer: int, size: int) -> list:
    """Sum a row-major ``(outer, size, inner)`` array over its middle axis.

    The loop runs over the shorter of the two kept axes and slices the
    longer one, so there are ``min(outer, inner)`` Python-level steps.
    """
    if size == 1:
        return parent
    inner = len(parent) // (outer * size)
    block = size * inner
    if inner >= outer:
        out = []
        for base in range(0, len(parent), block):
            acc = parent[base:base + inner]
            for k in range(base + inner, base + block, inner):
                acc = map(add, acc, parent[k:k + inner])
            out.extend(acc)
        return out
    out = [None] * (outer * inner)
    for j in range(inner):
        acc = parent[j::block]
        for k in range(j + inner, j + block, inner):
            acc = map(add, acc, parent[k::block])
        out[j::inner] = acc
    return out


def entropic_table(d: JointDistribution) -> PolymatroidTable:
    """Entropies of every subset of variables, as one table.

    Marginals are built by summing out one variable at a time.  Masks are
    visited in descending order, and the marginal on S is the one on
    P = S + {v}, with v the lowest variable missing from S, summed over v.
    That is one addition per cell of P: ``sum_S 2**|S| = 3**n`` in all for
    binary variables, where one pass over the joint per subset costs
    ``4**n``.  Only marginals holding variable 0 have children, and P is
    dropped after its last child, the one whose v has v + 1 missing from
    P, so at most ``2 * 2**n`` cells are alive at once.  Exact tables must
    have dyadic marginals, as in ``entropy``, and raise ``CIError``
    otherwise.
    """
    n = d.n
    if n > MAX_MEASURE_VARIABLES:
        raise CapExceeded(
            f"entropy tables support at most {MAX_MEASURE_VARIABLES} variables"
        )
    sizes = d.domain_sizes
    outers = [math.prod(sizes[:v]) for v in range(n)]
    exact = d.exact
    full = (1 << n) - 1
    values = [Fraction(0) if exact else 0.0] * (1 << n)
    live = {full: list(d.probs)}
    if full:
        values[full] = _entropy_of(live[full], exact)
    for mask in range(full - 1, 0, -1):
        v = (~mask & (mask + 1)).bit_length() - 1  # lowest missing variable
        parent = mask | (1 << v)
        cells = _sum_out(live[parent], outers[v], sizes[v])
        if v + 1 == n or not parent >> (v + 1) & 1:
            del live[parent]  # mask was the last child of parent
        if mask & 1:
            live[mask] = cells
        values[mask] = _entropy_of(cells, exact)
    return PolymatroidTable(n, tuple(values))


def linear_distribution(forms: Sequence[int]) -> JointDistribution:
    """The exact law of binary variables that are XORs of independent fair
    bits: variable v is the XOR of the bits set in ``forms[v]``.

    Every assignment of the bits the forms use is equally likely, so each
    outcome's probability is the share of those assignments that hit it.
    The assignments are visited in Gray-code order, one bit flip apiece.
    """
    n = len(forms)
    used = 0
    for form in forms:
        used |= form
    # columns[j]: the outcome index bits that the j-th used bit flips; variable
    # v sits at index bit n-1-v (row-major layout, last index fastest)
    columns = [
        sum(1 << (n - 1 - v) for v in range(n) if forms[v] >> b & 1) for b in members(used)
    ]
    hits = [1] + [0] * ((1 << n) - 1)  # the all-zero assignment
    index = 0
    for step in range(1, 1 << len(columns)):
        index ^= columns[(step & -step).bit_length() - 1]
        hits[index] += 1
    law = {h: Fraction(h, 1 << len(columns)) for h in set(hits)}
    return JointDistribution((2,) * n, tuple(map(law.__getitem__, hits)))


def _parity_forms(n: int, tau: CITriple) -> tuple[int, ...]:
    """Variable v is fair bit v, except tau's anchor, the lowest variable of
    ``tau.x``: the XOR of the bits of tau's other variables."""
    anchor = (tau.x & -tau.x).bit_length() - 1
    forms = [1 << v for v in range(n)]
    forms[anchor] = tau.mentioned & ~(1 << anchor)
    return tuple(forms)


def parity_distribution(n: int, tau: CITriple) -> JointDistribution:
    """Binary distribution where the lowest variable of ``tau.x`` is the
    parity of the other variables of ``tau`` and everything else is an
    independent fair bit.

    The resulting mutual information of ``tau`` is exactly 1, while any
    term that fails to mention all of tau's variables, or whose two sides
    do not both meet them, gets exactly 0.
    """
    check_fits(tau, n)
    return linear_distribution(_parity_forms(n, tau))


def random_distribution(
    n: int, domain_sizes: Sequence[int] | None = None, seed: int = 0
) -> JointDistribution:
    """A strictly positive random table, deterministic for a fixed seed.

    Exponential weights normalized onto the simplex (scheme
    ``SAMPLER_NAME``); the largest cell absorbs the float rounding residue
    so the probabilities sum to 1 within tolerance.
    """
    sizes = tuple(domain_sizes) if domain_sizes is not None else (2,) * n
    if len(sizes) != n:
        raise CIError("one domain size per variable is required")
    if any(s < 1 for s in sizes):
        raise CIError("domain sizes must be at least 1")
    count = math.prod(sizes)
    if count > MAX_OUTCOMES:
        raise CapExceeded(f"at most {MAX_OUTCOMES} outcomes are supported")
    rng = random.Random(seed)
    weights = []
    for _ in range(count):
        w = 0.0
        while w <= 0.0:
            w = -math.log(1.0 - rng.random())
        weights.append(w)
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[probs.index(max(probs))] += 1.0 - sum(probs)
    return JointDistribution(sizes, tuple(probs))


def format_distribution(d: JointDistribution, universe: Universe) -> str:
    """The textual table format: a ``vars`` header, then one support line
    per outcome; omitted outcomes have probability 0."""
    if universe.n != d.n:
        raise CIError("universe size does not match the distribution")
    lines = ["vars " + " ".join(f"{nm}:{s}" for nm, s in zip(universe.names, d.domain_sizes))]
    # product() walks the outcomes in the row-major order of ``d.probs``
    for outcome, p in zip(product(*map(range, d.domain_sizes)), d.probs):
        if p == 0:
            continue
        vals = " ".join(map(str, outcome))
        if isinstance(p, (Fraction, int)):
            p = Fraction(p)
            lines.append(f"{vals} {p.numerator}/{p.denominator}")
        else:
            lines.append(f"{vals} {p!r}")
    return "\n".join(lines) + "\n"


def write_distribution(d: JointDistribution, universe: Universe, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_distribution(d, universe))


def parse_distribution(lines) -> tuple[JointDistribution, Universe]:
    payload = list(_payload_lines(lines))
    header = payload[0][1].split() if payload else []
    if header[:1] != ["vars"]:
        raise ParseError("distribution files start with a 'vars name:card ...' header")
    names: list[str] = []
    sizes: list[int] = []
    for tok in header[1:]:
        nm, _, card = tok.partition(":")
        if not card.isdigit() or int(card) < 1:
            raise ParseError(f"bad domain declaration {tok!r}")
        names.append(nm)
        sizes.append(int(card))
    universe = Universe(tuple(names))
    n = len(names)
    count = math.prod(sizes)
    if count > MAX_OUTCOMES:
        raise CapExceeded(f"at most {MAX_OUTCOMES} outcomes are supported")
    strides = _strides(sizes)

    entries: dict[int, object] = {}
    exact = True
    for lineno, line in payload[1:]:
        parts = line.split()
        if len(parts) != n + 1:
            raise ParseError(f"line {lineno}: expected {n} values and a probability")
        index = 0
        for i, tok in enumerate(parts[:n]):
            if not tok.isdigit() or int(tok) >= sizes[i]:
                raise ParseError(f"line {lineno}: value {tok!r} out of range for {names[i]}")
            index += int(tok) * strides[i]
        if index in entries:
            raise ParseError(f"line {lineno}: duplicate outcome")
        ptok = parts[n]
        if "/" in ptok:
            num, _, den = ptok.partition("/")
            try:
                entries[index] = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {lineno}: bad probability {ptok!r}") from None
        else:
            try:
                entries[index] = float(ptok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad probability {ptok!r}") from None
            exact = False

    if exact:
        probs = [Fraction(0)] * count
    else:
        probs = [0.0] * count
    for index, p in entries.items():
        probs[index] = p if exact else float(p)
    return JointDistribution(tuple(sizes), tuple(probs)), universe


def read_distribution(path: str) -> tuple[JointDistribution, Universe]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distribution(fh)

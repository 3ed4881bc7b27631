"""Set-function tables over subsets of a variable universe.

A table assigns a value to every subset mask of ``[0, 2**n)`` with value 0
on the empty set.  Entropy tables, counterexample constructions, and LP
solutions all share this representation; values are exact ``Fraction``s or
floats depending on the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .core import (
    CapExceeded,
    CIError,
    CISet,
    CITriple,
    ParseError,
    Universe,
    _payload_lines,
    check_fits,
    submasks,
)

# The most variables of a rank table, whose size grows as 2**n.
MAX_TABLE_VARIABLES = 16


@dataclass(frozen=True)
class PolymatroidTable:
    """A value per subset mask; ``values[0]`` must be 0."""

    n: int
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != 1 << self.n:
            raise CIError(f"expected {1 << self.n} entries, got {len(self.values)}")
        if self.values[0] != 0:
            raise CIError("the empty set must have value 0")

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.values)

    def value(self, mask: int):
        return self.values[mask]

    def cmi(self, t: CITriple):
        """Conditional mutual information of (x;y|z) read off the table."""
        check_fits(t, self.n)
        v = self.values
        zx = t.z | t.x
        zy = t.z | t.y
        return v[zx] + v[zy] - v[zx | t.y] - v[t.z]

    def sigma_value(self, sigma: CISet):
        return sum(self.cmi(t) for t in sigma)

    def __repr__(self) -> str:
        return f"PolymatroidTable(n={self.n}, h(full)={self.values[-1]})"


def write_polymatroid(table: PolymatroidTable, universe: Universe, path: str) -> None:
    """The dump format: a ``polymatroid vars NAME ...`` header, then one
    ``set NAME,... num/den`` line per nonempty subset."""
    lines = ["polymatroid vars " + " ".join(universe.names)]
    for mask in range(1, 1 << table.n):
        v = Fraction(table.values[mask])
        lines.append(f"set {universe.render_vars(mask)} {v.numerator}/{v.denominator}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_polymatroid(path: str) -> tuple[PolymatroidTable, Universe]:
    """Read a ``write_polymatroid`` dump; omitted subsets have value 0 and
    a subset set twice, in any name order, raises ``ParseError``.  The
    header's names are capped before the 2^n values are allocated."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = list(_payload_lines(fh))
    if not payload or not payload[0][1].startswith("polymatroid vars "):
        raise ParseError("table files start with 'polymatroid vars NAME ...'")
    names = tuple(payload[0][1].split()[2:])
    if len(names) > MAX_TABLE_VARIABLES:
        raise CapExceeded(f"table files support at most {MAX_TABLE_VARIABLES} variables")
    universe = Universe(names)
    values = [Fraction(0)] * (1 << universe.n)
    seen: set[int] = set()
    for lineno, line in payload[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "set":
            raise ParseError(f"line {lineno}: expected 'set NAMES VALUE'")
        mask = universe.set_of(*parts[1].split(","))
        if mask in seen:
            raise ParseError(f"line {lineno}: duplicate set")
        seen.add(mask)
        num, _, den = parts[2].partition("/")
        try:
            values[mask] = Fraction(int(num), int(den)) if den else Fraction(num)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad value {parts[2]!r}") from None
    return PolymatroidTable(universe.n, tuple(values)), universe


def linear_rank_table(forms: Sequence[int]) -> PolymatroidTable:
    """The table h(A) = GF(2) rank of ``{forms[v] : v in A}``.

    ``forms[v]`` is the bit vector of a linear form over GF(2): variable v
    is the XOR of the independent fair bits set in it.  The entropy in bits
    of any set of such variables is the rank of their forms, so the table
    is entropic and hence a polymatroid (Yeung, *Information Theory and
    Network Coding*, ch. 15, on linear functions of uniform sources).
    Each mask reduces its last variable's form against the echelon basis
    of the mask without it: at most n integer steps per entry.  More than
    ``MAX_TABLE_VARIABLES`` forms raise ``CapExceeded`` before any entry is
    built.
    """
    n = len(forms)
    if n > MAX_TABLE_VARIABLES:
        raise CapExceeded(f"rank tables support at most {MAX_TABLE_VARIABLES} variables")
    levels = [Fraction(r) for r in range(n + 1)]
    ranks = [0]
    # bases[mask]: an echelon basis of the mask's forms, leading bits descending
    bases: list[tuple[int, ...]] = [()]
    for form in forms:
        if form == 0:
            ranks += ranks
            bases += bases
            continue
        for rest in range(len(ranks)):  # masks of the earlier variables
            basis = bases[rest]
            x = form
            for b in basis:
                if x ^ b < x:  # x has b's leading bit
                    x ^= b
            if x:
                bases.append(tuple(sorted(basis + (x,), reverse=True)))
                ranks.append(ranks[rest] + 1)
            else:
                bases.append(basis)
                ranks.append(ranks[rest])
    return PolymatroidTable(n, tuple(levels[r] for r in ranks))


class LinearRanks:
    """The entries of ``linear_rank_table(forms)``, each ranked on demand.

    ``value(mask)`` is the GF(2) rank of the mask's forms, at most n
    reduction steps per form, so checking a CI term costs four ranks and
    no 2^n table.  The same cap as the table applies: more than
    ``MAX_TABLE_VARIABLES`` forms raise ``CapExceeded``, so the table of
    any view can be built.
    """

    def __init__(self, forms: Sequence[int]) -> None:
        if len(forms) > MAX_TABLE_VARIABLES:
            raise CapExceeded(f"rank tables support at most {MAX_TABLE_VARIABLES} variables")
        self.n = len(forms)
        self.forms = tuple(forms)

    def value(self, mask: int) -> int:
        rest = mask
        pivots: dict[int, int] = {}  # leading bit length -> basis form
        while rest:
            low = rest & -rest
            rest ^= low
            x = self.forms[low.bit_length() - 1]
            while x:
                lead = x.bit_length()
                if lead not in pivots:
                    pivots[lead] = x
                    break
                x ^= pivots[lead]
        return len(pivots)

    def cmi(self, t: CITriple) -> int:
        """Conditional mutual information of (x;y|z), from four ranks."""
        check_fits(t, self.n)
        zx = t.z | t.x
        zy = t.z | t.y
        return self.value(zx) + self.value(zy) - self.value(zx | t.y) - self.value(t.z)


def elemental_rows(n: int) -> Iterator[tuple[int, int, int, int]]:
    """The elemental inequalities on n variables, each as four masks
    ``(a, b, c, d)`` meaning h(a) + h(b) - h(c) - h(d) >= 0.

    They generate the polymatroid cone (Yeung 1997): first the n
    monotonicity rows h(N) >= h(N - i), as ``(N, 0, N - i, 0)``, then
    I(i;j|K) >= 0 for each pair i < j and each K avoiding both, in
    (i, j, K ascending) order.  Row count: n + C(n,2) * 2**(n-2).
    """
    full = (1 << n) - 1
    for i in range(n):
        yield full, 0, full ^ (1 << i), 0
    for i, j in combinations(range(n), 2):
        bi, bj = 1 << i, 1 << j
        for k in submasks(full ^ bi ^ bj):
            yield k | bi, k | bj, k | bi | bj, k


def is_polymatroid(table: PolymatroidTable, tol=0) -> bool:
    """Whether h(empty) = 0 and every row of ``elemental_rows`` holds,
    within ``tol``: O(n^2 2^n) work.  The refutations the deciders ship
    never need this check: they are rank tables of GF(2) forms
    (``linear_rank_table``), polymatroids by theorem.
    """
    v = table.values
    if not -tol <= v[0] <= tol:
        return False
    return not any(v[a] + v[b] - v[c] - v[d] < -tol for a, b, c, d in elemental_rows(table.n))

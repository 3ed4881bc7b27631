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
from typing import Sequence

from .core import CapExceeded, CIError, CISet, CITriple, VarSet, check_fits

# The most variables of a rank table or an atom set, whose sizes grow as 2**n.
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

    def value(self, vs: VarSet | int):
        mask = vs.bits if isinstance(vs, VarSet) else vs
        return self.values[mask]

    def cmi(self, t: CITriple):
        """Conditional mutual information of (x;y|z) read off the table."""
        check_fits(t, self.n)
        v = self.values
        zx = t.z.bits | t.x.bits
        zy = t.z.bits | t.y.bits
        return v[zx] + v[zy] - v[zx | t.y.bits] - v[t.z.bits]

    def conditional_entropy(self, b: VarSet, a: VarSet):
        check_fits(a | b, self.n)
        return self.values[a.bits | b.bits] - self.values[a.bits]

    def sigma_value(self, sigma: CISet):
        return sum(self.cmi(t) for t in sigma)

    def __repr__(self) -> str:
        return f"PolymatroidTable(n={self.n}, h(full)={self.values[-1]})"


def cond_mutual_information(table: PolymatroidTable, t: CITriple):
    return table.cmi(t)


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


def is_polymatroid(table: PolymatroidTable, tol=0) -> bool:
    """Whether the table is normalized, monotone, and submodular.

    Checked on the elemental inequalities, which generate the polymatroid
    cone: h(N) >= h(N - i) for each variable i, and I(i;j|K) >= 0 for each
    pair i, j and each K avoiding both.  That is O(n^2 2^n) work.  The
    refutations the deciders ship never need this check: they are rank
    tables of GF(2) forms (``linear_rank_table``), polymatroids by theorem.
    """
    n = table.n
    v = table.values
    full = (1 << n) - 1
    if not -tol <= v[0] <= tol:
        return False
    for i in range(n):
        if v[full] - v[full ^ (1 << i)] < -tol:
            return False
    for i, j in combinations(range(n), 2):
        bi, bj = 1 << i, 1 << j
        rest = full ^ bi ^ bj
        k = rest
        while True:
            if v[k | bi] + v[k | bj] - v[k | bi | bj] - v[k] < -tol:
                return False
            if k == 0:
                break
            k = (k - 1) & rest
    return True

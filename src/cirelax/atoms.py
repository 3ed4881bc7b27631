"""Information-diagram atoms and implication over positive measures.

The information diagram for n variables has one atom per non-empty subset
S of variables: the cell where exactly the variables in S appear in
positive form.  A CI term (X;Y|Z) covers the atoms whose positive set
meets X, meets Y, and avoids Z.  A set of antecedent terms implies a
consequent over all non-negative atom assignments exactly when the
consequent's atoms are covered by the antecedents' atoms, and every
failure is witnessed by an explicit one-atom counterexample table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import CapExceeded, CIError, CISet, CITriple, InternalCheckError, check_fits
from .polymatroids import MAX_TABLE_VARIABLES, PolymatroidTable, linear_rank_table

MAX_ATOM_VARIABLES = MAX_TABLE_VARIABLES


def _check_atom_cap(n: int) -> None:
    if not 1 <= n <= MAX_ATOM_VARIABLES:
        raise CapExceeded(f"atom sets support 1..{MAX_ATOM_VARIABLES} variables, got {n}")


@dataclass(frozen=True)
class AtomSet:
    """A subset of the 2**n - 1 non-empty atoms.

    Bit position s of ``bits`` is set when the atom with positive-form
    variable mask s belongs to the set; position 0 (no positive variable)
    is never set because that cell of the diagram is empty.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        _check_atom_cap(self.n)
        if self.bits & 1:
            raise CIError("the empty positive set is not an atom")
        if self.bits >> (1 << self.n):
            raise CIError("atom index out of range")

    def __or__(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(self.n, self.bits | other.bits)

    def __contains__(self, atom_mask: int) -> bool:
        return bool(self.bits >> atom_mask & 1)

    def __iter__(self) -> Iterator[int]:
        b = self.bits
        while b:
            low = b & -b
            yield low.bit_length() - 1
            b ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def issubset(self, other: "AtomSet") -> bool:
        return not self.bits & ~other.bits

    def smallest(self) -> int:
        if not self.bits:
            raise CIError("empty atom set")
        return (self.bits & -self.bits).bit_length() - 1


def atoms_of(t: CITriple, n: int) -> AtomSet:
    """The atoms covered by the CI term (x;y|z)."""
    _check_atom_cap(n)
    check_fits(t, n)
    xb, yb, zb = t.x.bits, t.y.bits, t.z.bits
    out = 0
    for s in range(1, 1 << n):
        if not s & zb and s & xb and s & yb:
            out |= 1 << s
    return AtomSet(n, out)


def atoms_of_set(sigma: CISet, n: int) -> AtomSet:
    out = AtomSet(n, 0)
    for t in sigma:
        out |= atoms_of(t, n)
    return out


@dataclass(frozen=True)
class Verdict:
    implied: bool
    witness: int | None = None  # atom mask, present iff not implied


def implies_positive(sigma: CISet, tau: CITriple, n: int) -> Verdict:
    """Implication over all non-negative atom assignments.

    Implied exactly when the atoms of ``tau`` are contained in the atoms of
    ``sigma``; otherwise the smallest uncovered atom is the witness.
    """
    missing = atoms_of(tau, n).bits & ~atoms_of_set(sigma, n).bits
    if missing == 0:
        return Verdict(True)
    return Verdict(False, (missing & -missing).bit_length() - 1)


def reduce_antecedents(sigma: CISet, tau: CITriple, n: int) -> CISet:
    """Drop antecedents whose atoms do not meet the consequent's atoms.

    Requires ``implies_positive(sigma, tau, n)``; the reduced set still
    implies ``tau``.
    """
    if not implies_positive(sigma, tau, n).implied:
        raise CIError("reduce_antecedents requires an implied consequent")
    tau_bits = atoms_of(tau, n).bits
    kept = CISet(tuple(t for t in sigma if atoms_of(t, n).bits & tau_bits))
    if not implies_positive(kept, tau, n).implied:
        raise InternalCheckError("antecedent reduction lost the implication")
    return kept


def single_atom_polymatroid(atom_mask: int, n: int) -> PolymatroidTable:
    """The table h(a) = 1 if a meets the atom's positive set else 0.

    It is the GF(2) rank table of the atom's variables sharing one fair bit
    while the others are constant, hence a polymatroid.  The mutual
    information it assigns to any CI term is 1 when the term covers the
    atom and 0 otherwise, which makes it a machine-checkable refutation for
    any uncovered consequent.
    """
    _check_atom_cap(n)
    if atom_mask == 0:
        raise CIError("the empty atom does not exist")
    if atom_mask >> n:
        raise CIError("atom out of range")
    return linear_rank_table([atom_mask >> v & 1 for v in range(n)])


@dataclass(frozen=True)
class AtomMeasure:
    """A (possibly signed) mass per non-empty atom; ``mass[0]`` is 0."""

    n: int
    mass: tuple

    def __post_init__(self) -> None:
        _check_atom_cap(self.n)
        object.__setattr__(self, "mass", tuple(self.mass))
        if len(self.mass) != 1 << self.n:
            raise CIError(f"expected {1 << self.n} masses")
        if self.mass[0] != 0:
            raise CIError("the empty positive set carries no mass")

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.mass)

    def is_positive(self, tol=0) -> bool:
        return all(v >= -tol for v in self.mass[1:])

    def total_on(self, atoms: AtomSet):
        return sum(self.mass[s] for s in atoms)


def measure_from_table(table: PolymatroidTable) -> AtomMeasure:
    """Invert a set-function table into its unique atom-mass assignment.

    The mass on atom S is the alternating subset sum
    ``-sum_{T <= S} (-1)^{|S - T|} h(complement of T)``, computed with an
    in-place subset Moebius transform in O(n 2^n) arithmetic operations.
    """
    n = table.n
    size = 1 << n
    full = size - 1
    g = [table.values[full ^ t] for t in range(size)]
    for i in range(n):
        bit = 1 << i
        for s in range(size):
            if s & bit:
                g[s] -= g[s ^ bit]
    mass = [-v for v in g]
    mass[0] = table.values[0]  # zero, of the value's type
    return AtomMeasure(n, tuple(mass))


def polymatroid_from_atoms(measure: AtomMeasure) -> PolymatroidTable:
    """The table h(a) = total mass of atoms meeting a, for non-negative mass.

    Any non-negative atom assignment yields a polymatroid this way.
    """
    if not measure.is_positive():
        raise CIError("atom masses must be non-negative")
    n = measure.n
    size = 1 << n
    full = size - 1
    f = list(measure.mass)
    for i in range(n):
        bit = 1 << i
        for s in range(size):
            if s & bit:
                f[s] += f[s ^ bit]
    total = f[full]
    values = tuple(total - f[full ^ a] for a in range(size))
    return PolymatroidTable(n, values)

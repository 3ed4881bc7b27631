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

from .core import CapExceeded, CIError, CISet, CITriple, VarSet, check_fits
from .polymatroids import MAX_TABLE_VARIABLES, PolymatroidTable, linear_rank_table

MAX_ATOM_VARIABLES = MAX_TABLE_VARIABLES


def _check_atom_cap(n: int) -> None:
    if not 1 <= n <= MAX_ATOM_VARIABLES:
        raise CapExceeded(f"atom sets support 1..{MAX_ATOM_VARIABLES} variables, got {n}")


def atoms_of(t: CITriple, n: int) -> VarSet:
    """The atoms covered by the CI term (x;y|z).

    Bit s of the result is set when the atom with positive-form variable
    mask s is covered; bit 0 (no positive variable) never is, because that
    cell of the diagram is empty.
    """
    _check_atom_cap(n)
    check_fits(t, n)
    xb, yb, zb = t.x.bits, t.y.bits, t.z.bits
    out = 0
    for s in range(1, 1 << n):
        if not s & zb and s & xb and s & yb:
            out |= 1 << s
    return VarSet(out)


def atoms_of_set(sigma: CISet, n: int) -> VarSet:
    _check_atom_cap(n)
    out = VarSet(0)
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
    missing = atoms_of(tau, n) - atoms_of_set(sigma, n)
    if not missing:
        return Verdict(True)
    return Verdict(False, missing.min())


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

    def is_positive(self, tol=0) -> bool:
        return all(v >= -tol for v in self.mass[1:])

    def total_on(self, atoms: VarSet):
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


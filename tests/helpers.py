"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from cirelax import CIError, CISet, CITriple, Dag, PolymatroidTable, entropic_table
from cirelax.core import CapExceeded, check_fits, members
from cirelax.polymatroids import MAX_TABLE_VARIABLES, linear_rank_table


def mask(*indices: int) -> int:
    """The variable mask with bit i set for each index i."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def all_dags(n: int) -> list[Dag]:
    """Every labelled DAG on n nodes, by filtering all directed graphs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    names = tuple(f"X{i + 1}" for i in range(n))
    out = []
    for bits in range(1 << len(pairs)):
        parents = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                parents[j] |= 1 << i
        try:
            out.append(Dag(names, tuple(parents)))
        except CIError:
            continue
    return out


def random_dag(n: int, rng: random.Random, edge_prob: float = 0.5) -> Dag:
    order = list(range(n))
    rng.shuffle(order)
    parents = [0] * n
    for pos, child in enumerate(order):
        for parent in order[:pos]:
            if rng.random() < edge_prob:
                parents[child] |= 1 << parent
    names = tuple(f"X{i + 1}" for i in range(n))
    return Dag(names, tuple(parents))


def random_triple(n: int, rng: random.Random, allow_z: bool = True) -> CITriple:
    while True:
        x = y = z = 0
        for i in range(n):
            role = rng.randrange(4)
            if role == 0:
                x |= 1 << i
            elif role == 1:
                y |= 1 << i
            elif role == 2 and allow_z:
                z |= 1 << i
        if x and y:
            return CITriple(x, y, z)


def random_marginal_set(n: int, rng: random.Random, size: int) -> CISet:
    return CISet(tuple(random_triple(n, rng, allow_z=False) for _ in range(size)))


def random_ci_set(n: int, rng: random.Random, size: int) -> CISet:
    return CISet(tuple(random_triple(n, rng) for _ in range(size)))


def all_canonical_triples(n: int) -> list[CITriple]:
    """Every CI triple over n variables, one per symmetry class."""
    seen: set[CITriple] = set()
    out: list[CITriple] = []
    for roles in itertools.product(range(4), repeat=n):
        x = y = z = 0
        for i, role in enumerate(roles):
            if role == 0:
                x |= 1 << i
            elif role == 1:
                y |= 1 << i
            elif role == 2:
                z |= 1 << i
        if not x or not y:
            continue
        t = CITriple(x, y, z)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def elemental_queries(n: int, max_z: int | None = None):
    """All (x, y, z) with singleton x < y and z over the remaining nodes."""
    for i, j in itertools.combinations(range(n), 2):
        rest = [k for k in range(n) if k not in (i, j)]
        top = len(rest) if max_z is None else min(max_z, len(rest))
        for zlen in range(top + 1):
            for zs in itertools.combinations(rest, zlen):
                yield mask(i), mask(j), mask(*zs)


def descendants(dag: Dag, v: int) -> set[int]:
    children = {i: [] for i in range(dag.n)}
    for c in range(dag.n):
        for p in members(dag.parents[c]):
            children[p].append(c)
    out: set[int] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        for c in children[u]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def path_d_separated(dag: Dag, x: int, y: int, z: int) -> bool:
    """Independent d-separation oracle: enumerate every undirected simple
    path and apply the chain/fork/collider blocking rules directly."""
    zset = set(members(z))
    arrows = set(dag.edges())
    neighbours = {i: set() for i in range(dag.n)}
    for p, c in arrows:
        neighbours[p].add(c)
        neighbours[c].add(p)

    def blocked(path: list[int]) -> bool:
        for idx in range(1, len(path) - 1):
            prev, mid, nxt = path[idx - 1], path[idx], path[idx + 1]
            collider = (prev, mid) in arrows and (nxt, mid) in arrows
            if collider:
                if mid not in zset and not (descendants(dag, mid) & zset):
                    return True
            elif mid in zset:
                return True
        return False

    for s in members(x):
        for t in members(y):
            stack = [[s]]
            while stack:
                path = stack.pop()
                v = path[-1]
                if v == t:
                    if not blocked(path):
                        return False
                    continue
                for w in neighbours[v]:
                    if w not in path:
                        stack.append(path + [w])
    return True


def brute_atoms(t: CITriple, n: int) -> set[frozenset[int]]:
    """Independent atom oracle using plain Python sets."""
    xs, ys, zs = set(members(t.x)), set(members(t.y)), set(members(t.z))
    out = set()
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if s & xs and s & ys and not s & zs:
                out.add(frozenset(s))
    return out


def atomset_as_frozensets(atoms) -> set[frozenset[int]]:
    return {frozenset(members(atom)) for atom in members(atoms)}


def polymatroid_by_definition(table, tol=0) -> bool:
    """Independent polymatroid oracle: monotonicity over every subset pair
    and submodularity over every pair of sets, straight from the
    definition.  O(4^n), so keep n small."""
    v = table.values
    size = 1 << table.n
    for b in range(size):
        a = b
        while True:  # all subsets a of b
            if v[b] - v[a] < -tol:
                return False
            if a == 0:
                break
            a = (a - 1) & b
    for a in range(size):
        for b in range(size):
            if v[a] + v[b] - v[a | b] - v[a & b] < -tol:
                return False
    return True


def polymatroid_from_atoms(measure) -> PolymatroidTable:
    """The table h(a) = total mass of atoms meeting a, for a non-negative
    ``AtomMeasure``.  Any non-negative atom assignment yields a polymatroid
    this way, so this draws cone points independently of the deciders."""
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


def entropy_by_definition(d, alpha: int):
    """Independent entropy oracle: one pass over the joint, keyed by the
    outcome's values on ``alpha``.  Exact tables need dyadic marginals and
    raise ``CIError`` otherwise, as ``entropy`` does."""
    strides = [1] * d.n
    for i in range(d.n - 2, -1, -1):
        strides[i] = strides[i + 1] * d.domain_sizes[i + 1]
    acc: dict[tuple[int, ...], object] = {}
    for index, p in enumerate(d.probs):
        if p:
            key = tuple(index // strides[i] % d.domain_sizes[i] for i in members(alpha))
            acc[key] = acc.get(key, 0) + p
    if not d.exact:
        return -sum(p * math.log2(p) for p in acc.values()) if alpha else 0.0
    total = Fraction(0)
    for p in acc.values():
        p = Fraction(p)
        if alpha and (p.numerator != 1 or p.denominator & (p.denominator - 1)):
            raise CIError(f"entropy term for probability {p} is irrational")
        total += p * (p.denominator.bit_length() - 1)
    return total


def entropic_table_by_definition(d) -> PolymatroidTable:
    """Independent entropy-table oracle: one pass over the whole joint per
    subset.  O(4^n), so keep n small."""
    return PolymatroidTable(
        d.n, tuple(entropy_by_definition(d, m) for m in range(1 << d.n))
    )


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of bit vectors given as ints, by plain elimination."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                rank += 1
                break
    return rank


def lambda_by_highs(sigma, tau, n: int) -> float | None:
    """Independent float oracle for the least factor: max I(tau) subject to
    I(sigma) <= 1 and every monotonicity and submodularity inequality from
    the definition, solved by SciPy's HiGHS.  ``None`` when unbounded."""
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import linprog

    size = 1 << n

    def form(terms) -> np.ndarray:
        f = np.zeros(size - 1)
        for mask, c in terms:
            if mask:
                f[mask - 1] += c
        return f

    def cmi(t: CITriple) -> np.ndarray:
        x, y, z = t.x, t.y, t.z
        return form(((x | z, 1), (y | z, 1), (x | y | z, -1), (z, -1)))

    rows = []  # each row r means r . h >= 0
    for b in range(size):
        for a in range(size):
            if a & b == a != b:
                rows.append(form(((b, 1), (a, -1))))
            if a < b:
                rows.append(form(((a, 1), (b, 1), (a | b, -1), (a & b, -1))))
    sigma_f = sum((cmi(t) for t in sigma), np.zeros(size - 1))
    a_ub = np.vstack([-r for r in rows] + [sigma_f])
    b_ub = np.zeros(len(rows) + 1)
    b_ub[-1] = 1.0
    res = linprog(-cmi(tau), A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if res.status == 3:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return -res.fun


# The I-measure oracle (Yeung 1991).  The information diagram for n
# variables has one atom per non-empty subset S of variables: the cell where
# exactly the variables in S appear in positive form.  A CI term (X;Y|Z)
# covers the atoms whose positive set meets X, meets Y and avoids Z.  Atom
# sets here are 2^n-bit masks, an independent check on the mask scan of
# ``implies_positive``.

MAX_ATOM_VARIABLES = MAX_TABLE_VARIABLES


def _check_atom_cap(n: int) -> None:
    if not 1 <= n <= MAX_ATOM_VARIABLES:
        raise CapExceeded(f"atom sets support 1..{MAX_ATOM_VARIABLES} variables, got {n}")


def atoms_of(t: CITriple, n: int) -> int:
    """The atoms covered by the CI term (x;y|z).

    Bit s of the result is set when the atom with positive-form variable
    mask s is covered; bit 0 (no positive variable) never is, because that
    cell of the diagram is empty.
    """
    _check_atom_cap(n)
    check_fits(t, n)
    out = 0
    for s in range(1, 1 << n):
        if not s & t.z and s & t.x and s & t.y:
            out |= 1 << s
    return out


def atoms_of_set(sigma: CISet, n: int) -> int:
    _check_atom_cap(n)
    out = 0
    for t in sigma:
        out |= atoms_of(t, n)
    return out


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

    def total_on(self, atoms: int):
        return sum(self.mass[s] for s in members(atoms))


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


def atom_measure(d) -> AtomMeasure:
    """The unique atom-mass assignment consistent with all entropies of ``d``.

    Masses reconstruct every subset entropy: summing the masses of the
    atoms meeting ``alpha`` gives H(alpha) back.  Capped, like the table,
    at ``MAX_MEASURE_VARIABLES`` variables.
    """
    return measure_from_table(entropic_table(d))

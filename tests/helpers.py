"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from cirelax import CIError, CISet, CITriple, Dag, PolymatroidTable, VarSet


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
            out.append(Dag(names, tuple(VarSet(b) for b in parents)))
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
    return Dag(names, tuple(VarSet(b) for b in parents))


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
            return CITriple(VarSet(x), VarSet(y), VarSet(z))


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
        t = CITriple(VarSet(x), VarSet(y), VarSet(z))
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
                yield VarSet.of(i), VarSet.of(j), VarSet.of(*zs)


def descendants(dag: Dag, v: int) -> set[int]:
    children = {i: [] for i in range(dag.n)}
    for c in range(dag.n):
        for p in dag.parents[c]:
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


def path_d_separated(dag: Dag, x: VarSet, y: VarSet, z: VarSet) -> bool:
    """Independent d-separation oracle: enumerate every undirected simple
    path and apply the chain/fork/collider blocking rules directly."""
    zset = set(z)
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

    for s in x:
        for t in y:
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
    xs, ys, zs = set(t.x), set(t.y), set(t.z)
    out = set()
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if s & xs and s & ys and not s & zs:
                out.add(frozenset(s))
    return out


def atomset_as_frozensets(atoms) -> set[frozenset[int]]:
    return {frozenset(VarSet(mask)) for mask in atoms}


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


def entropy_by_definition(d, alpha: VarSet):
    """Independent entropy oracle: one pass over the joint, keyed by the
    outcome's values on ``alpha``.  Exact tables need dyadic marginals and
    raise ``CIError`` otherwise, as ``entropy`` does."""
    strides = [1] * d.n
    for i in range(d.n - 2, -1, -1):
        strides[i] = strides[i + 1] * d.domain_sizes[i + 1]
    acc: dict[tuple[int, ...], object] = {}
    for index, p in enumerate(d.probs):
        if p:
            key = tuple(index // strides[i] % d.domain_sizes[i] for i in alpha)
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
        d.n, tuple(entropy_by_definition(d, VarSet(m)) for m in range(1 << d.n))
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

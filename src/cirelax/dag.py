"""Directed acyclic graphs, their recursive CI basis, and d-separation."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    CIError,
    CISet,
    CITriple,
    MAX_VARIABLES,
    ParseError,
    Universe,
    VarSet,
    check_fits,
)


@dataclass(frozen=True)
class Dag:
    """A labelled DAG given by per-node parent sets."""

    names: tuple[str, ...]
    parents: tuple[VarSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "parents", tuple(self.parents))
        n = len(self.names)
        if n > MAX_VARIABLES:
            raise CIError(f"at most {MAX_VARIABLES} variables are supported")
        if len(self.parents) != n:
            raise CIError("one parent set per node is required")
        for i, ps in enumerate(self.parents):
            if ps.bits >> n:
                raise CIError(f"parent index out of range for node {i}")
            if i in ps:
                raise CIError(f"node {i} cannot be its own parent")
        self.topological_order()  # raises on cycles

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def universe(self) -> Universe:
        return Universe(self.names)

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm, emitting the smallest ready index first."""
        n = self.n
        remaining = set(range(n))
        placed = VarSet(0)
        order: list[int] = []
        while remaining:
            ready = [i for i in remaining if self.parents[i].issubset(placed)]
            if not ready:
                raise CIError("graph contains a cycle")
            v = min(ready)
            remaining.remove(v)
            placed |= VarSet.of(v)
            order.append(v)
        return tuple(order)

    def ancestral_closure(self, vs: VarSet) -> VarSet:
        """``vs`` together with all of its ancestors."""
        out = vs
        stack = list(vs)
        while stack:
            v = stack.pop()
            for p in self.parents[v]:
                if p not in out:
                    out |= VarSet.of(p)
                    stack.append(p)
        return out

    def edges(self) -> list[tuple[int, int]]:
        return [(p, c) for c in range(self.n) for p in self.parents[c]]

    @classmethod
    def from_edges(
        cls, names: Sequence[str], edges: Iterable[tuple[str, str]]
    ) -> "Dag":
        universe = Universe(tuple(names))
        parents = [0] * universe.n
        for parent, child in edges:
            parents[universe.index(child)] |= 1 << universe.index(parent)
        return cls(tuple(names), tuple(VarSet(b) for b in parents))

    def __repr__(self) -> str:
        es = ", ".join(f"{self.names[p]}->{self.names[c]}" for p, c in self.edges())
        return f"Dag({', '.join(self.names)}; {es})"


def parse_dag(lines: Iterable[str]) -> Dag:
    """Parse the line-based DAG format: ``var NAME`` then ``edge PARENT CHILD``."""
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "var" and len(parts) == 2:
            names.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: expected 'var NAME' or 'edge P C', got {raw!r}")
    try:
        return Dag.from_edges(names, edges)
    except CIError as exc:
        raise ParseError(str(exc)) from None


def read_dag_file(path: str) -> Dag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag(fh)


def recursive_basis(dag: Dag, order: Sequence[int] | None = None) -> CISet:
    """The CI statements encoding the DAG factorization along ``order``.

    For the i-th node v of the order, with U the earlier nodes and B = the
    parents of v, the statement is (v ; U minus B | B).  Statements with an
    empty left-over set carry no information and are omitted.
    """
    if order is None:
        order = dag.topological_order()
    order = tuple(order)
    if sorted(order) != list(range(dag.n)):
        raise CIError("order must be a permutation of the node indices")
    placed = VarSet(0)
    triples: list[CITriple] = []
    for v in order:
        b = dag.parents[v]
        if not b.issubset(placed):
            raise CIError("order is not topological for this graph")
        r = placed - b
        if r:
            triples.append(CITriple(VarSet.of(v), r, b))
        placed |= VarSet.of(v)
    return CISet(tuple(triples))


def d_separated(dag: Dag, x: VarSet, y: VarSet, z: VarSet) -> bool:
    """Whether ``z`` blocks every trail between ``x`` and ``y`` in ``dag``."""
    return active_trail(dag, x, y, z) is None


def active_trail(dag: Dag, x: VarSet, y: VarSet, z: VarSet) -> tuple[int, ...] | None:
    """A shortest trail from ``x`` to ``y`` that ``z`` leaves active, as its
    nodes in order, or ``None`` when ``z`` d-separates ``x`` from ``y``.

    Bayes-Ball (Shachter 1998; Koller & Friedman, Alg. 3.1): a breadth-first
    search over (node, direction) states, where a node is entered "up" from
    a child (or as a start in ``x``) or "down" from a parent.  A node outside
    ``z`` passes the ball on to its children, and to its parents when
    entered up; a node entered down turns back up to its parents only when
    it is an ancestor of ``z`` (an active collider).  Each state is reached
    first along a shortest walk, and a shortest walk to ``y`` repeats no
    node, so the result is a simple trail whose non-colliders avoid ``z``
    and whose colliders lie in An(z).
    """
    check_fits(x | y | z, dag.n)
    if not x or not y:
        raise CIError("x and y must be non-empty")
    if not (x.isdisjoint(y) and x.isdisjoint(z) and y.isdisjoint(z)):
        raise CIError("x, y, z must be pairwise disjoint")

    children: list[list[int]] = [[] for _ in range(dag.n)]
    for c, ps in enumerate(dag.parents):
        for p in ps:
            children[p].append(c)
    ancestors = dag.ancestral_closure(z)
    # state 2v: v entered up, 2v + 1: v entered down; came_from[state] = previous state
    came_from = {2 * v: -1 for v in x}
    queue = deque(came_from)
    while queue:
        state = queue.popleft()
        v = state >> 1
        if v in y:
            trail = []
            while state >= 0:
                trail.append(state >> 1)
                state = came_from[state]
            return tuple(reversed(trail))
        moves = [] if v in z else [2 * c + 1 for c in children[v]]
        # on to the parents: entered down only at an active collider
        if (v in ancestors) if state & 1 else (v not in z):
            moves += [2 * p for p in dag.parents[v]]
        for nxt in moves:
            if nxt not in came_from:
                came_from[nxt] = state
                queue.append(nxt)
    return None

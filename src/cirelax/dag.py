"""Directed acyclic graphs, their recursive CI basis, and d-separation."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    CIError,
    CISet,
    CITriple,
    ParseError,
    Universe,
    _payload_lines,
    check_fits,
    members,
)


@dataclass(frozen=True)
class Dag:
    """A labelled DAG given by per-node parent masks (bit p of
    ``parents[v]`` for an edge p -> v); its names are checked as a
    ``Universe`` once, at construction."""

    names: tuple[str, ...]
    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        universe = Universe(tuple(self.names))
        object.__setattr__(self, "names", universe.names)
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "_universe", universe)
        n = universe.n
        if len(self.parents) != n:
            raise CIError("one parent set per node is required")
        for i, ps in enumerate(self.parents):
            if ps >> n:
                raise CIError(f"parent index out of range for node {i}")
            if ps >> i & 1:
                raise CIError(f"node {i} cannot be its own parent")
        # Kahn's algorithm, emitting the smallest ready index first
        remaining = set(range(n))
        placed = 0
        order: list[int] = []
        while remaining:
            ready = [i for i in remaining if not self.parents[i] & ~placed]
            if not ready:
                raise CIError("graph contains a cycle")
            v = min(ready)
            remaining.remove(v)
            placed |= 1 << v
            order.append(v)
        object.__setattr__(self, "_order", tuple(order))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def universe(self) -> Universe:
        return self._universe  # type: ignore[attr-defined]

    def topological_order(self) -> tuple[int, ...]:
        """The order Kahn's algorithm found at construction, smallest ready
        index first."""
        return self._order  # type: ignore[attr-defined]

    def ancestral_closure(self, vs: int) -> int:
        """The mask ``vs`` together with all of its ancestors."""
        out = frontier = vs
        while frontier:
            grown = 0
            for v in members(frontier):
                grown |= self.parents[v]
            frontier = grown & ~out
            out |= frontier
        return out

    def edges(self) -> list[tuple[int, int]]:
        return [(p, c) for c in range(self.n) for p in members(self.parents[c])]

    @classmethod
    def from_edges(
        cls, names: Sequence[str], edges: Iterable[tuple[str, str]]
    ) -> "Dag":
        universe = Universe(tuple(names))
        parents = [0] * universe.n
        for parent, child in edges:
            parents[universe.index(child)] |= 1 << universe.index(parent)
        return cls(tuple(names), tuple(parents))

    def __repr__(self) -> str:
        es = ", ".join(f"{self.names[p]}->{self.names[c]}" for p, c in self.edges())
        return f"Dag({', '.join(self.names)}; {es})"


def parse_dag(lines: Iterable[str]) -> Dag:
    """Parse the line-based DAG format: ``var NAME`` then ``edge PARENT CHILD``."""
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, line in _payload_lines(lines):
        parts = line.split()
        if parts[0] == "var" and len(parts) == 2:
            names.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: expected 'var NAME' or 'edge P C', got {line!r}")
    try:
        return Dag.from_edges(names, edges)
    except CIError as exc:
        raise ParseError(str(exc)) from None


def read_dag_file(path: str) -> Dag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag(fh)


def recursive_basis(dag: Dag) -> CISet:
    """The CI statements encoding the DAG factorization.

    For each node v of ``dag.topological_order()``, with U the earlier
    nodes and B the parents of v, the statement is (v ; U minus B | B).
    Statements with an empty left-over set carry no information and are
    omitted.
    """
    placed = 0
    triples: list[CITriple] = []
    for v in dag.topological_order():
        b = dag.parents[v]
        r = placed & ~b
        if r:
            triples.append(CITriple(1 << v, r, b))
        placed |= 1 << v
    return CISet(tuple(triples))


def d_separated(dag: Dag, x: int, y: int, z: int) -> bool:
    """Whether the mask ``z`` blocks every trail between the masks ``x``
    and ``y`` in ``dag``."""
    return active_trail(dag, x, y, z) is None


def active_trail(dag: Dag, x: int, y: int, z: int) -> tuple[int, ...] | None:
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
    if x & y or x & z or y & z:
        raise CIError("x, y, z must be pairwise disjoint")

    children: list[list[int]] = [[] for _ in range(dag.n)]
    for c, ps in enumerate(dag.parents):
        for p in members(ps):
            children[p].append(c)
    ancestors = dag.ancestral_closure(z)
    # state 2v: v entered up, 2v + 1: v entered down; came_from[state] = previous state
    came_from = {2 * v: -1 for v in members(x)}
    queue = deque(came_from)
    while queue:
        state = queue.popleft()
        v = state >> 1
        if y >> v & 1:
            trail = []
            while state >= 0:
                trail.append(state >> 1)
                state = came_from[state]
            return tuple(reversed(trail))
        blocked = z >> v & 1
        moves = [] if blocked else [2 * c + 1 for c in children[v]]
        # on to the parents: entered down only at an active collider
        if (ancestors >> v & 1) if state & 1 else not blocked:
            moves += [2 * p for p in members(dag.parents[v])]
        for nxt in moves:
            if nxt not in came_from:
                came_from[nxt] = state
                queue.append(nxt)
    return None

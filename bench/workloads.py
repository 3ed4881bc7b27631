"""Seeded benchmark inputs, drawn with bitmask arithmetic and rendered as text.

The benchmark hands cirelax only the rendered text (DAG files and ``I(...)``
lines), exactly what a CLI user would pass.  The masks stay with the
benchmark, which uses them to fix each instance's expected class from a
construction that does not call cirelax:

* DAG queries are classified by the benchmark's own d-separation, the atom
  cover of the recursive basis, and the parity-set search.  These predict the
  verdict path, so each block meets its stated share of every path.
* ``implied`` marginal queries and ``finite`` LP queries contain a planted
  antecedent that dominates the consequent by the chain rule.
* ``refuted`` and ``unbounded`` queries admit a single-atom polymatroid or a
  parity distribution that zeroes every antecedent but not the consequent.

A variable set is an int bitmask; a CI term (X;Y|Z) is a tuple ``(x, y, z)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Term = tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    """A block is one query per unit of ``cells`` count, in seeded order.

    ``cells`` holds ``(n, label, count)``; every block has the same
    composition, so runs of any length mix the strata in the same shares.
    ``min_samples`` queries are always measured, so the tail percentile is
    fixed per workload rather than by how fast the program ran.
    """

    kind: str  # "dag" | "marginal" | "lp"
    cells: tuple[tuple[int, str, int], ...]
    min_samples: int

    @property
    def block_size(self) -> int:
        return sum(count for _, _, count in self.cells)


# Cell counts put the median and the tail percentile inside one stratum rather
# than on the edge between two, so they do not jump between strata by seed.
WORKLOADS = {
    "dag-mixed": Workload(
        "dag",
        (
            (5, "separated", 2), (5, "single-atom", 2), (5, "parity", 2), (5, "parity-network", 2),
            (6, "separated", 2), (6, "single-atom", 1), (6, "parity", 1), (6, "parity-network", 1),
            (7, "separated", 1), (7, "single-atom", 1), (7, "parity", 1), (7, "parity-network", 1),
            (8, "separated", 1), (8, "single-atom", 2), (8, "parity", 1), (8, "parity-network", 1),
            (9, "separated", 1), (9, "single-atom", 1),
            (10, "separated", 1), (10, "single-atom", 1),
            (11, "separated", 1), (11, "single-atom", 1),
            (12, "separated", 1), (12, "single-atom", 1),
        ),
        min_samples=100,
    ),
    "dag-wide": Workload(
        "dag",
        tuple((n, label, 1) for n in range(17, 25) for label in ("separated", "connected")),
        min_samples=100,
    ),
    "marginal-probe": Workload(
        "marginal",
        (
            (4, "implied", 1), (4, "refuted", 2),
            (5, "implied", 2), (5, "refuted", 2),
            (6, "implied", 1), (6, "refuted", 1),
            (7, "implied", 2), (7, "refuted", 1),
        ),
        min_samples=100,
    ),
    "lambda-lp": Workload(
        "lp",
        ((3, "finite", 2), (3, "unbounded", 2), (4, "finite", 4), (4, "unbounded", 4)),
        min_samples=100,
    ),
    # Per-query cost at n=5 is heavy-tailed (pivot counts from 27 to over 100),
    # so a 30 s run holds too few of them for a steady figure; run it by hand.
    "lambda-lp-n5": Workload(
        "lp",
        ((5, "finite", 1), (5, "unbounded", 1)),
        min_samples=20,
    ),
}

VALIDATION_TRIALS = 20


@dataclass(frozen=True)
class Instance:
    """One query: the text cirelax parses, and the masks the checks use."""

    n: int
    label: str
    names: tuple[str, ...]
    lines: tuple[str, ...]  # DAG file lines, or antecedent lines
    query: str
    tau: Term
    sigma: tuple[Term, ...] = ()  # antecedents; the recursive basis for DAGs
    parents: tuple[int, ...] = ()
    trial_seed: int = 0  # root seed of validate_bound's random distributions


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _random_subset(rng: random.Random, pool: int, p: float) -> int:
    return sum(1 << v for v in bits(pool) if rng.random() < p)


def random_term(rng: random.Random, n: int, max_z: int) -> Term:
    vs = list(range(n))
    rng.shuffle(vs)
    nx = rng.choice((1, 1, 2))
    ny = rng.choice((1, 1, 2))
    nz = rng.randint(0, max(0, min(max_z, n - nx - ny)))
    x = sum(1 << v for v in vs[:nx])
    y = sum(1 << v for v in vs[nx:nx + ny])
    z = sum(1 << v for v in vs[nx + ny:nx + ny + nz])
    return x, y, z


def random_dag(rng: random.Random, n: int) -> tuple[int, ...]:
    """Parents of node i are drawn among nodes below i, so 0..n-1 is a
    topological order (and the one cirelax's basis uses)."""
    p = min(0.5, 3.0 / n)
    return tuple(sum(1 << j for j in range(i) if rng.random() < p) for i in range(n))


def d_separated(parents: tuple[int, ...], t: Term) -> bool:
    """Separation in the moralized ancestral graph of x, y and z."""
    x, y, z = t
    keep = x | y | z
    stack = list(bits(keep))
    while stack:
        for p in bits(parents[stack.pop()] & ~keep):
            keep |= 1 << p
            stack.append(p)
    adj = [0] * len(parents)
    for v in bits(keep):
        ps = parents[v]
        adj[v] |= ps
        for p in bits(ps):
            adj[p] |= (1 << v) | (ps & ~(1 << p))
    seen = x
    stack = list(bits(x))
    while stack:
        step = adj[stack.pop()] & ~seen & ~z
        if step & y:
            return False
        seen |= step
        stack.extend(bits(step))
    return True


def recursive_basis(parents: tuple[int, ...]) -> tuple[Term, ...]:
    """(v ; earlier non-parents | parents of v) along the order 0..n-1."""
    return tuple(
        (1 << v, ((1 << v) - 1) & ~ps, ps)
        for v, ps in enumerate(parents)
        if ((1 << v) - 1) & ~ps
    )


def _covers(t: Term, atom: int) -> bool:
    x, y, z = t
    return bool(atom & x and atom & y and not atom & z)


def atoms_covered(sigma: tuple[Term, ...], tau: Term, n: int) -> bool:
    """Every atom of tau lies under some antecedent's atoms."""
    return all(
        any(_covers(t, s) for t in sigma)
        for s in range(1, 1 << n)
        if _covers(tau, s)
    )


def parity_set(sigma: tuple[Term, ...], tau: Term) -> bool:
    """Some parity over a in X, b in Y and part of tau's other variables
    has zero information on every antecedent."""
    x, y, z = tau
    mentioned = x | y | z
    for a in bits(x):
        for b in bits(y):
            ab = (1 << a) | (1 << b)
            pool = mentioned & ~ab
            ext = 0
            while True:
                s = ab | ext
                if not any(
                    not s & ~(tx | ty | tz) and s & tx and s & ty for tx, ty, tz in sigma
                ):
                    return True
                ext = (ext - pool) & pool
                if ext == 0:
                    break
    return False


def dag_path(parents: tuple[int, ...], basis: tuple[Term, ...], tau: Term) -> str:
    n = len(parents)
    if d_separated(parents, tau):
        return "separated"
    if n > 16:
        return "connected"
    if not atoms_covered(basis, tau, n):
        return "single-atom"
    return "parity" if parity_set(basis, tau) else "parity-network"


def names_for(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def render_term(t: Term, names: tuple[str, ...]) -> str:
    x, y, z = (",".join(names[v] for v in bits(part)) for part in t)
    return f"I({x};{y}|{z})" if z else f"I({x};{y})"


def _draw_dag(rng: random.Random, n: int, label: str) -> Instance:
    names = names_for(n)
    while True:
        parents = random_dag(rng, n)
        tau = random_term(rng, n, max_z=3)
        basis = recursive_basis(parents)
        if dag_path(parents, basis, tau) == label:
            lines = [f"var {nm}" for nm in names]
            lines += [f"edge {names[p]} {names[c]}" for c, ps in enumerate(parents) for p in bits(ps)]
            return Instance(n, label, names, tuple(lines), render_term(tau, names), tau, basis, parents)


def _draw_marginal(rng: random.Random, n: int, label: str) -> tuple[Term, tuple[Term, ...]]:
    full = (1 << n) - 1
    while True:
        tau = random_term(rng, n, max_z=2)
        x, y, z = tau
        if label == "implied":
            # I(A;B) >= I(X;Y|Z) when X and part of Z lie in A, Y and the rest in B.
            za = _random_subset(rng, z, 0.5)
            spare = full & ~(x | y | z)
            xa = x | za | _random_subset(rng, spare, 0.25)
            yb = y | (z & ~za) | _random_subset(rng, spare & ~xa, 0.3)
            noise = [random_term(rng, n, max_z=0) for _ in range(rng.randint(0, 2))]
            sigma = [(xa, yb, 0)] + noise
            rng.shuffle(sigma)
            return tau, tuple(sigma)
        sigma = tuple(random_term(rng, n, max_z=0) for _ in range(rng.randint(1, 3)))
        if parity_set(sigma, tau):
            return tau, sigma


def _draw_lp(rng: random.Random, n: int, label: str) -> tuple[Term, tuple[Term, ...]]:
    full = (1 << n) - 1
    while True:
        tau = random_term(rng, n, max_z=2)
        x, y, z = tau
        if label == "finite":
            # I(XX';YY'W|Z0) >= I(X;Y|Z0 W), split on the right by the chain rule.
            w = _random_subset(rng, z, 0.5)
            z0 = z & ~w
            spare = full & ~(x | y | z)
            a = x | _random_subset(rng, spare, 0.3)
            b = y | w | _random_subset(rng, spare & ~a, 0.3)
            b1 = _random_subset(rng, b, 0.5)
            if b1 in (0, b):
                sigma = [(a, b, z0)]
            else:
                sigma = [(a, b1, z0), (a, b & ~b1, z0 | b1)]
            sigma += [random_term(rng, n, max_z=2) for _ in range(rng.randint(0, 1))]
            rng.shuffle(sigma)
            return tau, tuple(sigma)
        sigma = tuple(random_term(rng, n, max_z=2) for _ in range(rng.randint(1, 3)))
        if not atoms_covered(sigma, tau, n) or parity_set(sigma, tau):
            return tau, sigma


def draw(rng: random.Random, kind: str, n: int, label: str) -> Instance:
    if kind == "dag":
        return _draw_dag(rng, n, label)
    tau, drawn = (_draw_marginal if kind == "marginal" else _draw_lp)(rng, n, label)
    unique: dict = {}  # a CI set holds each statement once, whichever side comes first
    for t in drawn:
        unique.setdefault((frozenset(t[:2]), t[2]), t)
    sigma = tuple(unique.values())
    names = names_for(n)
    lines = tuple(render_term(t, names) for t in sigma)
    return Instance(n, label, names, lines, render_term(tau, names), tau, sigma,
                    trial_seed=rng.randrange(1 << 30))


def draw_block(rng: random.Random, workload: Workload) -> list[Instance]:
    block = [
        draw(rng, workload.kind, n, label)
        for n, label, count in workload.cells
        for _ in range(count)
    ]
    rng.shuffle(block)
    return block

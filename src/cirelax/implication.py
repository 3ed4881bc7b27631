"""Decision procedures with relaxation certificates.

Two certified checkers are provided.  ``check_recursive`` decides whether a
consequent follows from the CI basis of a DAG (via d-separation) and, when
it does, certifies the bound h(tau) <= h(basis) over every polymatroid.
``check_marginal`` decides implication from unconditioned antecedents and
certifies h(tau) <= |X||Y| * h(antecedents).  Every negative verdict ships
an executable refutation table with h(antecedents) = 0 and h(tau) = 1,
verified exactly before the certificate is returned.

Every refutation is a tuple of GF(2) linear forms, one per variable, each
variable being the XOR of some independent fair bits.  A marginal query is
refuted by a parity, which makes its anchor the XOR of fresh bits.  A
d-connected recursive query is refuted along one active trail: each trail
node is a fresh bit or the XOR of its trail parents, and each collider is
copied down to the conditioning set (Geiger, Verma & Pearl 1990).  The
shipped table holds the exact GF(2) ranks of the forms.  Ranks of linear
forms of uniform bits are entropies, so the table is a polymatroid by
theorem (Yeung, *Information Theory and Network Coding*, ch. 15), and
verifying it only takes the CI terms of the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    CapExceeded,
    CIError,
    CISet,
    CITriple,
    InternalCheckError,
    Universe,
    VarSet,
    check_fits,
    elemental_decompose,
)
from .dag import Dag, active_trail, recursive_basis
from .distributions import MAX_MEASURE_VARIABLES, JointDistribution, parity_distribution
from .polymatroids import PolymatroidTable, linear_rank_table

# bench/tracing.py times the layers by swapping these names in this module,
# as it does ``parity_refutation`` below, so they stay attributes of it even
# where, as for ``implies_positive`` and ``is_polymatroid``, nothing here
# calls them.
from .atoms import implies_positive
from .dag import d_separated
from .distributions import entropic_table, random_distribution
from .polymatroids import is_polymatroid

FLOAT_TOL = 1e-9
MAX_CLOSURE_VARIABLES = 5
TRIAL_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class RelaxationCertificate:
    """An auditable verdict for one implication query.

    Positive verdicts carry the approximation factor ``lam`` and the
    evidence that justifies it; negative verdicts carry a witness plus an
    exact refutation table (and, for parity refutations, the distribution
    it came from; for trail refutations, the trail).
    """

    implied: bool
    kind: str  # "recursive" | "marginal"
    tau: CITriple
    lam: Fraction | None = None
    source: str = ""
    covers: tuple[tuple[CITriple, tuple[CITriple, ...]], ...] = ()
    lambda_hint: Fraction | None = None
    witness_triple: CITriple | None = None
    refutation_kind: str = ""  # "trail" | "parity"
    refutation_trail: tuple[int, ...] = ()
    refutation_parity: CITriple | None = None
    refutation_table: PolymatroidTable | None = field(default=None, compare=False)
    refutation_distribution: JointDistribution | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.implied and self.lam is None:
            raise InternalCheckError("implied certificates must carry lambda")
        if not self.implied and self.refutation_table is None:
            raise InternalCheckError("negative certificates must carry a refutation")

    def render(self, universe: Universe) -> str:
        lines = []
        if self.implied:
            lines.append(f"IMPLIED lambda={self.lam}")
        else:
            lines.append(f"NOT-IMPLIED witness={universe.render_triple(self.witness_triple)}")
        lines.append(f"kind={self.kind}")
        lines.append(f"tau={universe.render_triple(self.tau)}")
        if self.implied:
            if self.source:
                lines.append(f"source={self.source}")
            if self.lambda_hint is not None:
                lines.append(f"lambda_hint={self.lambda_hint}")
            for elemental, chain in self.covers:
                via = ", ".join(universe.render_triple(s) for s in chain)
                lines.append(f"cover {universe.render_triple(elemental)} <- {via}")
        elif self.refutation_kind == "trail":
            trail = ",".join(universe.names[v] for v in self.refutation_trail)
            lines.append(f"refutation=trail {trail}")
        else:
            lines.append(f"refutation=parity {universe.render_triple(self.refutation_parity)}")
        return "\n".join(lines)


def _verify_refutation(table: PolymatroidTable, antecedents: CISet, tau: CITriple) -> None:
    """A refutation must be a polymatroid with h(sigma)=0 and h(tau)=1.

    ``table`` must be a ``linear_rank_table``: exact integer GF(2) ranks of
    linear forms of fair bits, which are entropies and hence a polymatroid
    (Yeung, ch. 15).  So only the CI terms are checked, four entries each,
    with no scan of the 2^n table.
    """
    for sigma in antecedents:
        if table.cmi(sigma) != 0:
            raise InternalCheckError(f"refutation does not annihilate {sigma!r}")
    if table.cmi(tau) != 1:
        raise InternalCheckError("refutation does not separate the consequent")


def parity_refutation(
    antecedents: CISet, tau: CITriple, n: int
) -> tuple[CITriple, JointDistribution, PolymatroidTable] | None:
    """Search for a sub-triple of ``tau`` whose parity distribution kills
    every antecedent.

    A parity construction over the variable set S zeroes a term (X;Y|Z)
    unless the term mentions all of S and both X and Y meet S.  We pick one
    variable from each side of ``tau`` plus any subset of its remaining
    variables, smallest mask first, and keep the first S with no surviving
    antecedent; the parity's mutual information on ``tau`` itself is then
    exactly 1.
    """
    for a in tau.x:
        for b in tau.y:
            ab = VarSet.of(a, b)
            pool = (tau.mentioned - ab).bits
            ext = 0
            while True:
                s = ab | VarSet(ext)
                survivor = False
                for sigma in antecedents:
                    if (
                        s.issubset(sigma.mentioned)
                        and sigma.x & s
                        and sigma.y & s
                    ):
                        survivor = True
                        break
                if not survivor:
                    reduced = CITriple(VarSet.of(a), VarSet.of(b), VarSet(ext))
                    table = linear_rank_table(_parity_forms(n, reduced))
                    return reduced, parity_distribution(n, reduced), table
                ext = (ext - pool) & pool  # next submask, increasing numeric order
                if ext == 0:
                    break
    return None


def _parity_forms(n: int, tau: CITriple) -> tuple[int, ...]:
    """The forms of ``parity_distribution(n, tau)``: variable v is fair bit
    v, except tau's anchor, the XOR of the bits of tau's other variables."""
    anchor = tau.x.min()
    forms = [1 << v for v in range(n)]
    forms[anchor] = (tau.mentioned - VarSet.of(anchor)).bits
    return tuple(forms)


def _trail_refutation(dag: Dag, tau: CITriple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An active trail for a d-connected ``tau``, and GF(2) forms along it
    with h(tau) = 1 and h(basis) = 0 (Geiger, Verma & Pearl 1990).

    Each trail node with no trail parent is a fresh fair bit, and every
    other trail node is the XOR of its trail parents, so a collider is the
    XOR of both trail neighbours.  Each collider outside z is copied down a
    shortest directed path to z, and every other node is 0.  Every node is
    then a fresh bit XOR some of its parents, so the forms factorize over
    the DAG and zero its whole recursive basis.

    The trail starts as a shortest active one.  A collider's path to z may
    run into the trail, x or y before it reaches z; the path is then
    spliced into the trail, which stays active and has fewer colliders, and
    the forms are rebuilt.  Once no path does, the trail's ends carry its
    first and last fresh bits, and the z nodes hold sums of the colliders'
    forms that add up to the XOR of the two, so h(tau) is exactly 1.
    """
    x, y, z = tau.x, tau.y, tau.z
    parents = dag.parents
    # toward[v]: a child of v on a shortest directed path from v to z
    toward: dict[int, int] = {}
    frontier = list(z)
    while frontier:
        step = []
        for child in frontier:
            for p in parents[child]:
                if p not in z and p not in toward:
                    toward[p] = child
                    step.append(p)
        frontier = step

    trail = active_trail(dag, x, y, z)
    spliced = True
    while spliced:
        spliced = False
        position = {v: i for i, v in enumerate(trail)}
        xored = [0] * dag.n  # xored[v]: mask of the parents whose forms v XORs
        for i, v in enumerate(trail):
            for w in trail[max(i - 1, 0):i] + trail[i + 1:i + 2]:
                if w in parents[v]:
                    xored[v] |= 1 << w
        sources = [v for v in trail if not xored[v]]
        colliders = [i for i, v in enumerate(trail) if xored[v].bit_count() == 2]
        for i in colliders:
            path = [trail[i]]
            while path[-1] not in z:
                v = toward[path[-1]]
                if v not in z and (v in position or v in x or v in y):
                    q = position.get(v)
                    inner = tuple(path[1:])
                    if v in y or (q is not None and q > i):
                        # x ... -> collider -> inner -> v ... y
                        tail = trail[q:] if q is not None else (v,)
                        trail = trail[:i + 1] + inner + tail
                    else:
                        # x ... v <- inner <- collider <- ... y
                        head = trail[:q + 1] if q is not None else (v,)
                        trail = head + inner[::-1] + trail[i:]
                    spliced = True
                    break
                xored[v] |= 1 << path[-1]
                path.append(v)
            if spliced:
                break

    forms = [0] * dag.n
    for k, v in enumerate(sources):
        forms[v] = 1 << k
    for v in dag.topological_order():
        for p in VarSet(xored[v]):
            forms[v] ^= forms[p]
    return trail, tuple(forms)


def check_recursive(dag: Dag, tau: CITriple) -> RelaxationCertificate:
    """Decide whether the DAG's CI basis implies ``tau`` and certify it.

    The verdict is d-separation.  A separated consequent satisfies
    h(tau) <= h(basis) for every polymatroid (factor 1).  A d-connected one
    is refuted along an active trail by ``_trail_refutation``; such a
    refutation exists for every d-connected query, which is the
    completeness of d-separation.
    """
    check_fits(tau, dag.n)
    if d_separated(dag, tau.x, tau.y, tau.z):
        return RelaxationCertificate(
            implied=True,
            kind="recursive",
            tau=tau,
            lam=Fraction(1),
            source="d-separation",
        )
    trail, forms = _trail_refutation(dag, tau)
    table = linear_rank_table(forms)
    _verify_refutation(table, recursive_basis(dag), tau)
    return RelaxationCertificate(
        implied=False,
        kind="recursive",
        tau=tau,
        witness_triple=tau,
        refutation_kind="trail",
        refutation_trail=trail,
        refutation_table=table,
    )


def _cover_chain(
    antecedents: tuple[CITriple, ...],
    a: int,
    b: int,
    cond_bits: int,
    memo: dict[int, tuple[CITriple, ...] | None],
) -> tuple[CITriple, ...] | None:
    """Antecedents bounding I(a;b|C), if any, as a chain of distinct terms.

    Direct cover: some (X;Y) with a in X, b in Y, and X union Y covering
    {a,b} and C.  Otherwise a term with both a and b on one side may absorb
    the part of C it contains provided its other side meets C; the residue
    C & X recurses.  The terms of a successful chain are pairwise distinct,
    so I(a;b|C) <= sum over the chain <= h(antecedents).
    """
    if cond_bits in memo:
        return memo[cond_bits]
    need = (1 << a) | (1 << b) | cond_bits
    result: tuple[CITriple, ...] | None = None
    for sigma in antecedents:
        for xs, ys in ((sigma.x, sigma.y), (sigma.y, sigma.x)):
            if a in xs and b in ys and not need & ~(xs.bits | ys.bits):
                result = (sigma,)
                break
        if result:
            break
    if result is None:
        for sigma in antecedents:
            for xs, ys in ((sigma.x, sigma.y), (sigma.y, sigma.x)):
                if (
                    a in xs
                    and b in xs
                    and not need & ~(xs.bits | ys.bits)
                    and ys.bits & cond_bits
                ):
                    sub = _cover_chain(antecedents, a, b, cond_bits & xs.bits, memo)
                    if sub is not None:
                        if sigma in sub:
                            raise InternalCheckError("cover chain revisited a term")
                        result = (sigma,) + sub
                        break
            if result:
                break
    memo[cond_bits] = result
    return result


def check_marginal(sigma: CISet, tau: CITriple, n: int) -> RelaxationCertificate:
    """Decide implication from unconditioned antecedents and certify it.

    ``tau`` is split into elemental terms; each must be covered by a chain
    of antecedents as described in ``_cover_chain``.  Success certifies
    h(tau) <= |X||Y| * h(sigma) over every polymatroid, with the number of
    elemental terms as the factor.  Failure produces the first uncovered
    elemental term and an exact parity refutation.
    """
    check_fits(tau, n)
    check_fits(sigma, n)
    for s in sigma:
        if s.z:
            raise CIError(f"antecedent {s!r} is not marginal")
    antecedents = tuple(sigma)
    elementals = elemental_decompose(tau)
    covers: list[tuple[CITriple, tuple[CITriple, ...]]] = []
    uncovered: CITriple | None = None
    for elemental in elementals:
        a = elemental.x.min()
        b = elemental.y.min()
        chain = _cover_chain(antecedents, a, b, elemental.z.bits, {})
        if chain is None:
            uncovered = elemental
            break
        covers.append((elemental, chain))

    if uncovered is None:
        lam = Fraction(len(tau.x) * len(tau.y))
        multiplicity: dict[CITriple, int] = {}
        for _, chain in covers:
            for s in chain:
                multiplicity[s] = multiplicity.get(s, 0) + 1
        hint = Fraction(max(multiplicity.values(), default=1))
        return RelaxationCertificate(
            implied=True,
            kind="marginal",
            tau=tau,
            lam=lam,
            covers=tuple(covers),
            lambda_hint=hint,
        )

    found = parity_refutation(sigma, tau, n)
    if found is None:
        raise InternalCheckError(
            f"uncovered elemental {uncovered!r} admits no parity refutation"
        )
    reduced, dist, table = found
    _verify_refutation(table, sigma, tau)
    return RelaxationCertificate(
        implied=False,
        kind="marginal",
        tau=tau,
        witness_triple=uncovered,
        refutation_kind="parity",
        refutation_parity=reduced,
        refutation_distribution=dist,
        refutation_table=table,
    )


def _unary_consequences(t: CITriple) -> list[CITriple]:
    """Everything derivable from one triple by shrinking a side and moving
    any part of the removed variables into the conditioning set."""
    out = []
    for keep_side, other in ((t.x, t.y), (t.y, t.x)):
        pool = keep_side.bits
        kept = pool
        while kept:
            rem = pool ^ kept
            moved = rem
            while True:
                out.append(CITriple(VarSet(kept), other, t.z | VarSet(moved)))
                if moved == 0:
                    break
                moved = (moved - 1) & rem
            kept = (kept - 1) & pool
    return out


def _contractions(t1: CITriple, t2: CITriple) -> list[CITriple]:
    """(X;Y|Z) and (X;W|ZY) combine into (X;YW|Z)."""
    out = []
    for x1, y1 in ((t1.x, t1.y), (t1.y, t1.x)):
        want_z = t1.z | y1
        for x2, w2 in ((t2.x, t2.y), (t2.y, t2.x)):
            if x1.bits == x2.bits and t2.z.bits == want_z.bits:
                out.append(CITriple(x1, y1 | w2, t1.z))
    return out


def semigraphoid_closure(sigma: CISet, n: int) -> frozenset[CITriple]:
    """The least set containing ``sigma`` closed under symmetry,
    decomposition, weak union, and contraction.

    Symmetry is built into the canonical triple representation; the other
    rules run to a fixpoint over the (finite) triple space.
    """
    if n > MAX_CLOSURE_VARIABLES:
        raise CapExceeded(
            f"semigraphoid closure supports at most {MAX_CLOSURE_VARIABLES} variables"
        )
    check_fits(sigma, n)
    closed: set[CITriple] = set()
    pending: list[CITriple] = list(sigma)
    while pending:
        t = pending.pop()
        if t in closed:
            continue
        closed.add(t)
        pending.extend(d for d in _unary_consequences(t) if d not in closed)
        for s in tuple(closed):
            pending.extend(d for d in _contractions(t, s) if d not in closed)
            pending.extend(d for d in _contractions(s, t) if d not in closed)
    return frozenset(closed)


def tightness_family(n: int) -> tuple[CISet, CITriple]:
    """Antecedents {(v0;vi|v1..v(i-1))} with consequent (v0;v1..v(n-1)).

    The chain rule makes h(tau) equal to h(sigma) for every polymatroid, so
    the factor-1 bound cannot be improved.
    """
    if n < 2:
        raise CIError("the tightness family needs at least two variables")
    triples = []
    for i in range(1, n):
        triples.append(
            CITriple(VarSet.of(0), VarSet.of(i), VarSet(((1 << i) - 1) & ~1))
        )
    tau = CITriple(VarSet.of(0), VarSet(((1 << n) - 1) & ~1))
    return CISet(tuple(triples)), tau


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    lam: Fraction
    trials: int
    max_violation: float
    worst_seed: int
    tolerance: float = FLOAT_TOL

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} lambda={self.lam} trials={self.trials} "
            f"max_violation={self.max_violation:.9e} worst_seed={self.worst_seed}"
        )


def validate_bound(
    sigma: CISet,
    tau: CITriple,
    lam: Fraction,
    trials: int,
    seed: int,
    n: int,
) -> ValidationReport:
    """Probe h(tau) <= lam * h(sigma) on random binary distributions.

    Each trial builds one entropy table, so ``n`` is capped at
    ``MAX_MEASURE_VARIABLES`` before any distribution is drawn.

    Per-trial seeds derive deterministically from the root seed, and the
    worst trial's seed is reported so it can be replayed.
    """
    if trials < 1:
        raise CIError("at least one trial is required")
    if n > MAX_MEASURE_VARIABLES:
        raise CapExceeded(
            f"validate_bound supports at most {MAX_MEASURE_VARIABLES} variables"
        )
    check_fits(tau, n)
    check_fits(sigma, n)
    lamf = float(lam)
    worst = -float("inf")
    worst_seed = 0
    for i in range(trials):
        trial_seed = seed * TRIAL_SEED_STRIDE + i
        table = entropic_table(random_distribution(n, None, trial_seed))
        violation = table.cmi(tau) - lamf * float(table.sigma_value(sigma))
        if violation > worst:
            worst = violation
            worst_seed = trial_seed
    return ValidationReport(
        passed=worst <= FLOAT_TOL,
        lam=Fraction(lam),
        trials=trials,
        max_violation=worst,
        worst_seed=worst_seed,
    )

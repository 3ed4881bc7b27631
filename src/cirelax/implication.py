"""Decision procedures with relaxation certificates.

Two certified checkers are provided.  ``check_recursive`` decides whether a
consequent follows from the CI basis of a DAG (via d-separation) and, when
it does, certifies the bound h(tau) <= h(basis) over every polymatroid.
``check_marginal`` decides implication from unconditioned antecedents and
certifies h(tau) <= |X||Y| * h(antecedents).  Every negative verdict ships
an executable refutation table with h(antecedents) = 0 and h(tau) >= 1,
verified exactly before the certificate is returned.

Every refutation is a tuple of GF(2) linear forms, one per variable, each
variable being the XOR of some independent fair bits: a single atom gives
its variables one shared bit, a parity makes its anchor the XOR of fresh
bits, and a network sets each node to an XOR of its parents.  The shipped
table holds the exact GF(2) ranks of those forms.  Ranks of linear forms
of uniform bits are entropies, so the table is a polymatroid by theorem
(Yeung, *Information Theory and Network Coding*, ch. 15), and verifying it
only takes the CI terms of the query.
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
from .atoms import implies_positive, single_atom_polymatroid
from .dag import Dag, d_separated, recursive_basis
from .distributions import (
    JointDistribution,
    entropic_table,
    parity_distribution,
    random_distribution,
)
# ``is_polymatroid`` is no longer called here, but bench/tracing.py counts
# calls through this name, so it stays importable from this module.
from .polymatroids import PolymatroidTable, _gf2_rank, is_polymatroid, linear_rank_table

FLOAT_TOL = 1e-9
MAX_CLOSURE_VARIABLES = 5
TRIAL_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class RelaxationCertificate:
    """An auditable verdict for one implication query.

    Positive verdicts carry the approximation factor ``lam`` and the
    evidence that justifies it; negative verdicts carry a witness plus an
    exact refutation table (and, for parity refutations, the distribution
    it came from).
    """

    implied: bool
    kind: str  # "recursive" | "marginal"
    tau: CITriple
    lam: Fraction | None = None
    source: str = ""
    covers: tuple[tuple[CITriple, tuple[CITriple, ...]], ...] = ()
    lambda_hint: Fraction | None = None
    witness_atom: int | None = None
    witness_triple: CITriple | None = None
    refutation_kind: str = ""  # "single-atom" | "parity"
    refutation_atom: int | None = None
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
            if self.witness_atom is not None:
                witness = "atom" + universe.render_atom(self.witness_atom)
            else:
                witness = universe.render_triple(self.witness_triple)
            lines.append(f"NOT-IMPLIED witness={witness}")
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
        else:
            if self.refutation_kind == "single-atom":
                lines.append(
                    f"refutation=single-atom atom{universe.render_atom(self.refutation_atom)}"
                )
            elif self.refutation_kind == "parity":
                lines.append(
                    f"refutation=parity {universe.render_triple(self.refutation_parity)}"
                )
            else:
                lines.append("refutation=parity-network")
        return "\n".join(lines)


def _verify_refutation(
    table: PolymatroidTable, antecedents: CISet, tau: CITriple, exact_one: bool = True
) -> None:
    """A refutation must be a polymatroid with h(sigma)=0 and h(tau)>=1
    (exactly 1 when ``exact_one``).

    ``table`` must be a ``linear_rank_table``: exact integer GF(2) ranks of
    linear forms of fair bits, which are entropies and hence a polymatroid
    (Yeung, ch. 15).  So only the CI terms are checked, four entries each,
    with no scan of the 2^n table.
    """
    for sigma in antecedents:
        if table.cmi(sigma) != 0:
            raise InternalCheckError(f"refutation does not annihilate {sigma!r}")
    value = table.cmi(tau)
    if (exact_one and value != 1) or value < 1:
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


def _distribution_from_forms(forms: tuple[int, ...]) -> JointDistribution:
    """The exact binary distribution of the forms over uniform source bits."""
    n = len(forms)
    n_sources = max(f.bit_length() for f in forms)
    counts: dict[int, int] = {}
    for word in range(1 << n_sources):
        index = 0
        for v in range(n):
            index = index * 2 + ((forms[v] & word).bit_count() & 1)
        counts[index] = counts.get(index, 0) + 1
    total = 1 << n_sources
    zero = Fraction(0)
    probs = [zero] * (1 << n)
    for index, c in counts.items():
        probs[index] = Fraction(c, total)
    return JointDistribution((2,) * n, tuple(probs))


def _network_parity_refutation(
    dag: Dag, tau: CITriple, budget: int = 1 << 17
) -> tuple[int, ...] | None:
    """Search the binary linear-code networks on ``dag`` for one that keeps
    ``tau`` dependent.

    Every candidate makes each node a fresh fair bit, a constant, or the
    XOR of a subset of its parents, so it factorizes over the DAG and
    satisfies the whole recursive basis exactly.  Nodes outside the
    ancestral closure of tau's variables cannot matter and stay constant.
    A hit exists for every consequent that d-separation rejects; the forms
    of the first one in enumeration order are returned.
    """
    n = dag.n
    relevant = dag.ancestral_closure(tau.mentioned)
    choices: list[list[int | None]] = []
    for v in range(n):
        if v not in relevant:
            choices.append([0])
            continue
        pool = dag.parents[v].bits
        subs = []
        s = 0
        while True:
            subs.append(s)
            s = (s - pool) & pool
            if s == 0:
                break
        choices.append([None] + subs)  # None = fresh source bit

    order = dag.topological_order()
    xs, ys, zs = list(tau.x), list(tau.y), list(tau.z)
    tried = 0
    from itertools import product

    for assignment in product(*choices):
        tried += 1
        if tried > budget:
            return None
        forms = [0] * n
        n_sources = 0
        for v in order:
            rule = assignment[v]
            if rule is None:
                forms[v] = 1 << n_sources
                n_sources += 1
            else:
                acc = 0
                for p in VarSet(rule):
                    acc ^= forms[p]
                forms[v] = acc
        if n_sources == 0:
            continue
        rz = _gf2_rank([forms[v] for v in zs])
        rzx = _gf2_rank([forms[v] for v in zs + xs])
        rzy = _gf2_rank([forms[v] for v in zs + ys])
        rzxy = _gf2_rank([forms[v] for v in zs + xs + ys])
        if rzx + rzy - rzxy - rz > 0:
            return tuple(forms)
    return None


def check_recursive(dag: Dag, tau: CITriple) -> RelaxationCertificate:
    """Decide whether the DAG's CI basis implies ``tau`` and certify it.

    The verdict is d-separation.  A separated consequent satisfies
    h(tau) <= h(basis) for every polymatroid (factor 1); separation also
    forces the atoms of ``tau`` under the atoms of the basis, which is
    asserted on every call.  The converse containment does not hold (a
    collider conditioned on its child is the classic gap), so implication
    over positive measures alone is not evidence of separation.
    """
    n = dag.n
    check_fits(tau, n)
    basis = recursive_basis(dag)
    separated = d_separated(dag, tau.x, tau.y, tau.z)
    positive = implies_positive(basis, tau, n)
    if separated and not positive.implied:
        raise InternalCheckError(
            f"d-separation accepted {tau!r} but its atoms are not covered; "
            f"one of the two implementations is wrong"
        )
    if separated:
        return RelaxationCertificate(
            implied=True,
            kind="recursive",
            tau=tau,
            lam=Fraction(1),
            source="d-separation",
        )
    if not positive.implied:
        atom = positive.witness
        table = single_atom_polymatroid(atom, n)
        _verify_refutation(table, basis, tau)
        return RelaxationCertificate(
            implied=False,
            kind="recursive",
            tau=tau,
            witness_atom=atom,
            refutation_kind="single-atom",
            refutation_atom=atom,
            refutation_table=table,
        )
    # Atoms covered but not separated: only a distribution can refute.
    found = parity_refutation(basis, tau, n)
    if found is not None:
        reduced, dist, table = found
        _verify_refutation(table, basis, tau)
        return RelaxationCertificate(
            implied=False,
            kind="recursive",
            tau=tau,
            witness_triple=reduced,
            refutation_kind="parity",
            refutation_parity=reduced,
            refutation_distribution=dist,
            refutation_table=table,
        )
    forms = _network_parity_refutation(dag, tau)
    if forms is None:
        raise InternalCheckError(
            f"no refutation found for unseparated {tau!r}; "
            f"the verdict cannot be certified"
        )
    table = linear_rank_table(forms)
    _verify_refutation(table, basis, tau, exact_one=False)
    return RelaxationCertificate(
        implied=False,
        kind="recursive",
        tau=tau,
        witness_triple=tau,
        refutation_kind="parity-network",
        refutation_distribution=_distribution_from_forms(forms),
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

    Per-trial seeds derive deterministically from the root seed, and the
    worst trial's seed is reported so it can be replayed.
    """
    if trials < 1:
        raise CIError("at least one trial is required")
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

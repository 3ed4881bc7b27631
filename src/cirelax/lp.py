"""Exact linear programming over the polymatroid cone.

The cone of polymatroids on n variables is generated by the elemental
inequalities: one monotonicity row per variable and one submodularity row
per variable pair and conditioning subset.  Optimal approximation factors
are the value of ``max I(tau)`` subject to the cone and ``I(sigma) <= 1``;
the cone is scale-invariant, so an unbounded program means no finite
factor exists.

Programs take only that shape: one column h(S) >= 0 per nonempty set S
(polymatroids are non-negative), the cone rows, and extra rows
``f <= rhs`` with ``rhs >= 0``.  The origin is then feasible, so a single
simplex phase from the all-slack basis solves them.  All arithmetic is
rational and the pivot rule is Bland's, so results are exact and runs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable

from .core import CapExceeded, CIError, CISet, CITriple, InternalCheckError, check_fits
from .polymatroids import PolymatroidTable, elemental_rows, is_polymatroid

MAX_LP_VARIABLES = 5

_F0 = Fraction(0)
_F1 = Fraction(1)


class _Unbounded:
    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()


@dataclass(frozen=True)
class LinearFunctional:
    """A rational linear form over subset masks (the empty mask excluded)."""

    coeffs: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, d: dict[int, Fraction]) -> "LinearFunctional":
        items = tuple(
            (mask, Fraction(c)) for mask, c in sorted(d.items()) if mask and c != 0
        )
        return cls(items)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Fraction]]) -> "LinearFunctional":
        """Like ``from_dict``, but the coefficients of a repeated mask add up."""
        d: dict[int, Fraction] = {}
        for mask, c in terms:
            d[mask] = d.get(mask, _F0) + c
        return cls.from_dict(d)

    @classmethod
    def cmi(cls, t: CITriple) -> "LinearFunctional":
        """The four-term mutual-information form of a triple."""
        return cls.from_terms((
            (t.z | t.x, _F1),
            (t.z | t.y, _F1),
            (t.z | t.x | t.y, -_F1),
            (t.z, -_F1),
        ))

    @classmethod
    def total_cmi(cls, sigma: CISet) -> "LinearFunctional":
        return cls.from_terms(term for t in sigma for term in cls.cmi(t).coeffs)

    def evaluate(self, h):
        """The value on a table, or on ``h(mask)`` for a function ``h``."""
        if isinstance(h, PolymatroidTable):
            h = h.value
        return sum((h(m) * c for m, c in self.coeffs), _F0)


@cache
def elemental_inequalities(n: int) -> tuple[LinearFunctional, ...]:
    """The generating rows of the polymatroid cone on n variables: the
    rows of ``polymatroids.elemental_rows``, in its order, as forms over
    the nonempty masks.  Built once per n; the forms are immutable."""
    if not 2 <= n <= MAX_LP_VARIABLES:
        raise CapExceeded(f"the LP layer supports 2..{MAX_LP_VARIABLES} variables")
    return tuple(
        LinearFunctional.from_dict({a: _F1, b: _F1, c: -_F1, d: -_F1})
        for a, b, c, d in elemental_rows(n)
    )


@dataclass(frozen=True)
class ConeProgram:
    """Maximize a functional over the polymatroid cone plus rows ``f <= rhs``.

    Every ``rhs`` must be non-negative, so the origin is always feasible.
    """

    n: int
    objective: LinearFunctional
    constraints: tuple[tuple[LinearFunctional, Fraction], ...] = ()


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "unbounded"
    optimum: Fraction | None
    point: PolymatroidTable | None
    pivots: tuple[tuple[int, int], ...] = field(compare=False, default=())


def simplex_solve(program: ConeProgram) -> SimplexResult:
    """Exact one-phase primal simplex with Bland's pivot rule.

    Column ``mask - 1`` is h(mask) itself, with h >= 0: monotonicity and
    h(empty) = 0 make every polymatroid non-negative, so no column is split
    into a signed pair.  Each cone row becomes ``-row <= 0`` and each extra
    row ``f <= rhs`` with ``rhs >= 0``, one slack column per row.  The
    all-slack basis is then feasible and the reduced costs start as the
    objective, so no phase one is needed.  The returned point is verified
    to satisfy the cone exactly.
    """
    n = program.n
    nvars = (1 << n) - 1
    for f in [program.objective] + [f for f, _ in program.constraints]:
        if any(not 0 < mask <= nvars for mask, _ in f.coeffs):
            raise CIError(f"a mask is not a nonempty subset of {n} variables")
    if any(rhs < 0 for _, rhs in program.constraints):
        raise CIError("a constraint has a negative right-hand side")
    rows = [(tuple((m, -c) for m, c in f.coeffs), _F0) for f in elemental_inequalities(n)]
    rows += [(f.coeffs, Fraction(rhs)) for f, rhs in program.constraints]

    m_rows = len(rows)
    ncols = nvars + m_rows
    A: list[list[Fraction]] = []
    for r, (coeffs, _) in enumerate(rows):
        row = [_F0] * ncols
        for mask, c in coeffs:
            row[mask - 1] = c
        row[nvars + r] = _F1
        A.append(row)
    b = [rhs for _, rhs in rows]
    basis = list(range(nvars, ncols))
    rc = [_F0] * ncols
    for mask, c in program.objective.coeffs:
        rc[mask - 1] = c
    pivots: list[tuple[int, int]] = []

    while True:
        j = next((k for k in range(ncols) if rc[k] > 0), None)
        if j is None:
            break
        ratios = [(b[r] / A[r][j], basis[r], r) for r in range(m_rows) if A[r][j] > 0]
        if not ratios:
            return SimplexResult("unbounded", None, None, tuple(pivots))
        r = min(ratios)[2]
        piv = A[r][j]
        prow = A[r] = [v / piv for v in A[r]]
        b[r] /= piv
        nonzero = [k for k, v in enumerate(prow) if v]
        for rr, row in enumerate(A):
            f = row[j]
            if rr != r and f:
                for k in nonzero:
                    row[k] -= f * prow[k]
                b[rr] -= f * b[r]
        f = rc[j]
        for k in nonzero:
            rc[k] -= f * prow[k]
        basis[r] = j
        pivots.append((j, r))

    values = [_F0] * (nvars + 1)
    for r, col in enumerate(basis):
        if col < nvars:
            values[col + 1] = b[r]
    point = PolymatroidTable(n, tuple(values))
    if not is_polymatroid(point, 0):
        raise InternalCheckError("simplex produced a point outside the cone")
    return SimplexResult("optimal", program.objective.evaluate(point), point, tuple(pivots))


def optimal_lambda(sigma: CISet, tau: CITriple, n: int) -> Fraction | _Unbounded:
    """The least factor q with q * h(sigma) >= h(tau) over all polymatroids.

    Computed as max I(tau) subject to the cone and I(sigma) <= 1; by
    homogeneity the program is unbounded exactly when some polymatroid has
    h(sigma) = 0 and h(tau) > 0, i.e. when no finite factor exists.
    """
    check_fits(tau, n)
    check_fits(sigma, n)
    program = ConeProgram(
        n, LinearFunctional.cmi(tau), ((LinearFunctional.total_cmi(sigma), _F1),)
    )
    result = simplex_solve(program)
    return UNBOUNDED if result.status == "unbounded" else result.optimum

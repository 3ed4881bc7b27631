"""Variable universes, variable sets, and conditional-independence triples.

Variables are identified by indices 0..n-1; a :class:`Universe` maps them to
names.  Sets of variables are bitmasks wrapped in :class:`VarSet`, and a CI
statement (X;Y|Z) is a :class:`CITriple` of pairwise-disjoint variable sets,
stored in a canonical orientation so that (X;Y|Z) and (Y;X|Z) compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VARIABLES = 24


class CIError(ValueError):
    """Invalid input or violated precondition."""


class ParseError(CIError):
    """Malformed textual input."""


class CapExceeded(CIError):
    """Problem size beyond the supported range of an operation."""


class InternalCheckError(RuntimeError):
    """An internal consistency check failed; this indicates a bug."""


@dataclass(frozen=True)
class VarSet:
    """A set of variable indices packed into a bitmask."""

    bits: int = 0

    @classmethod
    def of(cls, *indices: int) -> "VarSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise CIError(f"negative variable index {i}")
            mask |= 1 << i
        return cls(mask)

    def __or__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.bits | other.bits)

    def __and__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.bits & other.bits)

    def __sub__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.bits & ~other.bits)

    def __contains__(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

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

    def isdisjoint(self, other: "VarSet") -> bool:
        return not self.bits & other.bits

    def issubset(self, other: "VarSet") -> bool:
        return not self.bits & ~other.bits

    def min(self) -> int:
        if not self.bits:
            raise CIError("empty variable set has no minimum")
        return (self.bits & -self.bits).bit_length() - 1

    def sort_key(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return "VarSet{%s}" % ",".join(str(i) for i in self)


_EMPTY = VarSet(0)


def submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, 0 and ``mask`` included, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@dataclass(frozen=True)
class CITriple:
    """A conditional-independence statement (x ; y | z).

    x and y are non-empty and x, y, z are pairwise disjoint.  The side that
    holds the lower lowest index is stored first, so the symmetric
    statements (X;Y|Z) and (Y;X|Z) are the same value.  As the sides are
    disjoint, that is the side with the lexicographically smaller index
    tuple.
    """

    x: VarSet
    y: VarSet
    z: VarSet = _EMPTY

    def __post_init__(self) -> None:
        xb, yb, zb = self.x.bits, self.y.bits, self.z.bits
        if not xb or not yb:
            raise CIError("both sides of a CI triple must be non-empty")
        if xb & yb or (xb | yb) & zb:
            raise CIError("the parts of a CI triple must be pairwise disjoint")
        if yb & -yb < xb & -xb:
            x, y = self.x, self.y
            object.__setattr__(self, "x", y)
            object.__setattr__(self, "y", x)

    @property
    def mentioned(self) -> VarSet:
        return self.x | self.y | self.z

    def __repr__(self) -> str:
        def part(vs: VarSet) -> str:
            return ",".join(str(i) for i in vs)

        if self.z:
            return f"({part(self.x)};{part(self.y)}|{part(self.z)})"
        return f"({part(self.x)};{part(self.y)})"


@dataclass(frozen=True)
class CISet:
    """An ordered, duplicate-free collection of CI triples."""

    triples: tuple[CITriple, ...] = ()

    def __post_init__(self) -> None:
        seen: set[CITriple] = set()
        out: list[CITriple] = []
        for t in self.triples:
            if t not in seen:
                seen.add(t)
                out.append(t)
        object.__setattr__(self, "triples", tuple(out))

    def __iter__(self) -> Iterator[CITriple]:
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: CITriple) -> bool:
        return t in self.triples

    def mentioned(self) -> VarSet:
        out = _EMPTY
        for t in self.triples:
            out |= t.mentioned
        return out

    def __repr__(self) -> str:
        return "CISet[%s]" % ", ".join(repr(t) for t in self.triples)


def check_fits(obj: CITriple | CISet | VarSet, n: int) -> None:
    """Raise unless every index mentioned by ``obj`` is below ``n``."""
    if isinstance(obj, VarSet):
        top = obj.bits
    elif isinstance(obj, CITriple):
        top = obj.mentioned.bits
    else:
        top = obj.mentioned().bits
    if top >> n:
        raise CIError(f"variable index out of range for a universe of {n}")


def _valid_name(name: str) -> bool:
    return name.isidentifier()


@dataclass(frozen=True)
class Universe:
    """An ordered list of variable names; index i is the i-th name."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) > MAX_VARIABLES:
            raise CapExceeded(f"at most {MAX_VARIABLES} variables are supported")
        seen = set()
        for nm in names:
            if not _valid_name(nm):
                raise ParseError(f"invalid variable name {nm!r}")
            if nm in seen:
                raise ParseError(f"duplicate variable name {nm!r}")
            seen.add(nm)
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(names)})

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ParseError(f"unknown variable name {name!r}") from None

    def set_of(self, *names: str) -> VarSet:
        return VarSet.of(*(self.index(nm) for nm in names))

    def triple(self, xs: Sequence[str], ys: Sequence[str], zs: Sequence[str] = ()) -> CITriple:
        return CITriple(self.set_of(*xs), self.set_of(*ys), self.set_of(*zs))

    def render_vars(self, vs: VarSet) -> str:
        return ",".join(self.names[i] for i in vs)

    def render_atom(self, atom_mask: int) -> str:
        return "{%s}" % self.render_vars(VarSet(atom_mask))

    def render_triple(self, t: CITriple) -> str:
        if t.z:
            return f"I({self.render_vars(t.x)};{self.render_vars(t.y)}|{self.render_vars(t.z)})"
        return f"I({self.render_vars(t.x)};{self.render_vars(t.y)})"


def _split_ci_text(text: str) -> tuple[str, str, str]:
    s = text.strip()
    if not s.startswith("I(") or not s.endswith(")"):
        raise ParseError(f"expected a term of the form I(...;...|...), got {text!r}")
    body = s[2:-1]
    if ";" not in body:
        raise ParseError(f"missing ';' in {text!r}")
    xs, rest = body.split(";", 1)
    if ";" in rest:
        raise ParseError(f"more than one ';' in {text!r}")
    ys, _, zs = rest.partition("|")
    if "|" in zs:
        raise ParseError(f"more than one '|' in {text!r}")
    return xs, ys, zs


def _name_list(part: str) -> list[str]:
    part = part.strip()
    if not part:
        return []
    names = [tok.strip() for tok in part.split(",")]
    if any(not nm for nm in names):
        raise ParseError(f"empty name in {part!r}")
    return names


def parse_ci_triple(text: str, universe: Universe) -> CITriple:
    """Parse ``I(X;Y|Z)`` (the ``|Z`` part optional) against a universe."""
    xs, ys, zs = _split_ci_text(text)
    x = _name_list(xs)
    y = _name_list(ys)
    z = _name_list(zs)
    if not x or not y:
        raise ParseError(f"both sides of {text!r} must list at least one variable")
    return universe.triple(x, y, z)


def _payload_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def collect_names(texts: Iterable[str]) -> list[str]:
    """Variable names mentioned in CI terms, in order of first appearance."""
    order: list[str] = []
    seen: set[str] = set()
    for text in texts:
        for part in _split_ci_text(text):
            for nm in _name_list(part):
                if nm not in seen:
                    seen.add(nm)
                    order.append(nm)
    return order


def parse_ci_lines(
    lines: Iterable[str], universe: Universe | None = None
) -> tuple[CISet, Universe]:
    """Parse a CI-set file body: one ``I(...)`` term per line, ``#`` comments.

    When no universe is given, one is inferred from the names in order of
    first appearance.
    """
    payload = list(_payload_lines(lines))
    if universe is None:
        universe = Universe(tuple(collect_names(text for _, text in payload)))
    triples = []
    for lineno, text in payload:
        try:
            triples.append(parse_ci_triple(text, universe))
        except CIError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return CISet(tuple(triples)), universe


def elemental_decompose(t: CITriple) -> tuple[CITriple, ...]:
    """Split (X;Y|Z) into singleton-by-singleton triples whose conditional
    mutual informations sum to the whole, for any polymatroid.

    Y is expanded first, then X, both in ascending index order, so the
    result is deterministic.
    """
    out: list[CITriple] = []
    seen_y = _EMPTY
    for b in t.y:
        seen_x = _EMPTY
        for a in t.x:
            cond = t.z | seen_y | seen_x
            out.append(CITriple(VarSet.of(a), VarSet.of(b), cond))
            seen_x |= VarSet.of(a)
        seen_y |= VarSet.of(b)
    return tuple(out)

"""Variable universes, variable sets, and conditional-independence triples.

Variables are identified by indices 0..n-1; a :class:`Universe` maps them to
names.  A set of variables is an ``int`` mask with bit i for variable i, and
a CI statement (X;Y|Z) is a :class:`CITriple` of pairwise-disjoint masks,
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


def members(mask: int) -> Iterator[int]:
    """The indices of the bits set in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    x, y and z are variable masks: x and y non-empty, z possibly empty, all
    three non-negative and pairwise disjoint.  The side that holds the lower
    lowest index is stored first, so the symmetric statements (X;Y|Z) and
    (Y;X|Z) are the same value.  As the sides are disjoint, that is the side
    with the lexicographically smaller index tuple.
    """

    x: int
    y: int
    z: int = 0

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if x < 0 or y < 0 or z < 0:
            raise CIError("the parts of a CI triple must be non-negative masks")
        if not x or not y:
            raise CIError("both sides of a CI triple must be non-empty")
        if x & y or (x | y) & z:
            raise CIError("the parts of a CI triple must be pairwise disjoint")
        if y & -y < x & -x:
            object.__setattr__(self, "x", y)
            object.__setattr__(self, "y", x)

    @property
    def mentioned(self) -> int:
        return self.x | self.y | self.z

    def __repr__(self) -> str:
        def part(vs: int) -> str:
            return ",".join(str(i) for i in members(vs))

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

    @property
    def mentioned(self) -> int:
        out = 0
        for t in self.triples:
            out |= t.mentioned
        return out

    def __repr__(self) -> str:
        return "CISet[%s]" % ", ".join(repr(t) for t in self.triples)


def check_fits(obj: CITriple | CISet | int, n: int) -> None:
    """Raise unless every index mentioned by ``obj`` is below ``n``; a
    negative mask never fits."""
    top = obj if isinstance(obj, int) else obj.mentioned
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

    def set_of(self, *names: str) -> int:
        mask = 0
        for nm in names:
            mask |= 1 << self.index(nm)
        return mask

    def triple(self, xs: Sequence[str], ys: Sequence[str], zs: Sequence[str] = ()) -> CITriple:
        return CITriple(self.set_of(*xs), self.set_of(*ys), self.set_of(*zs))

    def render_vars(self, vs: int) -> str:
        return ",".join(self.names[i] for i in members(vs))

    def render_atom(self, atom_mask: int) -> str:
        return "{%s}" % self.render_vars(atom_mask)

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
    seen_y = 0
    for b in members(t.y):
        seen_x = 0
        for a in members(t.x):
            out.append(CITriple(1 << a, 1 << b, t.z | seen_y | seen_x))
            seen_x |= 1 << a
        seen_y |= 1 << b
    return tuple(out)

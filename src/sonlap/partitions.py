"""Integer partitions indexing trace monomials.

A partition is stored canonically as a non-increasing tuple of positive
integers; the empty partition indexes the constant function 1.  The zero
padding seen in display contexts (``p_(2,1,0)``) is a rendering concern only.

A :class:`Partition` is immutable, so one object may key any number of trace
polynomials at once; the Laplacian assembly relies on that and hands out one
shared object per parts tuple.  The public constructors validate their input;
``Partition._trusted`` skips the check and is only for package code whose
parts are canonical by construction.  Every constructor stores the hash once,
with the value the dataclass would compute, ``hash((parts,))``, so dict and
set lookups keyed by partitions do not rebuild it, and the degree, the sum of
the parts, so the sort keys of every printed term read it without a sum.
The JSON list of the parts is rendered on first use and kept on the object.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True)
class Partition:
    """Canonical integer partition: non-increasing, strictly positive parts.

    Every constructor stores the degree and the hash when it builds one.
    """

    parts: tuple[int, ...] = ()
    # the sum of the parts, stored by every constructor; not compared or printed
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prev = None
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"invalid part {p!r} in {self.parts!r}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not non-increasing: {self.parts!r}")
            prev = p
        object.__setattr__(self, "degree", sum(self.parts))
        object.__setattr__(self, "_hash", hash((self.parts,)))

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap ``parts`` that are already canonical, without validating them."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "parts", parts)
        object.__setattr__(obj, "degree", sum(parts))
        object.__setattr__(obj, "_hash", hash((parts,)))
        return obj

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        """Build a canonical partition: sort descending, strip zeros.

        Each part must be an integer (``operator.index`` accepts it): a
        float, :class:`~fractions.Fraction` or string part is refused, never
        truncated.
        """
        kept = []
        for p in parts:
            try:
                p = operator.index(p)
            except TypeError:
                raise ValueError(f"part {p!r} of {parts!r} is not an integer") from None
            if p < 0:
                raise ValueError(f"negative part in {parts!r}")
            if p:
                kept.append(p)
        return cls(tuple(sorted(kept, reverse=True)))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def concat(self, other: "Partition") -> "Partition":
        """Union of parts; indexes the product of the two trace monomials."""
        return Partition._trusted(tuple(sorted(self.parts + other.parts, reverse=True)))

    def padded(self) -> tuple[int, ...]:
        """Parts padded with zeros to ``degree`` entries (display convention)."""
        return self.parts + (0,) * (self.degree - len(self.parts))

    def sort_key(self) -> tuple:
        """Degree ascending, then lexicographically descending parts."""
        return (self.degree, tuple(map(operator.neg, self.parts)))

    def _json_list(self) -> str:
        """``json.dumps(list(self.parts))``, rendered on first use and kept."""
        text = self.__dict__.get("_json")
        if text is None:
            text = "[" + ", ".join(map(str, self.parts)) + "]"
            object.__setattr__(self, "_json", text)
        return text

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("", "0", "()"):
            return cls()
        try:
            parts = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValueError(
                f"a partition is comma-separated nonnegative integers such as 2,1, got {text!r}"
            ) from None
        return cls.of(*parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


EMPTY = Partition()


def _descending(total: int, max_part: int):
    # descending-lex; each step drops the last part above 1 and refills greedily
    if total == 0:
        yield ()
        return
    top = min(total, max_part)
    if top < 1:
        return
    parts = [top] * (total // top)
    if total % top:
        parts.append(total % top)
    yield tuple(parts)
    while parts[0] > 1:
        freed = 1
        while parts[-1] == 1:
            parts.pop()
            freed += 1
        part = parts[-1] - 1
        parts[-1] = part
        parts.extend([part] * (freed // part))
        if freed % part:
            parts.append(freed % part)
        yield tuple(parts)


def partitions_of(degree: int) -> list[Partition]:
    """All partitions of ``degree``, lexicographically descending."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [Partition._trusted(p) for p in _descending(degree, degree)]


def enumerate_upto(k: int) -> list[Partition]:
    """All partitions of degree 0..k, degree ascending, descending-lex inside.

    The list for k is a prefix of the list for k+1, and each degree-j slice
    has exactly count(j) entries.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    out: list[Partition] = []
    for j in range(k + 1):
        out.extend(partitions_of(j))
    return out


@lru_cache(maxsize=None)
def _count_max(total: int, max_part: int) -> int:
    if total == 0:
        return 1
    if max_part == 0:
        return 0
    if max_part > total:
        max_part = total
    return _count_max(total - max_part, max_part) + _count_max(total, max_part - 1)


def count(k: int) -> int:
    """The partition function P(k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _count_max(k, k)

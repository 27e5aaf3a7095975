"""Exact algebra of trace polynomials with group-specific reductions.

A trace polynomial is a finite linear combination of monomials
``p_lam(U) = tr(U^{m_1}) ... tr(U^{m_s})`` indexed by integer partitions.
While the dimension N is symbolic, coefficients live in :class:`NPoly`;
once a concrete dimension has been substituted they are plain rationals.

The empty partition stands for the constant 1, and the degree-zero trace
p_0 is the constant N, represented internally as N times the empty
partition.  The elementary symmetric functions of a rotation's eigenvalues
are self-reciprocal, e_{N-i} = e_i, so they and, by one Newton /
Cayley-Hamilton step, every p_m are polynomials in p_1, ..., p_r, r = N // 2,
for every N.  ``TracePoly.reduce`` performs that rewrite onto the p_mu with
parts <= r in the reduced mode ``so(N)`` of every N >= 3, of which ``SO3``
and ``SO4`` are instances; general mode treats the monomials as free
generators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .npoly import NPoly, _magnitude_str
from .partitions import EMPTY, Partition


@dataclass(frozen=True)
class GroupMode:
    """Which relations are in force: symbolic N, fixed N, or the reduced SO(N)."""

    tag: str  # "general", or "so<N>" for the reduced mode of SO(N), N >= 3
    n: int | None = None  # None only for symbolic general mode

    def __post_init__(self) -> None:
        if self.tag == "general":
            if self.n is not None and self.n < 2:
                raise ValueError("dimension must be at least 2")
            return
        match = re.fullmatch(r"so([1-9][0-9]*)", self.tag)
        if match is None or int(match[1]) < 3:
            raise ValueError(f"unknown mode tag {self.tag!r}")
        if self.n != int(match[1]):
            raise ValueError(f"{self.tag} mode requires n={match[1]}")

    @property
    def symbolic(self) -> bool:
        return self.n is None

    @property
    def rank(self) -> int | None:
        """r = N // 2, the generators p_1..p_r of a reduced mode; None in general mode."""
        return None if self.tag == "general" else self.n // 2

    def __str__(self) -> str:
        if self.tag == "general":
            return "general N" if self.symbolic else f"general at N={self.n}"
        return f"SO({self.n})"


def so(n: int) -> GroupMode:
    """The reduced mode of SO(n), n >= 3: trace polynomials in p_1, ..., p_{n // 2}."""
    return GroupMode(f"so{n}", n)


GENERAL = GroupMode("general", None)
SO3 = so(3)
SO4 = so(4)


def general_at(n: int) -> GroupMode:
    """General (unreduced) mode with the dimension fixed to ``n``."""
    return GroupMode("general", int(n))


def _coerce_coeff(value, mode: GroupMode):
    if mode.symbolic:
        return value if isinstance(value, NPoly) else NPoly(value)
    if isinstance(value, NPoly):
        return value.constant_value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"bad coefficient type {type(value).__name__}")


def _accumulate(out: dict, terms: dict, scale=1) -> None:
    """Add ``scale`` times ``terms`` into ``out`` in place; a sum that cancels
    leaves no entry.

    ``scale`` is a nonzero coefficient of the same type as those of
    ``terms``, so every scaled coefficient is nonzero and of that type.  Only
    ``out`` is written: ``terms`` may be a cached image, and at scale 1 its
    immutable coefficient objects are shared, not copied.
    """
    items = terms.items() if scale == 1 else [(p, c * scale) for p, c in terms.items()]
    for part, coeff in items:
        s = out.get(part)
        if s is None:
            out[part] = coeff
        elif s := s + coeff:
            out[part] = s
        else:
            del out[part]


class TracePoly:
    """Linear combination of partition-indexed trace monomials."""

    __slots__ = ("_terms", "mode")

    def __init__(self, terms=None, mode: GroupMode = GENERAL):
        largest = mode.rank  # reduced: parts <= N // 2
        data = {}
        for part, coeff in (terms or {}).items():
            if not isinstance(part, Partition):
                part = Partition.of(*part)
            if largest is not None and part.parts and part.parts[0] > largest:
                raise ValueError(f"monomial {part} is not reduced for {mode}")
            c = _coerce_coeff(coeff, mode)
            if part in data:
                c = data[part] + c
            if c:
                data[part] = c
            else:
                data.pop(part, None)
        self._terms = data
        self.mode = mode

    @classmethod
    def _raw(cls, terms: dict, mode: GroupMode) -> "TracePoly":
        """Wrap ``terms`` that are canonical for ``mode`` already, without
        copying or checking them: :class:`Partition` keys (parts <= N // 2 in
        a reduced mode) mapped to nonzero coefficients of the mode's type."""
        obj = object.__new__(cls)
        obj._terms = terms
        obj.mode = mode
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode: GroupMode = GENERAL) -> "TracePoly":
        return cls({}, mode)

    @classmethod
    def constant(cls, value, mode: GroupMode = GENERAL) -> "TracePoly":
        return cls({EMPTY: value}, mode)

    @classmethod
    def monomial(cls, part: Partition, coeff=1, mode: GroupMode = GENERAL) -> "TracePoly":
        return cls({part: coeff}, mode)

    @classmethod
    def sum(cls, polys, mode: GroupMode) -> "TracePoly":
        """Sum of ``polys``, all in ``mode``, accumulated in one dict."""
        out: dict[Partition, object] = {}
        for poly in polys:
            if poly.mode != mode:
                raise ValueError(f"mode mismatch: {poly.mode} vs {mode}")
            _accumulate(out, poly._terms)
        return cls._raw(out, mode)

    @classmethod
    def power_sum(cls, m: int, mode: GroupMode = GENERAL) -> "TracePoly":
        """p_m; for m = 0 the constant N (symbolic or numeric)."""
        if m < 0:
            raise ValueError("power index must be nonnegative")
        if m == 0:
            value = NPoly.var() if mode.symbolic else mode.n
            return cls({EMPTY: value}, mode)
        return cls({Partition((m,)): 1}, mode)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Partition, object]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        return max((p.degree for p in self._terms), default=0)

    def coeff(self, part: Partition):
        zero = NPoly(0) if self.mode.symbolic else Fraction(0)
        return self._terms.get(part, zero)

    def sorted_terms(self) -> list[tuple[Partition, object]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, NPoly)):
            # compared, not coerced: a non-constant NPoly is unequal to every numeric poly
            return self._terms == ({EMPTY: other} if other else {})
        if not isinstance(other, TracePoly):
            return NotImplemented
        return self.mode == other.mode and self._terms == other._terms

    __hash__ = None  # mutable-by-convention container; identity hashing would mislead

    # -- arithmetic --------------------------------------------------------

    def _rhs(self, other) -> "TracePoly":
        if isinstance(other, TracePoly):
            if other.mode != self.mode:
                raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")
            return other
        return TracePoly.constant(other, self.mode)

    def __add__(self, other) -> "TracePoly":
        out = dict(self._terms)
        _accumulate(out, self._rhs(other)._terms)
        return TracePoly._raw(out, self.mode)

    __radd__ = __add__

    def __neg__(self) -> "TracePoly":
        return TracePoly._raw({p: -c for p, c in self._terms.items()}, self.mode)

    def __sub__(self, other) -> "TracePoly":
        return self + (-self._rhs(other))

    def __rsub__(self, other) -> "TracePoly":
        return (-self) + other

    def __mul__(self, other) -> "TracePoly":
        if isinstance(other, (int, Fraction, NPoly)):
            if not other:
                return TracePoly.zero(self.mode)
            scaled = {p: c * other for p, c in self._terms.items()}
            # a rational scale keeps every coefficient's type; an NPoly one is coerced
            if isinstance(other, NPoly):
                return TracePoly(scaled, self.mode)
            return TracePoly._raw(scaled, self.mode)
        rhs = self._rhs(other)
        out: dict[Partition, object] = {}
        for p1, c1 in self._terms.items():
            # p1.concat is injective, so each row's keys are distinct; a
            # product of nonzero coefficients is nonzero and of the same type
            _accumulate(out, {p1.concat(p2): c1 * c2 for p2, c2 in rhs._terms.items()})
        return TracePoly._raw(out, self.mode)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TracePoly":
        if exponent < 0:
            raise ValueError("negative power")
        out = TracePoly.constant(1, self.mode)
        for _ in range(exponent):
            out = out * self
        return out

    # -- mode changes ------------------------------------------------------

    def substitute_n(self, n: int) -> "TracePoly":
        """Evaluate every coefficient at N = n; result stays unreduced."""
        if not self.mode.symbolic:
            raise ValueError("coefficients are already numeric")
        mode = general_at(n)
        return TracePoly({p: c.subs(n) for p, c in self._terms.items()}, mode)

    def reduce(self, mode: GroupMode) -> "TracePoly":
        """Rewrite onto the reduced generators p_1, ..., p_{N // 2} of ``mode``.

        Idempotent; requires numeric coefficients at the matching dimension.
        The image is one accumulation of each term's coefficient times the
        reduced form of its monomial: a single trace p_m reads the cached
        p_m table, a longer monomial the cached product
        :func:`_reduced_monomial`, so each is multiplied out once per mode.
        """
        _pm_table(mode)  # refuses a target that is not a reduced mode
        if self.mode == mode:
            return self
        if self.mode.symbolic:
            raise ValueError("substitute a concrete N before reducing")
        if self.mode.n != mode.n:
            raise ValueError(f"operand lives at N={self.mode.n}, target needs N={mode.n}")
        out: dict[Partition, Fraction] = {}
        for part, coeff in self._terms.items():
            _accumulate(out, _reduced_image(mode, part)._terms, coeff)
        return TracePoly._raw(out, mode)

    # -- rendering ---------------------------------------------------------

    def _label(self, part: Partition) -> str | None:
        return monomial_label(part, self.mode.tag) if part.parts else None

    def _constant_str(self, coeff) -> tuple[str, str]:
        # returns (sign, body) for the degree-zero term
        if self.mode.symbolic and isinstance(coeff, NPoly):
            try:
                ratio = coeff.div_by_var()
            except ValueError:
                return _coeff_chunk(coeff, None)
            return _coeff_chunk(ratio, "p_0")
        return _coeff_chunk(coeff, None)

    def pretty(self) -> str:
        """Human-readable form: highest degree first, padded partition labels."""
        if not self._terms:
            return "0"
        # inside a weight: basis order (ascending-lex) in a reduced mode, else descending-lex
        sign = 1 if self.mode.rank else -1
        items = sorted(
            self._terms.items(),
            key=lambda kv: (-kv[0].degree, tuple(sign * p for p in kv[0].parts)),
        )
        chunks = []
        for part, coeff in items:
            label = self._label(part)
            sign, body = self._constant_str(coeff) if label is None else _coeff_chunk(coeff, label)
            if not chunks:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f"{'+' if sign == '+' else '-'} {body}")
        return " ".join(chunks)

    def to_json_obj(self) -> list:
        """List of term records with partition parts and exponent->rational maps."""
        out = []
        for part, coeff in self.sorted_terms():
            if isinstance(coeff, NPoly):
                cmap = {str(e): str(c) for e, c in sorted(coeff.coeffs.items())}
            else:
                cmap = {"0": str(coeff)}
            out.append({"partition": list(part.parts), "coeff": cmap})
        return out

    @classmethod
    def from_json_obj(cls, obj: list, mode: GroupMode) -> "TracePoly":
        terms = {}
        for rec in obj:
            part = Partition.of(*rec["partition"])
            coeffs = {int(e): Fraction(v) for e, v in rec["coeff"].items()}
            terms[part] = NPoly(coeffs) if mode.symbolic else NPoly(coeffs).constant_value
        return cls(terms, mode)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"TracePoly({self.pretty()!r}, mode={self.mode})"


def monomial_label(part: Partition, tag: str) -> str:
    """Printed name of the trace monomial ``p_part`` in a mode with ``tag``.

    The constant is ``p_0``.  General mode prints the zero-padded partition
    (``p_(2,1,0)``, with ``p_1`` for degree one); the reduced modes print the
    product of powers by increasing trace (``p_1^2 p_2``, and ``p_j`` for a
    single trace).
    """
    if not part.parts:
        return "p_0"
    if tag == "general":
        return "p_1" if part.degree == 1 else "p_(" + ",".join(map(str, part.padded())) + ")"
    bits = []
    for value, run in groupby(reversed(part.parts)):
        power = sum(1 for _ in run)
        bits.append(f"p_{value}" if power == 1 else f"p_{value}^{power}")
    return " ".join(bits)


def _coeff_chunk(coeff, label: str | None) -> tuple[str, str]:
    """Split an int, :class:`Fraction` or :class:`NPoly` coefficient into a
    sign and a printable magnitude.

    The sign is read from a numerator, the magnitude printed from the
    coefficient's own digits; no negated or absolute value is built.
    """
    if isinstance(coeff, NPoly):
        items = coeff._coeffs
        if not items:
            return "+", "0"
        negative = items[max(items)].numerator < 0
        mag = coeff._signed_str(negative)
        body = mag if len(items) == 1 else f"({mag})"
    elif isinstance(coeff, (int, Fraction)):
        negative = coeff.numerator < 0
        mag = body = _magnitude_str(coeff)
    else:
        raise TypeError(f"bad coefficient type {type(coeff).__name__}")
    sign = "-" if negative else "+"
    if label is None:
        return sign, body
    # a magnitude printed "1" is the constant 1: every other NPoly prints an N
    if mag == "1":
        return sign, label
    return sign, f"{body}*{label}"


@lru_cache(maxsize=None)
def elementary(mode: GroupMode) -> tuple[TracePoly, ...]:
    """e_0, ..., e_N of a rotation's eigenvalues, in the generators of ``mode``.

    With r = N // 2, Newton's identities k e_k = sum_{i=1}^k (-1)^{i-1}
    e_{k-i} p_i give e_1, ..., e_r in p_1, ..., p_r; the eigenvalues come in
    inverse pairs and det U = 1, so e_{N-i} = e_i gives the rest.
    """
    r = mode.rank
    if r is None:
        raise ValueError("elementary symmetric functions need a reduced mode so<N>")
    n = mode.n
    e = [TracePoly.constant(1, mode)]
    for k in range(1, r + 1):
        terms = (e[k - i] * TracePoly.power_sum(i, mode) * (-1) ** (i - 1) for i in range(1, k + 1))
        e.append(sum(terms, TracePoly.zero(mode)) * Fraction(1, k))
    return tuple(e + [e[n - i] for i in range(r + 1, n + 1)])


def _newton_step(mode: GroupMode, m: int, lower) -> TracePoly:
    """sum_{i=1}^{min(m, N)} (-1)^{i-1} e_i lower(m - i) over the e_i of ``mode``:
    p_m for lower = p with lower(0) = m (Newton's identities up to N,
    Cayley-Hamilton past it), the complete symmetric h_m for lower = h."""
    e = elementary(mode)
    terms = (e[i] * lower(m - i) * (-1) ** (i - 1) for i in range(1, min(m, mode.n) + 1))
    return TracePoly.sum(terms, mode)


@lru_cache(maxsize=None)
def _pm_table(mode: GroupMode):
    """The cached p_m table of a reduced mode, built once per mode.

    Entry m is one :func:`_newton_step` over the lower entries of the same
    table, with p_0 = N; for m <= N // 2 it is the generator p_m.
    """
    if mode.rank is None:
        raise ValueError("reduction target must be a reduced mode so<N>")

    @lru_cache(maxsize=None)
    def table(m: int) -> TracePoly:
        if m < 0:
            raise ValueError("power index must be nonnegative")
        if m == 0:
            return TracePoly.constant(mode.n, mode)
        return _newton_step(mode, m, lambda j: table(j) if j else m)

    return table


def _reduced_image(mode: GroupMode, part: Partition) -> TracePoly:
    """p_part in the generators of the reduced ``mode``: a single trace is its
    p_m table entry, any other monomial its cached :func:`_reduced_monomial`."""
    parts = part.parts
    return _pm_table(mode)(parts[0]) if len(parts) == 1 else _reduced_monomial(mode, part)


@lru_cache(maxsize=None)
def _reduced_monomial(mode: GroupMode, part: Partition) -> TracePoly:
    """The cached p_part, for any number of parts but one, in the generators
    of the reduced ``mode``: the constant 1 for the empty partition, else the
    image of ``part`` less its last part times that part's p_m table entry.

    Entries are shared by every :meth:`TracePoly.reduce` call and must never
    be written to.
    """
    if not part.parts:
        return TracePoly.constant(1, mode)
    head = Partition._trusted(part.parts[:-1])
    return _reduced_image(mode, head) * _pm_table(mode)(part.parts[-1])


# p_m on SO(3) in p_1, that is 1 + 2 T_m((p_1 - 1)/2): with e_1 = e_2 = p_1 and
# e_3 = 1, each entry reads the three cached entries below it
so3_pm_in_p1 = _pm_table(SO3)
# p_m on SO(4) in p_1, p_2: with e_1 = e_3 = p_1, e_2 = (p_1^2 - p_2)/2 and
# e_4 = 1, each entry reads the four cached entries below it
so4_pm_in_p1p2 = _pm_table(SO4)


def so3_basis_change(a: TracePoly, target: str, k: int | None = None) -> list[Fraction]:
    """Coordinates of ``a`` in an SO(3) flag basis of order ``k``.

    ``target`` is ``"bprime"`` for {p_0, p_1, p_1^2, ..., p_1^k} or
    ``"btrace"`` for {p_0, p_1, p_2, ..., p_k}.  A constant c contributes the
    exact coordinate c/3 on the p_0 slot.  The trace-basis conversion inverts
    the monic triangular relation p_m = p_1^m + (lower order).
    """
    if target not in ("bprime", "btrace"):
        raise ValueError(f"unknown SO(3) basis {target!r}")
    red = a if a.mode == SO3 else a.reduce(SO3)
    deg = red.degree
    if k is None:
        k = deg
    if deg > k:
        raise ValueError(f"degree {deg} exceeds basis order {k}")
    powers = {len(part): coeff for part, coeff in red._terms.items()}
    coords = [Fraction(0)] * (k + 1)
    if target == "bprime":
        for j, c in powers.items():
            coords[j] = c / 3 if j == 0 else c
        return coords
    work = dict(powers)
    for m in range(k, 0, -1):
        c = work.get(m, Fraction(0))
        if not c:
            continue
        coords[m] = c
        for part, pc in so3_pm_in_p1(m)._terms.items():
            j = len(part)
            work[j] = work.get(j, Fraction(0)) - c * pc
    coords[0] = work.get(0, Fraction(0)) / 3
    return coords


def so3_from_coordinates(coords, target: str) -> TracePoly:
    """Inverse of :func:`so3_basis_change`: rebuild the SO(3)-reduced polynomial."""
    if target not in ("bprime", "btrace"):
        raise ValueError(f"unknown SO(3) basis {target!r}")
    out = TracePoly.constant(Fraction(coords[0]) * 3, SO3)
    for m in range(1, len(coords)):
        c = coords[m]
        if not c:
            continue
        if target == "bprime":
            out = out + TracePoly.monomial(Partition((1,) * m), c, SO3)
        else:
            out = out + so3_pm_in_p1(m) * c
    return out

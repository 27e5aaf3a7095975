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
generators.  Newton's identities live in one place: the cached table
:func:`_symmetric` of the complete h_k and elementary e_k of every mode,
in the free p_i in general mode and in p_1, ..., p_r in ``so(N)``, which
:func:`elementary`, the p_m tables and the characters all read.

With numeric coefficients (``so(N)`` and ``general_at(n)``) the arithmetic
is fraction-free.  Each poly's cleared form, the least common denominator d
of its coefficients and the integer numerators over it, is computed once and
kept on the poly (:func:`_cleared`).  Sums, scalings, products, ``reduce``
and the Laplacian's linear extension add and multiply those integers over
one common denominator (:func:`_combination`, ``TracePoly.__mul__``) and
divide out the gcd once at the end (:func:`_from_ints`), so no intermediate
:class:`Fraction` and no per-operation gcd is made.  A result holds its
cleared form alone until its terms are read; then each coefficient becomes
one canonical :class:`Fraction`, as every numeric coefficient is.  The same
:func:`_combination` sums symbolic polys: their cleared form is the
:class:`NPoly` terms themselves over 1, never kept, and the scaled terms are
summed term by term by :func:`_accumulate`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd, lcm
from operator import neg

from .npoly import NPoly, _magnitude_str
from .partitions import EMPTY, Partition


@dataclass(frozen=True)
class GroupMode:
    """Which relations are in force: symbolic N, fixed N, or the reduced SO(N)."""

    tag: str  # "general", or "so<N>" for the reduced mode of SO(N), N >= 3
    n: int | None = None  # None only for symbolic general mode

    def __post_init__(self) -> None:
        if self.n is not None and (isinstance(self.n, bool) or not isinstance(self.n, int)):
            raise ValueError(f"dimension {self.n!r} is not an int")
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


def _dimension(n) -> int:
    """The dimension ``n`` as an int, by ``operator.index``: a float or
    :class:`Fraction` is refused with a ValueError, never truncated."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"dimension {n!r} is not an integer") from None


def so(n: int) -> GroupMode:
    """The reduced mode of SO(n), n >= 3: trace polynomials in p_1, ..., p_{n // 2}."""
    n = _dimension(n)
    return GroupMode(f"so{n}", n)


GENERAL = GroupMode("general", None)
SO3 = so(3)
SO4 = so(4)


def general_at(n: int) -> GroupMode:
    """General (unreduced) mode with the dimension fixed to the integer ``n``
    (see :func:`_dimension`)."""
    return GroupMode("general", _dimension(n))


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

    ``scale`` is nonzero, and times a coefficient of ``terms`` gives a
    nonzero coefficient of that type: an int, :class:`Fraction` or
    :class:`NPoly` for symbolic terms, a :class:`Fraction` for numeric ones.  Only
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


def _cleared(poly: "TracePoly") -> tuple[int, dict]:
    """``(d, {part: n})`` with ``poly = sum n/d p_part`` and d the least
    common denominator of the numeric coefficients of ``poly``; for a
    symbolic poly ``(1, terms)``, its :class:`NPoly` coefficients as they are.

    A numeric form is computed on first use, or by :func:`_from_ints` at
    construction, and kept on ``poly``: no code writes a :class:`TracePoly`'s
    terms after construction, so the form never goes stale, and a cached
    table entry is cleared once however often it is read.  A symbolic poly
    keeps none.
    """
    form = poly._cleared_form
    if form is None:
        if poly.mode.symbolic:
            return 1, poly._terms
        ratios = [(part, coeff.as_integer_ratio()) for part, coeff in poly._terms.items()]
        d = lcm(*[den for _, (_, den) in ratios])
        form = poly._cleared_form = (d, {part: num * (d // den) for part, (num, den) in ratios})
    return form


def _from_ints(acc: dict, d: int, mode: GroupMode) -> "TracePoly":
    """The poly ``sum n/d p_part`` over the integer sums ``n`` of ``acc``,
    held as its cleared form: over ``d`` divided by the gcd of ``d`` and
    every sum, which is the least common denominator of the coefficients.
    Its :class:`Fraction` coefficients are built when first read.

    ``acc`` is the caller's own accumulator and is taken over: its zero
    sums are deleted in place, and it is kept when the gcd is 1.
    """
    for part in [part for part, n in acc.items() if not n]:
        del acc[part]
    g = gcd(d, *acc.values())
    if g != 1:
        d //= g
        acc = {part: n // g for part, n in acc.items()}
    return TracePoly._raw(None, mode, (d, acc))


def _combination(pairs, mode: GroupMode, den: int = 1) -> "TracePoly":
    """The sum of ``scale * poly`` over ``(scale, poly)`` pairs, divided by
    ``den``; every poly is in ``mode`` and every ``scale`` is nonzero.  The
    one kernel that sums polys, in either coefficient ring.

    In a numeric mode every ``scale`` is an int or :class:`Fraction`, and the
    sums run in integers over one common denominator, the lcm of the scaled
    denominators.  In the symbolic mode ``den`` is 1, a ``scale`` may also be
    an :class:`NPoly`, and the scaled terms are summed by :func:`_accumulate`.
    A lone poly at scale 1 is wrapped again instead: its terms and cleared
    form are never written, so the two share them.
    """
    pairs = list(pairs)
    if den == 1 and len(pairs) == 1 and pairs[0][0] == 1:
        poly = pairs[0][1]
        return TracePoly._raw(poly._stored_terms, mode, poly._cleared_form)
    if mode.symbolic:
        out: dict[Partition, NPoly] = {}
        for scale, poly in pairs:
            _accumulate(out, poly._terms, scale)
        return TracePoly._raw(out, mode)
    scaled = []
    d = 1
    for scale, poly in pairs:
        num, scale_d = scale.as_integer_ratio()
        poly_d, ints = _cleared(poly)
        scale_d *= poly_d
        scaled.append((num, scale_d, ints))
        d = lcm(d, scale_d)
    acc: dict[Partition, int] = {}
    for num, scale_d, ints in scaled:
        factor = num * (d // scale_d)
        if not acc:
            acc = {part: factor * n for part, n in ints.items()}
            continue
        for part, n in ints.items():
            acc[part] = acc.get(part, 0) + factor * n
    return _from_ints(acc, d * den, mode)


class TracePoly:
    """Linear combination of partition-indexed trace monomials.

    The terms are a dict from :class:`Partition` to coefficient, never
    written after construction.  A numeric poly made by the integer kernel
    (:func:`_from_ints`) holds only its cleared form until the
    :class:`Fraction` terms are first read.
    """

    __slots__ = ("_stored_terms", "mode", "_cleared_form")

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
        self._stored_terms = data
        self.mode = mode
        self._cleared_form = None

    @classmethod
    def _raw(cls, terms: dict | None, mode: GroupMode, cleared=None) -> "TracePoly":
        """Wrap ``terms`` that are canonical for ``mode`` already, without
        copying or checking them: :class:`Partition` keys (parts <= N // 2 in
        a reduced mode) mapped to nonzero coefficients of the mode's type.
        ``terms`` may be None when ``cleared``, the cleared form, is given."""
        obj = object.__new__(cls)
        obj._stored_terms = terms
        obj.mode = mode
        obj._cleared_form = cleared
        return obj

    @property
    def _terms(self) -> dict:
        """The terms, their :class:`Fraction` coefficients built from the
        cleared form on the first read where only that form is held."""
        terms = self._stored_terms
        if terms is None:
            d, ints = self._cleared_form
            terms = self._stored_terms = {part: Fraction(n, d) for part, n in ints.items()}
        return terms

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
        """Sum of ``polys``, all in ``mode``: one :func:`_combination`."""
        polys = list(polys)
        for poly in polys:
            if poly.mode != mode:
                raise ValueError(f"mode mismatch: {poly.mode} vs {mode}")
        return _combination(((1, poly) for poly in polys), mode)

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
    def degree(self) -> int:
        return max((p.degree for p in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[Partition, object]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __bool__(self) -> bool:
        terms = self._stored_terms
        return bool(terms if terms is not None else self._cleared_form[1])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, NPoly)):
            # compared, not coerced: a non-constant NPoly is unequal to every numeric poly
            return self._terms == ({EMPTY: other} if other else {})
        if not isinstance(other, TracePoly):
            return NotImplemented
        if self.mode != other.mode:
            return False
        if self._cleared_form is not None and other._cleared_form is not None:
            # over the least common denominator each poly has one cleared form
            return self._cleared_form == other._cleared_form
        return self._terms == other._terms

    __hash__ = None  # mutable-by-convention container; identity hashing would mislead

    # -- arithmetic --------------------------------------------------------

    def _rhs(self, other) -> "TracePoly":
        if isinstance(other, TracePoly):
            if other.mode != self.mode:
                raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")
            return other
        return TracePoly.constant(other, self.mode)

    def __add__(self, other) -> "TracePoly":
        return _combination(((1, self), (1, self._rhs(other))), self.mode)

    __radd__ = __add__

    def __neg__(self) -> "TracePoly":
        if self._cleared_form is not None:
            d, ints = self._cleared_form
            return TracePoly._raw(None, self.mode, (d, {p: -n for p, n in ints.items()}))
        return TracePoly._raw({p: -c for p, c in self._terms.items()}, self.mode)

    def __sub__(self, other) -> "TracePoly":
        return self + (-self._rhs(other))

    def __rsub__(self, other) -> "TracePoly":
        return (-self) + other

    def __mul__(self, other) -> "TracePoly":
        if isinstance(other, (int, Fraction, NPoly)):
            if not other:
                return TracePoly.zero(self.mode)
            if not isinstance(other, NPoly):
                return _combination(((other, self),), self.mode)
            # an NPoly scale is coerced: a numeric mode takes only a constant one
            return TracePoly({p: c * other for p, c in self._terms.items()}, self.mode)
        rhs = self._rhs(other)
        if self.mode.symbolic:
            out: dict[Partition, object] = {}
            for p1, c1 in self._terms.items():
                # p1.concat is injective, so each row's keys are distinct; a
                # product of nonzero coefficients is nonzero and of the same type
                _accumulate(out, {p1.concat(p2): c1 * c2 for p2, c2 in rhs._terms.items()})
            return TracePoly._raw(out, self.mode)
        # numeric: the product of the cleared forms, in integers over d1 * d2
        d1, ints1 = _cleared(self)
        d2, ints2 = _cleared(rhs)
        acc: dict[Partition, int] = {}
        for p1, n1 in ints1.items():
            for p2, n2 in ints2.items():
                key = p1.concat(p2)
                acc[key] = acc.get(key, 0) + n1 * n2
        return _from_ints(acc, d1 * d2, self.mode)

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
        mode, terms = general_at(n), {}  # subs gives canonical Fractions; zeros are dropped
        for part, coeff in self._terms.items():
            value = coeff.subs(n)
            if value:
                terms[part] = value
        return TracePoly._raw(terms, mode)

    def reduce(self, mode: GroupMode) -> "TracePoly":
        """Rewrite onto the reduced generators p_1, ..., p_{N // 2} of ``mode``.

        Idempotent; requires numeric coefficients at the matching dimension.
        The image is one :func:`_combination` of each term's numerator times
        the reduced form of its monomial, over the poly's common denominator:
        a single trace p_m reads the cached p_m table, a longer monomial the
        cached product :func:`_reduced_monomial`, so each is multiplied out
        once per mode.
        """
        _pm_table(mode)  # refuses a target that is not a reduced mode
        if self.mode == mode:
            return self
        if self.mode.symbolic:
            raise ValueError("substitute a concrete N before reducing")
        if self.mode.n != mode.n:
            raise ValueError(f"operand lives at N={self.mode.n}, target needs N={mode.n}")
        d, ints = _cleared(self)
        images = ((n, _reduced_image(mode, part)) for part, n in ints.items())
        return _combination(images, mode, d)

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
        ascending = bool(self.mode.rank)

        def key(item):
            parts = item[0].parts
            return -item[0].degree, parts if ascending else tuple(map(neg, parts))

        items = sorted(self._terms.items(), key=key)
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
                cmap = coeff._json_map()
            else:
                cmap = {"0": str(coeff)}
            out.append({"partition": list(part.parts), "coeff": cmap})
        return out

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_obj(), sort_keys=True)``, joined from the
        text each :class:`Partition` and :class:`NPoly` keeps of itself."""
        records = []
        for part, coeff in self.sorted_terms():
            cmap = coeff._json_dumps() if isinstance(coeff, NPoly) else f'{{"0": "{coeff}"}}'
            records.append(f'{{"coeff": {cmap}, "partition": {part._json_list()}}}')
        return "[" + ", ".join(records) + "]"

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"TracePoly({self.pretty()!r}, mode={self.mode})"


@lru_cache(maxsize=None)
def monomial_label(part: Partition, tag: str) -> str:
    """Printed name of the trace monomial ``p_part`` in a mode with ``tag``.

    The constant is ``p_0``.  General mode prints the zero-padded partition
    (``p_(2,1,0)``, with ``p_1`` for degree one); the reduced modes print the
    product of powers by increasing trace (``p_1^2 p_2``, and ``p_j`` for a
    single trace).  Cached: each label is rendered once per process.
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
    """e_0, ..., e_N of a rotation's eigenvalues, in the generators of the
    reduced ``mode``: the :func:`_symmetric` e_k."""
    if mode.rank is None:
        raise ValueError("elementary symmetric functions need a reduced mode so<N>")
    return tuple(_symmetric(mode, -1, k) for k in range(mode.n + 1))


@lru_cache(maxsize=None)
def _symmetric(mode: GroupMode, sign: int, k: int) -> TracePoly:
    """The complete h_k (``sign`` 1) or elementary e_k (``sign`` -1) symmetric
    function of a rotation's eigenvalues in ``mode``: 1 at k = 0, zero for
    k < 0.  The one table of both, for every mode.

    Newton's identities k x_k = sum_{i=1}^k sign^(i-1) p_i x_{k-i} give x_k
    in general mode, where p_1, p_2, ... are free and run with no cap at N
    (the h_k and e_k of the universal characters), and e_1, ..., e_r in a
    reduced mode, r = N // 2.  There the eigenvalues come in inverse pairs
    and det U = 1, so e_k = e_{N-k} past r and e_k = 0 past N, and h_k is
    one :func:`_newton_step` over the lower h.
    """
    if k <= 0:
        return TracePoly.constant(int(k == 0), mode)
    if mode.rank is not None:
        if sign == 1:
            return _newton_step(mode, k, lambda j: _symmetric(mode, 1, j))
        if k > mode.rank:
            return _symmetric(mode, -1, mode.n - k) if k <= mode.n else TracePoly.zero(mode)
    terms = (
        TracePoly.power_sum(i, mode) * _symmetric(mode, sign, k - i) * sign ** (i - 1) for i in range(1, k + 1)
    )
    return TracePoly.sum(terms, mode) * Fraction(1, k)


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
# e_4 = 1, each entry reads the four cached entries below it; no package code
# calls it, and it stays while perfbench/tracer.py pins it (ROADMAP items 1-2)
so4_pm_in_p1p2 = _pm_table(SO4)

"""Closed-form Laplace-Beltrami action on trace polynomials over SO(N).

Base formulas, with D the group Laplacian for the Frobenius metric:

* ``D p_1   = -(N-1)/2 p_1``
* ``D p_m   = m(1+(-1)^m)/4 p_0 + m sum_{i=0}^{floor((m-1)/2)} p_{m-2i}
  - m(N+1)/2 p_m - m/2 sum_{j=1}^{m-1} p_j p_{m-j}``          (m >= 2)
* ``2 <grad p_m, grad p_m'> = m m' (p_{m-m'} - p_{m+m'})``        (m >= m')

A general monomial p_lam is assembled by the Riemannian product rule,
grouped by multiplicity: with the distinct parts m of lam, each of
multiplicity a,

    D p_lam = sum_m a p_{lam-m} D p_m
              + sum_{m, a>=2} a(a-1) p_{lam-{m,m}} <grad p_m, grad p_m>
              + sum_{m>m'} 2ab p_{lam-{m,m'}} <grad p_m, grad p_m'>.

Every coefficient is affine in N with values in (1/2)Z, so the base
formulas are one table of doubled integer pairs (2 c_0, 2 c_1), one entry
per piece (:func:`_doubled_piece`), the terms are summed as such pairs and
no intermediate trace polynomials are multiplied.  The symbolic
:func:`lap_pm` and :func:`grad_inner_pm` are that table printed as
polynomials.  No output term ever exceeds the input degree, which is
what makes the flag of spaces invariant and the restricted operator block
triangular.  At lam = (1^q) it gives the closed form, now a test reference,
``D p_1^q = -((N-1) q p_1^q + q(q-1)(p_2 - N) p_1^{q-2}) / 2``.

Every numeric mode, the reduced so(N) of every N >= 3 and the fixed-N
general_at(n), reads the same rule.  Its pieces, D p_m and
<grad p_m, grad p_m'>, are evaluated from the table at N = n once per mode,
as (2 c_0 + 2 c_1 n) / 2 in integers, and in so(N),
where m, m' <= r = N // 2, reduced onto p_1, ..., p_r; a column is the sum
of the pieces' terms, each merged with the parts of p_rest and scaled by
the rule's integer, so no column multiplies polynomials or reduces.  The
SO(3) and SO(4) Laplacians of p_1^j and p_1^l p_2^m are this rule at r = 1
and 2.
Only the SO(3) trace-basis column keeps a formula of its own:
``D p_m = m(m-1)/2 p_0 - m sum_{j<m} p_j - m(m+1)/2 p_m``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .npoly import NPoly
from .partitions import EMPTY, Partition
from .tracepoly import (
    GENERAL,
    SO3,
    SO4,
    GroupMode,
    TracePoly,
    _cleared,
    _combination,
    _from_ints,
    general_at,
)


def _ones(count: int) -> Partition:
    return Partition((1,) * count) if count else EMPTY


@lru_cache(maxsize=None)
def _doubled_piece(factors: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The terms c_0 + c_1 N times p_parts of D p_m for ``(m,)`` and of
    <grad p_m, grad p_m'> for ``(m, m')``, m >= m' >= 1, as (parts, 2 c_0,
    2 c_1): the module docstring's formulas, read off in doubled integers.

    The one table of both pieces: :func:`lap_partition`, the numeric pieces
    and :func:`lap_pm` and :func:`grad_inner_pm` all read it.
    """
    if len(factors) == 2:
        m, mp = factors
        mm = m * mp
        return (((), 0, mm) if m == mp else ((m - mp,), mm, 0), ((m + mp,), -mm, 0))
    (m,) = factors
    # p_0 = N, then p_m with the i = 0 summand, p_{m-2i} for i >= 1, and each
    # product p_j p_{m-j} once: twice over j < m - j, once at j = m - j
    terms = [((), 0, m)] if m % 2 == 0 else []
    terms.append(((m,), m, -m))
    terms += [((m - 2 * i,), 2 * m, 0) for i in range(1, (m - 1) // 2 + 1)]
    terms += [((m - j, j), -m if 2 * j == m else -2 * m, 0) for j in range(1, m // 2 + 1)]
    return tuple(terms)


def _rendered(terms) -> TracePoly:
    """The symbolic poly of doubled table ``terms``, on interned parts and coefficients."""
    return TracePoly._raw({_interned_part(parts): _interned_coeff(c0, c1) for parts, c0, c1 in terms}, GENERAL)


# cached while perfbench/tracer.py reads its cache (ROADMAP items 1-2)
@lru_cache(maxsize=None)
def lap_pm(m: int) -> TracePoly:
    """Laplacian of the power-sum trace p_m, dimension kept symbolic."""
    if m < 0:
        raise ValueError("power index must be nonnegative")
    return _rendered(_doubled_piece((m,)) if m else ())


# kept while perfbench/tracer.py pins it and its cache (ROADMAP items 1-2)
@lru_cache(maxsize=None)
def lap_p1_pow(q: int) -> TracePoly:
    """Laplacian of the pure power p_1^q: :func:`lap_partition` of (1^q)."""
    if q < 0:
        raise ValueError("exponent must be nonnegative")
    return lap_partition(_ones(q))


def grad_inner_pm(m: int, mp: int) -> TracePoly:
    """Tangential-gradient inner product <grad p_m, grad p_m'> on SO(N)."""
    if m < 0 or mp < 0:
        raise ValueError("indices must be nonnegative")
    if m < mp:
        m, mp = mp, m
    return _rendered(_doubled_piece((m, mp)) if mp else ())


def _without(parts: tuple[int, ...], *values: int) -> tuple[int, ...]:
    """``parts`` with one occurrence of each of ``values`` removed; stays sorted."""
    rest = list(parts)
    for v in values:
        rest.remove(v)
    return tuple(rest)


def _product_rule(parts: tuple[int, ...]):
    """The product rule grouped by multiplicity, as in the module docstring:
    D p_parts is the sum of ``scale`` p_rest times the piece
    :func:`_doubled_piece` of ``factors`` over the yielded ``(rest, factors,
    scale)``."""
    mult = Counter(parts)  # distinct parts in descending order
    values = tuple(mult)
    for i, m in enumerate(values):
        a = mult[m]
        yield _without(parts, m), (m,), a
        if a >= 2:
            yield _without(parts, m, m), (m, m), a * (a - 1)
        for mp in values[i + 1:]:
            yield _without(parts, m, mp), (m, mp), 2 * a * mult[mp]


# The output terms of lap_partition, one object per value: a Partition per
# parts tuple (shared with the reduced columns) and an NPoly per doubled pair
# (2 c_0, 2 c_1).  Both types are immutable, so every image shares them; the
# caches hold only what the cached images and columns refer to.
@lru_cache(maxsize=None)
def _interned_part(parts: tuple[int, ...]) -> Partition:
    return Partition._trusted(parts)


@lru_cache(maxsize=None)
def _interned_coeff(c0: int, c1: int) -> NPoly:
    halves = {0: Fraction(c0, 2), 1: Fraction(c1, 2)}
    return NPoly._raw({e: c for e, c in halves.items() if c})


@lru_cache(maxsize=None)
def lap_partition(partition: Partition) -> TracePoly:
    """Laplacian of the trace monomial indexed by ``partition``.

    The product rule grouped by multiplicity, as in the module docstring.
    Terms are summed in one dict keyed by the sorted parts, as doubled
    integer coefficients of 1 and N; each output partition and coefficient
    is built once, at the end, and once per value: every image holds the
    interned :class:`Partition` of its parts tuple and the interned
    :class:`NPoly` of its doubled pair, shared with every other image.  Both
    types are immutable and no :class:`TracePoly` operation writes into an
    operand's terms, so the sharing is safe.
    """
    acc: dict[tuple[int, ...], list[int]] = {}
    for rest, factors, scale in _product_rule(partition.parts):
        for img, c0, c1 in _doubled_piece(factors):
            key = tuple(sorted(rest + img, reverse=True)) if img else rest
            slot = acc.get(key)
            if slot is None:
                acc[key] = [scale * c0, scale * c1]
            else:
                slot[0] += scale * c0
                slot[1] += scale * c1
    terms = {
        _interned_part(key): _interned_coeff(c0, c1) for key, (c0, c1) in acc.items() if c0 or c1
    }
    return TracePoly._raw(terms, GENERAL)


@lru_cache(maxsize=None)
def so3_lap_power(j: int) -> TracePoly:
    """Laplacian of p_1^j on SO(3), in powers of p_1: the reduced rule's column."""
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    return _numeric_column(_ones(j), SO3)


def so3_lap_pm_btrace(m: int) -> dict[int, Fraction]:
    """Column of the SO(3) Laplacian on p_m in the trace basis {p_0, ..., p_k}.

    Maps basis index to coordinate: m(m-1)/2 on p_0, -m on every p_j with
    1 <= j < m, and -m(m+1)/2 on p_m.
    """
    if m < 0:
        raise ValueError("index must be nonnegative")
    if m == 0:
        return {}
    if m == 1:
        return {1: Fraction(-1)}
    col = {0: Fraction(m * (m - 1), 2), m: Fraction(-m * (m + 1), 2)}
    col.update(dict.fromkeys(range(1, m), Fraction(-m)))  # one immutable -m for every p_j
    return col


@lru_cache(maxsize=None)
def so4_lap_monomial(l: int, m: int) -> TracePoly:
    """Laplacian of p_1^l p_2^m on SO(4), in p_1 and p_2: the reduced rule's column."""
    if l < 0 or m < 0:
        raise ValueError("exponents must be nonnegative")
    return _numeric_column(Partition._trusted((2,) * m + (1,) * l), SO4)


def lap_monomial(part: Partition, mode: GroupMode) -> TracePoly:
    """Laplacian of the trace monomial ``p_part`` in ``mode``.

    ``part`` must be a monomial of that mode: in ``so(N)`` its parts are at
    most N // 2.  Symbolic general mode takes :func:`lap_partition`; every
    numeric mode takes the cached :func:`_numeric_column`, read for SO(3)
    and SO(4) through their named caches.
    """
    # the so3/so4 branches stay while perfbench/tracer.py pins their caches (ROADMAP items 1-2)
    if mode.tag == "so3":
        return so3_lap_power(len(part))
    if mode.tag == "so4":
        twos = part.parts.count(2)
        return so4_lap_monomial(len(part) - twos, twos)
    return lap_partition(part) if mode.symbolic else _numeric_column(part, mode)


@lru_cache(maxsize=None)
def _numeric_piece(mode: GroupMode, factors: tuple[int, ...]):
    """The :func:`_doubled_piece` of ``factors`` at N = n, each term's
    (2 c_0 + 2 c_1 n) / 2 summed in integers, reduced onto the generators of
    ``mode`` when it is a reduced mode, cleared: a common denominator and
    (parts, numerator) pairs."""
    doubled = {_interned_part(parts): c0 + c1 * mode.n for parts, c0, c1 in _doubled_piece(factors)}
    piece = _from_ints(doubled, 2, general_at(mode.n))
    d, ints = _cleared(piece if mode.rank is None else piece.reduce(mode))
    return d, tuple((part.parts, n) for part, n in ints.items())


@lru_cache(maxsize=None)
def _numeric_column(part: Partition, mode: GroupMode) -> TracePoly:
    """Laplacian of ``p_part`` in a numeric mode, ``so(N)`` or ``general_at(n)``:
    the product rule over the numeric pieces, each term's parts merged with
    those of p_rest and its numerator scaled, summed in integers over one
    common denominator in one dict."""
    pieces = [
        (rest, scale, *_numeric_piece(mode, factors))
        for rest, factors, scale in _product_rule(part.parts)
    ]
    d = lcm(*[piece_d for _, _, piece_d, _ in pieces])
    acc: dict[tuple[int, ...], int] = {}
    for rest, scale, piece_d, terms in pieces:
        factor = scale * (d // piece_d)
        for img, n in terms:
            key = tuple(sorted(rest + img, reverse=True)) if img else rest
            acc[key] = acc.get(key, 0) + factor * n
    return _from_ints({_interned_part(key): n for key, n in acc.items() if n}, d, mode)


def lap(a: TracePoly) -> TracePoly:
    """Laplacian of an arbitrary trace polynomial; linear in the input.

    Extends :func:`lap_monomial` by linearity, so in a reduced mode the
    result stays in the reduced generators.  Each monomial's image is added
    in, scaled by its coefficient, as one :func:`_combination` over the
    cleared form: integer numerators over one denominator in a numeric mode,
    the :class:`NPoly` coefficients themselves in the symbolic one.
    """
    d, ints = _cleared(a)
    images = ((n, lap_monomial(part, a.mode)) for part, n in ints.items())
    return _combination(images, a.mode, d)

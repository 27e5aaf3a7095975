"""Exact univariate polynomials in the dimension symbol N.

These are the coefficients of trace monomials while the matrix dimension is
kept symbolic.  Coefficients are arbitrary-precision rationals, so addition,
multiplication and substitution at a concrete dimension are exact.

An :class:`NPoly` is immutable: no method changes it after construction and
:attr:`NPoly.coeffs` returns a copy, so one object may be the coefficient of
many trace monomials at once.  The public constructor validates and coerces
its input; ``NPoly._raw`` wraps a dict that is canonical already (integer
exponents >= 0 mapped to nonzero :class:`Fraction` values) and is only for
package code whose output is canonical by construction.
"""

from __future__ import annotations

from fractions import Fraction


def _magnitude_str(value) -> str:
    """``str(abs(value))`` of an int or :class:`Fraction`, from its numerator
    and denominator."""
    num = abs(value.numerator)
    return str(num) if value.denominator == 1 else f"{num}/{value.denominator}"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class NPoly:
    """Sparse polynomial in N over exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, value=0):
        if isinstance(value, NPoly):
            self._coeffs = dict(value._coeffs)
        elif isinstance(value, dict):
            coeffs = {}
            for exp, c in value.items():
                exp = int(exp)
                if exp < 0:
                    raise ValueError("negative exponent")
                c = _as_fraction(c)
                if c:
                    coeffs[exp] = c
            self._coeffs = coeffs
        else:
            c = _as_fraction(value)
            self._coeffs = {0: c} if c else {}

    @classmethod
    def _raw(cls, coeffs: dict[int, Fraction]) -> "NPoly":
        """Wrap a canonical ``coeffs`` dict without copying or checking it."""
        obj = object.__new__(cls)
        obj._coeffs = coeffs
        return obj

    @classmethod
    def var(cls) -> "NPoly":
        """The polynomial N itself."""
        return cls({1: 1})

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    @property
    def is_constant(self) -> bool:
        return all(e == 0 for e in self._coeffs)

    @property
    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self._coeffs.get(0, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NPoly(other)
        if isinstance(other, NPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        # a constant equals its Fraction, so it hashes as one
        return hash(self.constant_value) if self.is_constant else hash(frozenset(self._coeffs.items()))

    def __add__(self, other) -> "NPoly":
        if isinstance(other, (int, Fraction)):
            other = NPoly(other)
        if not isinstance(other, NPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return NPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "NPoly":
        return NPoly._raw({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "NPoly":
        return self + (-other if isinstance(other, NPoly) else NPoly(other).__neg__())

    def __rsub__(self, other) -> "NPoly":
        return NPoly(other) - self

    def __mul__(self, other) -> "NPoly":
        if isinstance(other, (int, Fraction)):
            other = NPoly(other)
        if not isinstance(other, NPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return NPoly._raw(out)

    __rmul__ = __mul__

    def subs(self, n) -> Fraction:
        """Exact value at N = n."""
        n = Fraction(n)
        return sum((c * n**e for e, c in self._coeffs.items()), Fraction(0))

    def div_by_var(self) -> "NPoly":
        """Exact division by N; fails if the constant term is nonzero."""
        if self._coeffs.get(0):
            raise ValueError(f"{self} is not divisible by N")
        return NPoly._raw({e - 1: c for e, c in self._coeffs.items()})

    def __str__(self) -> str:
        return self._signed_str(False)

    def _signed_str(self, negate: bool) -> str:
        """The printed form of ``-self`` if ``negate``, else of ``self``; the
        signs and magnitudes are read off each coefficient, not computed."""
        if not self._coeffs:
            return "0"
        chunks = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            mag = _magnitude_str(c)
            if e == 0:
                body = mag
            else:
                var = "N" if e == 1 else f"N^{e}"
                body = var if mag == "1" else f"{mag}*{var}"
            if (c.numerator > 0) != negate:
                chunks.append(f"+ {body}" if chunks else body)
            else:
                chunks.append(f"- {body}" if chunks else f"-{body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"NPoly({str(self)!r})"

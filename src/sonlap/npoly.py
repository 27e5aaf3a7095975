"""Exact univariate polynomials in the dimension symbol N.

These are the coefficients of trace monomials while the matrix dimension is
kept symbolic.  Coefficients are arbitrary-precision rationals, so addition,
multiplication and substitution at a concrete dimension are exact.

An :class:`NPoly` is immutable: no method changes it after construction and
:attr:`NPoly.coeffs` returns a copy, so one object may be the coefficient of
many trace monomials at once.  The public constructor validates and coerces
its input, refusing an exponent that is not an integer rather than truncating
it; ``NPoly._raw`` wraps a dict that is canonical already (integer
exponents >= 0 mapped to nonzero :class:`Fraction` values) and is only for
package code whose output is canonical by construction.

Because it is immutable, an :class:`NPoly` keeps its printed text (of itself,
of its negation, and as a JSON exponent map and its JSON text) once it has
been rendered: a coefficient shared by many printed terms, such as the
interned general-mode Laplacian coefficients, is rendered once per process.
"""

from __future__ import annotations

import operator
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
    """Sparse polynomial in N over exact rationals.

    Immutable; its printed forms are rendered on first use and kept.
    """

    # _texts, _json and _json_text hold the printed forms, None until first rendered
    __slots__ = ("_coeffs", "_texts", "_json", "_json_text")

    def __init__(self, value=0):
        self._texts = self._json = self._json_text = None
        if isinstance(value, NPoly):
            self._coeffs = dict(value._coeffs)
        elif isinstance(value, dict):
            coeffs = {}
            for exp, c in value.items():
                try:
                    exp = operator.index(exp)
                except TypeError:
                    raise ValueError(f"exponent {exp!r} is not an integer") from None
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
        obj._texts = obj._json = obj._json_text = None
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
        """Exact value at N = n = p/q, in lowest terms.

        The sum runs in integers over a common denominator of the terms
        c_e p^e / q^e, and one :class:`Fraction` is built at the end."""
        p, q = (n, 1) if isinstance(n, int) else Fraction(n).as_integer_ratio()
        num, den = 0, 1
        for e, c in self._coeffs.items():
            a, b = c.as_integer_ratio()
            if q != 1:
                b *= q**e
            if b == den:
                num += a * p**e
            else:
                num = num * b + a * p**e * den
                den *= b
        return Fraction(num, den)

    def div_by_var(self) -> "NPoly":
        """Exact division by N; fails if the constant term is nonzero."""
        if self._coeffs.get(0):
            raise ValueError(f"{self} is not divisible by N")
        return NPoly._raw({e - 1: c for e, c in self._coeffs.items()})

    def __str__(self) -> str:
        return self._signed_str(False)

    def _signed_str(self, negate: bool) -> str:
        """The printed form of ``-self`` if ``negate``, else of ``self``,
        rendered on first use and kept."""
        texts = self._texts
        if texts is None:
            texts = self._texts = {}
        text = texts.get(negate)
        if text is None:
            text = texts[negate] = self._render(negate)
        return text

    def _json_map(self) -> dict[str, str]:
        """A fresh ``{exponent: coefficient}`` map of strings, exponents
        ascending, as a JSON record prints it; rendered on first use and kept."""
        if self._json is None:
            self._json = tuple((str(e), str(c)) for e, c in sorted(self._coeffs.items()))
        return dict(self._json)

    def _json_dumps(self) -> str:
        """``json.dumps(self._json_map(), sort_keys=True)``: the exponent keys
        in string order (``"10"`` before ``"2"``); rendered on first use and
        kept."""
        if self._json_text is None:
            items = sorted((str(e), str(c)) for e, c in self._coeffs.items())
            self._json_text = "{" + ", ".join(f'"{e}": "{c}"' for e, c in items) + "}"
        return self._json_text

    def _render(self, negate: bool) -> str:
        """:meth:`_signed_str` uncached; the signs and magnitudes are read off
        each coefficient, not computed."""
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

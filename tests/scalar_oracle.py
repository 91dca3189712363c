"""The Fraction-based Scalar, kept as the oracle for `transdirac.exact`.

This is the earlier implementation of the package's exact field arithmetic,
unchanged apart from this docstring: every Scalar stores its four rational
parts (a + b*sqrt2) + i*(c + d*sqrt2) as separate Fractions.
`tests/test_scalar_oracle.py` checks that the integer implementation in
`transdirac.exact` computes the same values, hashes and strings.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

_Pair = tuple[Fraction, Fraction]


def _pair_mul(x: _Pair, y: _Pair) -> _Pair:
    a, b = x
    c, d = y
    return (a * c + 2 * b * d, a * d + b * c)


def _pair_sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt(2)."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: a + b*sqrt2 > 0 iff sign determined by a^2 vs 2 b^2
    big = a * a > 2 * b * b
    if a > 0:
        return 1 if big else -1
    return -1 if big else 1


def _frac_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _pair_sqrt(a: Fraction, b: Fraction) -> _Pair | None:
    """Positive square root of a + b*sqrt(2) inside Q(sqrt2), or None."""
    if _pair_sign(a, b) < 0:
        return None
    if b == 0:
        r = _frac_sqrt(a)
        if r is not None:
            return (r, F0)
        r = _frac_sqrt(a / 2)
        if r is not None:
            return (F0, r)
        return None
    disc = _frac_sqrt(a * a - 2 * b * b)
    if disc is None:
        return None
    for t in ((a + disc) / 2, (a - disc) / 2):
        s = _frac_sqrt(t)
        if s is None or s == 0:
            continue
        bb = b / (2 * s)
        if s * s + 2 * bb * bb == a and 2 * s * bb == b:
            if _pair_sign(s, bb) > 0:
                return (s, bb)
            return (-s, -bb)
    return None


class Scalar:
    """Immutable element (ra + rb*sqrt2) + i*(ia + ib*sqrt2) of F."""

    __slots__ = ("ra", "rb", "ia", "ib")

    def __init__(self, ra=0, rb=0, ia=0, ib=0):
        object.__setattr__(self, "ra", Fraction(ra))
        object.__setattr__(self, "rb", Fraction(rb))
        object.__setattr__(self, "ia", Fraction(ia))
        object.__setattr__(self, "ib", Fraction(ib))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _mk(cls, ra: Fraction, rb: Fraction, ia: Fraction, ib: Fraction) -> "Scalar":
        s = object.__new__(cls)
        object.__setattr__(s, "ra", ra)
        object.__setattr__(s, "rb", rb)
        object.__setattr__(s, "ia", ia)
        object.__setattr__(s, "ib", ib)
        return s

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar._mk(Fraction(x), F0, F0, F0)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = Scalar.of(other)
        return Scalar._mk(self.ra + o.ra, self.rb + o.rb, self.ia + o.ia, self.ib + o.ib)

    __radd__ = __add__

    def __sub__(self, other):
        o = Scalar.of(other)
        return Scalar._mk(self.ra - o.ra, self.rb - o.rb, self.ia - o.ia, self.ib - o.ib)

    def __rsub__(self, other):
        return Scalar.of(other).__sub__(self)

    def __neg__(self):
        return Scalar._mk(-self.ra, -self.rb, -self.ia, -self.ib)

    def __mul__(self, other):
        o = other if isinstance(other, Scalar) else Scalar.of(other)
        r1 = (self.ra, self.rb)
        i1 = (self.ia, self.ib)
        r2 = (o.ra, o.rb)
        i2 = (o.ia, o.ib)
        if i1 == (F0, F0) and i2 == (F0, F0):  # common real fast path
            rr = _pair_mul(r1, r2)
            return Scalar._mk(rr[0], rr[1], F0, F0)
        rr = _pair_mul(r1, r2)
        ii = _pair_mul(i1, i2)
        ri = _pair_mul(r1, i2)
        ir = _pair_mul(i1, r2)
        return Scalar._mk(rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1])

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # 1/z = conj(z) / |z|^2, then invert the real pair |z|^2
        n = _pair_mul((self.ra, self.rb), (self.ra, self.rb))
        m = _pair_mul((self.ia, self.ib), (self.ia, self.ib))
        na, nb = n[0] + m[0], n[1] + m[1]  # |z|^2 = na + nb*sqrt2
        if na == 0 and nb == 0:
            raise ZeroDivisionError("inverse of zero Scalar")
        den = na * na - 2 * nb * nb
        inva, invb = na / den, -nb / den
        c = self.conjugate()
        rr = _pair_mul((c.ra, c.rb), (inva, invb))
        ii = _pair_mul((c.ia, c.ib), (inva, invb))
        return Scalar._mk(rr[0], rr[1], ii[0], ii[1])

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    def conjugate(self) -> "Scalar":
        return Scalar._mk(self.ra, self.rb, -self.ia, -self.ib)

    # -- predicates and parts ----------------------------------------------

    def is_zero(self) -> bool:
        return self.ra == 0 and self.rb == 0 and self.ia == 0 and self.ib == 0

    def __bool__(self):
        return not self.is_zero()

    def is_real(self) -> bool:
        return self.ia == 0 and self.ib == 0

    def is_imaginary(self) -> bool:
        return self.ra == 0 and self.rb == 0

    def is_rational(self) -> bool:
        return self.is_real() and self.rb == 0

    def real(self) -> "Scalar":
        return Scalar._mk(self.ra, self.rb, F0, F0)

    # -- ordering of real values -------------------------------------------

    def sign(self) -> int:
        if not self.is_real():
            raise ValueError("sign of a non-real Scalar")
        return _pair_sign(self.ra, self.rb)

    def _cmp(self, other) -> int:
        return (self - Scalar.of(other)).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def sqrt(self) -> "Scalar":
        """Exact nonnegative square root of a nonnegative real Scalar.

        Raises ValueError when the root does not lie in Q(sqrt2).
        """
        if not self.is_real():
            raise ValueError("sqrt of a non-real Scalar")
        r = _pair_sqrt(self.ra, self.rb)
        if r is None:
            raise ValueError(f"sqrt of {self} does not lie in Q(sqrt2)")
        return Scalar._mk(r[0], r[1], F0, F0)

    # -- hashing / equality / conversion -------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.ra == other.ra and self.rb == other.rb
                and self.ia == other.ia and self.ib == other.ib)

    def __hash__(self):
        # a rational value equals the int/Fraction it holds, so hash like it
        if self.rb == 0 and self.ia == 0 and self.ib == 0:
            return hash(self.ra)
        return hash((self.ra, self.rb, self.ia, self.ib))

    def __float__(self):
        if not self.is_real():
            raise ValueError("float() of a non-real Scalar")
        return float(self.ra) + float(self.rb) * math.sqrt(2)

    def __complex__(self):
        return complex(float(self.ra) + float(self.rb) * math.sqrt(2),
                       float(self.ia) + float(self.ib) * math.sqrt(2))

    def abs_float(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


ZERO = Scalar._mk(F0, F0, F0, F0)
ONE = Scalar._mk(F1, F0, F0, F0)
I = Scalar._mk(F0, F0, F1, F0)
SQRT2 = Scalar._mk(F0, F1, F0, F0)


def rational(p, q=1) -> Scalar:
    return Scalar._mk(Fraction(p, q), F0, F0, F0)


# -- parsing / formatting of real field elements -----------------------------

_TERM = re.compile(
    r"^(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:/\d+)?)\s*)?(?P<rt>(?:√2|sqrt2))?$"
)


def parse_real(text: str) -> Scalar:
    """Parse strings like '3', '-1/2', '1/2+1/4√2', '-√2', '2-3/2√2'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split into signed terms
    terms: list[str] = []
    buf = ""
    for ch in s:
        if ch in "+-" and buf not in ("", "+", "-"):
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    a, b = F0, F0
    for t in terms:
        m = _TERM.match(t)
        if not m or (m.group("num") is None and m.group("rt") is None):
            raise ValueError(f"cannot parse scalar term {t!r} in {text!r}")
        coeff = Fraction(m.group("num")) if m.group("num") else F1
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("rt"):
            b += coeff
        else:
            a += coeff
    return Scalar._mk(a, b, F0, F0)


def parse_imaginary(text: str) -> Scalar:
    """Parse purely imaginary strings: a real string with trailing 'i', or '0'."""
    s = text.strip().replace(" ", "")
    if s in ("0", "0i"):
        return ZERO
    if not s.endswith("i"):
        raise ValueError(f"imaginary scalar {text!r} must end in 'i'")
    body = s[:-1]
    if body in ("", "+"):
        body = "1"
    elif body == "-":
        body = "-1"
    r = parse_real(body)
    return Scalar._mk(F0, F0, r.ra, r.rb)


def _format_pair(a: Fraction, b: Fraction) -> str:
    if a == 0 and b == 0:
        return "0"
    parts = []
    if a != 0:
        parts.append(str(a))
    if b != 0:
        coeff = "" if b == 1 else ("-" if b == -1 else str(b))
        term = f"{coeff}√2"
        if parts and b > 0:
            term = "+" + term
        parts.append(term)
    return "".join(parts)


def format_scalar(s: Scalar) -> str:
    re_part = _format_pair(s.ra, s.rb)
    if s.is_real():
        return re_part
    im_part = _format_pair(s.ia, s.ib) + "i"
    if s.ra == 0 and s.rb == 0:
        return im_part
    joiner = "" if im_part.startswith("-") else "+"
    return re_part + joiner + im_part

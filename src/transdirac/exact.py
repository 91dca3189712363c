"""Exact scalar arithmetic in the field Q(sqrt2) and its complexification.

Every symbolic computation in this package runs over

    F = { (a + b*sqrt(2)) + i*(c + d*sqrt(2)) : a, b, c, d rational },

so that curvature identities can be asserted as exact zeros instead of
small floats.  A Scalar is an immutable value of F, kept as four integer
numerators over one shared positive denominator in lowest terms, so each
operation is a few integer products and one gcd.  Construction, parsing,
formatting, square roots, equality and hashing all work on those ints, so
importing this module does not load `fractions` (nor the `decimal` and
`numbers` it loads).  Fractions appear only in the parts `ra`, `rb`, `ia`,
`ib`, made when a caller reads one; an int or a Fraction is accepted
wherever a Scalar is, and a rational Scalar hashes like it.  The small
Gaussian integers a + ci, |a|, |c| <= 4 (ZERO, ONE, I and the +-1 entries
of every fiber matrix among them) have one shared object each, from a
table fixed at import: every operation returns it instead of a new equal
Scalar.  Equality and hashing still read the value, and nothing in this
package compares Scalars with `is`, so sharing saves memory and changes no
result.  Line-bundle curvature matrices are stored in units of 2*pi
(integer entries of i*B are Chern numbers); only the floating-point lattice
module reintroduces the 2*pi.
"""

from __future__ import annotations

import math
import re
import sys

_MODULUS = sys.hash_info.modulus


def _pair_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2), for rational or integer a and b."""
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


def _int_sqrt(n: int) -> int | None:
    """The nonnegative integer r with r*r == n, or None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _pair_sqrt(a: int, b: int) -> tuple[int, int] | None:
    """Positive square root s + t*sqrt(2) of a + b*sqrt(2) for integers a, b,
    or None.  A root in Q(sqrt2) of an integer of Z[sqrt2] is integral, so it
    lies in Z[sqrt2]: s and t are integers."""
    if _pair_sign(a, b) < 0:
        return None
    if b == 0:
        r = _int_sqrt(a)
        if r is not None:
            return (r, 0)
        r = _int_sqrt(a // 2) if a % 2 == 0 else None
        return None if r is None else (0, r)
    # s^2 + 2t^2 = a and s^2 - 2t^2 = +-disc, the norm of the root
    disc = _int_sqrt(a * a - 2 * b * b)
    if disc is None:
        return None
    for twice_s2 in (a + disc, a - disc):
        s = _int_sqrt(twice_s2 // 2) if twice_s2 % 2 == 0 else None
        if not s or b % (2 * s):
            continue
        bb = b // (2 * s)
        if s * s + 2 * bb * bb == a:
            if _pair_sign(s, bb) > 0:
                return (s, bb)
            return (-s, -bb)
    return None


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a rational number such as a
    Fraction, whose two are ints in lowest terms with a positive denominator."""
    if isinstance(x, int):
        return x, 1
    n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if isinstance(n, int) and isinstance(d, int):
        return n, d
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _common(ra, rb, ia, ib) -> tuple[int, int, int, int, int]:
    """(a, b, c, d, den) in lowest terms for four ints or Fractions."""
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = _ratio(ra), _ratio(rb), _ratio(ia), _ratio(ib)
    den = math.lcm(ad, bd, cd, dd)
    # each prime p of den divides some part's denominator as often as den;
    # then p divides neither that numerator nor den // denominator, so the
    # five ints already have gcd 1
    return an * (den // ad), bn * (den // bd), cn * (den // cd), dn * (den // dd), den


def _parts(x) -> tuple[int, int, int, int, int]:
    if isinstance(x, Scalar):
        return x._v
    n, d = _ratio(x)
    return (n, 0, 0, 0, d)


def _hash_ratio(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0: n/d modulo the hash modulus, or
    sys.hash_info.inf where the modulus divides the reduced denominator."""
    if d % _MODULUS == 0:
        g = math.gcd(n, d)
        n, d = n // g, d // g
    h = abs(n) * pow(d, -1, _MODULUS) % _MODULUS if d % _MODULUS else sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _reduced(a: int, b: int, c: int, d: int, den: int) -> "Scalar":
    """The Scalar ((a + b*sqrt2) + i*(c + d*sqrt2)) / den, for den > 0: the
    table's object for a small Gaussian integer, else a new one.  Every
    Scalar is made here."""
    if den != 1:
        g = math.gcd(a, b, c, d, den)
        if g != 1:
            a //= g
            b //= g
            c //= g
            d //= g
            den //= g
    v = (a, b, c, d, den)
    s = _SMALL.get(v) if den == 1 else None
    if s is None:
        s = _alloc(Scalar)
        _set(s, v)
    return s


class Scalar:
    """Immutable element ((a + b*sqrt2) + i*(c + d*sqrt2)) / den of F.

    `_v` is the tuple (a, b, c, d, den) of ints with den > 0 and
    gcd(a, b, c, d, den) = 1: each value has exactly one such tuple, so
    equal Scalars have equal tuples.  The four parts are given as ints or
    Fractions.  `ra`, `rb`, `ia`, `ib` are the parts a/den, b/den, c/den,
    d/den as Fractions, the only place this module makes one."""

    __slots__ = ("_v",)

    def __new__(cls, ra=0, rb=0, ia=0, ib=0):
        return _reduced(*_common(ra, rb, ia, ib))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @property
    def ra(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._v[0], self._v[4])

    @property
    def rb(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._v[1], self._v[4])

    @property
    def ia(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._v[2], self._v[4])

    @property
    def ib(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._v[3], self._v[4])

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return _reduced(*_parts(x))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b, c, d, e = self._v
        p, q, r, s, f = other._v if isinstance(other, Scalar) else _parts(other)
        if e == f:
            return _reduced(a + p, b + q, c + r, d + s, e)
        return _reduced(a * f + p * e, b * f + q * e, c * f + r * e, d * f + s * e, e * f)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, c, d, e = self._v
        p, q, r, s, f = other._v if isinstance(other, Scalar) else _parts(other)
        if e == f:
            return _reduced(a - p, b - q, c - r, d - s, e)
        return _reduced(a * f - p * e, b * f - q * e, c * f - r * e, d * f - s * e, e * f)

    def __rsub__(self, other):
        return Scalar.of(other).__sub__(self)

    def __neg__(self):
        a, b, c, d, e = self._v
        return _reduced(-a, -b, -c, -d, e)

    def __mul__(self, other):
        a, b, c, d, e = self._v
        p, q, r, s, f = other._v if isinstance(other, Scalar) else _parts(other)
        if not (c or d or r or s):  # common real fast path
            return _reduced(a * p + 2 * b * q, a * q + b * p, 0, 0, e * f)
        return _reduced(a * p + 2 * b * q - c * r - 2 * d * s,
                        a * q + b * p - c * s - d * r,
                        a * r + 2 * b * s + c * p + 2 * d * q,
                        a * s + b * r + c * q + d * p, e * f)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # 1/z = den * conj(x) / |x|^2 for x = den*z, and |x|^2 = na + nb*sqrt2
        # is inverted by its Galois conjugate na - nb*sqrt2, which is
        # |x with sqrt2 -> -sqrt2|^2 > 0; so the new denominator
        # na^2 - 2*nb^2 is positive
        a, b, c, d, e = self._v
        if not (a or b or c or d):
            raise ZeroDivisionError("inverse of zero Scalar")
        na = a * a + 2 * b * b + c * c + 2 * d * d
        nb = 2 * (a * b + c * d)
        return _reduced(e * (a * na - 2 * b * nb), e * (b * na - a * nb),
                        e * (2 * d * nb - c * na), e * (c * nb - d * na),
                        na * na - 2 * nb * nb)

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    def conjugate(self) -> "Scalar":
        a, b, c, d, e = self._v
        return _reduced(a, b, -c, -d, e)

    # -- predicates and parts ----------------------------------------------

    def is_zero(self) -> bool:
        return self._v == _ZERO

    def __bool__(self):
        return self._v != _ZERO

    def is_real(self) -> bool:
        return self._v[2] == 0 and self._v[3] == 0

    def is_imaginary(self) -> bool:
        return self._v[0] == 0 and self._v[1] == 0

    def is_rational(self) -> bool:
        return self._v[1] == 0 and self._v[2] == 0 and self._v[3] == 0

    def real(self) -> "Scalar":
        a, b, _, _, e = self._v
        return _reduced(a, b, 0, 0, e)

    # -- ordering of real values -------------------------------------------

    def sign(self) -> int:
        if not self.is_real():
            raise ValueError("sign of a non-real Scalar")
        return _pair_sign(self._v[0], self._v[1])

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
        # sqrt((a + b*sqrt2)/den) = sqrt((a + b*sqrt2)*den)/den
        a, b, _, _, e = self._v
        r = _pair_sqrt(a * e, b * e)
        if r is None:
            raise ValueError(f"sqrt of {self} does not lie in Q(sqrt2)")
        return _reduced(r[0], r[1], 0, 0, e)

    # -- hashing / equality / conversion -------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._v == other._v
        try:
            return self._v == _parts(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # a rational value equals the int/Fraction it holds, so hash like
        # it; any other value hashes like the tuple of its four Fraction parts
        a, b, c, d, e = self._v
        if not (b or c or d):
            return _hash_ratio(a, e)
        return hash((_hash_ratio(a, e), _hash_ratio(b, e), _hash_ratio(c, e), _hash_ratio(d, e)))

    def __float__(self):
        if not self.is_real():
            raise ValueError("float() of a non-real Scalar")
        a, b, _, _, e = self._v
        return a / e + b / e * math.sqrt(2)

    def __complex__(self):
        a, b, c, d, e = self._v
        return complex(a / e + b / e * math.sqrt(2), c / e + d / e * math.sqrt(2))

    def abs_float(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


_alloc = object.__new__
_set = Scalar._v.__set__
_ZERO = (0, 0, 0, 0, 1)

# the small Gaussian integers a + ci, |a|, |c| <= 4, one object each; built
# against the empty table, which is then filled once and never grows
_SMALL: dict[tuple[int, int, int, int, int], Scalar] = {}
_SMALL.update({v: _reduced(*v) for v in ((a, 0, c, 0, 1) for a in range(-4, 5)
                                       for c in range(-4, 5))})

ZERO = Scalar.of(0)
ONE = Scalar.of(1)
I = Scalar(0, 0, 1)
SQRT2 = Scalar(0, 1)


def rational(p, q=1) -> Scalar:
    """The Scalar p/q, for ints or Fractions p and q != 0."""
    (n, d), (m, e) = _ratio(p), _ratio(q)
    if m == 0:
        raise ZeroDivisionError(f"rational({p}, {q})")
    if m < 0:
        n, m = -n, -m
    return _reduced(n * e, 0, 0, 0, d * m)


# -- parsing / formatting of real field elements -----------------------------

_TERM = re.compile(
    r"^(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:/\d+)?)\s*)?(?P<rt>(?:√2|sqrt2))?$"
)


def parse_real(text: str) -> Scalar:
    """Parse strings like '3', '-1/2', '1/2+1/4√2', '-√2', '2-3/2√2'."""
    if not isinstance(text, str):
        raise ValueError(f"scalar {text!r} must be a string")
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
    a, b, den = 0, 0, 1  # the value (a + b*sqrt2)/den
    for t in terms:
        m = _TERM.match(t)
        if not m or (m.group("num") is None and m.group("rt") is None):
            raise ValueError(f"cannot parse scalar term {t!r} in {text!r}")
        top, _, bottom = (m.group("num") or "1").partition("/")
        num, d = int(top), int(bottom or 1)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        if m.group("sign") == "-":
            num = -num
        a, b = a * d, b * d
        if m.group("rt"):
            b += num * den
        else:
            a += num * den
        den *= d
    return _reduced(a, b, 0, 0, den)


def parse_imaginary(text: str) -> Scalar:
    """Parse purely imaginary strings: a real string with trailing 'i', or '0'."""
    if not isinstance(text, str):
        raise ValueError(f"imaginary scalar {text!r} must be a string")
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
    a, b, _, _, den = parse_real(body)._v
    return _reduced(0, 0, a, b, den)


def _format_ratio(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) writes it."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _format_pair(a: int, b: int, den: int) -> str:
    """(a + b*sqrt2)/den, for den > 0."""
    if a == 0 and b == 0:
        return "0"
    parts = []
    if a != 0:
        parts.append(_format_ratio(a, den))
    if b != 0:
        coeff = "" if b == den else ("-" if b == -den else _format_ratio(b, den))
        term = f"{coeff}√2"
        if parts and b > 0:
            term = "+" + term
        parts.append(term)
    return "".join(parts)


def format_scalar(s: Scalar) -> str:
    a, b, c, d, den = s._v
    re_part = _format_pair(a, b, den)
    if not (c or d):
        return re_part
    im_part = _format_pair(c, d, den) + "i"
    if a == 0 and b == 0:
        return im_part
    joiner = "" if im_part.startswith("-") else "+"
    return re_part + joiner + im_part

"""The integer Scalar of `transdirac.exact` against the Fraction-based oracle.

Each test builds the same value in both implementations and requires equal
rational parts, strings, hashes, floats, comparison results and errors.
Heights reach 10^30, and denominators are drawn both from a small shared set
(so that sums meet equal denominators) and at random (so that they do not).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as old
from transdirac import exact as new

HEIGHT = 10 ** 30
SHARED_DENS = (1, 2, 3, 6, 7, 2 ** 40, HEIGHT)

part = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.sampled_from(SHARED_DENS)),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)),
)


@st.composite
def parts(draw):
    """(ra, rb, ia, ib), often with whole parts zero so the real, rational
    and imaginary shortcuts are taken."""
    ra, rb, ia, ib = (draw(part) for _ in range(4))
    shape = draw(st.sampled_from(("complex", "real", "rational", "imaginary", "zero")))
    if shape in ("real", "rational", "zero"):
        ia = ib = 0
    if shape in ("rational", "zero"):
        rb = 0
    if shape in ("imaginary", "zero"):
        ra = rb = 0
    return ra, rb, ia, ib


numbers = st.one_of(st.integers(-HEIGHT, HEIGHT),
                    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)))


def pair(p):
    return new.Scalar(*p), old.Scalar(*p)


def agree(n, o):
    assert (n.ra, n.rb, n.ia, n.ib) == (o.ra, o.rb, o.ia, o.ib)
    # a result not in lowest terms would differ from the same value built anew
    assert n == new.Scalar(o.ra, o.rb, o.ia, o.ib)
    assert str(n) == str(o)
    assert repr(n) == repr(o)
    assert hash(n) == hash(o)
    assert complex(n) == complex(o)


def agree_or_raise(f_new, f_old, exc):
    """Both calls return agreeing Scalars, or both raise `exc`."""
    try:
        o = f_old()
    except exc:
        with pytest.raises(exc):
            f_new()
        return
    agree(f_new(), o)


@given(parts(), parts())
@settings(max_examples=300, deadline=None)
def test_arithmetic_agrees_with_oracle(px, py):
    (xn, xo), (yn, yo) = pair(px), pair(py)
    agree(xn, xo)
    agree(xn + yn, xo + yo)
    agree(xn - yn, xo - yo)
    agree(xn * yn, xo * yo)
    agree(-xn, -xo)
    agree(xn.conjugate(), xo.conjugate())
    agree(xn.real(), xo.real())
    agree_or_raise(xn.inverse, xo.inverse, ZeroDivisionError)
    agree_or_raise(lambda: xn / yn, lambda: xo / yo, ZeroDivisionError)
    assert (xn == yn) == (xo == yo)
    # equal values reached by different routes must compare equal
    assert ((xn + yn) - yn == xn) == ((xo + yo) - yo == xo) is True
    assert (xn * yn == yn * xn) == (xo * yo == yo * xo) is True
    if not yo.is_zero():
        assert ((xn * yn) / yn == xn) == ((xo * yo) / yo == xo) is True
    for name in ("is_zero", "is_real", "is_imaginary", "is_rational", "__bool__"):
        assert getattr(xn, name)() == getattr(xo, name)()


@given(parts(), numbers)
@settings(max_examples=200, deadline=None)
def test_int_and_fraction_operands_agree(px, k):
    xn, xo = pair(px)
    agree(xn + k, xo + k)
    agree(k + xn, k + xo)
    agree(xn - k, xo - k)
    agree(k - xn, k - xo)
    agree(xn * k, xo * k)
    agree(k * xn, k * xo)
    agree_or_raise(lambda: xn / k, lambda: xo / k, ZeroDivisionError)
    agree_or_raise(lambda: k / xn, lambda: k / xo, ZeroDivisionError)
    agree(new.Scalar.of(k), old.Scalar.of(k))
    assert (xn == k) == (xo == k)
    assert (xn.real() * 0 + k == k) == (xo.real() * 0 + k == k) is True
    assert hash(new.Scalar.of(k)) == hash(k) == hash(Fraction(k))


@given(parts(), parts())
@settings(max_examples=200, deadline=None)
def test_sign_order_and_sqrt_agree(px, py):
    xn, xo = pair(px)
    yn, yo = pair(py)
    rn, ro = xn.real(), xo.real()
    sn, so = yn.real(), yo.real()
    assert rn.sign() == ro.sign()
    assert (rn < sn, rn <= sn, rn > sn, rn >= sn) == (ro < so, ro <= so, ro > so, ro >= so)
    assert float(rn) == float(ro)
    agree_or_raise(rn.sqrt, ro.sqrt, ValueError)
    agree((rn * rn).sqrt(), (ro * ro).sqrt())
    if not xo.is_real():
        with pytest.raises(ValueError):
            xn.sign()
        with pytest.raises(ValueError):
            xn.sqrt()


def test_constants_parsing_and_zero_division_agree():
    for name in ("ZERO", "ONE", "I", "SQRT2"):
        agree(getattr(new, name), getattr(old, name))
    for text in ("0", "-7/3", "1/2+1/4√2", "-√2", "3/2-5/4√2"):
        agree(new.parse_real(text), old.parse_real(text))
        agree(new.parse_imaginary(text + "i"), old.parse_imaginary(text + "i"))
    agree(new.rational(6, -4), old.rational(6, -4))
    agree(new.Scalar(Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5, 9)),
          old.Scalar._mk(Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5, 9)))
    for zero in (new.ZERO, new.Scalar(0, 0, 0, 0)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            new.ONE / zero
        with pytest.raises(ZeroDivisionError):
            1 / zero


@given(parts())
@settings(max_examples=100, deadline=None)
def test_stored_form_is_lowest_terms(px):
    *nums, den = new.Scalar(*px)._v
    assert den > 0 and math.gcd(*nums, den) == 1

"""Field arithmetic in Q(sqrt2) + i Q(sqrt2)."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transdirac.exact import (I, ONE, SQRT2, ZERO, Scalar, format_scalar,
                              parse_imaginary, parse_real, rational)

small = st.integers(-6, 6)
den = st.integers(1, 4)


def scalars():
    return st.builds(
        lambda a, b, c, d, da, db, dc, dd: Scalar(
            Fraction(a, da), Fraction(b, db), Fraction(c, dc), Fraction(d, dd)),
        small, small, small, small, den, den, den, den)


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x
    assert x + (-x) == ZERO


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_complex_embedding(x, y):
    assert abs(complex(x * y) - complex(x) * complex(y)) < 1e-9
    assert abs(complex(x + y) - (complex(x) + complex(y))) < 1e-12
    assert complex(x.conjugate()) == complex(x).conjugate()


def test_constants():
    assert SQRT2 * SQRT2 == rational(2)
    assert I * I == rational(-1)
    assert (ONE + SQRT2) * (SQRT2 - ONE) == ONE


@given(st.integers(-20, 20), st.integers(1, 9), st.integers(-5, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sqrt_roundtrip(a, da, b, db):
    x = Scalar(Fraction(a, da), Fraction(b, db))
    sq = x * x
    r = sq.sqrt()
    assert r * r == sq
    assert r.sign() >= 0


def test_sqrt_not_in_field():
    with pytest.raises(ValueError):
        rational(3).sqrt()
    with pytest.raises(ValueError):
        SQRT2.sqrt()


def test_real_ordering():
    # 3/2 - 1/2 sqrt2 > 0 but 1 - sqrt2 < 0: mixed-sign branches
    assert Scalar(Fraction(3, 2), Fraction(-1, 2)).sign() == 1
    assert (ONE - SQRT2).sign() == -1
    assert (SQRT2 - ONE).sign() == 1
    assert ZERO.sign() == 0
    assert SQRT2 > rational(7, 5)
    assert SQRT2 < rational(3, 2)
    with pytest.raises(ValueError):
        I.sign()


@pytest.mark.parametrize("text, value", [
    ("0", ZERO),
    ("3", rational(3)),
    ("-1/2", rational(-1, 2)),
    ("1/2+1/4√2", Scalar(Fraction(1, 2), Fraction(1, 4))),
    ("-√2", -SQRT2),
    ("2√2", SQRT2 * 2),
    ("1-√2", ONE - SQRT2),
    ("3/2-5/4√2", Scalar(Fraction(3, 2), Fraction(-5, 4))),
])
def test_parse_real(text, value):
    assert parse_real(text) == value


@pytest.mark.parametrize("text, value", [
    ("0", ZERO),
    ("-1i", -I),
    ("1/2i", I * rational(1, 2)),
    ("-2i", I * rational(-2)),
    ("1/2+1/4√2i", I * Scalar(Fraction(1, 2), Fraction(1, 4))),
])
def test_parse_imaginary(text, value):
    assert parse_imaginary(text) == value


def test_parse_rejects_garbage():
    for bad in ("", "x", "1//2", "√3", "1+?"):
        with pytest.raises(ValueError):
            parse_real(bad)
    with pytest.raises(ValueError):
        parse_imaginary("2")  # missing i suffix


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip_real(x):
    r = x.real()
    assert parse_real(format_scalar(r)) == r


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip_imaginary(x):
    r = x - x.real()
    assert parse_imaginary(format_scalar(r)) == r


@given(scalars())
@settings(max_examples=30, deadline=None)
def test_parts_are_fractions(x):
    """The parts are the one place a Scalar hands out Fractions; the rest
    of the module works on ints."""
    parts = (x.ra, x.rb, x.ia, x.ib)
    assert all(type(p) is Fraction for p in parts)
    assert Scalar(*parts) == x


def test_rational_reduces_and_moves_the_sign_up():
    assert rational(2, -4) == Fraction(-1, 2)
    assert rational(2, -4).ra == Fraction(-1, 2)
    assert rational(Fraction(3, 4), Fraction(-3, 2)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


@pytest.mark.parametrize("n, d", [(-3, 1), (-1, 1), (-7, 6), (-2, 4), (1, 7), (0, 1),
                                  (1, sys.hash_info.modulus), (-1, sys.hash_info.modulus),
                                  (3, 2 * sys.hash_info.modulus),
                                  (sys.hash_info.modulus, 2 * sys.hash_info.modulus)])
def test_rational_hash_is_the_fraction_hash(n, d):
    """A Scalar equal to a Fraction hashes like it, also for a negative
    numerator and a denominator that the hash modulus divides."""
    assert hash(rational(n, d)) == hash(Fraction(n, d))
    if d % sys.hash_info.modulus == 0 and n % sys.hash_info.modulus:
        assert abs(hash(rational(n, d))) == sys.hash_info.inf


def test_rational_scalar_hashes_like_equal_number():
    for value in (0, 1, -3, Fraction(2, 3)):
        s = Scalar.of(value)
        assert s == value and hash(s) == hash(value)
        assert {value: "x"}.get(s) == "x"
        assert s in {value}
        assert value in {s}
    assert {ONE: "one"}[1] == "one"
    assert len({ZERO, 0, Fraction(0)}) == 1
    # irrational and complex values stay apart from every rational key
    assert {SQRT2: "r", I: "i"} == {SQRT2: "r", I: "i"}
    assert 1 not in {SQRT2, I, rational(1) + I}


def test_small_gaussian_integers_are_shared():
    """Every operation returns the one shared object of a value a + ci with
    |a|, |c| <= 4, so the +-1 entries of the fiber matrices hold no Scalar
    of their own; other values are equal by value only."""
    assert -ONE is rational(-1)
    assert I * I is -ONE
    assert Scalar(1) is ONE and Scalar.of(0) is ZERO
    assert I.conjugate() is -I
    assert rational(1, 2) * 2 is ONE
    assert parse_imaginary("-4i") is Scalar(0, 0, -4)
    assert rational(1, 2) + rational(1, 2) is ONE
    assert (SQRT2 * SQRT2 - rational(6)) is Scalar(-4)
    assert rational(5) == Scalar(5) and rational(-1, 2) == Scalar(Fraction(-1, 2))

"""Ring axioms and text round-trips for the quadratic integer rings."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from picardhyb.exactring import (
    QuadInt, QuadRat, RingMismatchError, parse, render, units,
)

DS = (1, 3, 7)

coeffs = st.integers(min_value=-50, max_value=50)


def quadints(d):
    return st.builds(lambda a, b: QuadInt(d, a, b), coeffs, coeffs)


def quadrats(d):
    dens = st.integers(min_value=1, max_value=20)
    return st.builds(
        lambda a, b, q: QuadRat(QuadInt(d, a, b), q), coeffs, coeffs, dens)


@pytest.mark.parametrize("d", DS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quadint_ring_axioms(d, data):
    x = data.draw(quadints(d))
    y = data.draw(quadints(d))
    z = data.draw(quadints(d))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + QuadInt.zero(d) == x
    assert x * QuadInt.one(d) == x
    assert x + (-x) == QuadInt.zero(d)


@pytest.mark.parametrize("d", DS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conj_and_norm_multiplicative(d, data):
    x = data.draw(quadints(d))
    y = data.draw(quadints(d))
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.norm() >= 0
    # norm is |x|^2: matches the float modulus
    ax = abs(x.approx()) ** 2
    assert abs(ax - x.norm()) < 1e-6 * (1 + abs(ax))


@pytest.mark.parametrize("d", DS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_parse_round_trip(d, data):
    x = data.draw(quadints(d))
    assert parse(d, render(x)) == x


@pytest.mark.parametrize("d,count", [(1, 4), (3, 6), (7, 2)])
def test_unit_groups(d, count):
    us = units(d)
    assert len(us) == count
    assert all(u.is_unit() and u.norm() == 1 for u in us)
    # closed under multiplication
    keys = {(u.a, u.b) for u in us}
    for u in us:
        for v in us:
            w = u * v
            assert (w.a, w.b) in keys


def test_tau_squares():
    # tau^2 follows the minimal polynomial of each ring
    i = QuadInt.tau(1)
    assert i * i == QuadInt.of_int(1, -1)
    w = QuadInt.tau(3)
    assert w * w == -1 - w
    t = QuadInt.tau(7)
    assert t * t == t - 2


def test_sqrt_minus_d():
    for d in DS:
        s = QuadInt.sqrt_minus_d(d)
        assert s * s == QuadInt.of_int(d, -d)


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        QuadInt.tau(1) + QuadInt.tau(3)
    with pytest.raises(RingMismatchError):
        QuadRat.of(QuadInt.tau(1)) * QuadRat.of(QuadInt.tau(7))


def test_quadrat_combines_only_with_quadrat():
    x = QuadRat.one(3)
    for other in (1, QuadInt.tau(3)):
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x,
                   lambda: x / other):
            with pytest.raises(TypeError):
                op()


@pytest.mark.parametrize("d", DS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quadrat_field_ops(d, data):
    x = data.draw(quadrats(d))
    y = data.draw(quadrats(d))
    assert x + y - y == x
    if not y.is_zero():
        assert (x / y) * y == x
    assert (x * y).conj() == x.conj() * y.conj()


def test_quadrat_parts():
    d = 3
    w = QuadRat.of(QuadInt.tau(3))
    assert w.real_part() == Fraction(-1, 2)
    assert w.isqrtd_coeff() == Fraction(1, 2)
    i1 = QuadRat.of(QuadInt.tau(1))
    assert i1.real_part() == 0 and i1.isqrtd_coeff() == 1
    t7 = QuadRat.of(QuadInt.tau(7))
    assert t7.real_part() == Fraction(1, 2)
    assert t7.isqrtd_coeff() == Fraction(1, 2)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse(3, "1+2*q")
    with pytest.raises(ValueError):
        parse(2, "1")


def _term_value(d, term):
    """(a, b) of one unsigned term N, SYM or N*SYM of O_d, else None."""
    sym = {1: "i", 3: "w", 7: "t7"}[d]
    n, star, s = term.partition("*")
    if not star:
        if term == sym:
            return 0, 1
        return (int(term), 0) if term.isascii() and term.isdigit() else None
    n, s = n.rstrip(" "), s.lstrip(" ")
    return (0, int(n)) if n.isascii() and n.isdigit() and s == sym else None


def _oracle(d, text):
    """The value of text as sign-separated terms with spaces only around
    signs and '*', by splitting at the signs; None if it is not one."""
    pieces = re.split(r"( *[+-] *)", text)
    if pieces[0] == "" and len(pieces) > 1:
        pieces = pieces[1:]          # a leading sign
    else:
        pieces = ["+"] + pieces
    a = b = 0
    for sep, term in zip(pieces[::2], pieces[1::2]):
        value = _term_value(d, term)
        if value is None:
            return None
        sign = -1 if "-" in sep else 1
        a, b = a + sign * value[0], b + sign * value[1]
    return a, b


@pytest.mark.parametrize("d", DS)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([*"0123456789+-*iwt ", "t7"]), max_size=12).map("".join))
@example("+")
@example("-")
@example("1++2")
@example("1--w")
@example("2*")
@example("*w")
@example("1 2")
@example(" - 2 * w + 3")
def test_parse_accepts_only_terms(d, text):
    # only ValueError may escape, exactly on malformed text, and whatever
    # parses must survive render and parse again
    expected = _oracle(d, text)
    if expected is None:
        with pytest.raises(ValueError):
            parse(d, text)
        return
    x = parse(d, text)
    assert (x.a, x.b) == expected
    assert parse(d, render(x)) == x


def _float_bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DS),
       st.one_of(coeffs, st.integers(-2**1000, 2**1000)),
       st.one_of(coeffs, st.integers(-2**1000, 2**1000)))
@example(1, 0, -1)
@example(3, 2**1000 + 1, -(2**999) - 3)
@example(3, 2**53 + 1, -2)    # a + b*c1/2 in floats would round twice
def test_approx_matches_the_fraction_formula(d, a, b):
    x = QuadInt(d, a, b)
    # the formula through Fraction that approx used to evaluate
    old = complex(x.real_part()) + 1j * float(x.isqrtd_coeff()) * math.sqrt(d)
    assert _float_bits(x.approx()) == _float_bits(old)


def test_quadint_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError) as made:
        QuadInt(2, 1, 2)
    with pytest.raises(ValueError) as replaced:
        QuadInt(3, 1, 2)._replace(d=2)
    assert str(replaced.value) == str(made.value) == (
        "unsupported ring selector d=2; must be one of (1, 3, 7)")


def test_quadrat_replace_runs_the_constructor_checks():
    x = QuadRat(QuadInt(3, 1, 2), 3)
    with pytest.raises(ZeroDivisionError) as made:
        QuadRat(x.num, 0)
    with pytest.raises(ZeroDivisionError) as replaced:
        x._replace(den=0)
    assert str(replaced.value) == str(made.value) == "zero denominator"
    # a negative denominator moves its sign into the numerator, as in the constructor
    assert x._replace(den=-2) == QuadRat(x.num, -2) == QuadRat(-x.num, 2)

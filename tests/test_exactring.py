"""Ring axioms and text round-trips for the quadratic integer rings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    assert QuadInt.tau(1) ** 2 == QuadInt.of_int(1, -1)
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

"""Differential tests of the integer-tuple kernel and of the word
evaluator against the Mat/QuadRat reference: random words over the Picard
generators and their inverses, for d in {1, 3, 7}, must give the same
product, inverse, coefficient height, projective key and image of the
Heisenberg origin both ways, and Catalog.word_key must agree with the
canonical representative of Catalog.eval_word. The kernel's Siegel-form
check must agree with x* H x computed from the rows of the matrix."""

from functools import cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from picardhyb.catalog import get_catalog
from picardhyb.cxhyp import (
    BoundaryPoint, Mat, ball, boundary_action, canonical_rep, int_height,
    int_inv, int_is_unitary, int_key, int_mat, int_mul, int_origin_image,
)
from picardhyb.fpgroups import eval_word
from picardhyb.exactring import QuadInt, QuadRat, units

MAX_WORD = 8


@cache
def _moves(d: int) -> list[Mat]:
    gens = list(get_catalog(d).picard.values())
    return gens + [g.inverse() for g in gens]


def _eval(d: int, word: list[int]) -> Mat:
    moves = _moves(d)
    return reduce(lambda m, k: m * moves[k], word, Mat.identity(d))


def _int_eval(d: int, word: list[int]) -> tuple:
    moves = [int_mat(m) for m in _moves(d)]
    return reduce(lambda x, k: int_mul(d, x, moves[k]), word, int_mat(Mat.identity(d)))


@st.composite
def ring_and_words(draw, count: int = 1):
    d = draw(st.sampled_from((1, 3, 7)))
    n = len(_moves(d))
    words = [draw(st.lists(st.integers(0, n - 1), max_size=MAX_WORD))
             for _ in range(count)]
    return d, words


@settings(max_examples=60, deadline=None)
@given(ring_and_words(count=2))
def test_product_and_height_match_mat(case):
    d, (w1, w2) = case
    m1, m2 = _eval(d, w1), _eval(d, w2)
    x1 = _int_eval(d, w1)
    assert x1 == int_mat(m1)
    assert int_mul(d, int_mat(m1), int_mat(m2)) == int_mat(m1 * m2)
    assert int_height(x1) == m1.max_coeff_bits()


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
def test_inverse_matches_mat(case):
    d, (w,) = case
    m = _eval(d, w)
    assert int_inv(d, int_mat(m)) == int_mat(m.inverse())


@pytest.mark.parametrize("d", [1, 3, 7])
def test_inverse_rejects_non_unit_determinant(d):
    with pytest.raises(ValueError):
        int_inv(d, int_mat(Mat.identity(d).scale(2)))
    singular = Mat.from_entries(d, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        int_inv(d, int_mat(singular))


def _preserves_siegel_form(m: Mat) -> bool:
    """x* H x == H for the antidiagonal form H, from the rows of m."""
    r = m.rows
    for i in range(3):
        for j in range(3):
            entry = sum((r[k][i].conj() * r[2 - k][j] for k in range(3)), QuadRat.zero(m.d))
            if entry != QuadRat.of_fraction(m.d, int(i + j == 2)):
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(ring_and_words(), st.integers(0, 17), st.integers(-3, 3).filter(bool))
def test_unitary_check_matches_rows(case, index, delta):
    d, (w,) = case
    m = _eval(d, w)
    x = int_mat(m)
    assert int_is_unitary(d, x) and _preserves_siegel_form(m)
    # the same word with one coefficient changed
    y = x[:index] + (x[index] + delta,) + x[index + 1:]
    entries = [[QuadInt(d, *y[6 * i + 2 * j:6 * i + 2 * j + 2]) for j in range(3)]
               for i in range(3)]
    assert int_is_unitary(d, y) == _preserves_siegel_form(Mat.from_entries(d, entries))


@st.composite
def ring_and_env_text(draw):
    """A ring and the text of a random word over all env() names."""
    d = draw(st.sampled_from((1, 3, 7)))
    names = list(get_catalog(d).env())
    letters = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(("", "^-1"))),
                            max_size=MAX_WORD))
    return d, " ".join(n + e for n, e in letters)


@settings(max_examples=60, deadline=None)
@given(ring_and_env_text())
@example((1, ""))
@example((3, ""))
@example((7, ""))
def test_word_key_matches_canonical_rep(case):
    d, text = case
    cat = get_catalog(d)
    assert cat.word_key(text) == int_mat(canonical_rep(cat.eval_word(text)).rep)


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
@example((1, [[]]))
@example((3, [[]]))
@example((7, [[]]))
def test_eval_word_matches_reference(case):
    d, (w,) = case
    gens = list(get_catalog(d).picard.values())
    n = len(gens)
    # _moves lists the generators, then their inverses in the same order
    word = tuple(k + 1 if k < n else -(k - n + 1) for k in w)
    assert eval_word(word, gens, Mat.identity(d)) == _eval(d, w)


@settings(max_examples=60, deadline=None)
@given(ring_and_words(count=2), st.booleans(), st.data())
def test_key_equality_matches_canonical_rep(case, same, data):
    d, (w1, w2) = case
    m1 = _eval(d, w1)
    # half the pairs are unit multiples of each other, so both outcomes occur
    m2 = m1.scale(data.draw(st.sampled_from(units(d)))) if same else _eval(d, w2)
    k1, k2 = int_key(d, int_mat(m1)), int_key(d, int_mat(m2))
    assert (k1 == k2) == (canonical_rep(m1).key() == canonical_rep(m2).key())
    assert k1 == tuple(v for a, b, _den in canonical_rep(m1).key() for v in (a, b))


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
def test_origin_image_matches_boundary_action(case):
    d, (w,) = case
    m = _eval(d, w)
    assert int_origin_image(d, int_mat(m)) == boundary_action(m, BoundaryPoint.origin(d))


def test_origin_image_reaches_infinity():
    # I0 swaps the origin and the point at infinity
    m = get_catalog(1).picard["I0"]
    assert int_origin_image(1, int_mat(m)).at_infinity
    assert boundary_action(m, BoundaryPoint.origin(1)).at_infinity


def test_conversion_rejects_non_integral():
    half = QuadRat(QuadInt.one(3), 2)
    m = Mat.identity(3).scale(half)
    with pytest.raises(ValueError):
        int_mat(m)
    with pytest.raises(ValueError):
        int_mat(Mat.identity(3, 2))


@pytest.mark.parametrize("d", [1, 3, 7])
def test_ball_matches_mat_reference(d):
    mats = list(get_catalog(d).hybrid.values())
    moves = [m for g in mats for m in (g, g.inverse())]
    ident = Mat.identity(d)
    seen = {canonical_rep(ident).key()}
    reference = frontier = [ident]
    for _ in range(2):
        new = []
        for m in frontier:
            for g in moves:
                key = canonical_rep(m * g).key()
                if key not in seen:
                    seen.add(key)
                    new.append(m * g)
        reference = reference + new
        frontier = new
    assert ball(mats, 2) == [int_mat(m) for m in reference]

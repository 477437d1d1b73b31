"""Differential tests of the integer-tuple kernel and of the word
evaluator against the Mat/QuadRat reference: random words over the Picard
generators and their inverses, for d in {1, 3, 7}, must give the same
product, inverse, coefficient height, projective key and image of the
Heisenberg origin both ways, and Catalog.word_key must agree with the
canonical representative of Catalog.eval_word. int_key must be the least
unit multiple of any nonzero tuple. The kernel's Siegel-form
check must agree with x* H x computed from the rows of the matrix.
``ball`` must list exactly the elements of a plain breadth-first search
that forms every product, while forming fewer products itself."""

from functools import cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from picardhyb import cxhyp
from picardhyb.catalog import get_catalog
from picardhyb.cxhyp import (
    INT_ID, BoundaryPoint, Mat, ball, boundary_action, canonical_rep, int_height,
    int_inv, int_is_unitary, int_key, int_mat, int_mul, int_origin_image,
    int_origin_key,
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


@st.composite
def ring_and_tuple(draw):
    """A ring and a nonzero 18-int tuple whose first nonzero entry is
    preceded by 0 to 8 zero entries; small coefficients make the unit
    multiples of that entry tie often in their first coefficient."""
    d = draw(st.sampled_from((1, 3, 7)))
    zeros = draw(st.integers(0, 8))
    coeff = st.integers(-4, 4)
    lead = draw(st.tuples(coeff, coeff).filter(any))
    rest = draw(st.lists(coeff, min_size=16 - 2 * zeros, max_size=16 - 2 * zeros))
    return d, (0,) * (2 * zeros) + lead + tuple(rest)


def _least_unit_multiple(d: int, x: tuple) -> tuple:
    """The least of all unit multiples of the whole tuple, in QuadInt."""
    entries = [QuadInt(d, x[k], x[k + 1]) for k in range(0, 18, 2)]
    return min(tuple(v for e in entries for v in ((e * u).a, (e * u).b))
               for u in units(d))


@settings(max_examples=300, deadline=None)
@given(ring_and_tuple())
@example((7, (0,) * 17 + (1,)))
@example((1, (0,) * 16 + (3, -3)))
@example((3, (0,) * 4 + (-2, 2) + (1,) * 12))
def test_key_is_least_unit_multiple(case):
    d, x = case
    assert int_key(d, x) == _least_unit_multiple(d, x)


@pytest.mark.parametrize("d", [1, 3, 7])
def test_key_rejects_zero_matrix(d):
    with pytest.raises(ValueError, match="zero matrix"):
        int_key(d, (0,) * 18)


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
def test_origin_image_matches_boundary_action(case):
    d, (w,) = case
    m = _eval(d, w)
    assert int_origin_image(d, int_mat(m)) == boundary_action(m, BoundaryPoint.origin(d))


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
@example((1, [[0]]))    # I0: the origin goes to Infinity
def test_origin_key_matches_boundary_action(case):
    d, (w,) = case
    m = _eval(d, w)
    p = boundary_action(m, BoundaryPoint.origin(d))
    key = int_origin_key(d, int_mat(m))
    assert (key is None) == p.at_infinity
    assert p.at_infinity or key == p.key()


def test_origin_image_reaches_infinity():
    # I0 swaps the origin and the point at infinity
    m = get_catalog(1).picard["I0"]
    assert int_origin_key(1, int_mat(m)) is None
    assert int_origin_image(1, int_mat(m)).at_infinity
    assert boundary_action(m, BoundaryPoint.origin(1)).at_infinity


@pytest.mark.parametrize("d", [1, 3, 7])
def test_origin_image_off_the_boundary_raises(d):
    # the identity with entry (0, 2) set to 1 sends the origin's lift
    # (0, 0, 1) to (1, 0, 1), which is not a null vector of the form
    m = Mat.from_entries(d, ((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    x = int_mat(m)
    for image in (lambda: int_origin_key(d, x), lambda: int_origin_image(d, x),
                  lambda: boundary_action(m, BoundaryPoint.origin(d))):
        with pytest.raises(ValueError, match="image left the boundary"):
            image()


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


def _hybrids():
    """The generators of every hybrid the orbit verb can use."""
    for d in (1, 3, 7):
        cat = get_catalog(d)
        yield pytest.param(list(cat.hybrid.values()), id=f"{d}-plain")
        if cat.hybrid_primed:
            yield pytest.param(list({**cat.hybrid, **cat.hybrid_primed}.values()),
                               id=f"{d}-primed")


def _plain_bfs(gens: list[Mat], radius: int) -> list[tuple]:
    """Breadth-first ball over all 2k moves: every product is formed and
    looked up in one set of every key seen."""
    d = gens[0].d
    moves = [y for g in gens for y in (int_mat(g), int_inv(d, int_mat(g)))]
    seen = {int_key(d, INT_ID)}
    elements = frontier = [INT_ID]
    for _ in range(radius):
        new = []
        for x in frontier:
            for y in moves:
                xy = int_mul(d, x, y)
                key = int_key(d, xy)
                if key not in seen:
                    seen.add(key)
                    new.append(xy)
        elements = elements + new
        frontier = new
    return elements


@pytest.mark.parametrize("gens", _hybrids())
def test_ball_matches_plain_bfs(gens):
    for radius in range(5):
        assert ball(gens, radius) == _plain_bfs(gens, radius)


# products formed by ball at radius 4 over each plain hybrid; _plain_bfs
# forms 2,568, 3,432 and 7,872 (d = 1, 3, 7)
MAX_PRODUCTS_AT_RADIUS_4 = {1: 2248, 3: 2003, 7: 5905}


@pytest.mark.parametrize("d", [1, 3, 7])
def test_ball_skips_known_repeats(d, monkeypatch):
    count = 0

    def counting_mul(*args):
        nonlocal count
        count += 1
        return int_mul(*args)

    gens = list(get_catalog(d).hybrid.values())
    monkeypatch.setattr(cxhyp, "int_mul", counting_mul)
    ball(gens, 4)
    assert count <= MAX_PRODUCTS_AT_RADIUS_4[d]


def test_ball_rejects_no_generators():
    with pytest.raises(ValueError, match="generator list is empty"):
        ball([], 2)

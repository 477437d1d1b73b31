"""Differential tests of the integer-tuple kernel and of the word
evaluator against the Mat/QuadRat reference: random words over the Picard
generators and their inverses, for d in {1, 3, 7}, must give the same
product, inverse, coefficient height, projective key and image of the
Heisenberg origin both ways, the origin key of a matrix times a column
must be that of the product, and Catalog.word_key must agree with the
canonical representative of Catalog.eval_word. int_key must be the least
unit multiple of any nonzero tuple. The kernel's Siegel-form
check must agree with x* H x computed from the rows of the matrix.
The move table must invert each generator once, and a non-unit
determinant must raise on every call of the memoized inverse.
The ball that ``_spheres`` walks over the move table (``ball`` here) must
list exactly the elements of a plain breadth-first search that forms every
product, as their keys, while forming fewer products itself, and every
state of its spheres must be a key. Over the radius-3 balls, ``classify``
must put every element of finite projective order in a finite-order class,
and give every ellipto-parabolic element a unipotent power.
``orbit_points`` must give the origin images of that ball while forming full
products in its last sphere only for images at Infinity, and skipping the
columns and keys of products by moves that fix the origin; it rejects a
negative radius and an empty generator list. ``key_rows``
must render the floats of ``BoundaryPoint.approx`` bit for bit, in any
order of the keys."""

import random
from functools import cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from picardhyb import cxhyp
from picardhyb.catalog import get_catalog
from picardhyb.cxhyp import (
    E3, INT_ID, BoundaryPoint, Mat, boundary_action, canonical_rep, classify, int_height,
    int_inv, int_is_unitary, int_key, int_mat, int_mul,
    _move_table, _qmul, int_origin_key, key_rows, orbit_points, projective_order,
)
from picardhyb.fpgroups import eval_word
from picardhyb.exactring import _TAU_SQ, UNITS, QuadInt, QuadRat, units

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
    singular = Mat.from_entries(d, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    # int_inv is memoized, and must not remember a failure as a result
    for m in (Mat.identity(d).scale(2), Mat.identity(d).scale(2), singular, singular):
        with pytest.raises(ValueError):
            int_inv(d, int_mat(m))


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 3, 7)), st.integers(0, 8),
       st.lists(st.integers(-2**70, 2**70), min_size=18, max_size=18))
def test_key_is_least_unit_multiple_entrywise(d, zeros, entries):
    # any size of coefficient, and a reference that multiplies each entry
    # by each unit with the pair product of the kernel
    x = tuple([0] * 2 * zeros + entries[2 * zeros:])
    if not any(x):
        return
    c0, c1 = _TAU_SQ[d]
    assert int_key(d, x) == min(
        tuple(v for k in range(0, 18, 2) for v in _qmul(c0, c1, u, x[k:k + 2]))
        for u in UNITS[d])


@pytest.mark.parametrize("d", [1, 3, 7])
def test_key_rejects_zero_matrix(d):
    with pytest.raises(ValueError, match="zero matrix"):
        int_key(d, (0,) * 18)


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
def test_origin_image_matches_boundary_action(case):
    # the point orbit rebuilds from the key is the reference image
    d, (w,) = case
    m = _eval(d, w)
    p = boundary_action(m, BoundaryPoint.origin(d))
    key = int_origin_key(d, int_mat(m), E3)
    assert p == (BoundaryPoint.infinity(d) if key is None else BoundaryPoint.from_key(d, key))


@settings(max_examples=60, deadline=None)
@given(ring_and_words())
@example((1, [[0]]))    # I0: the origin goes to Infinity
def test_origin_key_matches_boundary_action(case):
    d, (w,) = case
    m = _eval(d, w)
    p = boundary_action(m, BoundaryPoint.origin(d))
    key = int_origin_key(d, int_mat(m), E3)
    assert (key is None) == p.at_infinity
    assert p.at_infinity or key == p.key()


def test_origin_image_reaches_infinity():
    # I0 swaps the origin and the point at infinity
    m = get_catalog(1).picard["I0"]
    assert int_origin_key(1, int_mat(m), E3) is None
    assert boundary_action(m, BoundaryPoint.origin(1)).at_infinity


@pytest.mark.parametrize("d", [1, 3, 7])
def test_origin_image_off_the_boundary_raises(d):
    # the identity with entry (0, 2) set to 1 sends the origin's lift
    # (0, 0, 1) to (1, 0, 1), which is not a null vector of the form
    m = Mat.from_entries(d, ((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    x = int_mat(m)
    for image in (lambda: int_origin_key(d, x, E3),
                  lambda: boundary_action(m, BoundaryPoint.origin(d))):
        with pytest.raises(ValueError, match="image left the boundary"):
            image()


def _origin_image(image):
    """The key image() returns, None for Infinity, or "off" if it raises the
    off-boundary ValueError."""
    try:
        p = image()
    except ValueError as e:
        assert str(e) == "image left the boundary"
        return "off"
    if isinstance(p, BoundaryPoint):
        return None if p.at_infinity else p.key()
    return p


@pytest.mark.parametrize("d", [1, 3, 7])
def test_origin_key_of_a_column_matches_the_product(d):
    # x times the third column of g, against the key of the product x*g
    # and the Mat reference; the last g is off the boundary: it sends the
    # origin's lift (0, 0, 1) to (1, 0, 1), which is not a null vector
    off = Mat.from_entries(d, ((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    rng = random.Random(d)
    outcomes = set()
    for length in [0, 1] + [rng.randint(2, MAX_WORD) for _ in range(10)]:
        m = _eval(d, [rng.randrange(len(_moves(d))) for _ in range(length)])
        x = int_mat(m)
        for g in (*_moves(d), off):
            y = int_mat(g)
            key = _origin_image(lambda: int_origin_key(d, x, y[4:6] + y[10:12] + y[16:]))
            assert key == _origin_image(lambda: int_origin_key(d, int_mul(d, x, y), E3))
            assert key == _origin_image(lambda: boundary_action(m * g, BoundaryPoint.origin(d)))
            outcomes.add(key if key in (None, "off") else "finite")
    assert outcomes == {"finite", None, "off"}


def test_conversion_rejects_non_integral():
    half = QuadRat(QuadInt.one(3), 2)
    m = Mat.identity(3).scale(half)
    with pytest.raises(ValueError):
        int_mat(m)
    with pytest.raises(ValueError):
        int_mat(Mat.identity(3, 2))


def ball(d: int, gens: list[tuple], radius: int) -> list[tuple]:
    """The keys of the ball of that radius over gens, in the order _spheres walks it."""
    moves, undo, _letters = _move_table(d, gens)
    return [m for sphere in cxhyp._spheres(d, moves, undo, {}, radius) for m, _k in sphere]


@pytest.mark.parametrize("d", [1, 3, 7])
def test_ball_matches_mat_reference(d):
    cat = get_catalog(d)
    env = cat.env()
    mats = [env[n] for n in cat.hybrid]
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
    assert ball(d, [int_mat(m) for m in mats], 2) == [int_key(d, int_mat(m)) for m in reference]


def _hybrids():
    """The ring and the kernel generators of every hybrid the orbit verb
    can use."""
    for d in (1, 3, 7):
        cat = get_catalog(d)
        yield pytest.param(d, [cat.int_env[n] for n in cat.hybrid], id=f"{d}-plain")
        if cat.hybrid_primed:
            yield pytest.param(d, [cat.int_env[n] for n in (*cat.hybrid, *cat.hybrid_primed)],
                               id=f"{d}-primed")


def _plain_bfs(d: int, gens: list[tuple], radius: int) -> list[tuple]:
    """Breadth-first ball over all 2k moves: every product is formed and
    looked up in one set of every key seen. Returns the key of each element."""
    moves = [y for g in gens for y in (g, int_inv(d, g))]
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
    return [int_key(d, x) for x in elements]


def _generator_sets():
    """The ring and the kernel generators of each catalog's Picard and
    hybrid generators."""
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for pool in ("picard", "hybrid"):
            yield pytest.param(d, [cat.int_env[n] for n in getattr(cat, pool)],
                               id=f"{d}-{pool}")


@pytest.mark.parametrize("d,gens", _generator_sets())
def test_move_table_inverts_each_generator_once(d, gens, monkeypatch):
    calls = 0
    cofactors = cxhyp._cofactors

    def counting(*args):
        nonlocal calls
        calls += 1
        return cofactors(*args)

    monkeypatch.setattr(cxhyp, "_cofactors", counting)
    int_inv.cache_clear()
    moves, undo, _letters = _move_table(d, gens)
    assert calls == len(gens)
    for m, k in zip(moves, undo):
        assert int_key(d, moves[k]) == int_key(d, int_inv(d, m))


@pytest.mark.parametrize("d,gens", _hybrids())
def test_ball_matches_plain_bfs(d, gens):
    for radius in range(5):
        assert ball(d, gens, radius) == _plain_bfs(d, gens, radius)


# products formed by ball at radius 4 over each plain hybrid; _plain_bfs
# forms 2,568, 3,432 and 7,872 (d = 1, 3, 7)
MAX_PRODUCTS_AT_RADIUS_4 = {1: 2248, 3: 2003, 7: 5905}


# int_origin_key calls of orbit_points at radius 4 over each hybrid of
# _hybrids(); forming the key of every product of the last sphere, and of
# every inner element, gave 2155, 4240, 1910, 3088 and 5768
ORBIT_CALLS_AT_RADIUS_4 = {"1-plain": 1617, "1-primed": 2852, "3-plain": 1192,
                           "3-primed": 2159, "7-plain": 4053}


@pytest.mark.parametrize("d", [1, 3, 7])
def test_ball_skips_known_repeats(d, monkeypatch):
    count = 0

    def counting_mul(*args):
        nonlocal count
        count += 1
        return int_mul(*args)

    cat = get_catalog(d)
    gens = [cat.int_env[n] for n in cat.hybrid]
    monkeypatch.setattr(cxhyp, "int_mul", counting_mul)
    ball(d, gens, 4)
    assert count <= MAX_PRODUCTS_AT_RADIUS_4[d]


@pytest.mark.parametrize("d,gens", _hybrids())
def test_ball_states_are_keys(d, gens):
    moves, undo, _letters = _move_table(d, gens)
    for sphere in cxhyp._spheres(d, moves, undo, {}, 3):
        assert all(int_key(d, m) == m for m, _k in sphere)


# the classes of classify; those of the first three hold the elements of
# finite projective order
CLASSES = ("regular-elliptic", "complex-reflection", "identity", "loxodromic",
           "unipotent-2-step", "unipotent-3-step", "ellipto-parabolic")


@pytest.mark.parametrize("d", [1, 3, 7])
def test_classify_over_the_ball(d):
    # the radius-3 balls of the Picard and of the hybrid generators. The
    # classes partition the elements, so a finite order up to 24 puts an
    # element in the first three, and none of the last four has one
    cat = get_catalog(d)
    kinds = set()
    for names in (cat.picard, cat.hybrid):
        for x in ball(d, [cat.int_env[n] for n in names], 3):
            kind = classify(d, x)
            assert CLASSES.index(kind) < 3 or projective_order(d, x, 24) is None
            kinds.add(kind)
            if kind == "ellipto-parabolic":     # its parabolic part is a unipotent power
                powers = [x]
                while len(powers) < 6:
                    powers.append(int_mul(d, powers[-1], x))
                assert any(classify(d, y).startswith("unipotent-") for y in powers[1:])
    # every class but unipotent-3-step occurs for each d, so no invariant is vacuous
    assert kinds | {"unipotent-3-step"} == set(CLASSES)


def test_ball_rejects_no_generators():
    with pytest.raises(ValueError, match="generator list is empty"):
        orbit_points(1, [], 2)


@pytest.mark.parametrize("f", [orbit_points])
def test_ball_and_orbit_reject_a_negative_radius(f):
    cat = get_catalog(3)
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        f(3, [cat.int_env[n] for n in cat.hybrid], -1)


def _reference_orbit(d: int, gens: list[tuple], radius: int) -> tuple[set, int]:
    keys = [int_origin_key(d, x, E3) for x in ball(d, gens, radius)]
    return set(keys) - {None}, keys.count(None)


@pytest.mark.parametrize("d,gens", _hybrids())
def test_orbit_points_match_ball(d, gens):
    for radius in range(5):
        assert orbit_points(d, gens, radius) == _reference_orbit(d, gens, radius)


@pytest.mark.parametrize("d,gens", _hybrids())
def test_orbit_points_multiply_out_only_images_at_infinity(d, gens, monkeypatch):
    radius = 4
    new_at_infinity = (_reference_orbit(d, gens, radius)[1]
                       - _reference_orbit(d, gens, radius - 1)[1])
    products = []

    def recording_mul(*args):
        products.append(int_mul(*args))
        return products[-1]

    monkeypatch.setattr(cxhyp, "int_mul", recording_mul)
    ball(d, gens, radius - 1)
    inner = len(products)
    ball(d, gens, radius)
    full = len(products) - inner
    del products[:]
    orbit_points(d, gens, radius)
    last = products[inner:]
    # the first radius - 1 spheres are formed as ball forms them; in the
    # last one, a product is formed only when the origin goes to Infinity,
    # and at least once for each element of the last sphere that sends it there
    assert len(products) < full
    assert all(int_origin_key(d, x, E3) is None for x in last)
    assert len(last) >= new_at_infinity


@pytest.mark.parametrize("d,gens", _hybrids())
def test_orbit_points_skip_moves_that_fix_the_origin(d, gens, request, monkeypatch):
    calls = 0
    origin_key = cxhyp.int_origin_key

    def counting(*args):
        nonlocal calls
        calls += 1
        return origin_key(*args)

    monkeypatch.setattr(cxhyp, "int_origin_key", counting)
    orbit_points(d, gens, 4)
    assert calls == ORBIT_CALLS_AT_RADIUS_4[request.node.callspec.id]


@pytest.mark.parametrize("d,variant,radius", [(1, "plain", 3), (1, "primed", 3),
                                               (3, "plain", 3), (3, "primed", 3),
                                               (7, "plain", 4)])
def test_key_rows_match_boundary_point(d, variant, radius):
    cat = get_catalog(d)
    names = cat.hybrid + (cat.hybrid_primed if variant == "primed" else ())
    keys = sorted(orbit_points(d, [cat.int_env[n] for n in names], radius)[0])
    # rows with z = 0: the origin and some of its vertical translates
    assert (0, 0, 1, 0, 1) in keys and sum(k[:2] == (0, 0) for k in keys) > 1
    shuffled = random.Random(0).sample(keys, len(keys))
    for order in (keys, shuffled):
        expected = []
        for key in order:
            z, t = BoundaryPoint.from_key(d, key).approx()
            expected.append("%.15g,%.15g,%.15g" % (z.real, z.imag, t))
        assert list(key_rows(d, order)) == expected

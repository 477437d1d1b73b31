"""Bidirectional word search: recovery of known words, minimality against a
plain breadth-first search, honest exhaustion reporting, results pinned for
every catalog element, a bound on the products one search forms, and the
height bound that lets a search skip reading heights."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import picardhyb
from picardhyb import cxhyp, search
from picardhyb.catalog import get_catalog
from picardhyb.cxhyp import (
    INT_ID, Mat, _move_table, _step, int_height, int_inv, int_key, int_mat, int_mul, int_word,
    proj_eq,
)
from picardhyb.search import LETTER_BITS, find_word
from picardhyb.fpgroups import eval_word, format_word, free_reduce


def _kernel(cat, names):
    return [cat.int_env[n] for n in names]


def test_find_u1_as_q_squared():
    cat = get_catalog(3)
    env = cat.env()
    gens = [env[n] for n in ("P", "Q", "R")]
    res = find_word(3, cat.int_env["U1"], _kernel(cat, ("P", "Q", "R")), max_depth=3)
    assert res.found
    assert res.word == (2, 2)  # Q^2
    assert proj_eq(eval_word(res.word, gens, Mat.identity(3)), env["U1"])


def test_find_e1_within_depth_12():
    cat = get_catalog(3)
    env = cat.env()
    gens = [env[n] for n in ("P", "Q", "R")]
    res = find_word(3, cat.int_env["E1"], _kernel(cat, ("P", "Q", "R")), max_depth=12)
    assert res.found and len(res.word) <= 12
    assert proj_eq(eval_word(res.word, gens, Mat.identity(3)), env["E1"])


def test_search_result_is_shortest_on_cyclic_example():
    # single parabolic generator: the only word for g^4 has length 4
    cat = get_catalog(1)
    t = cat.picard["T"]
    res = find_word(1, int_mat(t * t * t * t), [int_mat(t)], max_depth=8)
    assert res.found and res.word == (1, 1, 1, 1)


def test_identity_target():
    gens = [get_catalog(3).int_env["P"]]
    res = find_word(3, int_mat(Mat.identity(3, 3)), gens, max_depth=4)
    assert res.found and res.word == ()


def test_exhaustion_reports_not_found():
    cat = get_catalog(3)
    gens = [cat.int_env["Q"]]  # Q has order 2; E1 is not a power of it
    res = find_word(3, cat.int_env["E1"], gens, max_depth=6)
    assert not res.found
    assert res.depth_searched >= 1


def test_primed_d1_words_recovered():
    cat = get_catalog(1)
    names = ["E1", "U1", "E2", "U2"]
    res = find_word(1, cat.int_env["R1"], _kernel(cat, names), max_depth=6)
    assert res.found
    assert format_word(res.word, names) == "E2^-1 E1^-2"


def test_search_ends_when_every_state_under_the_height_cap_is_known():
    # at 2 bits the d=3 hybrid generators reach no new class after 16
    # letters, so both frontiers empty and a deeper bound changes nothing
    cat = get_catalog(3)
    gens = _kernel(cat, cat.hybrid)
    for depth in (16, 40):
        assert find_word(3, cat.int_env["R"], gens, max_depth=depth,
                         max_coeff_bits=2) == (None, 16, True)


def test_unsound_word_raises_under_optimize():
    # python -O strips assert statements: the re-check must not be one
    script = (
        "from picardhyb import search\n"
        "from picardhyb.catalog import get_catalog\n"
        "search.int_word = lambda d, w, gens: search.INT_ID\n"
        "env = get_catalog(3).int_env\n"
        "try:\n"
        "    search.find_word(3, env['U1'], [env[n] for n in ('P', 'Q', 'R')],\n"
        "                     max_depth=3)\n"
        "except RuntimeError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('returned')\n")
    src = str(Path(picardhyb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: search returned an unsound word\n"


@pytest.mark.parametrize("bounds, got", (({"max_depth": -1}, "-1 and 512"),
                                         ({"max_coeff_bits": 0}, "10 and 0")),
                         ids=("max_depth", "max_coeff_bits"))
def test_find_word_rejects_bounds_out_of_range(bounds, got):
    gens = [get_catalog(3).int_env["P"]]
    message = f"max_depth must be at least 0 and max_coeff_bits at least 1, got {got}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_word(3, int_mat(Mat.identity(3, 3)), gens, **bounds)


def _bfs_length(target: Mat, gens: list[Mat], depth: int) -> int | None:
    """Length of a shortest word for target by a plain forward breadth-first
    search on the kernel, None beyond depth."""
    d = target.d
    moves = [int_mat(g) for g in gens]
    moves += [int_inv(d, m) for m in moves]
    goal = int_key(d, int_mat(target))
    layer, seen = [INT_ID], {int_key(d, INT_ID)}
    for n in range(depth):
        if goal in seen:
            return n
        nxt = []
        for m in layer:
            for g in moves:
                x = int_mul(d, m, g)
                key = int_key(d, x)
                if key not in seen:
                    seen.add(key)
                    nxt.append(x)
        layer = nxt
    return depth if goal in seen else None


@pytest.mark.parametrize("seed", range(4))
def test_find_word_is_as_short_as_breadth_first_search(seed):
    rng = random.Random(seed)
    for _ in range(60):
        d = rng.choice((1, 3, 7))
        cat = get_catalog(d)
        pool = cat.picard if rng.random() < 0.5 else cat.hybrid
        gens = [pool[n] for n in rng.sample(sorted(pool), rng.randint(1, min(3, len(pool))))]
        if rng.random() < 0.2:
            target = rng.choice(list(cat.env().values()))
        else:
            target = Mat.identity(d, 3)
            for _ in range(rng.randint(0, 7)):
                g = rng.choice(gens)
                target = target * (g if rng.random() < 0.5 else g.inverse())
        depth = rng.randint(0, 5)
        res = find_word(d, int_mat(target), [int_mat(g) for g in gens], max_depth=depth)
        want = _bfs_length(target, gens, depth)
        assert not res.pruned_by_height
        assert res.found == (want is not None)
        if res.found:
            assert len(res.word) == want
            assert proj_eq(eval_word(res.word, gens, Mat.identity(d)), target)


# find_word(d, target, generators, max_depth=7, max_coeff_bits=bits) for every
# catalog element over the Picard and over the plain hybrid generators, as
# (word, depth_searched, pruned_by_height) for bits 3, 6 and 512
PINNED_AT_DEPTH_7 = {
    (1, "picard", "I0"): (((1,), 1, False), ((1,), 1, False), ((1,), 1, False)),
    (1, "picard", "Q"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (1, "picard", "T"): (((3,), 1, False), ((3,), 1, False), ((3,), 1, False)),
    (1, "picard", "E1"): ((None, 7, False), (None, 7, False), (None, 7, False)),
    (1, "picard", "U1"): (((3,), 1, False), ((3,), 1, False), ((3,), 1, False)),
    (1, "picard", "E2"): ((None, 7, False), (None, 7, False), (None, 7, False)),
    (1, "picard", "U2"): (((1, 3, 1), 3, False), ((1, 3, 1), 3, False), ((1, 3, 1), 3, False)),
    (1, "picard", "R1"): (
        ((-3, 1, -3, 2, 1, 2), 6, False),
        ((-3, 1, -3, 2, 1, 2), 6, False),
        ((-3, 1, -3, 2, 1, 2), 6, False),
    ),
    (1, "picard", "R2"): (
        ((1, -3, 1, -3, 1, 2), 6, False),
        ((1, -3, 1, -3, 1, 2), 6, False),
        ((1, -3, 1, -3, 1, 2), 6, False),
    ),
    (1, "hybrid", "I0"): ((None, 7, True), (None, 7, False), (None, 7, False)),
    (1, "hybrid", "Q"): ((None, 7, True), (None, 7, False), (None, 7, False)),
    (1, "hybrid", "T"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (1, "hybrid", "E1"): (((1,), 1, False), ((1,), 1, False), ((1,), 1, False)),
    (1, "hybrid", "U1"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (1, "hybrid", "E2"): (((3,), 1, False), ((3,), 1, False), ((3,), 1, False)),
    (1, "hybrid", "U2"): (((4,), 1, False), ((4,), 1, False), ((4,), 1, False)),
    (1, "hybrid", "R1"): (
        ((-3, -1, -1), 3, False),
        ((-3, -1, -1), 3, False),
        ((-3, -1, -1), 3, False),
    ),
    (1, "hybrid", "R2"): (
        ((-3, -3, -1), 3, False),
        ((-3, -3, -1), 3, False),
        ((-3, -3, -1), 3, False),
    ),
    (3, "picard", "P"): (((1,), 1, False), ((1,), 1, False), ((1,), 1, False)),
    (3, "picard", "Q"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (3, "picard", "R"): (((3,), 1, False), ((3,), 1, False), ((3,), 1, False)),
    (3, "picard", "E1"): (
        ((2, 3, 2, 2, 3, 2), 6, False),
        ((2, 3, 2, 2, 3, 2), 6, False),
        ((2, 3, 2, 2, 3, 2), 6, False),
    ),
    (3, "picard", "U1"): (((2, 2), 2, False), ((2, 2), 2, False), ((2, 2), 2, False)),
    (3, "picard", "E2"): (
        ((-2, 3, -2, -2, 3, -2), 6, False),
        ((-2, 3, -2, -2, 3, -2), 6, False),
        ((-2, 3, -2, -2, 3, -2), 6, False),
    ),
    (3, "picard", "U2"): (
        ((3, 2, 2, 3), 4, False),
        ((3, 2, 2, 3), 4, False),
        ((3, 2, 2, 3), 4, False),
    ),
    (3, "picard", "I1"): (
        ((-2, 1, -2, 1, -2, 1), 6, False),
        ((-2, 1, -2, 1, -2, 1), 6, False),
        ((-2, 1, -2, 1, -2, 1), 6, False),
    ),
    (3, "picard", "I2"): ((None, 7, False), (None, 7, False), (None, 7, False)),
    (3, "picard", "E1p"): (((2, 3, 2), 3, False), ((2, 3, 2), 3, False), ((2, 3, 2), 3, False)),
    (3, "hybrid", "P"): ((None, 7, True), (None, 7, False), (None, 7, False)),
    (3, "hybrid", "Q"): ((None, 7, True), (None, 7, False), (None, 7, False)),
    (3, "hybrid", "R"): ((None, 7, True), (None, 7, False), (None, 7, False)),
    (3, "hybrid", "E1"): (((1,), 1, False), ((1,), 1, False), ((1,), 1, False)),
    (3, "hybrid", "U1"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (3, "hybrid", "E2"): (((-1,), 1, False), ((-1,), 1, False), ((-1,), 1, False)),
    (3, "hybrid", "U2"): (((4,), 1, False), ((4,), 1, False), ((4,), 1, False)),
    (3, "hybrid", "I1"): (((5,), 1, False), ((5,), 1, False), ((5,), 1, False)),
    (3, "hybrid", "I2"): (((6,), 1, False), ((6,), 1, False), ((6,), 1, False)),
    (3, "hybrid", "E1p"): (((-1, 5, 6), 3, False), ((-1, 5, 6), 3, False), ((-1, 5, 6), 3, False)),
    (7, "picard", "T1"): (((1,), 1, False), ((1,), 1, False), ((1,), 1, False)),
    (7, "picard", "R"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (7, "picard", "I"): (((3,), 1, False), ((3,), 1, False), ((3,), 1, False)),
    (7, "picard", "U1"): (
        ((1, 2, 1, 2), 4, False),
        ((1, 2, 1, 2), 4, False),
        ((1, 2, 1, 2), 4, False),
    ),
    (7, "picard", "U2"): (
        ((2, 3, 1, 2, 1, 3), 6, True),
        ((2, 3, 1, 2, 1, 3), 6, False),
        ((2, 3, 1, 2, 1, 3), 6, False),
    ),
    (7, "picard", "A1"): (
        ((1, 3, 1, 2), 4, True),
        ((1, 3, 1, 2), 4, False),
        ((1, 3, 1, 2), 4, False),
    ),
    (7, "picard", "A2"): (
        ((3, 1, 3, 1, 3, 2), 6, True),
        ((3, 1, 3, 1, 3, 2), 6, False),
        ((3, 1, 3, 1, 3, 2), 6, False),
    ),
    (7, "picard", "B1"): (
        ((3, 1, 2, -1, 3), 5, False),
        ((3, 1, 2, -1, 3), 5, False),
        ((3, 1, 2, -1, 3), 5, False),
    ),
    (7, "picard", "B2"): (((1, 2, -1), 3, False), ((1, 2, -1), 3, False), ((1, 2, -1), 3, False)),
    (7, "hybrid", "T1"): (
        ((4, 6, 4, -3, 5, -4), 6, True),
        ((4, 6, 4, -3, 5, -4), 6, False),
        ((4, 6, 4, -3, 5, -4), 6, False),
    ),
    (7, "hybrid", "R"): ((None, 7, True), (None, 7, True), (None, 7, False)),
    (7, "hybrid", "I"): ((None, 7, True), (None, 7, True), (None, 7, False)),
    (7, "hybrid", "U1"): (((1,), 1, False), ((1,), 1, False), ((1,), 1, False)),
    (7, "hybrid", "U2"): (((2,), 1, False), ((2,), 1, False), ((2,), 1, False)),
    (7, "hybrid", "A1"): (((3,), 1, False), ((3,), 1, False), ((3,), 1, False)),
    (7, "hybrid", "A2"): (((4,), 1, False), ((4,), 1, False), ((4,), 1, False)),
    (7, "hybrid", "B1"): (((5,), 1, False), ((5,), 1, False), ((5,), 1, False)),
    (7, "hybrid", "B2"): (((6,), 1, False), ((6,), 1, False), ((6,), 1, False)),
}


@pytest.mark.parametrize("d", [1, 3, 7])
def test_find_word_matches_pinned_results(d):
    cat = get_catalog(d)
    got = {}
    for pool in ("picard", "hybrid"):
        gens = _kernel(cat, getattr(cat, pool))
        for name, target in cat.int_env.items():
            got[d, pool, name] = tuple(
                tuple(find_word(d, target, gens, max_depth=7, max_coeff_bits=bits))
                for bits in (3, 6, 512))
    assert got == {k: v for k, v in PINNED_AT_DEPTH_7.items() if k[0] == d}


def test_find_word_forms_no_product_of_a_known_class(monkeypatch):
    # one move per projective class, no product back to the parent and no
    # known key expanded again: 552 products (cxhyp._step's, plus one per
    # letter to read back the words of the meeting key), where a search over
    # every generator and inverse that re-expands known keys forms 1,072;
    # the re-check of the found word in cxhyp.int_word forms one per letter,
    # which is not counted
    count = 0

    def counting_mul(*args):
        nonlocal count
        count += 1
        return int_mul(*args)

    cat = get_catalog(1)
    monkeypatch.setattr(cxhyp, "int_mul", counting_mul)
    monkeypatch.setattr(search, "int_mul", counting_mul)
    res = find_word(1, cat.int_env["E1"], _kernel(cat, cat.picard), max_depth=12)
    assert res.found
    assert count - len(res.word) <= 560


def test_last_step_stores_only_keys_that_meet(monkeypatch):
    # pinned (None, 7, False): the last step finds no meet, so it adds no
    # key to its side's table
    added = []

    def recording_step(d, frontier, mats, undo, order, seen, keep=None):
        before = len(seen)
        new = _step(d, frontier, mats, undo, order, seen, keep)
        added.append(len(seen) - before)
        return new

    cat = get_catalog(1)
    monkeypatch.setattr(search, "_step", recording_step)
    res = find_word(1, cat.int_env["E1"], _kernel(cat, cat.picard), max_depth=7)
    assert res == (None, 7, False)
    assert len(added) == 7 and all(added[:-1]) and added[-1] == 0


def _reference_find_word(d, target, gens, max_depth, max_coeff_bits):
    """The word-storing search that find_word replaced: each state carries
    its word, each frontier is sorted by word, and the met keys of the last
    expansion are kept in a set of their own."""
    moves, undo, letters = _move_table(d, gens)
    steps = (list(zip(letters, moves)), [(g, moves[j]) for g, j in zip(letters, undo)])
    target_key = int_key(d, target)
    ident_key = int_key(d, INT_ID)
    if ident_key == target_key:
        return search.SearchResult((), 0, False)
    starts = (int_height(ident_key), int_height(target_key))
    letter_bits = max(map(int_height, moves)) + LETTER_BITS
    tables = ({ident_key: ()}, {target_key: ()})
    frontiers = [[((), ident_key, -1)], [((), target_key, -1)]]
    depths = [0, 0]
    pruned = False
    while depths[0] + depths[1] < max_depth and (frontiers[0] or frontiers[1]):
        side = 0 if (depths[0] <= depths[1] and frontiers[0]) or not frontiers[1] else 1
        mine, theirs = tables[side], tables[1 - side]
        last = depths[0] + depths[1] + 1 == max_depth
        capped = starts[side] + (depths[side] + 1) * letter_bits > max_coeff_bits
        new, meets, met = [], [], set()
        for w, m, skip in sorted(frontiers[side]):
            for k, (g, gm) in enumerate(steps[side]):
                if k == skip:
                    continue
                key = int_key(d, int_mul(d, m, gm))
                if key in mine or key in met:
                    continue
                if capped and int_height(key) > max_coeff_bits:
                    pruned = True
                    continue
                word = (g,) + w if side else w + (g,)
                if key in theirs:
                    met.add(key)
                    joined = free_reduce(theirs[key] + word if side else word + theirs[key])
                    meets.append((len(joined), joined))
                if not last:
                    mine[key] = word
                    new.append((word, key, undo[k]))
        depths[side] += 1
        frontiers[side] = new
        if meets:
            return search.SearchResult(min(meets)[1], depths[0] + depths[1], pruned)
    return search.SearchResult(None, depths[0] + depths[1], pruned)


def _assert_matches_reference(d, names, word, max_depth, max_coeff_bits):
    cat = get_catalog(d)
    gens = _kernel(cat, names)
    target = int_word(d, word, gens)
    assert find_word(d, target, gens, max_depth=max_depth, max_coeff_bits=max_coeff_bits) \
        == _reference_find_word(d, target, gens, max_depth, max_coeff_bits)


@pytest.mark.parametrize("seed", range(3))
def test_find_word_matches_the_word_storing_search(seed):
    rng = random.Random(seed)
    for _ in range(100):
        d = rng.choice((1, 3, 7))
        cat = get_catalog(d)
        pool = cat.picard if rng.random() < 0.5 else cat.hybrid
        names = rng.sample(sorted(pool), rng.randint(1, min(3, len(pool))))
        letters = [g for i in range(1, len(names) + 1) for g in (i, -i)]
        word = [rng.choice(letters) for _ in range(rng.randint(0, 9))]
        _assert_matches_reference(d, names, word, rng.randint(0, 10),
                                  rng.choice((3, 4, 5, 6, 8, 512)))


# two of 3,000 random cases, the only ones among them whose word changes
# when side 1's new states are not sorted by first letter
@pytest.mark.parametrize("case", [
    (1, ("U1", "E2", "U2", "E1"), (-3, -1, 3, 1, -4, 1, 3, -2, 4), 6, 6),
    (7, ("B2", "A1", "U1", "U2", "B1", "A2"), (1, -4, 5, -6, 4, 6), 7, 512),
])
def test_find_word_breaks_ties_as_the_word_storing_search(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("d", [1, 3])
def test_find_word_reads_heights_only_for_its_bound(d, monkeypatch):
    # no key of a depth-12 search can reach the 512-bit cap, so the search
    # reads the heights of its two start keys and of its moves only
    heights = []

    def counting_height(x):
        heights.append(x)
        return int_height(x)

    cat = get_catalog(d)
    gens = _kernel(cat, cat.picard)
    monkeypatch.setattr(search, "int_height", counting_height)
    assert find_word(d, cat.int_env["E1"], gens, max_depth=12).found
    assert len(heights) == 2 + len(_move_table(d, gens)[0])


@st.composite
def ring_and_two_matrices(draw):
    """A ring and two integer tuples, each with coefficients of at most h
    bits for its own h, often the extremes +-(2^h - 1)."""
    def matrix():
        top = 2 ** draw(st.integers(1, 40)) - 1
        coefficient = st.one_of(st.sampled_from((top, -top)), st.integers(-top, top))
        return tuple(draw(coefficient) for _ in range(18))
    return draw(st.sampled_from((1, 3, 7))), matrix(), matrix()


_M = 2 ** 8 - 1


@settings(max_examples=300, deadline=None)
@given(ring_and_two_matrices())
# d=7, where tau^2 = tau - 2: each entry's first coefficient is
# 3 * (M + 2 * M * M) = 9 M^2, which has 8 + 8 + 4 bits
@example((7, (_M,) * 18, (_M, -_M) * 9))
def test_a_letter_adds_at_most_letter_bits(case):
    d, m, g = case
    product = int_mul(d, m, g)
    assume(any(product))
    assert int_height(int_key(d, product)) <= int_height(m) + int_height(g) + LETTER_BITS


@pytest.mark.parametrize("d", [1, 3, 7])
def test_search_keys_stay_within_the_height_bound(d):
    # random words over each catalog's moves, keyed letter by letter as
    # find_word keys its states, from the identity and from every target
    rng = random.Random(d)
    cat = get_catalog(d)
    for pool in ("picard", "hybrid"):
        moves = _move_table(d, _kernel(cat, getattr(cat, pool)))[0]
        letter_bits = max(map(int_height, moves)) + LETTER_BITS
        for start in (INT_ID, *cat.int_env.values()):
            for _ in range(4):
                key = int_key(d, start)
                h0 = int_height(key)
                for n in range(1, 31):
                    key = int_key(d, int_mul(d, key, rng.choice(moves)))
                    assert int_height(key) <= h0 + n * letter_bits

"""Bidirectional word search: recovery of known words, minimality on a
small cyclic example, and honest exhaustion reporting."""

from picardhyb.catalog import get_catalog
from picardhyb.cxhyp import Mat, proj_eq
from picardhyb.search import SearchConfig, conjugate_membership, find_word
from picardhyb.fpgroups import eval_word, format_word


def test_find_u1_as_q_squared():
    cat = get_catalog(3)
    env = cat.env()
    gens = [env[n] for n in ("P", "Q", "R")]
    res = find_word(env["U1"], gens, SearchConfig(max_depth=3))
    assert res.found
    assert res.word == (2, 2)  # Q^2
    assert proj_eq(eval_word(res.word, gens, Mat.identity(3)), env["U1"])


def test_find_e1_within_depth_12():
    cat = get_catalog(3)
    env = cat.env()
    gens = [env[n] for n in ("P", "Q", "R")]
    res = find_word(env["E1"], gens, SearchConfig(max_depth=12))
    assert res.found and len(res.word) <= 12
    assert proj_eq(eval_word(res.word, gens, Mat.identity(3)), env["E1"])


def test_search_result_is_shortest_on_cyclic_example():
    # single parabolic generator: the only word for g^4 has length 4
    cat = get_catalog(1)
    t = cat.picard["T"]
    res = find_word(t * t * t * t, [t], SearchConfig(max_depth=8))
    assert res.found and res.word == (1, 1, 1, 1)


def test_identity_target():
    gens = [get_catalog(3).picard["P"]]
    res = find_word(Mat.identity(3, 3), gens, SearchConfig(max_depth=4))
    assert res.found and res.word == ()


def test_exhaustion_reports_not_found():
    cat = get_catalog(3)
    env = cat.env()
    gens = [env["Q"]]  # Q has order 2; E1 is not a power of it
    res = find_word(env["E1"], gens, SearchConfig(max_depth=6))
    assert not res.found
    assert res.depth_searched >= 1


def test_primed_d1_words_recovered():
    cat = get_catalog(1)
    env = dict(cat.hybrid)
    names = ["E1", "U1", "E2", "U2"]
    gens = [env[n] for n in names]
    res = find_word(cat.hybrid_primed["R1"], gens, SearchConfig(max_depth=6))
    assert res.found
    assert format_word(res.word, names) == "E2^-1 E1^-2"


def test_conjugate_membership():
    cat = get_catalog(3)
    env = cat.env()
    # R^-1 U1 R = U2: the conjugate lands back in the hybrid generators
    res = conjugate_membership(
        env["R"], env["U1"], [env["U1"], env["U2"]],
        SearchConfig(max_depth=2))
    assert res.found and res.word == (2,)

"""Coset enumeration against brute-force oracles, Smith normal form
postconditions, abelianization and Reidemeister-Schreier."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from picardhyb.fpgroups import (
    AbelianInvariants, Presentation, abelianization,
    derived_subgroup_table, format_word, free_reduce, invert_word,
    parse_word, quotient_by_normal_gens, reidemeister_schreier,
    smith_normal_form, todd_coxeter,
)


def pres(gens, relator_texts):
    return Presentation(
        len(gens), tuple(parse_word(t, gens) for t in relator_texts), tuple(gens))


# -- word plumbing ---------------------------------------------------------

def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    with pytest.raises(ValueError):
        free_reduce((0,))


def test_invert_word():
    assert invert_word((1, -2, 3)) == (-3, 2, -1)


def test_parse_format_round_trip():
    names = ("P", "Q", "R")
    for text in ("P^2 (R Q^2)^2 P^-2", "Q", "R^-3 P Q^2", "(P Q)^3"):
        w = parse_word(text, names)
        assert parse_word(format_word(w, names), names) == w
    assert format_word((), names) == "1"
    with pytest.raises(ValueError):
        parse_word("P X", names)
    with pytest.raises(ValueError):
        parse_word("(P Q", names)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=12).map(tuple))
@example(())
@example((1, -1))
def test_format_then_parse_is_free_reduction(w):
    names = ("P", "Q", "R")
    assert parse_word(format_word(w, names), names) == free_reduce(w)


# -- Todd-Coxeter against a permutation brute force ------------------------

def _perm_mul(p, q):
    return tuple(q[i] for i in p)


def _perm_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_closure(npoints, perm_gens):
    """The permutation group generated by perm_gens on npoints, as a set."""
    ident = tuple(range(npoints))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perm_gens:
                q = _perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


# presentations paired with faithful permutation realizations
CORPUS = [
    ("V4", pres(("a", "b"), ("a^2", "b^2", "(a b)^2")),
     4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    ("S3", pres(("a", "b"), ("a^2", "b^3", "(a b)^2")),
     3, [(1, 0, 2), (1, 2, 0)]),
    ("D4", pres(("a", "b"), ("a^4", "b^2", "(a b)^2")),
     4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
    ("C6", pres(("a",), ("a^6",)),
     6, [(1, 2, 3, 4, 5, 0)]),
    ("S4", pres(("a", "b"), ("a^2", "b^3", "(a b)^4")),
     4, [(1, 0, 2, 3), (0, 2, 3, 1)]),
    ("Q8", pres(("a", "b"), ("a^4", "a^2 b^-2", "b^-1 a b a")),
     8, None),  # order checked against the known value only
]


def test_todd_coxeter_matches_brute_force():
    expected = {"V4": 4, "S3": 6, "D4": 8, "C6": 6, "S4": 24, "Q8": 8}
    for name, p, npoints, perms in CORPUS:
        table = todd_coxeter(p)
        assert table.complete, name
        assert table.index == expected[name], name
        if perms is not None:
            assert len(_perm_closure(npoints, perms)) == expected[name], name


def test_todd_coxeter_subgroups_of_s4():
    s4 = pres(("a", "b"), ("a^2", "b^3", "(a b)^4"))
    for sub, idx in (("a",), 12), (("b",), 8), (("a b",), 6):
        words = [parse_word(t, ("a", "b")) for t in sub]
        t = todd_coxeter(s4, words)
        assert t.complete and t.index == idx


def test_todd_coxeter_table_closure():
    s4 = pres(("a", "b"), ("a^2", "b^3", "(a b)^4"))
    t = todd_coxeter(s4)
    for alpha in range(t.index):
        for r in s4.relators:
            assert t.act_word(alpha, r) == alpha


def test_todd_coxeter_overflow_is_a_status():
    fib = pres(("a", "b"), ("a^2 b^-3",))  # infinite group
    t = todd_coxeter(fib, max_cosets=50)
    assert t.status == "overflowed" and not t.complete


def test_todd_coxeter_validates_input():
    with pytest.raises(ValueError):
        todd_coxeter(pres(("a",), ("a^2",)), max_cosets=0)


# -- Smith normal form -----------------------------------------------------

def _det(mat):
    n = len(mat)
    if n == 0:
        return 1
    m = [list(r) for r in mat]
    # fraction-free Gaussian elimination is overkill; use expansion for <= 6
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_snf_random_matrices():
    rng = random.Random(20260824)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        d, lmat, rmat = smith_normal_form(a)
        assert _mat_mul(_mat_mul(lmat, a), rmat) == d
        assert abs(_det(lmat)) == 1
        assert abs(_det(rmat)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(20261018)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        d, _l, _r = smith_normal_form(a)
        ours = [abs(d[i][i]) for i in range(min(m, n)) if d[i][i]]
        theirs = invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
        assert ours == [abs(int(x)) for x in theirs if x], a


# -- abelianization --------------------------------------------------------

def test_abelianization_known_groups():
    assert abelianization(pres(("a", "b"), ("a b a^-1 b^-1",))) == \
        AbelianInvariants(2, ())
    assert abelianization(pres(("a",), ("a^6",))) == AbelianInvariants(0, (6,))
    assert abelianization(pres(("a", "b"), ("a^2", "b^3", "(a b)^4"))) == \
        AbelianInvariants(0, (2,))
    assert str(AbelianInvariants(1, (2, 6))) == "Z x Z/2 x Z/6"
    assert str(AbelianInvariants(0, ())) == "trivial"


def test_abelian_image():
    p = pres(("a", "b"), ("a^2", "b^3", "(a b)^2"))  # S3, ab = Z/2
    w_in = parse_word("b", ("a", "b"))
    w_out = parse_word("a b", ("a", "b"))
    table = derived_subgroup_table(p)
    assert table.act_word(0, w_in) == 0
    assert table.act_word(0, w_out) != 0


def test_quotient_by_normal_gens():
    p = pres(("a", "b"), ("a^2", "b^3", "(a b)^2"))
    q = quotient_by_normal_gens(p, (parse_word("b", ("a", "b")),))
    assert todd_coxeter(q).index == 2


# -- derived subgroup and Reidemeister-Schreier ----------------------------

def test_derived_subgroup_psl2z():
    psl = pres(("s", "t"), ("s^2", "(s t)^3"))
    table = derived_subgroup_table(psl)
    assert table.complete and table.index == 6
    # the derived subgroup of C2 * C3 is free of rank 2
    sub = reidemeister_schreier(psl, table)
    assert abelianization(sub) == AbelianInvariants(2, ())


def test_derived_subgroup_table_matches_permutation_brute_force():
    # G' is generated by the commutators of all pairs of elements of G
    rng = random.Random(12)
    for name, p, npoints, perms in CORPUS:
        if perms is None:
            continue
        group = _perm_closure(npoints, perms)
        derived = _perm_closure(npoints, [
            _perm_mul(_perm_mul(x, y), _perm_mul(_perm_inv(x), _perm_inv(y)))
            for x in group for y in group])
        table = derived_subgroup_table(p)
        assert table.complete and table.index == len(group) // len(derived), name
        letters = [g for k in range(1, p.ngens + 1) for g in (k, -k)]
        for _ in range(200):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(13)))
            image = tuple(range(npoints))
            for g in w:
                image = _perm_mul(image, perms[g - 1] if g > 0 else _perm_inv(perms[-g - 1]))
            assert (table.act_word(0, w) == 0) == (image in derived), (name, w)


def test_derived_subgroup_requires_finite_ab():
    with pytest.raises(ValueError):
        derived_subgroup_table(pres(("a", "b"), ("a^2",)))


def test_reidemeister_schreier_index2_of_s3():
    s3 = pres(("a", "b"), ("a^2", "b^3", "(a b)^2"))
    t = todd_coxeter(s3, [parse_word("b", ("a", "b"))])
    assert t.index == 2
    sub = reidemeister_schreier(s3, t)
    assert abelianization(sub) == AbelianInvariants(0, (3,))


def test_reidemeister_schreier_rejects_incomplete():
    p = pres(("a", "b"), ("a^2 b^-3",))
    t = todd_coxeter(p, max_cosets=30)
    with pytest.raises(ValueError):
        reidemeister_schreier(p, t)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(1, ((2,),))
    with pytest.raises(ValueError):
        Presentation(1, ((1, -1),))


def test_presentation_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError) as made:
        Presentation(1, ((1, -1),))
    with pytest.raises(ValueError) as replaced:
        Presentation(1, ((1,),))._replace(relators=((1, -1),))
    assert str(replaced.value) == str(made.value) == (
        "relators must be nonempty after free reduction")
    # the relators of a valid copy are freely reduced, as the constructor's are
    assert Presentation(1, ((1,),))._replace(relators=((1, 1, -1),)).relators == ((1,),)

"""Coset enumeration against brute-force oracles, Smith normal form
postconditions, abelianization and Reidemeister-Schreier."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from picardhyb.catalog import get_catalog
from picardhyb.certify import coset_table_holds
from picardhyb.fpgroups import (
    AbelianInvariants, Presentation, abelianization,
    derived_subgroup_table, exponent_matrix, format_word, free_reduce, invert_word,
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
    with pytest.raises(ValueError):
        parse_word("P * Q", names)


# edge texts and what parse_word makes of them over (P, Q, R): a word, or
# the message of the ValueError it raises
PARSE_EDGES = {
    "": (),
    "1": (),
    " 1 ": (),
    "()^2": (),
    "P ^2": (1, 1),
    "P\tQ^-3": (1, -2, -2, -2),
    "P^0 Q^-0": (),
    "(P Q)^-2 R": (-2, -1, -2, -1, 3),
    "((P)^2 Q)^-1": (-2, -1, -1),
    "P Q^-1 Q P^-1": (),
    "P^2^3": "dangling exponent in 'P^2^3'",
    "(^2)": "dangling exponent in '(^2)'",
    "^2": "dangling exponent in '^2'",
    "P)": "unbalanced ')' in 'P)'",
    ")(": "unbalanced ')' in ')('",
    "(P": "unbalanced '(' in '(P'",
    "(P   ": "unbalanced '(' in '(P   '",
    "X": "unknown generator 'X' in 'X'",
    "P 1": "cannot tokenize ' 1'",
    "P^": "cannot tokenize '^'",
    "P*Q": "cannot tokenize '*Q'",
}


@pytest.mark.parametrize("text", PARSE_EDGES)
def test_parse_word_edge_texts(text):
    expected = PARSE_EDGES[text]
    if isinstance(expected, tuple):
        assert parse_word(text, ("P", "Q", "R")) == expected
    else:
        with pytest.raises(ValueError) as err:
            parse_word(text, ("P", "Q", "R"))
        assert str(err.value) == expected


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


# the definition order of HLT decides where a cap overflows, and the cap is
# what verify --max-cosets shows: the first cap at which the index table of
# H(d) is complete
@pytest.mark.parametrize("d, cap, index", [(1, 73, 2), (7, 523, 1)])
def test_todd_coxeter_first_complete_cap_of_the_index_tables(d, cap, index):
    cat = get_catalog(d)
    assert todd_coxeter(cat.presentation, cat.hybrid_words(), cap - 1).status == "overflowed"
    table = todd_coxeter(cat.presentation, cat.hybrid_words(), cap)
    assert table.complete and table.index == index


def _random_presentation(rng, more=2):
    """1-3 generators, a power relator on each, up to ``more`` more random
    relators, and up to two random subgroup words."""
    n = rng.randint(1, 3)
    letters = [g for k in range(1, n + 1) for g in (k, -k)]

    def word(longest):
        return tuple(rng.choice(letters) for _ in range(rng.randint(1, longest)))

    relators = [(k,) * rng.randint(2, 5) for k in range(1, n + 1)]
    relators += [r for r in (word(8) for _ in range(rng.randint(0, more))) if free_reduce(r)]
    return Presentation(n, relators), [word(6) for _ in range(rng.randint(0, 2))]


def _loop_at_coset_0(table, rng):
    """A random walk from coset 0, then back along the breadth-first tree
    of the table: a word that fixes coset 0."""
    letters = [g for k in range(1, table.ngens + 1) for g in (k, -k)]
    path = {0: ()}
    for alpha in range(table.index):
        for g in letters:
            path.setdefault(table.act_word(alpha, (g,)), path[alpha] + (g,))
    w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
    return w + invert_word(path[table.act_word(0, w)])


def test_standardized_table_depends_only_on_the_subgroup():
    rng = random.Random(20261020)
    complete = 0
    for _ in range(300):
        p, subgens = _random_presentation(rng)
        table = todd_coxeter(p, subgens, 300)
        if not table.complete:
            continue
        complete += 1
        assert coset_table_holds(table, p, subgens), (p, subgens)
        # breadth-first: read row by row, the cosets first appear in order
        first_seen = dict.fromkeys([0, *(beta for row in table.table for beta in row)])
        assert list(first_seen) == list(range(table.index)), (p, subgens)
        # the same subgroup on other generators gives the same table
        other = [*reversed(subgens), _loop_at_coset_0(table, rng)]
        assert todd_coxeter(p, other, 300).table == table.table, (p, subgens)
    assert complete >= 200  # 220 of the 300 at this seed


def test_todd_coxeter_validates_input():
    with pytest.raises(ValueError):
        todd_coxeter(pres(("a",), ("a^2",)), max_cosets=0)


@pytest.mark.parametrize("letter", [0, 2, -2])
def test_todd_coxeter_rejects_a_subgroup_letter_out_of_range(letter):
    # relators are range-checked by Presentation, subgroup words here
    with pytest.raises(ValueError, match=f"^a subgroup word uses the letter {letter}, "):
        todd_coxeter(Presentation(1, [(1, 1)]), [(1,), (letter,)])


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_coset_action_rejects_a_letter_out_of_range(letter):
    # 0 used to read the last column, the inverse of the last generator
    table = todd_coxeter(pres(("a", "b"), ("a^2", "b^2", "(a b)^2")))
    assert table.complete and table.index == 4
    with pytest.raises(ValueError, match=f"^a coset action uses the letter {letter}, "):
        table.act_word(0, (1, letter))
    with pytest.raises(ValueError, match=f"^a coset action uses the letter {letter}, "):
        table.act_word(1, (letter,))


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_format_word_rejects_a_letter_out_of_range(letter):
    # 0 used to print the last name inverted, b^-1
    with pytest.raises(ValueError, match=f"^the word uses the letter {letter}, "):
        format_word((1, letter), ("a", "b"))


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


def _mat_mul(a, b, ncols):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(ncols)] for i in range(len(a))]


def _assert_smith_normal_form(a):
    """The postconditions of smith_normal_form on the m x n matrix a."""
    m, n = len(a), len(a[0]) if a else 0
    before = [list(row) for row in a]
    d, lmat, rmat = smith_normal_form(a)
    assert a == before  # the input is left unchanged
    assert [len(row) for row in lmat] == [m] * m
    assert [len(row) for row in rmat] == [n] * n
    assert _mat_mul(_mat_mul(lmat, a, n), rmat, n) == d
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


def test_snf_random_matrices():
    rng = random.Random(20260824)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        _assert_smith_normal_form([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def test_snf_sparse_rank_deficient_matrices():
    # the shape of the exponent matrices abelianization reduces: mostly
    # 0 and +-1, with zero rows and repeated rows
    rng = random.Random(20261020)
    for _ in range(100):
        m, n = rng.randint(2, 7), rng.randint(1, 6)
        a = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(m)]
        for i in range(m):
            if rng.random() < 0.2:
                a[i] = [0] * n
            elif rng.random() < 0.3:
                a[i] = list(a[rng.randrange(i + 1)])
        _assert_smith_normal_form(a)


@pytest.mark.parametrize("a", [[], [[]], [[0, 0]], [[0], [0]]], ids=str)
def test_snf_edge_shapes(a):
    _assert_smith_normal_form(a)


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


def _smith_normal_form_full_scan(a):
    """smith_normal_form with a pivot scan that reads the whole trailing
    block: the reference for the scan that ends at the first entry +-1."""
    m = len(a)
    n = len(a[0]) if m else 0
    b = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(a)]
    b += [[int(j == k) for k in range(n)] + [0] * m for j in range(n)]
    t = 0
    while True:
        p = 0
        for i in range(t, m):
            for j, x in enumerate(b[i][t:n], t):
                if x and (not p or abs(x) < abs(p)):
                    p, pi, pj = x, i, j
        if not p:
            break
        b[t], b[pi] = b[pi], b[t]
        for row in b:
            row[t], row[pj] = row[pj], row[t]
        for i in range(t + 1, m):
            q = b[i][t] // p
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[t])]
        for j in range(t + 1, n):
            q = b[t][j] // p
            if q:
                for row in b:
                    row[j] -= q * row[t]
        if any(b[i][t] for i in range(t + 1, m)) or any(b[t][t + 1:n]):
            continue
        i = next((i for i in range(t + 1, m) for x in b[i][t + 1:n] if x % p), None)
        if i is not None:
            b[t] = [x + y for x, y in zip(b[t], b[i])]
        else:
            if p < 0:
                b[t] = [-x for x in b[t]]
            t += 1
    return [row[:n] for row in b[:m]], [row[n:] for row in b[:m]], [row[:n] for row in b[m:]]


def test_snf_pivot_scan_matches_the_full_scan():
    # the pivot is the first entry of least absolute value either way, so
    # (D, L, R) is the same: on lemma 3.9's Reidemeister-Schreier matrix
    # and on seeded random ones, empty ones included
    p = get_catalog(3).presentation
    matrices = [exponent_matrix(reidemeister_schreier(p, derived_subgroup_table(p)))]
    rng = random.Random(20261021)
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        matrices.append([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
    for a in matrices:
        assert smith_normal_form(a) == _smith_normal_form_full_scan(a), a


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


def test_reidemeister_schreier_rejects_a_table_over_other_generators():
    # the table of V4 on a and b read as a table of <a | a^2>: its b edges
    # would enter the Schreier tree
    v4 = pres(("a", "b"), ("a^2", "b^2", "(a b)^2"))
    c2 = pres(("a",), ("a^2",))
    with pytest.raises(ValueError, match="differ in their generators"):
        reidemeister_schreier(c2, todd_coxeter(v4))
    with pytest.raises(ValueError, match="differ in their generators"):
        reidemeister_schreier(v4, todd_coxeter(c2))


def _reidemeister_schreier_bfs(p, table):
    """reidemeister_schreier with its own queue for the Schreier tree and a
    checked action per letter: the reference for the one that reads the
    table's rows."""
    if not table.complete:
        raise ValueError("coset table is not complete")
    seen = [False] * table.index
    seen[0] = True
    tree = set()   # (coset, positive generator)
    queue = deque([0])
    while queue:
        alpha = queue.popleft()
        for g in range(1, p.ngens + 1):
            for signed in (g, -g):
                beta = table.act_word(alpha, (signed,))
                if not seen[beta]:
                    seen[beta] = True
                    tree.add((alpha, g) if signed > 0 else (beta, g))
                    queue.append(beta)
    gen_index = {}
    for alpha in range(table.index):
        for g in range(1, p.ngens + 1):
            if (alpha, g) not in tree:
                gen_index[(alpha, g)] = len(gen_index) + 1

    def rewrite(alpha, w):
        out = []
        c = alpha
        for g in w:
            beta = table.act_word(c, (g,))
            k = gen_index.get((c, g) if g > 0 else (beta, -g))
            if k:
                out.append(k if g > 0 else -k)
            c = beta
        return free_reduce(out)

    relators = []
    seen_rel = set()
    for alpha in range(table.index):
        for r in p.relators:
            w = rewrite(alpha, r)
            if w and w not in seen_rel:
                seen_rel.add(w)
                relators.append(w)
    return Presentation(len(gen_index), tuple(relators))


def test_reidemeister_schreier_matches_the_bfs_reference():
    # the same Schreier tree, generator numbers and relators in the same
    # order: on the d=3 commutator table, the d=1 and d=7 index tables and
    # the complete tables of seeded random presentations
    gamma3 = get_catalog(3).presentation
    cases = [(gamma3, derived_subgroup_table(gamma3))]
    for d in (1, 7):
        cat = get_catalog(d)
        cases.append((cat.presentation, todd_coxeter(cat.presentation, cat.hybrid_words())))
    rng = random.Random(20261022)
    for _ in range(450):
        p, subgens = _random_presentation(rng, more=3)
        cases.append((p, todd_coxeter(p, subgens, 300)))
    cases = [(p, table) for p, table in cases if table.complete]
    assert len(cases) >= 303  # 3 + 358 of the 450 random ones at this seed
    for p, table in cases:
        assert reidemeister_schreier(p, table) == _reidemeister_schreier_bfs(p, table), p


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

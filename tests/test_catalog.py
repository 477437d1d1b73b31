"""Catalog integrity: displayed matrices, relators, word identities and
conjugation identities for all three rings."""

from fractions import Fraction

import pytest

from picardhyb import catalog
from picardhyb.catalog import (
    J, J_INV, Catalog, CatalogError, _validate, cayley, embed, get_catalog,
)
from picardhyb.cxhyp import (
    INT_ID, Mat, int_is_unitary, int_key, int_mat, int_mul, mat_from_int, proj_eq,
)
from picardhyb.exactring import QuadRat
from picardhyb.fpgroups import format_word, quotient_by_normal_gens


@pytest.mark.parametrize("d", (1, 3, 7))
def test_catalog_loads_and_validates(d):
    cat = get_catalog(d)
    assert isinstance(cat, Catalog)
    assert cat.d == d


@pytest.mark.parametrize("d", (1, 3, 7))
def test_relators_evaluate_to_unit_identity(d):
    cat = get_catalog(d)
    env = dict(cat.picard)
    names = cat.presentation.gen_names
    ident = Mat.identity(d, 3)
    for r in cat.presentation.relators:
        m = cat.eval_word(format_word(r, names), env)
        assert proj_eq(m, ident)


def test_presentation_sizes():
    assert len(get_catalog(3).presentation.relators) == 5
    assert len(get_catalog(1).presentation.relators) == 7
    assert len(get_catalog(7).presentation.relators) == 13


@pytest.mark.parametrize("d", (1, 3, 7))
def test_word_identities(d):
    cat = get_catalog(d)
    for wi in cat.word_identities:
        assert cat.word_key(wi.word) == int_key(d, cat.int_env[wi.target]), \
            (wi.lemma, wi.target)


@pytest.mark.parametrize("d", (1, 3, 7))
def test_conjugation_identities(d):
    cat = get_catalog(d)
    env = cat.env()
    for ci in cat.conjugation_identities:
        lhs = cat.eval_word(ci.lhs, env)
        rhs = cat.eval_word(ci.rhs, env)
        assert proj_eq(lhs, rhs), (ci.lemma, ci.lhs)


# the Cayley transform J as the paper writes it, independent of catalog.J
J_ROWS = ((1, 1, 0), (0, 1, -1), (1, 1, -1))


def test_cayley_transform_integral():
    # J and J^-1 are integral kernel constants, inverse to each other in every ring
    for d in (1, 3, 7):
        assert int_mul(d, J, J_INV) == INT_ID
        assert mat_from_int(d, J) == Mat.from_entries(d, J_ROWS)


def test_embed_preserves_form():
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for m in cat.fuchsian.values():
            for slot in (1, 2):
                assert int_is_unitary(d, cayley(embed(slot, m)))


def test_embed_rejects_bad_input():
    with pytest.raises(ValueError):
        embed(3, get_catalog(3).fuchsian["R"])
    with pytest.raises(ValueError):
        embed(1, Mat.identity(3, 3))


def test_get_catalog_rejects_bad_d():
    with pytest.raises(ValueError):
        get_catalog(2)


def test_d3_primed_square_root():
    env = get_catalog(3).env()
    e1p = env["E1p"]
    assert proj_eq(e1p * e1p, env["E1"])


def test_d1_primed_order4_membership():
    cat = get_catalog(1)
    env = cat.env()
    ident = Mat.identity(1, 3)
    assert proj_eq(cat.eval_word("E1^2 E2 R1", env), ident)
    assert proj_eq(cat.eval_word("E1 E2^2 R2", env), ident)
    assert proj_eq(cat.eval_word("R2^-1 R1^-2", env), env["E1"])
    assert proj_eq(cat.eval_word("R2^-2 R1^-1", env), env["E2"])


def test_d7_cross_checks():
    cat = get_catalog(7)
    # iota_1(-Id) agrees with iota_2(B) projectively (they differ by -1)
    minus_id = Mat.identity(7, 2).scale(-1)
    lhs = cayley(embed(1, minus_id))
    rhs = cayley(embed(2, cat.fuchsian["B"]))
    assert int_key(7, lhs) == int_key(7, rhs)
    assert lhs != rhs


# how the catalog builds each Cayley-conjugated generator: name -> (slot,
# 2x2 disk generator), "-Id" being the negated 2x2 identity
CONSTRUCTIONS = {
    1: {"E1": (1, "E"), "U1": (1, "U"), "E2": (2, "E"), "U2": (2, "U"),
        "R1": (1, "R"), "R2": (2, "R")},
    3: {"E1": (1, "E"), "U1": (1, "U"), "E2": (2, "E"), "U2": (2, "U"),
        "I1": (1, "-Id"), "I2": (2, "-Id")},
    7: {"U1": (1, "U"), "U2": (2, "U"), "A1": (1, "A"), "A2": (2, "A"),
        "B1": (1, "B"), "B2": (2, "B")},
}


@pytest.mark.parametrize("d", (1, 3, 7))
def test_kernel_build_matches_mat(d):
    # the catalog conjugates and evaluates on the integer kernel; the Mat
    # products J^-1 iota(m) J and Catalog.eval_word are the reference
    cat = get_catalog(d)
    j = Mat.from_entries(d, J_ROWS)
    j_inv = j.inverse()
    disk = {**cat.fuchsian, "-Id": Mat.identity(d, 2).scale(-1)}
    expected = {name: j_inv * embed(slot, disk[m]) * j
                for name, (slot, m) in CONSTRUCTIONS[d].items()}
    if d == 3:
        expected["E1p"] = cat.eval_word("P^2 (R Q^2) P^-2", cat.picard)
    env = cat.env()
    assert {n: env[n] for n in cat.hybrid + cat.hybrid_primed} == expected
    for m in disk.values():
        for slot in (1, 2):
            assert cayley(embed(slot, m)) == int_mat(j_inv * embed(slot, m) * j)


# the hybrid matrices the paper displays, which each ring's catalog compares
# with their construction
DISPLAYED = {1: ("E1", "U1", "E2", "U2"), 3: ("E1", "U1", "E2", "U2"),
             7: ("U1", "U2", "A1", "A2", "B1", "B2")}


@pytest.mark.parametrize("d, name", [(d, n) for d in DISPLAYED for n in DISPLAYED[d]])
def test_ring_rejects_a_construction_that_differs_from_its_display(monkeypatch, d, name):
    slot, m = CONSTRUCTIONS[d][name]
    victim = embed(slot, get_catalog(d).fuchsian[m])
    real = catalog.cayley
    monkeypatch.setattr(catalog, "cayley",
                        lambda x: _bumped_int(real(x)) if x == victim else real(x))
    with pytest.raises(CatalogError, match=f"^displayed matrix {name} differs"):
        getattr(catalog, f"_catalog_d{d}")()


@pytest.mark.parametrize("d", (1, 3, 7))
def test_flags_are_reported(d):
    flags = get_catalog(d).flags
    if d == 1:
        assert any("corollary-4.6" in f for f in flags)
    if d == 3:
        assert any("section-3-closing" in f for f in flags)
    if d == 7:
        assert any("B2" in f for f in flags)


def _bumped(m: Mat) -> Mat:
    """m with 1 added to its top-left entry: integral, but not unitary."""
    rows = [list(r) for r in m.rows]
    rows[0][0] = rows[0][0] + QuadRat.one(m.d)
    return Mat.from_entries(m.d, rows)


def _bumped_int(x: tuple) -> tuple:
    """The kernel tuple x with 1 added to its top-left entry."""
    return (x[0] + 1, *x[1:])


def _halved(m: Mat) -> Mat:
    return m.scale(QuadRat.of_fraction(m.d, Fraction(1, 2)))


@pytest.mark.parametrize("corrupt", (_bumped, _halved))
@pytest.mark.parametrize("d", (1, 3, 7))
def test_validate_rejects_a_corrupted_generator(d, corrupt, monkeypatch):
    # a 3x3 generator bumped in the kernel table fails _validate's form
    # check; a halved Picard literal fails _build, which converts it
    cat = get_catalog(d)
    assert _validate(cat) is cat
    name3 = next(iter(cat.picard))
    if corrupt is _bumped:
        bad3 = cat._replace(int_env={**cat.int_env, name3: _bumped_int(cat.int_env[name3])})
        with pytest.raises(CatalogError, match=f"^3x3 matrix {name3} does not preserve"):
            _validate(bad3)
    else:
        real = catalog._build

        def halving(d, fuchsian, picard, **kwargs):
            return real(d, fuchsian, {**picard, name3: _halved(picard[name3])}, **kwargs)

        monkeypatch.setattr(catalog, "_build", halving)
        with pytest.raises(CatalogError, match=f"^3x3 matrix {name3} does not have"):
            catalog._RINGS[d]()
    name2 = next(iter(cat.fuchsian))
    bad2 = cat._replace(fuchsian={**cat.fuchsian, name2: corrupt(cat.fuchsian[name2])})
    with pytest.raises(CatalogError, match=f"2x2 generator {name2} does not"):
        _validate(bad2)


# the views a build makes between Mat and the kernel: an int_mat of each
# Picard literal and each displayed matrix, and one in each Cayley
# conjugation (six constructions and _validate's three 2x2 checks); no
# mat_from_int, since the hybrids are kept as the kernel tuples built
INT_MATS = {1: 16, 3: 16, 7: 18}


@pytest.mark.parametrize("d", (1, 3, 7))
def test_build_makes_each_mat_view_once(d, monkeypatch):
    calls = {"int_mat": 0, "mat_from_int": 0}

    def counting(name):
        real = getattr(catalog, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(catalog, name, counting(name))
    catalog.get_catalog.__wrapped__(d)
    assert calls == {"int_mat": INT_MATS[d], "mat_from_int": 0}


def test_validate_rejects_a_relator_that_is_not_the_identity():
    # T = 1 is false in Gamma(1), and every form check still holds, so only
    # the relator check can reject this catalog
    cat = get_catalog(1)
    bad = cat._replace(presentation=quotient_by_normal_gens(
        cat.presentation, [cat.picard_word("T")]))
    with pytest.raises(CatalogError, match="^relator T does not evaluate"):
        _validate(bad)


def test_ring_3_rejects_a_primed_generator_that_is_not_a_square_root(monkeypatch):
    monkeypatch.setattr(Catalog, "word_matrix", lambda self, text, names=None: INT_ID)
    with pytest.raises(CatalogError, match=r"^\(E1'\)\^2 is not E1"):
        catalog._catalog_d3()


def test_ring_7_rejects_a_failed_minus_id_cross_check(monkeypatch):
    monkeypatch.setattr(catalog, "proj_eq", lambda a, b: False)
    with pytest.raises(CatalogError, match=r"^iota_1\(-Id\) = iota_2\(B\) cross-check"):
        catalog._catalog_d7()

"""Catalog integrity: displayed matrices, relators, word identities and
conjugation identities for all three rings."""

from fractions import Fraction

import pytest

from picardhyb.catalog import (
    Catalog, CatalogError, _validate, cayley, cayley_transform, embed,
    get_catalog,
)
from picardhyb.cxhyp import Mat, int_is_unitary, int_key, int_mat, proj_eq
from picardhyb.exactring import QuadRat
from picardhyb.fpgroups import format_word


@pytest.mark.parametrize("d", (1, 3, 7))
def test_catalog_loads_and_validates(d):
    cat = get_catalog(d)
    assert isinstance(cat, Catalog)
    assert cat.d == d


@pytest.mark.parametrize("d", (1, 3, 7))
def test_relators_evaluate_to_unit_identity(d):
    cat = get_catalog(d)
    env = dict(cat.picard)
    names = cat.presentation.names()
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


def test_cayley_transform_integral():
    for d in (1, 3, 7):
        j = cayley_transform(d)
        assert j.is_integral() and j.inverse().is_integral()


def test_embed_preserves_form():
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for m in cat.fuchsian.values():
            for slot in (1, 2):
                assert int_is_unitary(d, int_mat(cayley(embed(slot, m))))


def test_embed_rejects_bad_input():
    with pytest.raises(ValueError):
        embed(3, get_catalog(3).fuchsian["R"])
    with pytest.raises(ValueError):
        embed(1, Mat.identity(3, 3))


def test_get_catalog_rejects_bad_d():
    with pytest.raises(ValueError):
        get_catalog(2)


def test_d3_primed_square_root():
    cat = get_catalog(3)
    e1p = cat.hybrid_primed["E1p"]
    assert proj_eq(e1p * e1p, cat.hybrid["E1"])


def test_d1_primed_order4_membership():
    cat = get_catalog(1)
    env = dict(cat.hybrid)
    env.update(cat.hybrid_primed)
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
    assert proj_eq(lhs, rhs)
    assert not (lhs - rhs).is_zero()


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
    j = cayley_transform(d)
    j_inv = j.inverse()
    disk = {**cat.fuchsian, "-Id": Mat.identity(d, 2).scale(-1)}
    expected = {name: j_inv * embed(slot, disk[m]) * j
                for name, (slot, m) in CONSTRUCTIONS[d].items()}
    if d == 3:
        expected["E1p"] = cat.eval_word("P^2 (R Q^2) P^-2", cat.picard)
    assert {**cat.hybrid, **cat.hybrid_primed} == expected
    for m in disk.values():
        for slot in (1, 2):
            assert cayley(embed(slot, m)) == j_inv * embed(slot, m) * j


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


def _halved(m: Mat) -> Mat:
    return m.scale(QuadRat.of_fraction(m.d, Fraction(1, 2)))


@pytest.mark.parametrize("corrupt", (_bumped, _halved))
@pytest.mark.parametrize("d", (1, 3, 7))
def test_validate_rejects_a_corrupted_generator(d, corrupt):
    cat = get_catalog(d)
    assert _validate(cat) is cat
    name3 = next(iter(cat.picard))
    bad3 = cat._replace(picard={**cat.picard, name3: corrupt(cat.picard[name3])})
    with pytest.raises(CatalogError, match=f"3x3 matrix {name3} does not"):
        _validate(bad3)
    name2 = next(iter(cat.fuchsian))
    bad2 = cat._replace(fuchsian={**cat.fuchsian, name2: corrupt(cat.fuchsian[name2])})
    with pytest.raises(CatalogError, match=f"2x2 generator {name2} does not"):
        _validate(bad2)

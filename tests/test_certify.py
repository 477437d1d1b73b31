"""Theorem-level reports: normality, indices, the Euclidean infiniteness
certificate and the abelianization chain, and for each decision a test
that corrupts one input and checks that exactly its rows turn [FAIL]."""

import random

import pytest

from picardhyb import catalog, certify
from picardhyb.catalog import WordIdentity
from picardhyb.certify import (
    PRIMED_D1_WORD, Report,
    commutator_subgroup_table, hybrid_abelianization_bounds, index_report,
    lemma31_index_bound, lemma36_relations, motion, partial_hybrid_presentation,
    primed_d1_equality, primed_d3_closure, render_motion, triangle_236_certificate,
    verify_normality, verify_primed_d1_word, verify_tietze_substitution,
    verify_word_identities,
)
from picardhyb.cxhyp import INT_ID, int_inv, int_mul, int_word
from picardhyb.exactring import QuadInt, units
from picardhyb.fpgroups import AbelianInvariants, abelianization, parse_word, todd_coxeter


@pytest.mark.parametrize("d", (1, 3, 7))
def test_word_identities_report(d):
    assert verify_word_identities(d).passed


@pytest.mark.parametrize("d", (1, 3, 7))
def test_normality_report(d):
    assert verify_normality(d).passed


def test_index_d1_is_two():
    res = index_report(1)
    assert res.outcome == "finite" and res.index == 2
    assert res.table.complete


def test_index_d7_is_one():
    res = index_report(7)
    assert res.outcome == "finite" and res.index == 1


def test_index_enumerates_the_cosets_of_the_hybrid_itself(monkeypatch):
    # with U1 = T as the only word identity, Gamma(1) modulo the normal
    # closure of T still has order 2, but <T> has infinite index: the
    # enumeration of its cosets must overflow, not report index 2
    cat = catalog.get_catalog(1)
    bad = cat._replace(word_identities=cat.word_identities[:1])
    assert todd_coxeter(bad.quotient_presentation()).index == 2
    monkeypatch.setattr(certify, "get_catalog", lambda d: bad)
    assert index_report(1, max_cosets=2000).outcome == "overflowed"


def test_index_d3_is_infinite_with_certificate():
    res = index_report(3)
    assert res.outcome == "infinite"
    assert res.certificate is not None
    assert res.certificate.validate()


def test_triangle_certificate():
    cert = triangle_236_certificate()
    assert cert.validate()
    # witness is the unit translation z -> z - 1
    assert cert.witness_image == motion((1, 0), (-1, 0))
    assert render_motion(cert.witness_image) == "z -> (1)*z + (-1)"


def test_triangle_certificate_rejects_a_wrong_witness():
    cert = triangle_236_certificate()
    # a^6 maps to the identity, not to a translation
    assert not cert._replace(witness_word="a^6").validate()
    # with b sent to the identity, (a b)^3 and the witness are the half-turn a^3
    assert not cert._replace(images={**cert.images, "b": INT_ID}).validate()
    # a^3 is the half-turn about 0, not a translation
    assert not cert._replace(witness_word="a^3").validate()
    # b a^3 is the translation z -> z + 1
    assert cert._replace(witness_word="b a^3").validate()


def test_tietze_substitution():
    report = verify_tietze_substitution()
    assert report.passed
    # one row per quotient relator: the five Picard relators, then the
    # words of U1, U2 and E1
    dies = [c for c in report.checks if c.check_id == "relator-dies"]
    assert len(dies) == len(catalog.get_catalog(3).quotient_presentation().relators) == 8
    assert all(c.passed for c in dies)


def test_lemma31_and_lemma36():
    assert lemma31_index_bound().passed
    assert lemma36_relations().passed


@pytest.mark.parametrize("name, other, want", (
    ("I1", "I2", [False, True, True]),
    ("I2", "U2", [True, False, False]),
))
def test_lemma31_rows_fail_on_a_corrupted_catalog(monkeypatch, name, other, want):
    real = catalog.get_catalog(3)
    corrupted = real._replace(hybrid={**real.hybrid, name: real.hybrid[other]})
    monkeypatch.setattr(certify, "get_catalog", lambda d: corrupted)
    report = lemma31_index_bound()
    assert [c.passed for c in report.checks] == want
    assert report.as_markdown().count("[FAIL] lemma-3.1") == want.count(False)


def test_primed_d3_rows_read_the_commutator_table(monkeypatch):
    # P is not in the commutator subgroup: its image in Gamma(3)^ab = Z/6 has order 3
    monkeypatch.setattr(certify, "PRIMED_D3_WORDS", certify.PRIMED_D3_WORDS + ("P",))
    for report in (hybrid_abelianization_bounds(), primed_d3_closure()):
        failed = [c.description for c in report.checks if not c.passed]
        assert "H'(3) generator P dies in Gamma(3)^ab" in failed


def _motion(alpha: QuadInt, beta: QuadInt):
    return motion(alpha[1:], beta[1:])


def test_euclidean_motion_group_laws():
    # the matrices multiply and invert as the motions compose:
    # (a1, b1) o (a2, b2) is z -> a1 a2 z + (a1 b2 + b1)
    rng = random.Random(7)
    pool = [(rng.choice(units(3)), QuadInt(3, rng.randint(-3, 3), rng.randint(-3, 3)))
            for _ in range(8)]
    for a1, b1 in pool:
        x = _motion(a1, b1)
        assert int_inv(3, x) == _motion(a1.conj(), -(a1.conj() * b1))
        for a2, b2 in pool:
            assert int_mul(3, x, _motion(a2, b2)) == _motion(a1 * a2, a1 * b2 + b1)


def test_euclidean_motion_orders():
    rot = motion((1, 1), (0, 0))        # by 1 + w, a primitive 6th root of unity
    assert [k for k in range(1, 13) if int_word(3, (1,) * k, [rot]) == INT_ID] == [6, 12]
    half_turn = triangle_236_certificate().images["b"]
    assert half_turn != INT_ID and int_mul(3, half_turn, half_turn) == INT_ID


def test_a_motion_with_a_non_unit_alpha_has_no_inverse():
    with pytest.raises(ValueError, match="^the determinant is not a unit of O_d$"):
        int_inv(3, motion((2, 0), (0, 0)))


def test_commutator_subgroup_table():
    table = commutator_subgroup_table()
    assert table.complete and table.index == 6


def test_hybrid_abelianization_bounds():
    report = hybrid_abelianization_bounds()
    assert report.passed
    text = report.as_markdown()
    assert "Z x Z" in text and "Z/6" in text


def test_lemma39_row_checks_the_commutator_table(monkeypatch):
    # P is not a commutator: its image in Gamma(3)^ab = Z/6 has order 3
    monkeypatch.setattr(certify, "COMMUTATOR_WORDS", certify.COMMUTATOR_WORDS + ("P",))
    failed = {c.check_id for c in hybrid_abelianization_bounds().checks if not c.passed}
    assert failed == {"lemma-3.9", "corollary-3.12"}


def test_partial_hybrid_presentations_finite():
    for primed in (False, True):
        ab = abelianization(partial_hybrid_presentation(primed))
        assert ab.is_finite


def test_partial_hybrid_presentations_are_the_lemma36_relations():
    # corollary 3.7 and lemma 3.10 abelianize exactly the relations the
    # lemma-3.6 rows check; the primed variant has (E1')^2 for E1
    texts = [c.description.removesuffix(" = 1") for c in lemma36_relations().checks]
    assert texts == list(certify.LEMMA36_RELATORS)
    for primed, e1 in ((False, "E1"), (True, "(E1p^2)")):
        names = ("E1p" if primed else "E1", "U1", "U2")
        words = tuple(parse_word(t.replace("E1", e1), names) for t in texts)
        p = partial_hybrid_presentation(primed)
        assert p.relators == words and p.gen_names == names
    assert abelianization(partial_hybrid_presentation(False)) == AbelianInvariants(0, (3, 3, 6))
    assert abelianization(partial_hybrid_presentation(True)) == AbelianInvariants(0, (3, 6, 6))


def test_primed_d1_equality():
    report = primed_d1_equality()
    assert report.passed
    assert verify_primed_d1_word()
    # the stored word uses an even number of I0/Q letters, i.e. it lies in
    # the index-2 hybrid H(1)
    letters = PRIMED_D1_WORD.split()
    parity = sum(1 for x in letters if x.rstrip("^-1234567890") in ("I0", "Q"))
    assert parity % 2 == 0


def test_primed_d3_closure():
    assert primed_d3_closure().passed


def test_report_failure_is_a_failed_row():
    r = Report("toy")
    r.add("x", "deliberately failing check", False)
    assert not r.passed
    assert "FAIL" in r.as_markdown()
    assert r.as_dict()["checks"][0]["passed"] is False


# -- one corrupted input per decision --------------------------------------
#
# Each test below corrupts one input of a report and checks that exactly
# the rows that decide on it turn [FAIL] and every other row still passes.

def _serve(monkeypatch, cat):
    """Make certify read cat for every ring."""
    monkeypatch.setattr(certify, "get_catalog", lambda d: cat)


def _failed(report: Report) -> list[str]:
    return [c.description for c in report.checks if not c.passed]


def test_substitution_rows_fail_on_a_wrong_substitution(monkeypatch):
    # b is an involution, so every relator still dies under Q -> b^-1
    monkeypatch.setitem(certify.SUBST_PQR_TO_ABC, "Q", "b^-1")
    assert _failed(verify_tietze_substitution()) == ["Q round-trips through (a,b,c)"]
    assert index_report(3).outcome == "undecided"


def test_relator_rows_fail_on_a_relator_that_survives(monkeypatch):
    # killing P too: P -> a b, z -> -(1 + w) z + (1 + w), a rotation of order 3
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(
        word_identities=(*cat.word_identities, WordIdentity("lemma-3.2", "P", "P"))))
    report = verify_tietze_substitution()
    assert _failed(report) == ["quotient relator #8 maps to the identity motion"]
    assert report.checks[-1].witness == "z -> (-1-w)*z + (1+w)"
    assert index_report(3).outcome == "undecided"


def test_word_identity_rows_fail_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(hybrid={**cat.hybrid, "U1": cat.hybrid["U2"]}))
    assert _failed(verify_word_identities(3)) == ["U1 = Q^2"]


def test_primed_d3_square_row_fails_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(hybrid_primed={"E1p": cat.hybrid["E1"]}))
    assert _failed(primed_d3_closure()) == ["(E1')^2 = E1"]


def test_corollary46_rows_fail_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(1)
    _serve(monkeypatch, cat._replace(
        hybrid_primed={**cat.hybrid_primed, "R1": cat.hybrid_primed["R2"]}))
    report = primed_d1_equality()
    assert len(report.checks) == 8
    assert _failed(report) == [
        "E1^2 E2 R1 is a unit scalar (so the order-4 element lies in the plain hybrid)",
        "R2^-1 R1^-2 = E1 (so the plain hybrid lies in the primed one)",
        "R2^-2 R1^-1 = E2 (so the plain hybrid lies in the primed one)",
        "the order-4 word over I0, Q, T is verified",
    ]


def test_lemma36_rows_fail_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(hybrid={**cat.hybrid, "E1": cat.hybrid["U1"]}))
    assert _failed(lemma36_relations()) == [
        f"{t} = 1" for t in certify.LEMMA36_RELATORS if t != "(U1 U2)^3"]

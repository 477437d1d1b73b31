"""Theorem-level reports: normality, indices, the Euclidean infiniteness
certificate and the abelianization chain."""

import random

import pytest

from picardhyb import catalog, certify
from picardhyb.certify import (
    EuclideanMotion, PRIMED_D1_WORD, Report,
    commutator_subgroup_table, hybrid_abelianization_bounds, index_report,
    lemma31_index_bound, lemma36_relations, partial_hybrid_presentation,
    primed_d1_equality, primed_d3_closure, triangle_236_certificate,
    verify_normality, verify_primed_d1_word, verify_tietze_substitution,
    verify_word_identities,
)
from picardhyb.exactring import QuadInt
from picardhyb.fpgroups import AbelianInvariants, abelianization


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


def test_index_d3_is_infinite_with_certificate():
    res = index_report(3)
    assert res.outcome == "infinite"
    assert res.certificate is not None
    assert res.certificate.validate()


def test_triangle_certificate():
    cert = triangle_236_certificate()
    assert cert.validate()
    motion = cert.witness_image
    assert motion.is_nontrivial_translation()
    # witness is the unit translation z -> z - 1
    assert motion.alpha == QuadInt.one(3)
    assert motion.beta == QuadInt.of_int(3, -1)


def test_triangle_certificate_rejects_a_wrong_witness():
    cert = triangle_236_certificate()
    # a^6 maps to the identity, not to a translation
    assert not cert._replace(witness_word="a^6").validate()
    assert not cert._replace(witness_image=EuclideanMotion.identity()).validate()


def test_tietze_substitution():
    assert verify_tietze_substitution().passed


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


def test_euclidean_motion_group_laws():
    rng = random.Random(7)
    w = QuadInt.tau(3)
    pool = [EuclideanMotion(QuadInt.one(3) + w, QuadInt(3, rng.randint(-3, 3),
                                                        rng.randint(-3, 3)))
            for _ in range(8)]
    pool.append(EuclideanMotion.identity())
    for a in pool:
        assert (a * a.inverse()).is_identity()
        for b in pool:
            for c in pool:
                lhs = (a * b) * c
                rhs = a * (b * c)
                assert lhs.alpha == rhs.alpha and lhs.beta == rhs.beta


def test_euclidean_motion_orders():
    w = QuadInt.tau(3)
    zeta6 = QuadInt.one(3) + w          # primitive 6th root of unity
    rot = EuclideanMotion(zeta6, QuadInt.zero(3))
    powers = [rot]
    while not powers[-1].is_identity():
        powers.append(powers[-1] * rot)
    assert len(powers) == 6
    trans = EuclideanMotion(QuadInt.one(3), QuadInt.one(3))
    assert trans.is_nontrivial_translation() and not rot.is_nontrivial_translation()


def test_euclidean_motion_replace_runs_the_constructor_checks():
    two = QuadInt.of_int(3, 2)
    with pytest.raises(ValueError) as made:
        EuclideanMotion(two, QuadInt.zero(3))
    with pytest.raises(ValueError) as replaced:
        EuclideanMotion.identity()._replace(alpha=two)
    assert str(replaced.value) == str(made.value) == "alpha = 2 is not a unit of O_3"


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

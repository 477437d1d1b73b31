"""Theorem-level reports: normality, indices, the Euclidean infiniteness
certificate and the abelianization chain, and for each decision a test
that corrupts one input and checks that exactly its rows turn [FAIL]."""

import random
from collections import Counter

import pytest

from picardhyb import catalog, certify
from picardhyb.catalog import WordIdentity
from picardhyb.certify import (
    PRIMED_D1_WORD, Report, coset_table_holds,
    commutator_subgroup_table, hybrid_abelianization_bounds, index_report,
    lemma31_index_bound, lemma36_relations, motion, partial_hybrid_presentation,
    primed_d1_equality, primed_d3_closure, render_motion, triangle_236_certificate,
    verify_normality, verify_primed_d1_word, verify_reports, verify_tietze_substitution,
    verify_word_identities,
)
from picardhyb.cxhyp import INT_ID, int_inv, int_key, int_mul, int_word
from picardhyb.exactring import QuadInt, units
from picardhyb.cli import main
from picardhyb.fpgroups import (
    AbelianInvariants, CosetTable, Presentation, abelianization, parse_word, todd_coxeter,
)


@pytest.mark.parametrize("d", (1, 3, 7))
def test_word_identities_report(d):
    assert verify_word_identities(d).passed


@pytest.mark.parametrize("d", (1, 3, 7))
def test_normality_report(d):
    assert verify_normality(d).passed


def test_index_d1_is_two():
    res = index_report(1)
    assert res.outcome == "finite" and res.table.index == 2
    assert res.table.complete


def test_index_d7_is_one():
    res = index_report(7)
    assert res.outcome == "finite" and res.table.index == 1


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


def test_triangle_certificate_is_on_the_catalog_quotient_presentation():
    assert triangle_236_certificate().presentation == catalog.get_catalog(3).quotient_presentation()


def test_triangle_certificate_rejects_a_wrong_witness():
    cert = triangle_236_certificate()
    # (P Q^-1)^6, the sixth power of the rotation, maps to the identity,
    # not to a translation
    assert not cert._replace(witness_word="(P Q^-1)^6").validate()
    # with Q sent to the identity every relator still dies (P becomes a
    # rotation of order 3), but the witness becomes P^3, the identity
    no_q = cert._replace(images={**cert.images, "Q": INT_ID})
    assert all(c.passed for c in no_q._relator_rows())
    assert no_q.witness_image == INT_ID and not no_q.validate()
    # (P Q^-1)^3 is the half-turn about 0, not a translation
    assert not cert._replace(witness_word="(P Q^-1)^3").validate()
    # Q (P Q^-1)^3 is the translation z -> z + 1
    assert cert._replace(witness_word="Q (P Q^-1)^3").validate()


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


# omega = w as a scalar matrix, a unit of O_3
OMEGA_ID = (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)


# other: the name whose matrix replaces name's, or a function of int_env
# that gives the replacement
@pytest.mark.parametrize("name, other, want", (
    ("I1", "I2", [False, True, True]),
    ("I2", "U2", [True, False, False]),
    # omega*E2 is E2 in PU(2,1), so it has E2's word_key, but not its
    # matrix: lemma 3.1 is decided on exact matrices
    pytest.param("E2", lambda env: int_mul(3, OMEGA_ID, env["E2"]), [False, True, True],
                 id="E2-omega-E2"),
))
def test_lemma31_rows_fail_on_a_corrupted_catalog(monkeypatch, name, other, want):
    real = catalog.get_catalog(3)
    value = other(real.int_env) if callable(other) else real.int_env[other]
    if callable(other):
        # the same element of PU(2,1) as a different matrix
        assert value != real.int_env[name] and int_key(3, value) == int_key(3, real.int_env[name])
    corrupted = real._replace(int_env={**real.int_env, name: value})
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


def _orders(x):
    """The k in 1..12 with x^k the identity."""
    return [k for k in range(1, 13) if int_word(3, (1,) * k, [x]) == INT_ID]


def test_euclidean_motion_orders():
    rot = motion((1, 1), (0, 0))        # by 1 + w, a primitive 6th root of unity
    assert _orders(rot) == [6, 12]
    half_turn = triangle_236_certificate().images["Q"]
    assert half_turn != INT_ID and int_mul(3, half_turn, half_turn) == INT_ID
    # the paper's (2,3,6) reading: a = P Q^-1 has order 6, b = Q order 2
    # and a b = P order 3
    cert = triangle_236_certificate()
    names = cert.presentation.gen_names
    assert cert.image(parse_word("P Q^-1", names)) == rot
    assert [_orders(cert.image(parse_word(t, names)))[0] for t in ("P Q^-1", "Q", "P")] == [6, 2, 3]


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


# the rows that rest on the commutator table's own check: the three
# "dies in Gamma(3)^ab" rows of lemma 3.8 and of the section-3 closing,
# lemma 3.9 and corollary 3.12
TABLE_CHECK_ROWS = Counter({"lemma-3.8": 3, "lemma-3.9": 1, "corollary-3.12": 1,
                            "section-3-closing": 3})


def _failed_table_rows() -> Counter:
    return Counter(c.check_id for report in (hybrid_abelianization_bounds(), primed_d3_closure())
                   for c in report.checks if not c.passed)


def test_lemma39_row_checks_the_commutator_table(monkeypatch):
    # P is not a commutator: its image in Gamma(3)^ab = Z/6 has order 3
    monkeypatch.setattr(certify, "COMMUTATOR_WORDS", certify.COMMUTATOR_WORDS + ("P",))
    assert _failed_table_rows() == TABLE_CHECK_ROWS


def test_lemma39_row_fails_on_a_corrupted_commutator_table(monkeypatch):
    # rows 0 and 1 of the Q^-1 column swapped: that column is no longer the
    # inverse of Q's, though the index, the status and every commutator
    # word's action on coset 0 stay as they were
    table = commutator_subgroup_table()
    rows = [list(r) for r in table.table]
    rows[0][3], rows[1][3] = rows[1][3], rows[0][3]
    corrupted = CosetTable(table.ngens, rows, table.status)
    monkeypatch.setattr(certify, "commutator_subgroup_table", lambda: corrupted)
    # the dies rows read coset 0 of the table, so they rest on its check too
    assert _failed_table_rows() == TABLE_CHECK_ROWS


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
    report = primed_d1_equality(index_report(1))
    assert report.passed
    assert verify_primed_d1_word()
    # the stored word uses an even number of I0/Q letters, i.e. it lies in
    # the index-2 hybrid H(1)
    letters = PRIMED_D1_WORD.split()
    parity = sum(1 for x in letters if x.rstrip("^-1234567890") in ("I0", "Q"))
    assert parity % 2 == 0


def test_primed_d3_closure():
    assert primed_d3_closure().passed


# the upper bounds of theorems 4.5 and 5.5, as words over the hybrid
# generators: each Picard generator of d=7 (index 1), and each Picard
# generator of d=1 times a coset representative of the transversal {1, I0}
# (index at most 2; I0^2 is a relator)
UPPER_BOUND_WORDS = (
    (1, "T", "U1"),
    (1, "Q I0^-1", "U2 E2^-1 E1 U1^-1"),
    (1, "I0 Q", "U1 E1^-1 E2 U2^-1"),
    (1, "I0 T I0^-1", "U2"),
    (7, "T1", "A2 B2 A2 A1^-1 B1 A2^-1"),
    (7, "R", "A2^-1 B1 A1^-1 A2 B1 A1^-1 B1 A2^-1 U1^-1"),
    (7, "I", "A2^-1 A1^-1 A2 B2 A2 A1^-1 B1 A2^-1 A1^-1 A2 B2 A2"),
)

# proposition 6.2's normality the other way round, g X g^-1, for the d=3
# generators the catalog conjugates as g^-1 X g (R is an involution)
D3_NORMALITY_INVERSE_SIDE = (
    ("P U1 P^-1", "U1"),
    ("P U2 P^-1", "U2^-1 E1^-1"),
    ("P E1 P^-1", "U1 U2"),
    ("Q U1 Q^-1", "U1"),
    ("Q U2 Q^-1", "E1 U1^-1"),
    ("Q E1 Q^-1", "U1 U2"),
)


def _assert_holds_and_a_corruption_fails(d: int, lhs: str, rhs: str) -> None:
    """lhs = rhs in PU(2,1) over all the names of the catalog, and not with
    the last letter of rhs inverted."""
    cat = catalog.get_catalog(d)
    *head, last = rhs.split()
    corrupted = " ".join([*head, last[:-3] if last.endswith("^-1") else f"{last}^-1"])
    assert cat.word_key(lhs) == cat.word_key(rhs)
    assert cat.word_key(lhs) != cat.word_key(corrupted)


@pytest.mark.parametrize("d, lhs, rhs", UPPER_BOUND_WORDS)
def test_index_upper_bound_words(d, lhs, rhs):
    _assert_holds_and_a_corruption_fails(d, lhs, rhs)


@pytest.mark.parametrize("lhs, rhs", D3_NORMALITY_INVERSE_SIDE)
def test_d3_normality_inverse_side(lhs, rhs):
    _assert_holds_and_a_corruption_fails(3, lhs, rhs)


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


def test_relator_rows_fail_on_a_relator_that_survives(monkeypatch):
    # killing P too: P maps to z -> -(1 + w) z + (1 + w), a rotation of order 3
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(
        word_identities=(*cat.word_identities, WordIdentity("lemma-3.2", "P", "P"))))
    report = verify_tietze_substitution()
    assert _failed(report) == ["quotient relator #8 maps to the identity motion"]
    assert report.checks[-1].witness == "z -> (-1-w)*z + (1+w)"
    assert index_report(3).outcome == "undecided"


def test_word_identity_rows_fail_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(int_env={**cat.int_env, "U1": cat.int_env["U2"]}))
    assert _failed(verify_word_identities(3)) == ["U1 = Q^2"]


def test_primed_d3_square_row_fails_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(int_env={**cat.int_env, "E1p": cat.int_env["E1"]}))
    assert _failed(primed_d3_closure()) == ["(E1')^2 = E1"]


def test_corollary46_rows_fail_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(1)
    _serve(monkeypatch, cat._replace(
        int_env={**cat.int_env, "R1": cat.int_env["R2"]}))
    report = primed_d1_equality(index_report(1))
    assert len(report.checks) == 8
    assert _failed(report) == [
        "E1^2 E2 R1 is a unit scalar (so the order-4 element lies in the plain hybrid)",
        "R2^-1 R1^-2 = E1 (so the plain hybrid lies in the primed one)",
        "R2^-2 R1^-1 = E2 (so the plain hybrid lies in the primed one)",
        "the order-4 word over I0, Q, T is verified",
    ]


def test_lemma36_rows_fail_on_a_corrupted_catalog(monkeypatch):
    cat = catalog.get_catalog(3)
    _serve(monkeypatch, cat._replace(int_env={**cat.int_env, "E1": cat.int_env["U1"]}))
    assert _failed(lemma36_relations()) == [
        f"{t} = 1" for t in certify.LEMMA36_RELATORS if t != "(U1 U2)^3"]


@pytest.mark.parametrize("corrupt, rows", (
    (False, ["corollary-3.7"]),
    (True, ["lemma-3.10", "corollary-3.12"]),
), ids=["corollary-3.7", "lemma-3.10"])
def test_partial_presentation_rows_fail_on_a_relation_dropped(monkeypatch, corrupt, rows):
    # the plain or the primed presentation with only its first relation,
    # (E1)^3 or (E1'^2)^3: its abelianization has free rank 2, so it is infinite
    real = partial_hybrid_presentation

    def dropped(primed=False):
        p = real(primed)
        return p._replace(relators=p.relators[:1]) if primed == corrupt else p

    monkeypatch.setattr(certify, "partial_hybrid_presentation", dropped)
    report = hybrid_abelianization_bounds()
    assert [c.check_id for c in report.checks if not c.passed] == rows


def test_gamma3_abelianization_row_fails_on_a_wrong_result(monkeypatch):
    # Z/3 for Gamma(3)^ab: the lemma-3.8 row fails, and so does the check of
    # the commutator table, which has 6 cosets, not 3, and with it every row
    # that reads the table
    gamma3 = catalog.get_catalog(3).presentation

    def wrong(p):
        return AbelianInvariants(0, (3,)) if p == gamma3 else abelianization(p)

    monkeypatch.setattr(certify, "abelianization", wrong)
    dies = [f"H'(3) generator {t} dies in Gamma(3)^ab" for t in certify.PRIMED_D3_WORDS]
    assert _failed(hybrid_abelianization_bounds()) == [
        "Gamma(3)^ab = Z/3", *dies, "[Gamma(3),Gamma(3)]^ab = Z x Z",
        "finite H'(3)^ab inside a subgroup with infinite abelianization"
        " forces infinite index (finite-index transfer of Lemma 3.11)"]
    assert _failed(primed_d3_closure()) == dies


def test_primed_d3_quotient_row_fails_on_a_word_outside_the_commutators(monkeypatch):
    # P has order 3 in Gamma(3)^ab = Z/6, so killing it too leaves Z/2
    monkeypatch.setattr(certify, "PRIMED_D3_WORDS", certify.PRIMED_D3_WORDS + ("P",))
    failed = _failed(primed_d3_closure())
    assert len(failed) == 2 and failed[0] == "H'(3) generator P dies in Gamma(3)^ab"
    assert failed[1].startswith("Gamma(3)/<<H'(3)>> abelianizes to Z/6")


# -- one decision per claim kind -------------------------------------------
#
# decider: a private decider of certify; rows: the check ids of the rows of
# verify_reports(d) it decides, with their counts; claims: the claim rows
# that rest on those rows as premises, so flip with them

@pytest.mark.parametrize("decider, d, rows, claims", (
    ("_equalities", 1, {"lemma-4.3": 4, "lemma-4.4": 6, "corollary-4.6": 5}, ["theorem-4.5"]),
    ("_equalities", 3, {"lemma-3.2": 3, "lemma-3.3": 9, "lemma-3.1": 3, "lemma-3.6": 6,
                        "section-3-closing": 1},
     ["theorem-3.4", "proposition-6.2", "proposition-6.3", "corollary-3.12"]),
    ("_equalities", 7, {"lemma-5.3": 6, "lemma-5.4": 7}, ["theorem-5.5"]),
    ("_primed_d3_words_die", 1, {}, []),
    ("_primed_d3_words_die", 3, {"lemma-3.8": 3, "section-3-closing": 3}, []),
    ("_primed_d3_words_die", 7, {}, []),
), ids=[f"{kind}-{d}" for kind in ("equalities", "coset-0") for d in (1, 3, 7)])
def test_each_claim_kind_has_one_decider(monkeypatch, decider, d, rows, claims):
    # invert every verdict of the decider: exactly its rows flip, and the
    # claims that rest on them
    before = [c for r in verify_reports(d) for c in r.checks]
    assert all(c.passed for c in before)
    real = getattr(certify, decider)
    monkeypatch.setattr(certify, decider, lambda *args: [
        c._replace(passed=not c.passed) for c in real(*args)])
    after = [c for r in verify_reports(d) for c in r.checks]
    assert [c[:2] for c in after] == [c[:2] for c in before]
    assert Counter(c.check_id for c in after if not c.passed) == Counter(rows) + Counter(claims)


# -- the coset-table check of the index rows -------------------------------

def test_coset_table_check_accepts_the_tables_verify_uses():
    cat = catalog.get_catalog(1)
    table = index_report(1).table
    assert coset_table_holds(table, cat.presentation, cat.hybrid_words())
    # corollary 4.6's adjoining row reads the same table of H(1)
    subgens = (*cat.hybrid_words(), cat.picard_word(PRIMED_D1_WORD))
    assert coset_table_holds(table, cat.presentation, subgens)
    cat = catalog.get_catalog(7)
    assert coset_table_holds(index_report(7).table, cat.presentation, cat.hybrid_words())


def test_coset_table_check_rejects_each_broken_condition():
    # the cosets of <a> in S3 = <a, b | a^2, b^3, (a b)^2>
    s3 = Presentation(2, [(1, 1), (2, 2, 2), (1, 2, 1, 2)])
    table = todd_coxeter(s3, [(1,)])
    assert table.index == 3 and coset_table_holds(table, s3, [(1,)])
    rows = [list(r) for r in table.table]
    rows[1][2], rows[2][2] = rows[2][2], rows[1][2]        # b's column, unpaired
    assert not coset_table_holds(CosetTable(2, rows, "complete"), s3, [(1,)])
    # b does not fix coset 0
    assert not coset_table_holds(table, s3, [(1,), (2,)])
    z2 = Presentation(1, [(1, 1)])
    # a^2 fixes both cosets, but a's inverse column is the identity, not a^-1
    assert not coset_table_holds(CosetTable(1, [[1, 0], [0, 1]], "complete"), z2, [])
    # a permutation paired with its inverse, and every relator and subgroup
    # word fixes every coset, but coset 1 is not reached from coset 0
    assert not coset_table_holds(CosetTable(1, [[0, 0], [1, 1]], "complete"), z2, [(1,)])
    # a is a transposition, which a^3 does not fix
    swap = CosetTable(1, [[1, 1], [0, 0]], "complete")
    assert coset_table_holds(swap, z2, [])
    assert not coset_table_holds(swap, Presentation(1, [(1, 1, 1)]), [])
    assert not coset_table_holds(CosetTable(1, [], "overflowed"), z2, [])


ADJOINING_ROW = "- [FAIL] corollary-4.6: adjoining the order-4 element"


def _swapped_entry(p, subgens=(), **kwargs):
    # the complete table with the two entries of one column swapped: its
    # index and status are unchanged, so only the table's own check fails
    table = todd_coxeter(p, subgens, **kwargs)
    rows = [list(r) for r in table.table]
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
    return CosetTable(table.ngens, rows, table.status)


# both d=1 index rows read the one table of H(1): a swapped entry fails
# both, and an adjoined word that moves coset 0 fails the adjoining row
@pytest.mark.parametrize("name, value, rows", (
    ("todd_coxeter", _swapped_entry, [
        "- [FAIL] theorem-4.5: quotient PU(2,1,O_1)/H(1) has order 2", ADJOINING_ROW]),
    # I0 has an odd count of I0/Q letters, so it lies outside H(1) and moves
    # coset 0; it is also not R1
    ("PRIMED_D1_WORD", "I0", [
        "- [FAIL] corollary-4.6: the order-4 word over I0, Q, T is verified",
        ADJOINING_ROW]),
), ids=["index", "adjoined"])
def test_a_swapped_coset_table_entry_fails_its_row(monkeypatch, capsys, name, value, rows):
    monkeypatch.setattr(certify, name, value)
    assert main(["verify", "--d", "1"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
    assert len(failed) == len(rows)
    assert all(line.startswith(row) for line, row in zip(failed, rows))

"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing its stated time budget."""

import random
import time

from picardhyb.catalog import cayley, embed, get_catalog
from picardhyb.cxhyp import (
    Mat, canonical_rep, classify, int_is_unitary, proj_eq, projective_order,
)
from picardhyb.certify import (
    commutator_subgroup_table, hybrid_abelianization_bounds, index_report,
    lemma31_index_bound, motion, render_motion, verify_normality,
    verify_word_identities,
)
from picardhyb.fpgroups import (
    AbelianInvariants, Presentation, abelianization, eval_word, parse_word,
    reidemeister_schreier, smith_normal_form, todd_coxeter,
)
from picardhyb.search import find_word


def _report(criterion, description, elapsed, limit):
    status = "PASS" if elapsed < limit else "SLOW"
    print(f"[{status}] criterion {criterion}: {description} "
          f"({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s"


def test_criterion_1_form_preservation():
    t0 = time.monotonic()
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for m in cat.fuchsian.values():
            assert int_is_unitary(d, cayley(embed(1, m)))
        for x in cat.int_env.values():
            assert int_is_unitary(d, x)
        ident = Mat.identity(d, 3)
        names = cat.presentation.gen_names
        env = dict(cat.picard)
        for r in cat.presentation.relators:
            acc = Mat.identity(d, 3)
            for g in r:
                gen = env[names[abs(g) - 1]]
                acc = acc * (gen if g > 0 else gen.inverse())
            assert proj_eq(acc, ident)
    _report(1, "forms preserved, relators are unit multiples of Id",
            time.monotonic() - t0, 5)


def test_criterion_2_word_identities():
    t0 = time.monotonic()
    counts = {3: 3, 1: 4, 7: 6}
    for d in (3, 1, 7):
        cat = get_catalog(d)
        assert len(cat.word_identities) == counts[d]
        report = verify_word_identities(d)
        assert report.passed
    _report(2, "13 word identities verify projectively",
            time.monotonic() - t0, 5)


def test_criterion_3_normality():
    t0 = time.monotonic()
    for d in (3, 1, 7):
        assert verify_normality(d).passed
    _report(3, "all conjugation identities verify exactly",
            time.monotonic() - t0, 10)


def test_criterion_4_indices():
    t0 = time.monotonic()
    r1 = index_report(1)
    assert r1.outcome == "finite" and r1.table.index == 2 and r1.table.complete
    r7 = index_report(7)
    assert r7.outcome == "finite" and r7.table.index == 1 and r7.table.complete
    # relator closure of the d=1 table
    cat = get_catalog(1)
    pres = cat.quotient_presentation()
    for alpha in range(r1.table.index):
        for rel in pres.relators:
            assert r1.table.act_word(alpha, rel) == alpha
    _report(4, "quotient indices: 2 for d=1, 1 for d=7",
            time.monotonic() - t0, 60)


def test_criterion_5_infiniteness_certificate():
    t0 = time.monotonic()
    res = index_report(3)
    assert res.outcome == "infinite"
    cert = res.certificate
    assert cert.validate()
    assert cert.witness_image == motion((1, 0), (-1, 0))     # z -> z - 1
    assert render_motion(cert.witness_image) == "z -> (1)*z + (-1)"
    assert lemma31_index_bound().passed
    _report(5, "d=3 Euclidean infiniteness certificate validates",
            time.monotonic() - t0, 5)


def test_criterion_6_abelianizations():
    t0 = time.monotonic()
    cat = get_catalog(3)
    # Z/3 x Z/2 is cyclic of order 6
    assert abelianization(cat.presentation) == AbelianInvariants(0, (6,))
    report = hybrid_abelianization_bounds()
    assert report.passed
    table = commutator_subgroup_table()
    sub = reidemeister_schreier(cat.presentation, table)
    assert abelianization(sub) == AbelianInvariants(2, ())
    _report(6, "abelianization chain: Z/6, vanishing images, Z + Z",
            time.monotonic() - t0, 60)


def test_criterion_7_classification():
    t0 = time.monotonic()
    for d in (1, 3, 7):
        env = get_catalog(d).int_env
        assert classify(d, env["U1"]) == "unipotent-2-step"
        assert classify(d, env["U2"]) == "unipotent-2-step"
    env3 = get_catalog(3).int_env
    assert classify(3, env3["E1"]) == "regular-elliptic"
    assert projective_order(3, env3["E1"], 6) == 3
    env7 = get_catalog(7).int_env
    assert classify(7, env7["A1"]) == "loxodromic"
    assert classify(7, env7["B1"]) == "complex-reflection"
    assert projective_order(7, env7["B1"], 4) == 2
    _report(7, "isometry inventory matches (2-step, elliptic, loxodromic)",
            time.monotonic() - t0, 5)


def test_criterion_8_search():
    t0 = time.monotonic()
    cat = get_catalog(3)
    env = cat.env()
    gens = [env[n] for n in ("P", "Q", "R")]
    kernel = [cat.int_env[n] for n in ("P", "Q", "R")]
    u1 = find_word(3, cat.int_env["U1"], kernel, max_depth=3)
    assert u1.found and u1.word == (2, 2)
    e1 = find_word(3, cat.int_env["E1"], kernel, max_depth=12)
    assert e1.found and len(e1.word) <= 12
    assert proj_eq(eval_word(e1.word, gens, Mat.identity(3)), env["E1"])
    _report(8, "search recovers U1 = Q^2 and a verified word for E1",
            time.monotonic() - t0, 120)


def test_criterion_9_oracles():
    t0 = time.monotonic()
    # (a) Todd-Coxeter vs known group orders on a small corpus
    corpus = [
        (("a", "b"), ("a^2", "b^2", "(a b)^2"), 4),
        (("a", "b"), ("a^2", "b^3", "(a b)^2"), 6),
        (("a", "b"), ("a^4", "b^2", "(a b)^2"), 8),
        (("a",), ("a^6",), 6),
        (("a", "b"), ("a^2", "b^3", "(a b)^4"), 24),
    ]
    for gens, rels, order in corpus:
        p = Presentation(len(gens),
                         tuple(parse_word(t, gens) for t in rels), gens)
        t = todd_coxeter(p)
        assert t.complete and t.index == order
    # (b) SNF postcondition on 100 random matrices
    rng = random.Random(0)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        dmat, lmat, rmat = smith_normal_form(a)
        la = [[sum(lmat[i][k] * a[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        lar = [[sum(la[i][k] * rmat[k][j] for k in range(n)) for j in range(n)]
               for i in range(m)]
        assert lar == dmat
    # (c) canonical form laws on 1000 random catalog words
    for d in (1, 3, 7):
        cat = get_catalog(d)
        gens = list(cat.picard.values())
        moves = gens + [g.inverse() for g in gens]
        rng = random.Random(d)
        mats = []
        for _ in range(334):
            acc = Mat.identity(d, 3)
            for _ in range(rng.randint(1, 6)):
                acc = acc * rng.choice(moves)
            mats.append(acc)
        for m in mats:
            rep = canonical_rep(m)
            assert canonical_rep(rep.rep).key() == rep.key()
            assert proj_eq(m, rep.rep)
    _report(9, "oracles: coset enumeration, SNF, canonical form laws",
            time.monotonic() - t0, 60)

"""Exact matrix algebra, projective canonicalization, classification and
the Heisenberg boundary action."""

import random
from fractions import Fraction

import pytest

from picardhyb.catalog import cayley, embed, get_catalog
from picardhyb.cxhyp import (
    BoundaryPoint, IsometryClass, Mat, NormalizationError, boundary_action,
    canonical_rep, classify, goldman_f, heis_translation, int_is_unitary,
    int_mat, proj_eq, projective_order, su_normalize,
)
from picardhyb.exactring import QuadInt, QuadRat, units


def test_mat_inverse_and_det():
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for m in cat.picard.values():
            assert (m * m.inverse() - Mat.identity(d, 3)).is_zero()
            assert m.det().norm() == 1  # unit determinant


def test_forms_preserved():
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for m in list(cat.picard.values()) + list(cat.hybrid.values()):
            assert int_is_unitary(d, int_mat(m))
        for m in cat.fuchsian.values():
            assert int_is_unitary(d, int_mat(cayley(embed(1, m))))


def _random_words(d, count, length, seed):
    cat = get_catalog(d)
    gens = list(cat.picard.values())
    moves = gens + [g.inverse() for g in gens]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = Mat.identity(d, 3)
        for _ in range(rng.randint(1, length)):
            m = m * rng.choice(moves)
        out.append(m)
    return out


def test_canonical_rep_idempotent_and_unit_invariant():
    for d in (1, 3, 7):
        for m in _random_words(d, 50, 6, seed=d):
            rep = canonical_rep(m)
            assert canonical_rep(rep.rep).key() == rep.key()
            for u in units(d):
                assert canonical_rep(m.scale(QuadRat.of(u))).key() == rep.key()


def test_proj_eq_equivalence_laws():
    for d in (1, 3, 7):
        ms = _random_words(d, 20, 5, seed=10 + d)
        for m in ms:
            assert proj_eq(m, m)
        for m in ms:
            for n in ms:
                assert proj_eq(m, n) == proj_eq(n, m)
                if proj_eq(m, n):
                    assert canonical_rep(m).key() == canonical_rep(n).key()


def test_goldman_examples():
    # identity trace 3 sits on the zero locus; trace 0 is regular elliptic
    assert goldman_f(QuadRat.of_fraction(3, 3)) == 0
    assert goldman_f(QuadRat.of_fraction(3, 0)) == -27
    # trace of A1 (d=7) is 1 + i*sqrt(7): f = 341 > 0
    tau = QuadRat.of(QuadInt(7, 1, 0) + QuadInt.sqrt_minus_d(7))
    assert goldman_f(tau) == 341


def test_su_normalize_rejects_non_unit_rescalable():
    m = Mat.identity(3, 3).scale(QuadRat.of_fraction(3, 2))
    with pytest.raises(NormalizationError):
        su_normalize(m)


def test_classification_catalog_inventory():
    for d in (1, 3, 7):
        env = get_catalog(d).env()
        assert classify(env["U1"]) is IsometryClass.UNIPOTENT_2_STEP
        assert classify(env["U2"]) is IsometryClass.UNIPOTENT_2_STEP
    env3 = get_catalog(3).env()
    assert classify(env3["E1"]) is IsometryClass.REGULAR_ELLIPTIC
    assert projective_order(env3["E1"], 6) == 3
    env7 = get_catalog(7).env()
    assert classify(env7["A1"]) is IsometryClass.LOXODROMIC
    assert classify(env7["A2"]) is IsometryClass.LOXODROMIC
    # B1, B2 are non-regular elliptic: zero discriminant, finite order
    assert classify(env7["B1"]) is IsometryClass.OTHER_BOUNDARY
    assert projective_order(env7["B1"], 4) == 2
    assert classify(env7["B2"]) is IsometryClass.OTHER_BOUNDARY
    assert projective_order(env7["B2"], 4) == 2


def test_classify_conjugation_invariant():
    for d in (1, 3, 7):
        env = get_catalog(d).env()
        targets = [env["U1"], env["U2"]]
        for g in _random_words(d, 10, 4, seed=20 + d):
            for m in targets:
                assert classify(g * m * g.inverse()) == classify(m)


def test_heis_translation_classification():
    for d in (1, 3, 7):
        s = QuadRat.of(QuadInt.sqrt_minus_d(d))
        vertical = heis_translation(QuadRat.zero(d), s)
        assert classify(vertical) is IsometryClass.UNIPOTENT_2_STEP
        horizontal = heis_translation(QuadRat.one(d), s)
        assert classify(horizontal) is IsometryClass.UNIPOTENT_3_STEP


def test_heis_translation_rejects_real_s():
    with pytest.raises(ValueError):
        heis_translation(QuadRat.one(3), QuadRat.one(3))


def test_boundary_action_translation():
    d = 3
    s = QuadRat.of(QuadInt.sqrt_minus_d(d))  # i*sqrt(3) = it/2, t = 2*sqrt(3)
    m = heis_translation(QuadRat.zero(d), s)
    p = boundary_action(m, BoundaryPoint.origin(d))
    assert not p.at_infinity
    z, t = p.approx()
    assert abs(z) < 1e-12
    assert abs(t - 2 * 3 ** 0.5) < 1e-12
    assert p.t_coeff == Fraction(2)


def test_boundary_action_infinity():
    d = 1
    cat = get_catalog(d)
    i0 = cat.picard["I0"]
    # I0 swaps 0 and infinity in the Siegel model
    img = boundary_action(i0, BoundaryPoint.origin(d))
    assert img.at_infinity
    back = boundary_action(i0, img)
    assert not back.at_infinity and back.key() == BoundaryPoint.origin(d).key()


def test_boundary_point_lift_is_null():
    for d in (1, 3, 7):
        for p in (BoundaryPoint.origin(d),
                  BoundaryPoint.finite(QuadInt.tau(d), Fraction(1, 2)),
                  BoundaryPoint.infinity(d)):
            v = p.lift()
            # <v, v> for the antidiagonal Siegel form
            total = v[0].conj() * v[2] + v[1].conj() * v[1] + v[2].conj() * v[0]
            assert total.is_zero()


def test_projective_order_limits():
    env = get_catalog(3).env()
    assert projective_order(env["U1"], 10) is None  # parabolic, infinite order
    assert projective_order(Mat.identity(3, 3)) == 1

"""Exact matrix algebra, projective canonicalization, classification and
the Heisenberg boundary action."""

import random
from fractions import Fraction

import pytest

from picardhyb.catalog import cayley, embed, get_catalog
from picardhyb.cxhyp import (
    INT_ID, BoundaryPoint, Mat, boundary_action, canonical_rep,
    classify, goldman_f, int_is_unitary, int_mat, proj_eq,
    projective_order,
)
from picardhyb.exactring import QuadInt, QuadRat, units


def test_mat_rejects_tuple_arithmetic():
    # a NamedTuple would concatenate or repeat its fields into a plain tuple
    m = Mat.identity(1)
    for op in (lambda: 2 * m, lambda: m + m, lambda: m * 2):
        with pytest.raises(TypeError):
            op()


def test_mat_inverse_and_det():
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for m in cat.picard.values():
            assert m * m.inverse() == Mat.identity(d, 3)
            assert m.det().norm() == 1  # unit determinant


def test_forms_preserved():
    for d in (1, 3, 7):
        cat = get_catalog(d)
        for x in cat.int_env.values():
            assert int_is_unitary(d, x)
        for m in cat.fuchsian.values():
            assert int_is_unitary(d, cayley(embed(1, m)))


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
    # traces and determinants are (a, b) pairs a + b*tau_d
    # identity trace 3 sits on the zero locus; trace 0 is regular elliptic
    assert goldman_f(3, (3, 0), (1, 0)) == 0
    assert goldman_f(3, (0, 0), (1, 0)) == -27
    # 1 + i*sqrt(7) = 2*tau_7 at determinant 1: f = 341 > 0
    assert goldman_f(7, (0, 2), (1, 0)) == 341


def test_classify_rejects_non_integral_or_non_unit_det():
    with pytest.raises(ValueError, match="not a unit"):
        classify(3, int_mat(Mat.identity(3, 3).scale(QuadRat.of_fraction(3, 2))))
    half = QuadRat.of_fraction(3, Fraction(1, 2))
    for m in (Mat.identity(3, 3).scale(half),
              Mat.from_entries(3, ((2, 0, 0), (0, half, 0), (0, 0, 1)))):  # det 1
        with pytest.raises(ValueError, match="integral 3x3"):
            int_mat(m)


# the class of every catalog element; P (d=3, det w) has eigenvalues
# 1, w, 1, so f = 0, and (P - 1)(P - w) != 0, so it is ellipto-parabolic
CATALOG_CLASSES = {
    1: {"I0": "complex-reflection", "Q": "complex-reflection", "T": "unipotent-2-step",
        "E1": "regular-elliptic", "U1": "unipotent-2-step",
        "E2": "regular-elliptic", "U2": "unipotent-2-step",
        "R1": "complex-reflection", "R2": "complex-reflection"},
    3: {"P": "ellipto-parabolic", "Q": "ellipto-parabolic", "R": "complex-reflection",
        "E1": "regular-elliptic", "U1": "unipotent-2-step",
        "E2": "regular-elliptic", "U2": "unipotent-2-step",
        "I1": "complex-reflection", "I2": "complex-reflection",
        "E1p": "regular-elliptic"},
    7: {"T1": "unipotent-3-step", "R": "complex-reflection", "I": "complex-reflection",
        "U1": "unipotent-2-step", "U2": "unipotent-2-step",
        "A1": "loxodromic", "A2": "loxodromic",
        "B1": "complex-reflection", "B2": "complex-reflection"},
}


def test_classification_of_every_catalog_element():
    for d, want in CATALOG_CLASSES.items():
        env = get_catalog(d).int_env
        assert {n: classify(d, x) for n, x in env.items()} == want


def test_classify_identity_and_its_unit_multiples():
    for d in (1, 3, 7):
        assert classify(d, INT_ID) == "identity"
        for u in units(d):
            assert classify(d, int_mat(Mat.identity(d, 3).scale(QuadRat.of(u)))) == "identity"


def test_classify_conjugation_invariant():
    # every catalog element and the conjugating words themselves, each
    # also scaled by every unit
    for d in (1, 3, 7):
        words = _random_words(d, 10, 4, seed=20 + d)
        if d == 3:      # some words have determinant +-w or +-w^2
            assert any(g.det().num.b for g in words)
        for m in list(get_catalog(d).env().values()) + words:
            kind = classify(d, int_mat(m))
            for u in units(d):
                assert classify(d, int_mat(m.scale(QuadRat.of(u)))) == kind
            for g in words:
                assert classify(d, int_mat(g * m * g.inverse())) == kind


def test_heis_translation_classification():
    # vertical: U1, the translation by it/2 = i*sqrt(d); horizontal:
    # [[1, -conj z, -|z|^2/2 + s], [0, 1, z], [0, 0, 1]] with z = 1+i, s = i
    # for d=1 and z = 1, s = i*sqrt(d)/2 for d = 3, 7 (for d=7 this is T1)
    t = {d: QuadInt.tau(d) for d in (1, 3, 7)}
    horizontal = {
        1: ((1, -1 + t[1], -1 + t[1]), (0, 1, 1 + t[1]), (0, 0, 1)),
        3: ((1, -1, t[3]), (0, 1, 1), (0, 0, 1)),
        7: ((1, -1, t[7] - 1), (0, 1, 1), (0, 0, 1)),
    }
    for d in (1, 3, 7):
        vertical = get_catalog(d).int_env["U1"]
        assert classify(d, vertical) == "unipotent-2-step"
        m = Mat.from_entries(d, horizontal[d])
        assert classify(d, int_mat(m)) == "unipotent-3-step"
    assert Mat.from_entries(7, horizontal[7]) == get_catalog(7).picard["T1"]


def test_boundary_action_translation():
    d = 3
    m = get_catalog(d).env()["U1"]   # it/2 = i*sqrt(3), t = 2*sqrt(3)
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


def test_boundary_point_lift_of_int_t_coeff_is_exact():
    # t_coeff defaults to the int 0, and an int past 2^53 must not round
    z = QuadRat.one(1)
    for t in (0, 3, 2**60 + 1):
        assert (BoundaryPoint(1, False, z, t).lift()
                == BoundaryPoint.finite(z, Fraction(t)).lift())
    assert BoundaryPoint(1, False, z).lift() == BoundaryPoint.finite(z).lift()


def test_projective_order_limits():
    env = get_catalog(3).int_env
    assert projective_order(3, env["U1"], 10) is None  # parabolic, infinite order
    assert projective_order(3, int_mat(Mat.identity(3, 3))) == 1
    assert projective_order(3, env["E1"], 6) == 3
    # B1, B2 are non-regular elliptic: zero discriminant, finite order
    env7 = get_catalog(7).int_env
    assert projective_order(7, env7["B1"], 4) == 2
    assert projective_order(7, env7["B2"], 4) == 2

"""Authoritative store of the generator matrices, presentations and word
identities for the Picard modular groups PU(2,1,O_d) and their hybrid
subgroups H(d), d in {1, 3, 7}.

Every displayed 3x3 hybrid matrix is stored twice: as the literal and as
the block embedding conjugated by the Cayley transform. Equality of the
two is asserted when the catalog is built, so transcription drift in
either source is caught immediately.

Two corrected readings are stored with flags (surfaced in reports):
  * d=1: the identity "U2 = I0 U2 I0" is realized as U2 = I0 T I0, the
    only reading consistent with the displayed U2 matrix.
  * d=7: "B2 = J^-1 iota_2(U) J" is realized with B in place of U,
    consistent with the displayed B2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactring import SUPPORTED_D, QuadInt, QuadRat
from .cxhyp import (
    Mat, ProjIsom, canonical_rep, disk_form, herm_form_h2, is_unitary, proj_eq,
)
from .fpgroups import Presentation, Word, eval_word, parse_word


class CatalogError(AssertionError):
    """A build-time cross-check of the stored data failed."""


def _mat(d, entries) -> Mat:
    return Mat.from_entries(d, entries)


# -- embeddings and Cayley transform --------------------------------------

def embed(slot: int, m: Mat) -> Mat:
    """Block embedding iota_1 / iota_2 of a disk-model 2x2 matrix."""
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    if m.n != 2:
        raise ValueError("embed expects a 2x2 matrix")
    if not is_unitary(m, disk_form(m.d)):
        raise ValueError("2x2 matrix does not preserve the disk form")
    a, b = m.rows[0]
    c, e = m.rows[1]
    one, zero = QuadRat.one(m.d), QuadRat.zero(m.d)
    if slot == 1:
        return _mat(m.d, ((a, zero, b), (zero, one, zero), (c, zero, e)))
    return _mat(m.d, ((one, zero, zero), (zero, a, b), (zero, c, e)))


def cayley_transform(d: int) -> Mat:
    """The integral change of model J (and hence J^-1 is integral too)."""
    return _mat(d, ((1, 1, 0), (0, 1, -1), (1, 1, -1)))


def cayley(m: Mat) -> Mat:
    """Conjugate from the ball model to the Siegel model: J^-1 M J."""
    j = cayley_transform(m.d)
    return j.inverse() * m * j


# -- catalog data ----------------------------------------------------------

@dataclass(frozen=True)
class WordIdentity:
    lemma: str
    target: str          # hybrid generator name
    word: str            # word text over the Picard generators
    note: str | None = None


@dataclass(frozen=True)
class ConjugationIdentity:
    lemma: str
    lhs: str             # word text over the combined namespace
    rhs: str


@dataclass(frozen=True)
class Catalog:
    d: int
    fuchsian: dict[str, Mat]                  # 2x2 disk-model generators
    picard: dict[str, Mat]                    # 3x3 Siegel-model generators
    presentation: Presentation                # of PU(2,1,O_d)
    hybrid: dict[str, Mat]                    # plain hybrid generators
    hybrid_primed: dict[str, Mat]             # primed variant (d=1,3)
    word_identities: tuple[WordIdentity, ...]
    conjugation_identities: tuple[ConjugationIdentity, ...]
    quotient_extra_relators: tuple[str, ...]  # words killed for the quotient
    flags: tuple[str, ...] = ()               # corrected-typo notes

    def env(self) -> dict[str, Mat]:
        """Combined name -> matrix namespace (Picard plus hybrid)."""
        out = dict(self.picard)
        out.update(self.hybrid)
        out.update(self.hybrid_primed)
        return out

    def eval_word(self, text: str, env: dict[str, Mat] | None = None) -> Mat:
        return _eval(self.d, text, self.env() if env is None else env)

    def picard_word(self, text: str) -> Word:
        return parse_word(text, self.presentation.names())

    def quotient_presentation(self) -> Presentation:
        from .fpgroups import quotient_by_normal_gens
        extra = tuple(self.picard_word(t) for t in self.quotient_extra_relators)
        return quotient_by_normal_gens(self.presentation, extra)


def hybrid_generators(d: int, variant: str = "plain") -> dict[str, ProjIsom]:
    """Named projective hybrid generators, construction-checked."""
    cat = get_catalog(d)
    if variant == "plain":
        return {k: canonical_rep(m) for k, m in cat.hybrid.items()}
    if variant == "primed":
        if not cat.hybrid_primed:
            raise ValueError(f"no primed hybrid variant for d={d}")
        merged = dict(cat.hybrid)
        merged.update(cat.hybrid_primed)
        return {k: canonical_rep(m) for k, m in merged.items()}
    raise ValueError(f"unknown variant {variant!r}")


def verify_word_identity(d: int, lhs: str, rhs: str | Mat) -> bool:
    """Evaluate lhs through the matrix realization and compare projectively."""
    cat = get_catalog(d)
    target = cat.env()[rhs] if isinstance(rhs, str) else rhs
    return proj_eq(cat.eval_word(lhs), target)


def _eval(d: int, text: str, env: dict[str, Mat]) -> Mat:
    return eval_word(parse_word(text, list(env)), list(env.values()), Mat.identity(d))


# -- per-d construction ----------------------------------------------------

def _catalog_d3() -> Catalog:
    d = 3
    w = QuadInt.tau(3)           # omega
    isq3 = QuadInt.sqrt_minus_d(3)

    fuchsian = {
        "R": _mat(d, ((QuadInt(d, 1, 1), 0), (0, 1))),              # -w^2 = 1+w
        "U": _mat(d, ((1 + isq3, -isq3), (isq3, 1 - isq3))),
        "E": _mat(d, ((w, 0), (0, w * w))),
    }
    picard = {
        "P": _mat(d, ((1, 1, w), (0, w, -w), (0, 0, 1))),
        "Q": _mat(d, ((1, 1, w), (0, -1, 1), (0, 0, 1))),
        "R": _mat(d, ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
    }
    pres = _presentation(
        ("P", "Q", "R"),
        ("R^2", "(Q P^-1)^6", "P Q^-1 R Q P^-1 R", "P^3 Q^-2", "(R P)^3"),
        name="picard-3")

    w2 = w * w
    hybrid_displayed = {
        "E1": _mat(d, ((w2, w2 - 1, w + 2),
                       (isq3, 1 + isq3, w2 - 1),
                       (isq3, isq3, w2))),
        "U1": _mat(d, ((1, 0, isq3), (0, 1, 0), (0, 0, 1))),
        "E2": _mat(d, ((w2, -isq3, isq3),
                       (w + 2, 1 + isq3, -isq3),
                       (w + 2, w + 2, w2))),
        "U2": _mat(d, ((1, 0, 0), (0, 1, 0), (isq3, 0, 1))),
    }
    minus_id2 = _mat(d, ((-1, 0), (0, -1)))
    constructed = {
        "E1": cayley(embed(1, fuchsian["E"])),
        "U1": cayley(embed(1, fuchsian["U"])),
        "E2": cayley(embed(2, fuchsian["E"])),
        "U2": cayley(embed(2, fuchsian["U"])),
    }
    _check_displays(hybrid_displayed, constructed)
    hybrid = dict(constructed)
    hybrid["I1"] = cayley(embed(1, minus_id2))
    hybrid["I2"] = cayley(embed(2, minus_id2))

    word_identities = (
        WordIdentity("lemma-3.2", "U1", "Q^2"),
        WordIdentity("lemma-3.2", "U2", "R Q^2 R"),
        WordIdentity("lemma-3.2", "E1", "P^2 (R Q^2)^2 P^-2"),
    )
    conjugations = tuple(
        ConjugationIdentity("lemma-3.3", lhs, rhs) for lhs, rhs in (
            ("P^-1 U1 P", "U1"),
            ("Q^-1 U1 Q", "U1"),
            ("R^-1 U1 R", "U2"),
            ("P^-1 U2 P", "U1^-1 E1"),
            ("Q^-1 U2 Q", "U1^-1 E1"),
            ("R^-1 U2 R", "U1"),
            ("P^-1 E1 P", "U2^-1 E1^-1 U1"),
            ("Q^-1 E1 Q", "U2 U1"),
            ("R^-1 E1 R", "E1^-1"),
        ))

    # primed generator E1' = P^2 (R Q^2) P^-2, a square root of E1
    e1p = _eval(d, "P^2 (R Q^2) P^-2", picard)
    if not proj_eq(e1p * e1p, hybrid["E1"]):
        raise CatalogError("(E1')^2 is not E1 projectively")

    return Catalog(
        d=d,
        fuchsian=fuchsian,
        picard=picard,
        presentation=pres,
        hybrid=hybrid,
        hybrid_primed={"E1p": e1p},
        word_identities=word_identities,
        conjugation_identities=conjugations,
        quotient_extra_relators=("Q^2",),
        flags=("section-3-closing: the H'(3) generator words die in "
               "Gamma(3)^ab = Z/6, so Gamma(3)/<<H'(3)>> surjects onto Z/6 "
               "and is not the trivial group; <<H'(3)>> is contained in "
               "[Gamma(3),Gamma(3)]",),
    )


def _catalog_d1() -> Catalog:
    d = 1
    i = QuadInt.tau(1)

    fuchsian = {
        "R": _mat(d, ((i, 0), (0, 1))),
        "U": _mat(d, ((1 + i, -i), (i, 1 - i))),
        "E": _mat(d, ((-i, 0), (0, i))),
    }
    picard = {
        "I0": _mat(d, ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
        "Q": _mat(d, ((1, 1 - i, -1), (0, -1, 1 + i), (0, 0, 1))),
        "T": _mat(d, ((1, 0, i), (0, 1, 0), (0, 0, 1))),
    }
    pres = _presentation(
        ("I0", "Q", "T"),
        ("I0^2", "Q^2", "(I0 Q)^3", "(I0 T)^12", "(I0 Q T)^8",
         "(I0 T)^3 T (I0 T)^-3 T^-1", "Q T Q^-1 T^-1"),
        name="picard-1")

    hybrid_displayed = {
        "E1": _mat(d, ((i, -1 + i, 1 - i),
                       (-2 * i, 1 - 2 * i, -1 + i),
                       (-2 * i, -2 * i, i))),
        "U1": _mat(d, ((1, 0, i), (0, 1, 0), (0, 0, 1))),
        "E2": _mat(d, ((i, 2 * i, -2 * i),
                       (1 - i, 1 - 2 * i, 2 * i),
                       (1 - i, 1 - i, i))),
        "U2": _mat(d, ((1, 0, 0), (0, 1, 0), (i, 0, 1))),
    }
    constructed = {
        "E1": cayley(embed(1, fuchsian["E"])),
        "U1": cayley(embed(1, fuchsian["U"])),
        "E2": cayley(embed(2, fuchsian["E"])),
        "U2": cayley(embed(2, fuchsian["U"])),
    }
    _check_displays(hybrid_displayed, constructed)
    hybrid = dict(constructed)

    e1_word = "T^-1 Q (I0 T)^3 I0 (T (I0 T)^-3 Q)^2 I0"
    word_identities = (
        WordIdentity("lemma-4.3", "U1", "T"),
        WordIdentity("lemma-4.3", "U2", "I0 T I0",
                     note="printed as the self-referential 'U2 = I0 U2 I0'; "
                          "corrected to I0 T I0"),
        WordIdentity("lemma-4.3", "E1", e1_word),
        WordIdentity("lemma-4.3", "E2", f"I0 ({e1_word}) I0"),
    )
    conjugations = tuple(
        ConjugationIdentity("lemma-4.4", lhs, rhs) for lhs, rhs in (
            ("Q^-1 U1 Q", "U1"),
            ("Q^-1 U2 Q", "(U1 E1) U2 (U1 E1)^-1"),
            ("Q^-1 E1 Q", "(U2 U1) E2 (U2 U1)^-1"),
            ("Q^-1 E2 Q", "(U2 U1) E1 (U2 U1)^-1"),
            ("I0 U1 I0", "U2"),
            ("I0 E1 I0", "E2"),
        ))

    # order-4 elements of the primed hybrid H'(1): iota_1 and iota_2 of the
    # disk rotation R (the square root of the elliptic E in PU(1,1))
    r1 = cayley(embed(1, fuchsian["R"]))
    r2 = cayley(embed(2, fuchsian["R"]))

    return Catalog(
        d=d,
        fuchsian=fuchsian,
        picard=picard,
        presentation=pres,
        hybrid=hybrid,
        hybrid_primed={"R1": r1, "R2": r2},
        word_identities=word_identities,
        conjugation_identities=conjugations,
        quotient_extra_relators=(
            "T", "I0 T I0", e1_word, f"I0 ({e1_word}) I0"),
        flags=("lemma-4.3: 'U2 = I0 U2 I0' realized as U2 = I0 T I0",
               "corollary-4.6: the order-4 elements R1, R2 satisfy the exact "
               "scalar identities E1^2 E2 R1 = E1 E2^2 R2 = -i Id, so they "
               "already lie in H(1); conversely E1 = R2^-1 R1^-2 and "
               "E2 = R2^-2 R1^-1, so H'(1) = H(1) has index 2, not 1"),
    )


def _catalog_d7() -> Catalog:
    d = 7
    t = QuadInt.tau(7)
    isq7 = QuadInt.sqrt_minus_d(7)

    fuchsian = {
        "U": _mat(d, ((1 + isq7, -isq7), (isq7, 1 - isq7))),
        "A": _mat(d, ((t - 1, 1), (-1, t))),
        "B": _mat(d, ((-1, 0), (0, 1))),
    }
    picard = {
        "T1": _mat(d, ((1, -1, t - 1), (0, 1, 1), (0, 0, 1))),
        "R": _mat(d, ((1, 0, 0), (0, -1, 0), (0, 0, 1))),
        "I": _mat(d, ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
    }
    pres = _presentation(
        ("T1", "R", "I"),
        ("R^2", "I^2", "(R I)^2",
         "R T1^-1 R T1 R T1 R T1^-1",
         "(T1 I T1^-1 R)^4",
         "(T1^-1 I T1 R)^4",
         "T1^-1 I T1^-1 I T1 I T1 I T1^-3 I T1 I T1 I T1^-1 I T1^-1",
         "(T1^-1 I T1 I T1 I T1^-1 I T1^-1 I)^2",
         "(I T1^-1 R)^7",
         "T1^-1 I T1 I T1 I T1^-2 I T1^-1 I T1 I T1^2 I T1^-1 I T1^-1 I T1 I",
         "T1^-1 I T1 I T1 I R T1 I R T1 I T1 I T1^-1 I T1^-1 I T1 R T1^-1 I R T1^-1 I",
         "R T1 I R T1 I T1 I T1^-1 I T1^-1 I R T1^-1 I R T1^-1 I T1^-1 I T1 I T1 I T1^-1",
         "R T1 I R T1 R T1^-1 I T1 I T1 I R T1 I T1 I T1^-1 R T1 R I T1 R T1^-1 I "
         "T1 I T1 I T1 I T1^-1"),
        name="picard-7")

    hybrid_displayed = {
        "U1": _mat(d, ((1, 0, isq7), (0, 1, 0), (0, 0, 1))),
        "U2": _mat(d, ((1, 0, 0), (0, 1, 0), (isq7, 0, 1))),
        "A1": _mat(d, ((t - 1, t - 2, 1 - t), (1, 2, t - 2), (1, 1, t - 1))),
        "B1": _mat(d, ((1, 0, 0), (-2, -1, 0), (-2, -2, 1))),
        "A2": _mat(d, ((t - 1, -1, 1), (2 - t, 2, -1), (1 - t, 2 - t, t - 1))),
        "B2": _mat(d, ((1, 2, -2), (0, -1, 2), (0, 0, 1))),
    }
    constructed = {
        "U1": cayley(embed(1, fuchsian["U"])),
        "U2": cayley(embed(2, fuchsian["U"])),
        "A1": cayley(embed(1, fuchsian["A"])),
        "A2": cayley(embed(2, fuchsian["A"])),
        "B1": cayley(embed(1, fuchsian["B"])),
        "B2": cayley(embed(2, fuchsian["B"])),   # corrected from iota_2(U)
    }
    _check_displays(hybrid_displayed, constructed)

    # the simplification used to drop the -Id generators (projective identity)
    minus_id2 = _mat(d, ((-1, 0), (0, -1)))
    if not proj_eq(embed(1, minus_id2), embed(2, fuchsian["B"])) or \
       not proj_eq(embed(2, minus_id2), embed(1, fuchsian["B"])):
        raise CatalogError("iota_1(-Id) = iota_2(B) cross-check failed")

    word_identities = (
        WordIdentity("lemma-5.3", "U1", "(R T1)^2"),
        WordIdentity("lemma-5.3", "U2", "I (R T1)^2 I"),
        WordIdentity("lemma-5.3", "A1", "T1 I T1 R"),
        WordIdentity("lemma-5.3", "A2", "I (T1 I T1 R) I"),
        WordIdentity("lemma-5.3", "B1", "(I T1) R (I T1)^-1"),
        WordIdentity("lemma-5.3", "B2", "I ((I T1) R (I T1)^-1) I"),
    )
    conjugations = tuple(
        ConjugationIdentity("lemma-5.4", lhs, rhs) for lhs, rhs in (
            ("T1^-1 A1 T1", "(A1 A2^-1 B2 A2^-1 A1)^-1 A2 (A1 A2^-1 B2 A2^-1 A1)"),
            ("T1^-1 A2 T1", "(B2 A2 A1^-1 A2^-1 B1)^-1 A2 (B2 A2 A1^-1 A2^-1 B1)"),
            ("T1^-1 B1 T1", "(A1^-1 A2^-1 B1)^-1 B1 (A1^-1 A2^-1 B1)"),
            ("T1^-1 B2 T1", "R"),
            ("T1^-1 U1 T1", "U1"),
            ("T1^-1 U2 T1", "(A1^2 A2^-1 B2 A2^-1 A1)^-1 U2 (A1^2 A2^-1 B2 A2^-1 A1)"),
            ("R", "(A1 A2 B1 A1 B2)^-1 B1 (A1 A2 B1 A1 B2)"),
        ))

    return Catalog(
        d=d,
        fuchsian=fuchsian,
        picard=picard,
        presentation=pres,
        hybrid=constructed,
        hybrid_primed={},
        word_identities=word_identities,
        conjugation_identities=conjugations,
        quotient_extra_relators=tuple(wi.word for wi in word_identities),
        flags=("section-5: 'B2 = J^-1 iota_2(U) J' realized with B, "
               "matching the displayed matrix",),
    )


def _presentation(names, relator_texts, name) -> Presentation:
    relators = tuple(parse_word(t, names) for t in relator_texts)
    return Presentation(len(names), relators, tuple(names), name)


def _check_displays(displayed: dict[str, Mat], constructed: dict[str, Mat]) -> None:
    for k, m in displayed.items():
        if m != constructed[k]:
            raise CatalogError(
                f"displayed matrix {k} differs from its embed/cayley construction")


def _validate(cat: Catalog) -> Catalog:
    h2 = herm_form_h2(cat.d)
    f2 = disk_form(cat.d)
    for name, m in cat.fuchsian.items():
        if not is_unitary(m, f2):
            raise CatalogError(f"2x2 generator {name} does not preserve the disk form")
    for name, m in {**cat.picard, **cat.hybrid, **cat.hybrid_primed}.items():
        if not is_unitary(m, h2):
            raise CatalogError(f"3x3 matrix {name} does not preserve the Siegel form")
    gens = [cat.picard[n] for n in cat.presentation.names()]
    ident = Mat.identity(cat.d)
    for rel in cat.presentation.relators:
        if not proj_eq(eval_word(rel, gens, ident), ident):
            raise CatalogError(
                f"relator does not evaluate to a unit multiple of Id over O_{cat.d}")
    return cat


@lru_cache(maxsize=None)
def get_catalog(d: int) -> Catalog:
    if d == 1:
        return _validate(_catalog_d1())
    if d == 3:
        return _validate(_catalog_d3())
    if d == 7:
        return _validate(_catalog_d7())
    raise ValueError(f"unsupported d={d!r}; must be one of {SUPPORTED_D}")

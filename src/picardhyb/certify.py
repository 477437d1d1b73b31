"""Theorem-level verification: normality reports, quotient indices for
d in {1, 7}, the infiniteness certificate for d = 3 via an exact
Euclidean representation of the (2,3,6) triangle group, and the claims of
``verify`` with their premises (verify_reports).

A coset enumeration of an infinite group only overflows, which proves
nothing, so infiniteness is certified by representation: images of P, Q
and R, Euclidean motions over O_3 on the integer kernel, map the quotient
of PU(2,1,O_3) by the hybrid onto the (2,3,6) triangle group (every
relator of the catalog's quotient presentation maps to the identity), and
a witness word maps to a nonzero translation.

Every row that decides an equality of two words is decided by one
decider, _equalities: on the Catalog.word_key of both sides, which are
equal iff the words are equal in PU(2,1), except lemma 3.1, which compares
the exact matrices (Catalog.word_matrix); a generator name and "1" are
words too. Every row that says an H'(3) generator dies in Gamma(3)^ab is
decided by a second one, _primed_d3_words_die, on the commutator table,
and rests on that table's own check. The two reports that read the table
are built together (_commutator_table_reports), which enumerates the table
and checks it once.

Each function computes and returns its report; a failed check is a row
that fails, never an exception.
"""

from __future__ import annotations

from collections import namedtuple

from .exactring import QuadInt, render
from .catalog import get_catalog
from .cxhyp import INT_ID, IntMat, int_word, projective_order
# not called here: bound as a module attribute because the benchmark's
# smoke check expects its tracer to patch it under this name
from .cxhyp import proj_eq  # noqa: F401
from .fpgroups import (
    DEFAULT_MAX_COSETS, AbelianInvariants, CosetTable, Presentation, Word,
    abelianization, derived_subgroup_table, parse_word, quotient_by_normal_gens,
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


# -- the (2,3,6) infiniteness certificate ---------------------------------
#
# The Euclidean motion z -> alpha*z + beta over O_3 is the kernel matrix
# [[alpha, 0, beta], [0, 1, 0], [0, 0, 1]]. Products and inverses of these
# matrices are those of the motions, and int_inv rejects a non-unit alpha.
# The identity motion is INT_ID; a nonzero translation has alpha = 1 and
# is not INT_ID.

def motion(alpha: tuple[int, int], beta: tuple[int, int]) -> IntMat:
    """The matrix of z -> alpha*z + beta, each coefficient a pair (a, b)
    standing for a + b*w."""
    return (*alpha, 0, 0, *beta, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0)


def render_motion(x: IntMat) -> str:
    """The motion matrix x as text: z -> (alpha)*z + (beta)."""
    return f"z -> ({render(QuadInt(3, *x[0:2]))})*z + ({render(QuadInt(3, *x[4:6]))})"


# presentation: the catalog's quotient presentation of PU(2,1,O_3)/H~(3)
# on P, Q, R; images: name -> motion matrix of each generator, INT_ID for
# a generator sent to the identity
class InfinitenessCertificate(namedtuple(
        "InfinitenessCertificate", "presentation images witness_word")):
    __slots__ = ()

    def image(self, word: Word) -> IntMat:
        """The motion matrix a word over the presentation's generators maps to."""
        return int_word(3, word, [self.images[n] for n in self.presentation.gen_names])

    @property
    def witness_image(self) -> IntMat:
        return self.image(parse_word(self.witness_word, self.presentation.gen_names))

    def _relator_rows(self) -> list[CheckResult]:
        """One row per relator, passing iff it maps to the identity motion;
        a failing row carries the relator's image as its witness."""
        return [CheckResult("relator-dies", f"quotient relator #{k} maps to the identity motion",
                            img == INT_ID, "" if img == INT_ID else render_motion(img))
                for k, img in enumerate(map(self.image, self.presentation.relators))]

    def validate(self) -> bool:
        """True iff every relator maps to the identity and the witness to a
        nonzero translation."""
        w = self.witness_image
        return (all(c.passed for c in self._relator_rows())
                and w[0:2] == (1, 0) and w != INT_ID)


def triangle_236_certificate() -> InfinitenessCertificate:
    """Theorem 3.4 as a homomorphism of the quotient by H~(3) onto the
    (2,3,6) triangle group, on the catalog's own generators. In the paper's
    reading a = P Q^-1 is the rotation z -> (1 + w) z by the primitive 6th
    root of unity 1 + w, b = Q the half-turn about 1/2 and c = R the
    identity; so P = a b is z -> -(1 + w) z + (1 + w). Every quotient
    relator maps to the identity, and the witness a^3 b = (P Q^-1)^3 Q maps
    to the translation z -> z - 1."""
    images = {"P": motion((-1, -1), (1, 1)), "Q": motion((-1, 0), (1, 0)), "R": INT_ID}
    return InfinitenessCertificate(get_catalog(3).quotient_presentation(), images,
                                   "(P Q^-1)^3 Q")


# benchmarks/worker.py resolves this function by name (ENTRY_POINTS, through
# vars()), so it keeps its name and takes no parameter
def verify_tietze_substitution() -> Report:
    """The relator rows of the (2,3,6) certificate: each relator of the
    quotient presentation on P, Q, R maps to the identity motion."""
    return Report("tietze-substitution d=3", triangle_236_certificate()._relator_rows())


# -- equalities ------------------------------------------------------------

def _equalities(rows, key) -> list[CheckResult]:
    """The rows (claim, description, lhs, rhs), each passing iff key gives
    its two sides equal values. A side is word text over every name of the
    catalog, or a pair (text, names) over those names only; key is
    Catalog.word_key or Catalog.word_matrix, and each distinct side is
    evaluated once."""
    sides = [tuple((s, None) if isinstance(s, str) else s for s in row[2:]) for row in rows]
    values = {s: key(*s) for s in dict.fromkeys(s for pair in sides for s in pair)}
    return [CheckResult(claim, desc, values[lhs] == values[rhs])
            for (claim, desc, *_), (lhs, rhs) in zip(rows, sides)]


def verify_normality(d: int) -> Report:
    """Check every paper-supplied conjugation identity exactly."""
    cat = get_catalog(d)
    return Report(f"normality d={d}", _equalities(
        [(i.lemma, f"{i.lhs} = {i.rhs}", i.lhs, i.rhs) for i in cat.conjugation_identities],
        cat.word_key))


def verify_word_identities(d: int) -> Report:
    cat = get_catalog(d)
    picard, hybrid = tuple(cat.picard), tuple(cat.hybrid)
    return Report(f"word identities d={d}", _equalities(
        [(wi.lemma, f"{wi.target} = {wi.word}" + (f" [{wi.note}]" if wi.note else ""),
          (wi.word, picard), (wi.target, hybrid)) for wi in cat.word_identities],
        cat.word_key))


def lemma31_index_bound() -> Report:
    """The two matrix identities bounding [H(3) : H~(3)] by 4, checked
    exactly on the hybrids I_j, U_j, E_j (iota_j of -Id, U, E conjugated
    by J, which preserves products, so the block identities hold iff these
    do): on the matrices themselves, not up to a unit scalar."""
    cat = get_catalog(3)
    rows = [("lemma-3.1", f"iota_{j}(-Id) iota_{k}(U) iota_{j}(-Id) = iota_{k}((EUE)^-1)",
             f"I{j} U{k} I{j}", f"(E{k} U{k} E{k})^-1") for j, k in ((1, 2), (2, 1))]
    rows.append(("lemma-3.1", "diagonal blocks commute", "E1 I2", "I2 E1"))
    return Report("index bound [H(3):H~(3)] | 4", _equalities(rows, cat.word_matrix))


# -- indices ---------------------------------------------------------------

def coset_table_holds(table: CosetTable, p: Presentation, subgens) -> bool:
    """Whether table proves [G : H] >= table.index for the group G of p and
    the subgroup H of the words subgens, from the table alone: every column
    is a permutation of the cosets paired with its inverse column, the
    action is transitive, every relator fixes every coset and every word of
    subgens fixes coset 0. Then G acts on the cosets, transitively, and H
    lies in the stabilizer of coset 0, whose index is table.index (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, ch. 5)."""
    rows, cosets = table.table, list(range(table.index))
    if not rows or any(len(row) != 2 * p.ngens for row in rows):
        return False
    for c in range(0, 2 * p.ngens, 2):
        if sorted(row[c] for row in rows) != cosets or any(
                rows[row[c]][c + 1] != alpha for alpha, row in enumerate(rows)):
            return False
    reached, todo = {0}, [0]
    while todo:
        new = set(rows[todo.pop()]) - reached
        reached |= new
        todo += new
    return (len(reached) == len(rows)
            and all(table.act_word(alpha, r) == alpha for r in p.relators for alpha in cosets)
            and all(table.act_word(0, w) == 0 for w in subgens))


# outcome: "finite" | "infinite" | "undecided" | "overflowed"; table: a
# CosetTable or None; holds: whether a complete table passes
# coset_table_holds with the hybrid words; certificate: an
# InfinitenessCertificate or None
class IndexResult(namedtuple("IndexResult", "outcome table holds certificate",
                             defaults=(None, False, None))):
    __slots__ = ()


# read only by benchmarks/kernel.py, which times the d=3 enumeration to this cap
D3_OVERFLOW_CAP = 20000


def index_report(d: int, max_cosets: int = DEFAULT_MAX_COSETS) -> IndexResult:
    """For d = 1, 7 the coset table of H(d) itself in PU(2,1,O_d), enumerated
    from the hybrid_words of the catalog (not of the normal closure of H(d),
    whose quotient has order [PU(2,1,O_d) : H(d)] only if H(d) is normal),
    with its own check on the same words: every index row reads holds;
    for d = 3 the (2,3,6) certificate, "infinite" iff it validates."""
    if d == 3:
        cert = triangle_236_certificate()
        return IndexResult("infinite" if cert.validate() else "undecided", certificate=cert)
    cat = get_catalog(d)
    words = cat.hybrid_words()
    table = todd_coxeter(cat.presentation, words, max_cosets=max_cosets)
    if not table.complete:
        return IndexResult("overflowed", table)
    return IndexResult("finite", table, coset_table_holds(table, cat.presentation, words))


PRIMED_D3_WORDS = ("P^2 (R Q^2) P^-2", "Q^2", "R Q^2 R")


def _primed_d3_words_die(claim: str, table: CosetTable, table_ok: bool,
                         words: tuple[Word, ...]) -> list[CheckResult]:
    """One row per PRIMED_D3_WORDS text, whose parsed word is the same entry
    of words: it dies in Gamma(3)^ab iff it fixes coset 0 of the commutator
    table, which rests on table_ok, the table's own check."""
    return [CheckResult(claim, f"H'(3) generator {text} dies in Gamma(3)^ab",
                        table_ok and table.act_word(0, w) == 0)
            for text, w in zip(PRIMED_D3_WORDS, words)]


def primed_d3_closure() -> Report:
    """Corrected reading of the d=3 primed normal closure: the H'(3)
    generator words all die in Gamma(3)^ab (they fix the subgroup coset of
    the commutator subgroup table), so the normal closure of H'(3) stays
    inside the commutator subgroup and the quotient of Gamma(3) by it
    surjects onto Z/6 -- it is not the trivial group."""
    return _commutator_table_reports()[1]


# word over (I0, Q, T) for the order-4 element R1 = iota_1(R) of H'(1),
# found by bounded meet-in-the-middle search and verified projectively by
# verify_primed_d1_word
PRIMED_D1_WORD = "T^-1 I0 T^-1 Q I0 Q"


def verify_primed_d1_word() -> bool:
    """Whether PRIMED_D1_WORD over the Picard names is R1 in PU(2,1)."""
    cat = get_catalog(1)
    return _equalities([("corollary-4.6", PRIMED_D1_WORD, (PRIMED_D1_WORD, tuple(cat.picard)),
                         "R1")], cat.word_key)[0].passed


def primed_d1_equality(idx: IndexResult) -> Report:
    """Corrected reading of the d=1 primed hybrid: the order-4 elements
    R1 = iota_1(R), R2 = iota_2(R) satisfy exact scalar identities placing
    them inside H(1), and conversely E1, E2 are words in R1, R2, so
    H'(1) = H(1). idx is index_report(1): if its table holds with 2
    cosets and the word of R1 fixes coset 0 as well, then
    H(1) <= <H(1), R1> <= Stab(0), so adjoining R1 leaves the index at 2
    with no second enumeration or check; an overflowed table fails that
    row."""
    cat = get_catalog(1)
    names = (*cat.hybrid, *cat.hybrid_primed)
    report = Report("primed hybrid d=1")
    for name in ("R1", "R2"):
        report.add("corollary-4.6", f"{name} has projective order 4",
                   projective_order(1, cat.word_matrix(name), 8) == 4)
    report.checks += _equalities(
        [("corollary-4.6", f"{text} is a unit scalar (so the order-4 element lies "
          "in the plain hybrid)", (text, names), ("1", names))
         for text in ("E1^2 E2 R1", "E1 E2^2 R2")]
        + [("corollary-4.6", f"{lhs} = {rhs} (so the plain hybrid lies in the primed one)",
            (lhs, names), (rhs, names))
           for lhs, rhs in (("R2^-1 R1^-2", "E1"), ("R2^-2 R1^-1", "E2"))],
        cat.word_key)
    report.add("corollary-4.6", "the order-4 word over I0, Q, T is verified",
               verify_primed_d1_word())
    report.add("corollary-4.6", "adjoining the order-4 element leaves a "
               "quotient of order 2, not 1: H'(1) = H(1) (corrected reading)",
               idx.holds and idx.table.index == 2
               and idx.table.act_word(0, cat.picard_word(PRIMED_D1_WORD)) == 0)
    return report


# -- abelianizations -------------------------------------------------------

# the relations of lemma 3.6 among E1, U1, U2, each checked by
# lemma36_relations and abelianized by hybrid_abelianization_bounds
LEMMA36_RELATORS = ("E1^3", "(U1 U2)^3", "(E1 U1^-1 U2)^3", "(E1 U2 U1^-1)^3",
                    "(E1^-1 U1 U2^-1)^3", "(E1^-1 U2^-1 U1)^3")


def lemma36_relations() -> Report:
    cat = get_catalog(3)
    return Report("relations among E1, U1, U2", _equalities(
        [("lemma-3.6", f"{text} = 1", text, "1") for text in LEMMA36_RELATORS], cat.word_key))


def partial_hybrid_presentation(primed: bool = False) -> Presentation:
    """<E1 (or E1'), U1, U2> subject to the lemma-3.6 relations; for the
    primed variant E1 = (E1')^2 is substituted."""
    relators = [parse_word(t, ("E1", "U1", "U2")) for t in LEMMA36_RELATORS]
    if primed:
        relators = [tuple(x for g in r for x in ((g, g) if abs(g) == 1 else (g,)))
                    for r in relators]
    return Presentation(3, relators, ("E1p" if primed else "E1", "U1", "U2"))


def commutator_subgroup_table() -> CosetTable:
    """Coset table of [Gamma(3), Gamma(3)], enumerated by Todd-Coxeter
    (fpgroups.derived_subgroup_table); a word dies in Gamma(3)^ab iff it
    fixes coset 0. _commutator_table_reports checks the table by itself
    (coset_table_holds) and its index against the Smith normal form."""
    return derived_subgroup_table(get_catalog(3).presentation)


# words of Gamma(3) that lie in its commutator subgroup
COMMUTATOR_WORDS = ("P Q P^-1 Q^-1", "P R P^-1 R^-1", "Q R Q^-1 R^-1",
                    "R", "P^3", "Q^2")


def hybrid_abelianization_bounds() -> Report:
    """Finite-abelianization chain: the hybrid relators force H(3)^ab and
    H'(3)^ab finite; the H'(3) generators die in Gamma(3)^ab; the
    commutator subgroup abelianizes to Z + Z; combined, H'(3) has infinite
    index in [Gamma(3), Gamma(3)] and hence in Gamma(3)."""
    return _commutator_table_reports()[0]


def _commutator_table_reports() -> tuple[Report, Report]:
    """The two reports that read the commutator table, those of
    hybrid_abelianization_bounds and primed_d3_closure. Gamma(3)^ab is
    reduced once, and the table enumerated once and checked once by
    itself: it is complete, its index is |Gamma(3)^ab| (two independent
    engines), and it passes coset_table_holds with the commutator words
    fixing its subgroup coset."""
    cat = get_catalog(3)
    ab_gamma, table = abelianization(cat.presentation), commutator_subgroup_table()
    table_ok = (table.complete and table.index == ab_gamma.order
                and coset_table_holds(table, cat.presentation,
                                      [cat.picard_word(t) for t in COMMUTATOR_WORDS]))
    abel = Report("abelianization bounds d=3")

    ab_plain = abelianization(partial_hybrid_presentation(primed=False))
    abel.add("corollary-3.7", f"partial H(3) presentation abelianizes to {ab_plain}",
             ab_plain.is_finite)
    ab_primed = abelianization(partial_hybrid_presentation(primed=True))
    abel.add("lemma-3.10", f"partial H'(3) presentation abelianizes to {ab_primed}",
             ab_primed.is_finite)

    abel.add("lemma-3.8", f"Gamma(3)^ab = {ab_gamma}", ab_gamma == AbelianInvariants(0, (6,)))
    primed_words = tuple(map(cat.picard_word, PRIMED_D3_WORDS))
    abel.checks += _primed_d3_words_die("lemma-3.8", table, table_ok, primed_words)

    sub_ab = abelianization(reidemeister_schreier(cat.presentation, table))
    lemma39 = table_ok and sub_ab == AbelianInvariants(2, ())
    abel.add("lemma-3.9", f"[Gamma(3),Gamma(3)]^ab = {sub_ab}", lemma39)

    abel.add("corollary-3.12", "finite H'(3)^ab inside a subgroup with infinite abelianization"
             " forces infinite index (finite-index transfer of Lemma 3.11)",
             ab_primed.is_finite and lemma39)

    primed = Report("primed hybrid d=3", [
        *_equalities([("section-3-closing", "(E1')^2 = E1", "E1p E1p", "E1")], cat.word_key),
        *_primed_d3_words_die("section-3-closing", table, table_ok, primed_words)])
    ab = abelianization(quotient_by_normal_gens(cat.presentation, primed_words))
    primed.add("section-3-closing", "Gamma(3)/<<H'(3)>> abelianizes to Z/6, hence is nontrivial "
               "and <<H'(3)>> lies inside [Gamma(3),Gamma(3)] (corrected reading: the closing "
               "claim of a trivial quotient is inconsistent with the containment in the "
               "commutator subgroup)", ab == AbelianInvariants(0, (6,)))
    return abel, primed


# -- the claims of verify --------------------------------------------------

def verify_reports(d: int, max_cosets: int = DEFAULT_MAX_COSETS) -> list[Report]:
    """The reports of ``verify --d d``, in order. A claim row passes only if
    its own check passes and so do the reports it rests on: theorems 4.5
    and 5.5 on the word identities, normality and the coset table's own
    check (coset_table_holds), theorem 3.4 and
    propositions 6.2 and 6.3 on these and lemma 3.1, corollary 3.12 on
    lemma 3.6. Each d runs one coset enumeration and checks it once:
    index_report's table of H(1) and its check also decide corollary 4.6's
    adjoining row, and d=3's is the commutator table."""
    words, normal = verify_word_identities(d), verify_normality(d)
    premises = words.passed and normal.passed
    if d == 3:
        lemma31 = lemma31_index_bound()
        premises = premises and lemma31.passed
    idx = index_report(d, max_cosets=max_cosets)
    r = Report(f"index d={d}")
    theorem = f"theorem-{'4.5' if d == 1 else '5.5'}"
    if idx.outcome == "finite":
        # expected: the order theorems 4.5 and 5.5 state
        expected, index = {1: 2, 7: 1}[d], idx.table.index
        r.add(theorem, f"quotient PU(2,1,O_{d})/H({d}) has order {index}"
              + ("" if index == expected else f", expected {expected}"),
              idx.holds and index == expected and premises,
              witness=f"complete coset table, {index} cosets")
    elif idx.outcome == "overflowed":
        r.add(theorem, f"quotient PU(2,1,O_{d})/H({d}) is undecided: coset "
              f"enumeration overflowed the cap of {max_cosets} cosets", False)
    else:
        infinite = idx.outcome == "infinite" and premises
        r.add("theorem-3.4", "H(3) has infinite index (Euclidean certificate)",
              infinite, witness=render_motion(idx.certificate.witness_image))
        # corollaries of the certificate and of the verified normality
        r.add("proposition-6.2", "normal + lattice limit set => full limit set "
              "(logical corollary of the verified normality)", infinite)
        r.add("proposition-6.3", "infinite index + full limit set => "
              "geometrically infinite (F5 fails)", infinite)
    reports = [words, normal, r]
    if d == 3:
        lemma36, (abel, primed) = lemma36_relations(), _commutator_table_reports()
        *rows, cor312 = abel.checks      # the last row, corollary 3.12
        abel.checks = [*rows, cor312._replace(passed=cor312.passed and lemma36.passed)]
        reports += [lemma31, lemma36, abel, primed]
    if d == 1:
        reports.append(primed_d1_equality(idx))
    flags = get_catalog(d).flags
    if flags:
        f = Report(f"corrected readings d={d}")
        for note in flags:
            f.add("typo-correction", note, True)
        reports.append(f)
    return reports

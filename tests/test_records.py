"""The record types of the package keep their tuple API: field names, field
order and defaults, no instance ``__dict__``, field checks that also run on
``_make`` and ``_replace``, ``_make`` round trips, and a ``Mat`` that
refuses tuple ``+`` and ``*``.

A record that checks its fields in ``__new__`` overrides ``_make`` to call
it; namedtuple's ``_replace`` builds its copy with ``_make``, so it runs the
checks too."""

from fractions import Fraction

import pytest

from picardhyb.catalog import Catalog, ConjugationIdentity, WordIdentity
from picardhyb.certify import (
    CheckResult, IndexResult, InfinitenessCertificate,
)
from picardhyb.cxhyp import BoundaryPoint, Mat, ProjIsom
from picardhyb.exactring import QuadInt, QuadRat
from picardhyb.fpgroups import AbelianInvariants, CosetTable, Presentation
from picardhyb.search import SearchResult

# _fields and _field_defaults of every record, as recorded before the records
# moved from typing.NamedTuple to collections.namedtuple
RECORDS = {
    QuadInt: (("d", "a", "b"), {}),
    QuadRat: (("num", "den"), {}),
    Mat: (("d", "rows"), {}),
    ProjIsom: (("rep",), {}),
    BoundaryPoint: (("d", "at_infinity", "z", "t_coeff"),
                    {"at_infinity": False, "z": None, "t_coeff": Fraction(0)}),
    Presentation: (("ngens", "relators", "gen_names"), {}),
    AbelianInvariants: (("rank", "torsion"), {}),
    CosetTable: (("ngens", "table", "status"), {}),
    WordIdentity: (("lemma", "target", "word", "note"), {"note": None}),
    ConjugationIdentity: (("lemma", "lhs", "rhs"), {}),
    SearchResult: (("word", "depth_searched", "pruned_by_height"), {}),
    CheckResult: (("check_id", "description", "passed", "witness"), {"witness": ""}),
    InfinitenessCertificate: (("presentation", "images", "witness_word"), {}),
    IndexResult: (("d", "outcome", "index", "table", "certificate"),
                  {"index": None, "table": None, "certificate": None}),
    Catalog: (("d", "fuchsian", "picard", "presentation", "hybrid", "hybrid_primed",
               "int_env", "word_identities", "conjugation_identities", "flags"),
              {"flags": ()}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_fields_and_defaults(record):
    fields, defaults = RECORDS[record]
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert issubclass(record, tuple)


def _instances():
    return [
        QuadInt(1, 2, 3),
        QuadRat(QuadInt(1, 2, 4), 6),
        Mat.identity(7),
        ProjIsom(Mat.identity(1)),
        BoundaryPoint.infinity(3),
        Presentation(2, [(1, 2, -2, 1)]),
        AbelianInvariants(1, (2,)),
        CosetTable(1, [[1, 1], [0, 0]], "complete"),
        WordIdentity("lemma", "E1", "P Q"),
        ConjugationIdentity("lemma", "E1", "E2"),
        SearchResult((1, 2), 2, False),
        CheckResult("id", "description", True),
        InfinitenessCertificate(None, {}, ""),
        IndexResult(1, "finite", 2),
        Catalog(1, {}, {"I": Mat.identity(1)}, Presentation(1, ()), (), (), {}, (), ()),
    ]


def test_every_record_is_covered_once():
    assert sorted(type(x).__name__ for x in _instances()) == sorted(
        r.__name__ for r in RECORDS)


@pytest.mark.parametrize("x", _instances(), ids=lambda x: type(x).__name__)
def test_instances_have_no_dict(x):
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.extra = 1


def test_defaults_apply():
    assert BoundaryPoint(1) == (1, False, None, 0)
    assert BoundaryPoint(1).t_coeff == Fraction(0)
    assert hash(BoundaryPoint(1)) == hash((1, False, None, Fraction(0)))
    assert WordIdentity("l", "t", "w").note is None
    assert CheckResult("i", "d", True).witness == ""
    assert IndexResult(1, "finite")[2:] == (None, None, None)
    assert Presentation(1, [(1, 1)]).gen_names is None


def test_quadint_checks_on_replace():
    x = QuadInt(1, 2, 3)
    assert x._replace(a=5) == QuadInt(1, 5, 3)
    assert type(x._replace(a=5)) is QuadInt
    with pytest.raises(ValueError):
        x._replace(d=2)


def test_quadrat_normalizes_on_replace():
    q = QuadRat(QuadInt(1, 2, 4), 6)
    assert q == (QuadInt(1, 1, 2), 3)
    assert q._replace(den=-4) == (QuadInt(1, -1, -2), 4)
    with pytest.raises(ZeroDivisionError):
        q._replace(den=0)


def test_presentation_checks_on_replace():
    p = Presentation(2, [(1, -1, 2, 2)])
    assert p.relators == ((2, 2),)
    assert p._replace(relators=[(1, 2, -2)]).relators == ((1,),)
    with pytest.raises(ValueError):
        p._replace(relators=[(3,)])
    with pytest.raises(ValueError):
        p._replace(gen_names=("a",))


def test_make_runs_the_checks():
    with pytest.raises(ValueError):
        QuadInt._make((2, 0, 0))
    with pytest.raises(ZeroDivisionError):
        QuadRat._make((QuadInt(7, 1, 0), 0))
    assert QuadRat._make((QuadInt(1, 2, 4), -6)) == (QuadInt(1, -1, -2), 3)
    assert Presentation._make((2, [(1, -1, 2)], None)).relators == ((2,),)
    with pytest.raises(ValueError):
        Presentation._make((1, [(2,)], None))
    with pytest.raises(TypeError):
        QuadInt._make((1, 2))


@pytest.mark.parametrize("x", _instances(), ids=lambda x: type(x).__name__)
def test_make_and_asdict_round_trip(x):
    y = type(x)._make(tuple(x))
    assert y == x and type(y) is type(x)
    assert type(x)(**x._asdict()) == x


def test_mat_refuses_tuple_concatenation_and_repetition():
    m = Mat.identity(1)
    with pytest.raises(TypeError):
        m + m
    with pytest.raises(TypeError):
        m + (1,)
    with pytest.raises(TypeError):
        m * 2
    with pytest.raises(TypeError):
        2 * m
    assert m * m == m

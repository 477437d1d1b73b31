"""Exact-arithmetic toolkit for the hybrid subgroups H(d) of the Picard
modular groups PU(2,1,O_d), d in {1, 3, 7}: word identities, normality,
quotient indices (2, 1, and infinity with certificate), abelianizations,
and isometry classification."""

from .exactring import QuadInt, QuadRat, RingMismatchError, units
from .cxhyp import (
    BoundaryPoint, IsometryClass, Mat, ProjIsom, boundary_action,
    canonical_rep, classify, proj_eq,
)
from .catalog import Catalog, get_catalog
from .fpgroups import (
    AbelianInvariants, CosetTable, Presentation, abelianization, free_reduce,
    quotient_by_normal_gens, reidemeister_schreier, smith_normal_form,
    todd_coxeter,
)
from .search import SearchResult, find_word
from .certify import (
    InfinitenessCertificate, IndexResult,
    hybrid_abelianization_bounds, index_report, lemma31_index_bound,
    triangle_236_certificate, verify_normality,
)

__version__ = "0.1.0"

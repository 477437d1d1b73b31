"""Exact-arithmetic toolkit for the hybrid subgroups H(d) of the Picard
modular groups PU(2,1,O_d), d in {1, 3, 7}: word identities, normality,
quotient indices (2, 1, and infinity with certificate), abelianizations,
and isometry classification. The package root binds only __version__;
import the modules by name (picardhyb.cli, picardhyb.cxhyp, ...)."""

__version__ = "0.1.0"

"""Pluriclosed (SKT) bracket flows on Lie groups.

Left-invariant Hermitian structures are encoded by their Lie bracket against
a fixed metric and complex structure; the pluriclosed flow becomes an ODE on
the space of brackets.  The package covers the algebraic SKT criteria, the
reduced flow on almost-abelian algebras with its asymptotic classification,
the moment-map gradient flow on 2-step nilpotent algebras, soliton
certificates, and the supporting eigenvalue-norm inequalities.
"""

from .brackets import (
    DEFAULT_CONVENTION,
    InnerProductConvention,
    LieBracket,
    basis_change_action,
    bracket_inner_product,
    bracket_norm,
    center,
    derivation_space,
    infinitesimal_action,
    jacobi_residual,
)
from .hermitian import (
    HermitianFrame,
    bismut_ricci_endomorphism,
    bismut_ricci_general,
    endomorphism_from_form,
    exterior_derivative_c,
    generalized_kahler_check,
    is_skt_general,
    is_static,
    nijenhuis_residual,
    one_one_part,
    skt_residual,
    torsion_three_form,
)
from .engine import IntegratorConfig, Trajectory, integrate, normalize_projection
from .almostabelian import (
    AlmostAbelianData,
    ClassificationReport,
    SolitonCertificate,
    SolitonKind,
    SktVerdict,
    build_bracket,
    classify,
    extinction_time,
    gauge_matrix,
    hermitian_frame,
    integrate_reduced_flow,
    p_components,
    p_matrix,
    skt_verdict,
    soliton_certificate,
)
from .nilflow import (
    NilpotentSplitting,
    functional_F,
    gradient_equivalence_check,
    integrate_nil_flow,
    moment_map,
    p_endomorphism_nil,
    ricci_endomorphism,
    soliton_limit_certificate,
)
from .normality import NormalityReport, normality_flow, normality_report

__version__ = "0.1.0"

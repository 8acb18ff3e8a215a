"""Curvature invariants of plane curves at 3/2-cusps and inflection points.

The package computes Euclidean and equi-affine curvature data through curve
singularities where the raw curvatures diverge: singularity classification,
cuspidal and inflectional curvature invariants, smoothly normalized
curvature profiles, normal forms, and the reconstruction of curves from a
prescribed normalized profile, by one entry ``synthesize(kind, ...)`` for
every kind, and one entry ``invariants(curve)`` for the invariant report.
"""

from .affine import (
    NormalFormResult,
    affine_cuspidal_curvature,
    affine_curvature_from_jet,
    inflectional_curvature,
    invariants,
    kappa_A,
    mu_A,
    mu_I,
    normal_form,
    profile_A_cusp,
    profile_A_inflection,
)
from .dsl import (
    CurveSpec,
    ParseError,
    catalog_lookup,
    parse_curve,
    parse_expression,
)
from .euclidean import (
    SingularityClass,
    SingularityType,
    classify,
    cuspidal_curvature,
    kappa_g,
    mu_g,
    profile_g,
)
from .jets import (
    Jet,
    PlaneJet,
    bracket,
    deflate,
    inflate,
    moment_quotient,
    moment_quotient_jet,
    signed_power,
)
from .profiles import NormalizedProfile
from .svg import RenderSpec, render_svg
from .synthesis import (
    SynthesisResult,
    roundtrip,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "CurveSpec",
    "Jet",
    "NormalFormResult",
    "NormalizedProfile",
    "ParseError",
    "PlaneJet",
    "RenderSpec",
    "SingularityClass",
    "SingularityType",
    "SynthesisResult",
    "affine_curvature_from_jet",
    "affine_cuspidal_curvature",
    "bracket",
    "catalog_lookup",
    "classify",
    "cuspidal_curvature",
    "deflate",
    "inflate",
    "inflectional_curvature",
    "invariants",
    "kappa_A",
    "kappa_g",
    "moment_quotient",
    "moment_quotient_jet",
    "mu_A",
    "mu_I",
    "mu_g",
    "normal_form",
    "parse_curve",
    "parse_expression",
    "profile_A_cusp",
    "profile_A_inflection",
    "profile_g",
    "render_svg",
    "roundtrip",
    "signed_power",
    "synthesize",
]

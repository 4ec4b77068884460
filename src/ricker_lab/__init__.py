"""Numerical toolkit for the delayed Ricker map with constant or periodic
stocking: equilibria and 2-cycles, Jury-based local stability, monotone 4D
embedding with corner-orbit enclosures, global-stability certification,
absorbing boxes from artificial cycles, orbit classification, and
eigenvalue-modulus scans.
"""

from .model import (
    ModelParams, PlanarPoint, QuadPoint, RickerMap, density_f, step, vector_step, planar_maps,
)
from .embedding import (
    BoxRegion,
    Enclosure,
    FoldedFixedPointKind,
    build_embedding,
    classify_folded_fixed_point,
    corner_iterate,
    fold_period2,
    se_leq,
)
from .constant import (
    EquilibriumReport,
    ThresholdSet,
    certify_constant,
    feasible_ab,
    find_intersections,
    solve_equilibrium,
    thresholds,
)
from .periodic import (
    ArtificialCycleSet,
    TwoCycleReport,
    certify_periodic,
    corollary_shortcuts,
    feasibility_curves,
    find_artificial_cycles,
    solve_two_cycle,
)
from .orbits import (
    AttractorKind,
    CrossingReport,
    OrbitResult,
    classify_attractor,
    neimark_sacker_scan,
    simulate,
)
from .verdicts import (
    ClassificationVerdict,
    LocalVerdict,
    VerdictTag,
    eigenvalues_from_trace_det,
    jury_is_stable,
    jury_verdict,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "PlanarPoint", "QuadPoint", "density_f", "step", "vector_step",
    "planar_maps", "RickerMap",
    "BoxRegion", "Enclosure", "FoldedFixedPointKind", "build_embedding",
    "classify_folded_fixed_point", "corner_iterate", "fold_period2", "se_leq",
    "EquilibriumReport", "ThresholdSet", "certify_constant", "feasible_ab",
    "find_intersections", "solve_equilibrium", "thresholds",
    "ArtificialCycleSet", "TwoCycleReport", "certify_periodic",
    "corollary_shortcuts", "feasibility_curves", "find_artificial_cycles",
    "solve_two_cycle",
    "AttractorKind", "CrossingReport", "OrbitResult", "classify_attractor",
    "neimark_sacker_scan", "simulate",
    "ClassificationVerdict", "LocalVerdict", "VerdictTag",
    "eigenvalues_from_trace_det", "jury_is_stable", "jury_verdict",
    "errors",
]

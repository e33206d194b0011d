"""Cayley transforms on real, complex and quaternionic Stiefel manifolds."""

from .kalg import Field, Mat, Singular
from .group import InvalidTangent, b_matrix, cayley_at, cayley_at_identity
from .stiefel import (Lift, NotOrthonormal, OutsideCayleyOpen, StiefelPoint, TangentCoords,
                      cayley_block, complete_lift, contraction, gamma, gamma_inverse,
                      local_section, random_stiefel_point, rho)
from .optim import (NotHermitian, Objective, OptimTrace, SearchGenerator, SearchParams,
                    curve, gradient_descent, procrustes_objective, rayleigh_objective)
from .cover import (DimensionError, ThetaLadder, cover_membership, default_ladder,
                    verify_cover)

__all__ = [
    "Field", "Mat", "Singular",
    "InvalidTangent", "b_matrix", "cayley_at", "cayley_at_identity",
    "Lift", "NotOrthonormal", "OutsideCayleyOpen", "StiefelPoint", "TangentCoords",
    "cayley_block", "complete_lift", "contraction", "gamma", "gamma_inverse", "local_section",
    "random_stiefel_point", "rho",
    "NotHermitian", "Objective", "OptimTrace", "SearchGenerator", "SearchParams",
    "curve", "gradient_descent", "procrustes_objective", "rayleigh_objective",
    "DimensionError", "ThetaLadder", "cover_membership", "default_ladder", "verify_cover",
]

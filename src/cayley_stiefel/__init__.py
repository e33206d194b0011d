"""Cayley transforms on real, complex and quaternionic Stiefel manifolds."""

from .kalg import Field, Mat, Singular
from .group import (GroupElement, GroupTangent, InvalidTangent, SkewBlockTangent,
                    b_matrix, cayley_at, cayley_at_identity, cayley_identity_block)
from .stiefel import (Lift, NotOrthonormal, OutsideCayleyOpen, RankDeficient,
                      StiefelPoint, TangentCoords, complete_lift, contraction, gamma,
                      gamma_differential, gamma_inverse, in_cayley_open,
                      in_injectivity_domain, local_section, random_stiefel_point,
                      rho, tangent_from_ambient)
from .optim import (NotHermitian, Objective, OptimTrace, SearchGenerator,
                    SearchParams, curve, descent_skew, gradient_descent,
                    procrustes_objective, rayleigh_objective)
from .cover import (DimensionError, ThetaLadder, cover_membership,
                    default_ladder, theta_frame, verify_cover)

__all__ = [
    "Field", "Mat", "Singular",
    "GroupElement", "GroupTangent", "InvalidTangent", "SkewBlockTangent",
    "b_matrix", "cayley_at", "cayley_at_identity", "cayley_identity_block",
    "Lift", "NotOrthonormal", "OutsideCayleyOpen", "RankDeficient", "StiefelPoint",
    "TangentCoords",
    "complete_lift", "contraction", "gamma", "gamma_differential", "gamma_inverse",
    "in_cayley_open", "in_injectivity_domain", "local_section",
    "random_stiefel_point", "rho", "tangent_from_ambient",
    "NotHermitian", "Objective", "OptimTrace", "SearchGenerator", "SearchParams",
    "curve", "descent_skew", "gradient_descent", "procrustes_objective",
    "rayleigh_objective",
    "DimensionError", "ThetaLadder", "cover_membership", "default_ladder",
    "theta_frame", "verify_cover",
]

"""Classical Cayley transform on the matrix groups O(n), U(n) and Sp(n).

Covers the transform at the identity, the transform based at an arbitrary
group element, and b = (I + X*X + Y)^{-1}, the k x k core of its block
formula on tangents of the form [[0, X], [-X*, Y]] (stiefel.cayley_block).

b_matrix takes a stiefel.TangentCoords, whose Y was checked skew-Hermitian
at kalg.CHECK_TOL when it was built, and trusts that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kalg
from .kalg import Mat

if TYPE_CHECKING:
    from .stiefel import TangentCoords


class InvalidTangent(Exception):
    """Raised when a matrix fails the tangency identity it must satisfy."""


@dataclass(frozen=True)
class GroupElement:
    """An n x n matrix A with A*A = I within kalg.CHECK_TOL: O(n), U(n) or Sp(n)."""

    m: Mat

    def __post_init__(self):
        if self.m.rows != self.m.cols:
            raise ValueError("group elements are square")
        resid = kalg._frame_residuals(self.m.field, self.m.data[None])[0]
        if not resid <= kalg.CHECK_TOL:
            raise ValueError(f"A*A - I residual {resid:.3e} exceeds {kalg.CHECK_TOL:.1e}")

    @property
    def n(self) -> int:
        return self.m.rows

    @property
    def field(self) -> kalg.Field:
        return self.m.field

    @property
    def inverse(self) -> "GroupElement":
        # A^{-1} = A* for group elements
        return GroupElement(self.m.H)


def cayley_at_identity(M: Mat, tol: float = kalg.DEFAULT_TOL) -> Mat:
    """(I - M)(I + M)^{-1}; raises Singular when I + M has no inverse."""
    if M.rows != M.cols:
        raise ValueError("cayley_at_identity needs a square matrix")
    I = kalg.identity(M.rows, M.field)
    return (I - M) @ kalg.mat_inverse(I + M, tol)


def cayley_at(A: GroupElement, X: Mat, tol: float = kalg.DEFAULT_TOL) -> Mat:
    """Cayley transform based at A: (I - A*X)(A + X)^{-1}.

    Maps the tangent space at A into the group; raises Singular when A + X
    is not invertible (X outside the transform's domain).
    """
    I = kalg.identity(A.n, A.field)
    return (I - A.m.H @ X) @ kalg.mat_inverse(A.m + X, tol)


def b_matrix(t: TangentCoords) -> Mat:
    """(I_k + X*X + Y)^{-1}, the k x k core of the block Cayley formula.

    Y was checked skew-Hermitian when t was built and is not checked again.
    For skew-Hermitian Y, Re v*(I + X*X + Y)v = 1 + |Xv|^2 for a unit vector
    v, so every singular value of the core is at least 1 and b_matrix takes
    no tol: the core is inverted at kalg.DEFAULT_TOL (kalg._invert), formed
    on the component arrays in the order of the Mat formula
    mat_inverse(I + X*X + Y), so the inverse is the same to the bit.
    """
    X, Y = t.X.data, t.Y.data
    fld, k = t.X.field, t.X.cols
    core = np.zeros((k, k, fld.ncomp))
    kalg._shift_diagonal(core, 1.0)
    core += kalg._product(fld, kalg._conj_transpose(X), X)
    core += Y
    return Mat._trusted(fld, kalg._invert(fld, core, kalg.DEFAULT_TOL))

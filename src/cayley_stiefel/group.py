"""Classical Cayley transform on the matrix groups O(n), U(n) and Sp(n).

Covers the transform at the identity, the transform based at an arbitrary
group element, and b = (I + X*X + Y)^{-1}, the k x k core of its block
formula on tangents of the form [[0, X], [-X*, Y]]: stiefel's one Cayley
kernel, which gives cayley_block on all rows of a lift and gamma on its last k.

The group is the Stiefel manifold of orthonormal n-frames in K^n, so a
group element is a stiefel.StiefelPoint with k = n, whose x*x = I check at
kalg.CHECK_TOL is A*A = I.

b_matrix takes a stiefel.TangentCoords, whose Y was checked skew-Hermitian
at kalg.CHECK_TOL when it was built, and trusts that check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import kalg
from .kalg import Mat

if TYPE_CHECKING:
    from .stiefel import StiefelPoint, TangentCoords


class InvalidTangent(Exception):
    """Raised when a matrix fails the tangency identity it must satisfy."""


def cayley_at_identity(M: Mat, tol: float = kalg.DEFAULT_TOL) -> Mat:
    """(I - M)(I + M)^{-1}; raises Singular when I + M has no inverse."""
    if M.rows != M.cols:
        raise ValueError("cayley_at_identity needs a square matrix")
    I = kalg.identity(M.rows, M.field)
    return (I - M) @ kalg.mat_inverse(I + M, tol)


def cayley_at(A: StiefelPoint, X: Mat, tol: float = kalg.DEFAULT_TOL) -> Mat:
    """Cayley transform based at the group element A, an n x n StiefelPoint:
    (I - A*X)(A + X)^{-1}.

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
    on the native arrays (kalg._KERNELS) in the order of the Mat formula
    mat_inverse(I + X*X + Y), so the inverse is the same to the bit.
    """
    fld = t.X.field
    ks = kalg._KERNELS[fld]
    X, Y = ks.native(t.X.data), ks.native(t.Y.data)
    core = np.zeros(Y.shape, Y.dtype)
    ks.shift_diagonal(core, 1.0)  # I
    core += ks.product(ks.conj_transpose(X), X)
    core += Y
    return Mat._trusted(fld, ks.components(kalg._invert(ks, core, kalg.DEFAULT_TOL)))

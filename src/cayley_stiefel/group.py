"""Classical Cayley transform on the matrix groups O(n), U(n) and Sp(n).

Covers the transform at the identity, the transform based at an arbitrary
group element, and b = (I + X*X + Y)^{-1}, the k x k core of its block
formula on tangents of the form [[0, X], [-X*, Y]] (stiefel.cayley_block).

b_matrix takes a stiefel.TangentCoords, whose Y was checked skew-Hermitian
at kalg.CHECK_TOL when it was built, and trusts that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
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
    """An n x n matrix A with A*A = I, i.e. a member of O(n)/U(n)/Sp(n)."""

    m: Mat
    check_tol: float = dc_field(default=kalg.CHECK_TOL, repr=False)

    def __post_init__(self):
        if self.m.rows != self.m.cols:
            raise ValueError("group elements are square")
        resid = kalg._frame_residuals(self.m.field, self.m.data[None])[0]
        if not resid <= self.check_tol:
            raise ValueError(f"A*A - I residual {resid:.3e} exceeds {self.check_tol:.1e}")

    @property
    def n(self) -> int:
        return self.m.rows

    @property
    def field(self) -> kalg.Field:
        return self.m.field

    @property
    def inverse(self) -> "GroupElement":
        # A^{-1} = A* for group elements
        return GroupElement(self.m.H, self.check_tol)


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
    The core is formed and inverted on the component arrays, in the order
    of the Mat formula mat_inverse(I + X*X + Y), so the inverse is the same
    to the bit.  It skips mat_inverse's SVD test, sigma_min <= tol sigma_max
    with tol = kalg.DEFAULT_TOL, wherever a norm bound proves the test passes:

    - Exactly.  Split Y = S + E into its skew-Hermitian part S and its
      Hermitian part E = (Y + Y*)/2.  For a unit vector v,
      Re v*(I + X*X + S)v = 1 + |Xv|^2 >= 1, so every singular value of
      I + X*X + S is at least 1, and by Weyl's inequality those of
      C = I + X*X + Y are at least 1 - |E|_2.  The check made when t was
      built gives |E|_2 <= |E|_F = |Y + Y*|_F / 2 <= CHECK_TOL max(1, |Y|_F) / 2.
    - Rounding.  With m = n - k, u = 2^-53 and g = (2m + 2)u / (1 - (2m + 2)u),
      every entry of X*X is an inner product of m terms over R, m complex
      terms over C and 2m complex terms over H (through the adjoint), so in
      any summation order the computed product is within
      sqrt(2) g |X|_F^2 of X*X in the Frobenius norm (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6).
      The two additions add at most u |I + X*X|_F + u |C'|_F / (1 - u), so
      the computed core C' is within 2g (|X|_F^2 + sqrt(k) + |C'|_F) of C.
    - Bound.  So sigma_min(C') >= L and sigma_max(C') <= |C'|_F, with
      L = 1 - CHECK_TOL max(1, |Y|_F) - (m + 1) 2^-50 (|X|_F^2 + k + |C'|_F).
      L takes twice the slack of E, which covers the rounding of the check
      and of |Y|_F, and a rounding term nearly twice 2g, which covers that
      of the computed |X|_F^2 and |C'|_F.
    - Decision.  LAPACK returns singular values within p u |C'|_2 of the
      exact ones, p a slowly growing function of the order 2k (LAPACK
      Users' Guide, section 4.9).  When 2 tol |C'|_F <= L, the smallest
      computed one is at least L (1 - p u / (2 tol)) and tol times the
      largest at most L (1 + p u) / 2, so the test passes whenever
      p u < tol / (1 + tol), that is p < 9000; the gap also absorbs the
      rounding of the computed |C'|_F on the left.

    Then the core is inverted by LAPACK directly (kalg._inverse).
    Otherwise, and whenever a norm is not finite, mat_inverse inverts it
    after its test.
    """
    X, Y = t.X.data, t.Y.data
    fld, m, k = t.X.field, t.X.rows, t.X.cols
    core = np.zeros((k, k, fld.ncomp))
    kalg._shift_diagonal(core, 1.0)
    core += kalg._product(fld, kalg._conj_transpose(X), X)
    core += Y
    cf = math.sqrt(np.vdot(core, core))
    slack = (kalg.CHECK_TOL * max(1.0, math.sqrt(np.vdot(Y, Y)))
             + (m + 1) * 2.0 ** -50 * (np.vdot(X, X) + k + cf))
    if 2.0 * kalg.DEFAULT_TOL * cf <= 1.0 - slack:
        return Mat._trusted(fld, kalg._inverse(fld, kalg._operand(fld, core)))
    return kalg.mat_inverse(Mat._trusted(fld, core))


"""Classical Cayley transform on the matrix groups O(n), U(n) and Sp(n).

Covers the transform at the identity, the transform based at an arbitrary
group element, and the specialized block formula on tangent vectors of the
form [[0, X], [-X*, Y]], which only needs a k x k inversion.

SkewBlockTangent checks that Y is skew-Hermitian when it is built, at
GROUP_CHECK_TOL; cayley_identity_block trusts it.  b_matrix is the one
public entry that takes a bare Y, so it checks Y itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import kalg
from .kalg import Mat

GROUP_CHECK_TOL = 1e-8


class InvalidTangent(Exception):
    """Raised when a matrix fails the tangency identity it must satisfy."""


@dataclass(frozen=True)
class GroupElement:
    """An n x n matrix A with A A* = I, i.e. a member of O(n)/U(n)/Sp(n)."""

    m: Mat
    check_tol: float = dc_field(default=GROUP_CHECK_TOL, repr=False)

    def __post_init__(self):
        if self.m.rows != self.m.cols:
            raise ValueError("group elements are square")
        n = self.m.rows
        resid = kalg.frobenius_norm(self.m @ self.m.H - kalg.identity(n, self.m.field))
        if not resid <= self.check_tol:
            raise ValueError(f"A A* - I residual {resid:.3e} exceeds {self.check_tol:.1e}")

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


@dataclass(frozen=True)
class SkewBlockTangent:
    """Tangent data (X, Y) encoding the matrix [[0, X], [-X*, Y]] at the identity.

    X is (n-k) x k and Y is k x k skew-Hermitian; these are the vectors
    orthogonal to the embedded subgroup G(n-k).  Y is checked skew-Hermitian
    within GROUP_CHECK_TOL here, and nowhere downstream.
    """

    X: Mat
    Y: Mat

    def __post_init__(self):
        if self.Y.rows != self.Y.cols:
            raise ValueError("Y must be square")
        if self.X.cols != self.Y.rows:
            raise ValueError("X and Y column counts must agree")
        if self.X.field is not self.Y.field:
            raise ValueError("X and Y must share one base ring")
        if not kalg.is_skew_hermitian(self.Y, GROUP_CHECK_TOL):
            raise InvalidTangent(f"Y is not skew-Hermitian within {GROUP_CHECK_TOL:.1e}")

    @property
    def field(self) -> kalg.Field:
        return self.X.field

    def embed(self) -> Mat:
        """The full n x n skew-Hermitian matrix [[0, X], [-X*, Y]]."""
        nk, k = self.X.rows, self.X.cols
        top = kalg.hstack(kalg.zeros(nk, nk, self.field), self.X)
        bot = kalg.hstack(-self.X.H, self.Y)
        return kalg.vstack(top, bot)


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


def b_matrix(X: Mat, Y: Mat, tol: float = kalg.DEFAULT_TOL) -> Mat:
    """(I_k + X*X + Y)^{-1}, the k x k core of the block Cayley formula.

    Invertibility is guaranteed for skew-Hermitian Y.  Y is a bare matrix
    here, so it is checked within GROUP_CHECK_TOL; callers that hold a
    checked tangent use _b_core.
    """
    if not kalg.is_skew_hermitian(Y, GROUP_CHECK_TOL):
        raise InvalidTangent(f"Y is not skew-Hermitian within {GROUP_CHECK_TOL:.1e}")
    return _b_core(X, Y, tol)


def _b_core(X: Mat, Y: Mat, tol: float) -> Mat:
    """b_matrix with no check on Y, for the Y of a checked tangent or one that is
    skew-Hermitian by construction."""
    return kalg.mat_inverse(kalg.identity(X.cols, X.field) + X.H @ X + Y, tol)


def cayley_identity_block(t: SkewBlockTangent, tol: float = kalg.DEFAULT_TOL) -> GroupElement:
    """Block form of the Cayley transform at the identity on [[0, X], [-X*, Y]].

    Returns [[I - 2XbX*, -2Xb], [2bX*, -I + 2b]] with b = (I + X*X + Y)^{-1};
    equal to the generic (I - M)(I + M)^{-1} but only inverts a k x k matrix.
    """
    X, Y = t.X, t.Y
    nk, k = X.rows, X.cols
    b = _b_core(X, Y, tol)
    Xb = X @ b
    top = kalg.hstack(kalg.identity(nk, t.field) - 2.0 * (Xb @ X.H), -2.0 * Xb)
    bot = kalg.hstack(2.0 * (b @ X.H), 2.0 * b - kalg.identity(k, t.field))
    return GroupElement(kalg.vstack(top, bot))

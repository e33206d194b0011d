"""Cayley transform on the compact Stiefel manifold of orthonormal k-frames.

Implements the projection from the group onto the manifold, frame completion
(lifting), the tangent coordinates (X, Y) at a lift A, the group Cayley
transform of A [[0, X], [-X*, Y]] by its block formula (cayley_block), the
Stiefel Cayley transform and its inverse, the injectivity test of its
differential, local sections of the projection, the contraction of a Cayley
open subset onto a point, and the residual of the lift-change identity.
A tangent at the identity of the group is a TangentCoords on the identity
lift of the base frame [0; I].

gamma, gamma_inverse, cayley_block, local_section and contraction compute
on the component arrays through kalg's private product and conjugate
transpose, in the operations and order of the same formulas on Mat values,
so every result is the same to the bit.  Their only inversions are k x k,
by kalg._invert: C = pi + P* with mat_inverse's test at the caller's tol,
and the core I + X*X + Y by group.b_matrix at the default.  Inputs are
checked where they enter: a TangentCoords's
shapes, base ring and skew-Hermitian Y when it is built, y's shape and
base ring in gamma_inverse, and every result by the x*x = I check of
StiefelPoint or the A*A = I check of GroupElement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import group, kalg
from .group import GroupElement, InvalidTangent
from .kalg import Field, Mat, Singular


class OutsideCayleyOpen(Exception):
    """Raised when a target point falls outside the Cayley open subset."""


class NotOrthonormal(ValueError):
    """Raised when a frame fails the x*x = I residual check of StiefelPoint."""


class RankDeficient(Exception):
    """Raised when random frame generation keeps hitting rank-deficient draws."""


@dataclass(frozen=True)
class StiefelPoint:
    """An n x k matrix x with x*x = I_k: an orthonormal k-frame in K^n."""

    m: Mat

    def __post_init__(self):
        n, k = self.m.shape
        if k > n:
            raise ValueError(f"need k <= n, got n={n}, k={k}")
        resid = kalg._frame_residuals(self.m.field, self.m.data[None])[0]
        if not resid <= kalg.CHECK_TOL:
            raise NotOrthonormal(f"x*x - I residual {resid:.3e} exceeds {kalg.CHECK_TOL:.1e}")

    @property
    def n(self) -> int:
        return self.m.rows

    @property
    def k(self) -> int:
        return self.m.cols

    @property
    def field(self) -> Field:
        return self.m.field

    @property
    def P(self) -> Mat:
        """Bottom k x k block."""
        return self.m.block(self.n - self.k, self.n, 0, self.k)


@dataclass(frozen=True)
class Lift:
    """A group element A whose last k columns are exactly the frame x."""

    point: StiefelPoint
    A: GroupElement

    def __post_init__(self):
        n, k = self.point.n, self.point.k
        if self.A.n != n:
            raise ValueError("lift dimension mismatch")
        if not np.array_equal(self.A.m.data[:, n - k:], self.point.m.data):
            raise ValueError("last k columns of A must equal x exactly")

    @property
    def n(self) -> int:
        return self.point.n

    @property
    def k(self) -> int:
        return self.point.k

    @property
    def field(self) -> Field:
        return self.point.field

    @property
    def beta(self) -> Mat:
        n, k = self.n, self.k
        return self.A.m.block(n - k, n, 0, n - k)

    @property
    def P(self) -> Mat:
        return self.point.P


@dataclass(frozen=True)
class TangentCoords:
    """Coordinates (X, Y) of the tangent vector v = A [X; Y] at x.

    X is (n-k) x k, Y is k x k skew-Hermitian; the lift is carried along
    because the Stiefel Cayley transform genuinely depends on it.  Y is
    checked skew-Hermitian within kalg.CHECK_TOL here, once; the transforms
    that take a TangentCoords trust it.
    """

    lift: Lift
    X: Mat
    Y: Mat

    def __post_init__(self):
        n, k = self.lift.n, self.lift.k
        if self.X.shape != (n - k, k) or self.Y.shape != (k, k):
            raise ValueError("tangent block shapes do not match the lift")
        if self.X.field is not self.lift.field or self.Y.field is not self.lift.field:
            raise ValueError("X and Y must share the lift's base ring")
        if not kalg.is_skew_hermitian(self.Y, kalg.CHECK_TOL):
            raise InvalidTangent(f"Y is not skew-Hermitian within {kalg.CHECK_TOL:.1e}")

    @classmethod
    def _trusted(cls, lift: Lift, X: Mat, Y: Mat) -> "TangentCoords":
        """Coordinates built by this module with the lift's shapes and a Y that is
        skew-Hermitian by construction: neither is checked again."""
        t = object.__new__(cls)
        for name, value in (("lift", lift), ("X", X), ("Y", Y)):
            object.__setattr__(t, name, value)
        return t

    @property
    def field(self) -> Field:
        return self.lift.field

    def scaled(self, t: float) -> "TangentCoords":
        """The coordinates of t v.  t Y is skew-Hermitian when Y is, so it is not
        checked again."""
        return TangentCoords._trusted(self.lift, t * self.X, t * self.Y)

    def embed(self) -> Mat:
        """The n x n skew-Hermitian matrix Z = [[0, X], [-X*, Y]]."""
        nk = self.lift.n - self.lift.k
        top = kalg.hstack(kalg.zeros(nk, nk, self.field), self.X)
        return kalg.vstack(top, kalg.hstack(-self.X.H, self.Y))

    def ambient_group(self) -> Mat:
        """The n x n tangent vector A Z at A in the group."""
        return self.lift.A.m @ self.embed()


def rho(A: GroupElement, k: int) -> StiefelPoint:
    """Projection onto the last k columns of a group element."""
    return StiefelPoint(A.m.block(0, A.n, A.n - k, A.n))


def complete_lift(x: StiefelPoint) -> Lift:
    """Complete a frame x to a group element A with last k columns equal to x.

    The QL factorisation x = Q [0; L] by k Householder reflectors, unitary
    and linear over R, C and H alike (Bunse-Gerstner, Byers and Mehrmann,
    "A quaternion QR algorithm", Numer. Math. 55, 1989), applied in place
    to B = [I_n, x], last column first.  Reflector j, for row r = n - k + j,
    is I - 2 v v* / (v* v) on rows 0..r with v = a + q |a| e_r: a is rows
    0..r of column n + j of B and q the unit phase of a_r (q = 1 when
    a_r = 0).  Then A = [(B[:n-k, :n])*, x], whose A*A - I residual is x's
    to rounding; at the base frame [0; I_k] every v is 2 e_r and A = I_n.
    """
    field, n, k = x.field, x.n, x.k
    B = np.concatenate([kalg.identity(n, field).data, x.m.data], axis=1)
    for j in reversed(range(k)):
        r = n - k + j
        a = B[:r + 1, n + j:n + j + 1]
        abs_r = np.sqrt(a[r, 0] @ a[r, 0])
        q = a[r, 0] / abs_r if abs_r else np.eye(field.ncomp)[0]
        v = a.copy()
        v[r, 0] += q * np.sqrt(np.vdot(a, a))
        rows = B[:r + 1, :n + j]
        w = kalg._product(field, kalg._conj_transpose(v), rows)
        rows -= kalg._product(field, v, w) * (2.0 / np.vdot(v, v))
    # + 0.0 turns the -0.0 that conjugation leaves in zero parts into +0.0,
    # so the base frame completes to I_n bit for bit
    A = np.concatenate([kalg._conj_transpose(B[:n - k, :n]) + 0.0, x.m.data], axis=1)
    return Lift(x, GroupElement(Mat._trusted(field, A)))


def _lift_blocks(lift: Lift) -> tuple[np.ndarray, np.ndarray]:
    """The lift's beta and P as component arrays.  beta is copied, as
    Lift.beta copies it, so that its products get the contiguous operand
    of the Mat formulas."""
    nk = lift.n - lift.k
    return lift.A.m.data[nk:, :nk].copy(), lift.point.m.data[nk:]


def gamma(t: TangentCoords) -> StiefelPoint:
    """The Stiefel Cayley transform of the tangent vector with coordinates t.

    Evaluates 2 [-Xb; b] (beta X + P)* + [beta*; -P*] with b = (I + X*X + Y)^{-1};
    that k x k core has every singular value at least 1 less half the slack
    of Y's skew check (group.b_matrix), so gamma takes no tol.  Y was checked
    when t was built and is not checked again.
    """
    fld, X = t.field, t.X.data
    beta, P = _lift_blocks(t.lift)
    b = group.b_matrix(t).data
    right = kalg._conj_transpose(kalg._product(fld, beta, X) + P)
    top = kalg._product(fld, kalg._product(fld, X, b), right) * -2.0 + kalg._conj_transpose(beta)
    bot = kalg._product(fld, b, right) * 2.0 - kalg._conj_transpose(P)
    return StiefelPoint(Mat._trusted(fld, np.concatenate([top, bot])))


def gamma_inverse(lift: Lift, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> TangentCoords:
    """Tangent coordinates mapping to y under the Stiefel Cayley transform.

    With C = pi + P*, X = -(tau - beta*) C^{-1}.  The core is
    b = (1/2) C D^{-1} with D = (beta X + P)*, so Y, the skew-Hermitian part
    of b^{-1} = 2 D C^{-1}, needs no inverse but C^{-1}.  Requires y in the
    Cayley open subset of the lift's base point: C must pass mat_inverse's
    test at tol (kalg._invert).  Taking the skew-Hermitian part makes Y exactly
    skew-Hermitian, so Y is not checked again, here or by local_section.
    """
    if (y.n, y.k) != (lift.n, lift.k) or y.field is not lift.field:
        raise ValueError("y must share the lift's shape and base ring")
    fld, nk = lift.field, lift.n - lift.k
    beta, P = _lift_blocks(lift)
    tau, pi = y.m.data[:nk], y.m.data[nk:]
    try:
        C_inv = kalg._invert(fld, pi + kalg._conj_transpose(P), tol)
    except Singular as exc:
        raise OutsideCayleyOpen(f"pi + P* is singular: {exc}") from exc
    X = -kalg._product(fld, tau - kalg._conj_transpose(beta), C_inv)
    D = kalg._conj_transpose(kalg._product(fld, beta, X) + P)
    B = kalg._product(fld, D, C_inv) * 2.0
    Y = (B - kalg._conj_transpose(B)) * 0.5
    return TangentCoords._trusted(lift, Mat._trusted(fld, X), Mat._trusted(fld, Y))


def differential_is_injective(t: TangentCoords, tol: float = kalg.DEFAULT_TOL) -> bool:
    """Whether the differential at t is injective: invertibility of beta X + P.

    This is also where the transform itself is injective, and the criterion
    does not depend on the choice of lift.
    """
    return kalg.is_invertible(t.lift.beta @ t.X + t.lift.P, tol)


def cayley_block(t: TangentCoords) -> GroupElement:
    """The group Cayley transform based at the lift A of the tangent A Z:
    c(Z) A*, the value of group.cayley_at(A, t.ambient_group()).

    As c(Z) = diag(I, -I) + 2 [-X; I] b [X*, I] with b = (I + X*X + Y)^{-1}
    (group.b_matrix), that is the rank-k update A* + [-2X bV*; 2(bV* - x*)]
    with V = A [X; I]: one k x k inversion and O(n^2 k) work.  On the
    identity lift of the base frame [0; I] it is c(Z).
    """
    lift = t.lift
    fld, n, k = lift.field, lift.n, lift.k
    A, X = lift.A.m.data, t.X.data
    b = group.b_matrix(t).data
    XI = np.zeros((n, k, fld.ncomp))  # [X; I]
    XI[:n - k] = X
    kalg._shift_diagonal(XI[n - k:], 1.0)
    bVh = kalg._product(fld, b, kalg._conj_transpose(kalg._product(fld, A, XI)))
    update = np.concatenate([kalg._product(fld, X, bVh) * -2.0,
                             (bVh - kalg._conj_transpose(lift.point.m.data)) * 2.0])
    return GroupElement(Mat._trusted(fld, kalg._conj_transpose(A) + update))


def local_section(lift: Lift, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> GroupElement:
    """Local section of the projection over the Cayley open subset at x:
    cayley_block(gamma_inverse(lift, y, tol)), whose last k columns agree with y."""
    return cayley_block(gamma_inverse(lift, y, tol))


def contraction(lift: Lift, y: StiefelPoint, t: float,
                tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Contraction homotopy of the Cayley open subset at x.

    H(y, t) = gamma(t gamma_inverse(y)), with k x k inversions only.  tol is the
    test of gamma_inverse on pi + P*; the core I + t^2 X*X + t Y of gamma has every
    singular value at least 1.  H(y, 0) is gamma of the zero tangent, H(y, 1) = y.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("homotopy parameter must lie in [0, 1]")
    return gamma(gamma_inverse(lift, y, tol).scaled(t))


def lift_change_equivariance_check(lift: Lift, E: GroupElement, t: TangentCoords) -> float:
    """Residual of the lift-change identity for the Stiefel Cayley transform.

    Replacing the lift A by A * diag(E, I_k) multiplies the transform's
    value by diag(E*, I_k) on the left; this returns the Frobenius norm of
    the difference between the two sides.
    """
    n, nk = lift.n, lift.n - lift.k
    if E.n != nk:
        raise ValueError("E must act on the first n - k columns")
    # A diag(E, I) and diag(E*, I) gamma(t), formed on the blocks
    AE = GroupElement(kalg.hstack(lift.A.m.block(0, n, 0, nk) @ E.m, lift.point.m))
    lhs = gamma(TangentCoords(Lift(lift.point, AE), E.m.H @ t.X, t.Y)).m
    g = gamma(t).m
    rhs = kalg.vstack(E.m.H @ g.block(0, nk, 0, lift.k), g.block(nk, n, 0, lift.k))
    return kalg.frobenius_norm(lhs - rhs)


def _gram_schmidt(field: Field, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on a (S, n, k, ncomp) stack: the frames, and which
    members kept every projected column norm at least 1e-8."""
    cols: list[np.ndarray] = []
    full_rank = np.ones(len(raw), dtype=bool)
    for j in range(raw.shape[2]):
        # a contiguous copy: BLAS sums a strided column in another order,
        # which would move the last bits of the frames
        v = np.ascontiguousarray(raw[:, :, j:j + 1])
        for u in cols:
            v = v - kalg._product(field, u, kalg._product(field, kalg._conj_transpose(u), v))
        norm = kalg._norms(v)
        full_rank &= norm >= 1e-8
        cols.append((1.0 / np.where(full_rank, norm, 1.0))[:, None, None, None] * v)
    return (np.concatenate(cols, axis=2) if cols else raw), full_rank


def _random_frames(n: int, k: int, field: Field, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """Components (count, n, k, ncomp) of the next count random frames of rng.

    Frame s is _gram_schmidt of the s-th Gaussian matrix of one
    rng.standard_normal((count, n, k, ncomp)) draw; a rank-deficient draw is
    redrawn, at most three attempts in all.  A frame more than 1e-12 off
    x*x = I, as one pass leaves a few at large k, is orthonormalised once
    more, and every frame is checked for x*x = I within 1e-12.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    out = np.empty((count, n, k, field.ncomp))
    todo = np.arange(count)
    for attempt in range(3):
        if not todo.size:
            break
        frames, full_rank = _gram_schmidt(field, rng.standard_normal((todo.size, *out.shape[1:])))
        out[todo[full_rank]] = frames[full_rank]
        todo = todo[~full_rank]
    if todo.size:
        raise RankDeficient(f"could not draw a full-rank {n}x{k} frame")
    resid = kalg._frame_residuals(field, out)
    loose = ~(resid <= 1e-12)
    if loose.any():
        out[loose] = _gram_schmidt(field, out[loose])[0]
        resid = kalg._frame_residuals(field, out[loose])
        if not np.all(resid <= 1e-12):
            raise NotOrthonormal(f"x*x - I residual {resid.max():.3e} exceeds 1.0e-12")
    return out


def random_stiefel_point(n: int, k: int, field: Field, seed: int) -> StiefelPoint:
    """Random orthonormal frame: Gram-Schmidt applied to a Gaussian matrix,
    checked for x*x = I within 1e-12 by _random_frames.

    The first frame of the stream np.random.default_rng(seed), which is
    also sample 0 of cover.verify_cover(..., seed, ...).
    """
    frame = _random_frames(n, k, field, np.random.default_rng(seed), 1)[0]
    return StiefelPoint(Mat._trusted(field, frame))


def point_to_json(x: StiefelPoint) -> dict:
    return {"n": x.n, "k": x.k, "matrix": kalg.mat_to_json(x.m)}


def lift_to_json(lift: Lift) -> dict:
    return {"n": lift.n, "k": lift.k, "point": point_to_json(lift.point),
            "A": kalg.mat_to_json(lift.A.m)}

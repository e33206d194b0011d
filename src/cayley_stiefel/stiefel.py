"""Cayley transform on the compact Stiefel manifold of orthonormal k-frames.

Implements the projection from the group onto the manifold, frame completion
(lifting), the tangent coordinates (X, Y) at a lift A, the group Cayley
transform of A [[0, X], [-X*, Y]] by its block formula (cayley_block), the
Stiefel Cayley transform and its inverse, the injectivity test of its
differential, local sections of the projection, the contraction of a Cayley
open subset onto a point, and the residual of the lift-change identity.
A tangent at the identity of the group is a TangentCoords on the identity
lift of the base frame [0; I].

cayley_block and gamma are one kernel, c(Z) W for W = rows* (_cayley_rows),
on all rows of the lift A and on its last k rows [beta P]: gamma is rho of
cayley_block, as in the paper.  gamma_inverse and the injectivity test share
its factor (beta X + P)*.  All compute on native arrays through kalg's
kernel set for the field (kalg._KERNELS), converting once where a Mat
enters and once where one leaves, in the operations and order of the same
formulas on Mat values, so every result is the same to the bit.  Their
only inversions are k x k, by kalg._invert: pi + P* at the caller's tol
and the core I + X*X + Y (group.b_matrix).  Inputs are checked where they
enter: a TangentCoords's shapes, base ring and skew-Hermitian Y when it is
built, y's in gamma_inverse, and every result by the x*x = I check of
StiefelPoint, which for a group element (a lift, a section's value;
k = n) is A*A = I.

A lift keeps the coordinates (X, Y) of the last point gamma_inverse
inverted on it, keyed on that point object and the tol, and the core b of
those coordinates once a transform has formed it.  So on a point already
inverted, local_section, contraction at t = 1 and gamma of the kept
coordinates share one inversion of b, and contraction at another t inverts
only its own core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import group, kalg
from .group import InvalidTangent
from .kalg import Field, Mat, Singular


class OutsideCayleyOpen(Exception):
    """Raised when a target point falls outside the Cayley open subset."""


class NotOrthonormal(ValueError):
    """Raised when a frame fails the x*x = I residual check of StiefelPoint."""


@dataclass(frozen=True)
class StiefelPoint:
    """An n x k matrix x with x*x = I_k: an orthonormal k-frame in K^n."""

    m: Mat

    def __post_init__(self):
        n, k = self.m.shape
        if k > n:
            raise ValueError(f"need k <= n, got n={n}, k={k}")
        resid = kalg._frame_residuals(self.m.field, self.m.data)
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
    """A group element A, an n x n StiefelPoint, whose last k columns are
    exactly the frame x.

    A lift keeps the chart coordinates of the last point gamma_inverse
    inverted on it, outside its fields: (y, tol, X, Y, b), or None, where b
    is the native core of X and Y (_core), or None until a transform forms it.
    """

    point: StiefelPoint
    A: StiefelPoint

    def __post_init__(self):
        n, k = self.point.n, self.point.k
        if self.A.m.shape != (n, n):
            raise ValueError(f"A must be {n} x {n}, got {self.A.m.rows} x {self.A.m.cols}")
        if not np.array_equal(self.A.m.data[:, n - k:], self.point.m.data):
            raise ValueError("last k columns of A must equal x exactly")
        object.__setattr__(self, "_chart", None)

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
        checked again.  At t == 1 they are these coordinates themselves, as
        1 X is X to the bit, so a lift's kept core still serves them (_core)."""
        if t == 1:
            return self
        return TangentCoords._trusted(self.lift, t * self.X, t * self.Y)

    def embed(self) -> Mat:
        """The n x n skew-Hermitian matrix Z = [[0, X], [-X*, Y]]."""
        nk = self.lift.n - self.lift.k
        top = kalg.hstack(kalg.zeros(nk, nk, self.field), self.X)
        return kalg.vstack(top, kalg.hstack(-self.X.H, self.Y))

    def ambient_group(self) -> Mat:
        """The n x n tangent vector A Z at A in the group."""
        return self.lift.A.m @ self.embed()


def rho(A: StiefelPoint, k: int) -> StiefelPoint:
    """Projection onto the last k columns of a frame, such as a group element."""
    return StiefelPoint(A.m.block(0, A.n, A.k - k, A.k))


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

    Each reflector is a few numpy calls on the native arrays, as a lift is
    mostly their fixed cost: |a_r| and |a| are math.sqrt of ddots of the
    floats, q scales the floats of the one entry a_r, and w = v* rows and
    the update v w are kernel products.  B is built by one strided store of
    its diagonal.
    """
    field, n, k = x.field, x.n, x.k
    ks = kalg._KERNELS[field]
    B = np.zeros((n, n + k, field.ncomp))
    B.reshape(n * (n + k), field.ncomp)[::n + k + 1, 0] = 1.0  # the diagonal of I_n
    B[:, n:] = x.m.data
    B = ks.native(B)
    for j in reversed(range(k)):
        r = n - k + j
        a = B[:r + 1, n + j:n + j + 1]
        a_r = ks.floats(a[r])
        abs_r = math.sqrt(np.vdot(a_r, a_r))
        q = a_r / abs_r if abs_r else np.eye(field.ncomp)[0]
        v = a.copy()
        v_r = ks.floats(v[r])
        # the ddot of the strided column a itself: that of a contiguous copy sums
        # in another order and moves the last bits of the lift
        v_r += q * ks.norm(a)
        rows = B[:r + 1, :n + j]
        w = ks.product(ks.conj_transpose(v), rows)
        v_floats = ks.floats(v)
        rows -= ks.scale(ks.product(v, w), 2.0 / np.vdot(v_floats, v_floats))
    # + 0.0 turns the -0.0 that conjugation leaves in zero parts into +0.0,
    # so the base frame completes to I_n bit for bit
    A = np.concatenate([ks.components(ks.conj_transpose(B[:n - k, :n]) + 0.0), x.m.data],
                       axis=1)
    return Lift(x, StiefelPoint(Mat._trusted(field, A)))


def _right_factor(ks: kalg._Kernels, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(rows [X; I])* for native arrays of a block of rows of a lift and of an
    (n-k) x k X: on the last k rows [beta P], (beta X + P)*."""
    nk, k = X.shape[:2]
    XI = np.zeros((nk + k, *X.shape[1:]), X.dtype)  # [X; I]
    XI[:nk] = X
    ks.shift_diagonal(XI[nk:], 1.0)  # the diagonal of I
    return ks.conj_transpose(ks.product(rows, XI))


def _core(ks: kalg._Kernels, t: TangentCoords) -> np.ndarray:
    """The native array of group.b_matrix(t).  When t holds the very X and Y
    of its lift's chart, the chart keeps it: the first call forms it and
    stores the chart with it in one store, and later calls read it.  It is
    the array b_matrix returns for those X and Y, read-only, and refers to
    neither the lift nor t."""
    chart = t.lift._chart
    if chart is None or chart[2] is not t.X or chart[3] is not t.Y:
        return ks.native(group.b_matrix(t).data)
    if chart[4] is None:
        chart = (*chart[:4], ks.native(group.b_matrix(t).data))
        object.__setattr__(t.lift, "_chart", chart)  # one tuple: readers see one entry
    return chart[4]


def _cayley_rows(t: TangentCoords, rows: np.ndarray) -> np.ndarray:
    """c(Z) W for the components of a block of rows of the lift A and
    W = rows*: the one Cayley kernel.  As c(Z) = diag(I, -I) + 2 [-X; I] b [X*, I],
    b = group.b_matrix(t) (_core), it is W + [-2 X b R; 2 (b R - W_bot)],
    R = (rows [X; I])* (_right_factor) and W_bot the last k rows of W: one
    k x k inversion, or none on a lift's kept core, linear in the rows."""
    ks = kalg._KERNELS[t.field]
    rows, X = ks.native(rows), ks.native(t.X.data)
    W = ks.conj_transpose(rows)
    bR = ks.product(_core(ks, t), _right_factor(ks, rows, X))
    W_top, W_bot = W[:len(X)], W[len(X):]  # views of the fresh W: the sum is formed in place
    W_top += ks.scale(ks.product(X, bR), -2.0)
    W_bot += ks.scale(bR - W_bot, 2.0)
    return ks.components(W)


def gamma(t: TangentCoords) -> StiefelPoint:
    """The Stiefel Cayley transform of the tangent vector with coordinates t:
    rho of cayley_block(t), the Cayley kernel on the lift's last k rows
    [beta P] in O(n k^2), 2 [-Xb; b] (beta X + P)* + [beta*; -P*].  The core b
    has every singular value at least 1 (group.b_matrix), so gamma takes no
    tol, and Y, checked when t was built, is not checked again.
    """
    rows = t.lift.A.m.data[t.lift.n - t.lift.k:]
    return StiefelPoint(Mat._trusted(t.field, _cayley_rows(t, rows)))


def gamma_inverse(lift: Lift, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> TangentCoords:
    """Tangent coordinates mapping to y under the Stiefel Cayley transform.

    With [beta*; P*] the conjugate transpose of the lift's last k rows and
    C = pi + P*, X = -(tau - beta*) C^{-1}.  The core is b = (1/2) C D^{-1}
    with D = (beta X + P)* (_right_factor), so Y, the skew-Hermitian part of
    b^{-1} = 2 D C^{-1}, needs no inverse but C^{-1}.  Requires y in the
    Cayley open subset of the lift's base point: C must pass mat_inverse's
    test at tol, which is checked here, after y (kalg._invert).  Taking the
    skew-Hermitian part makes Y exactly skew-Hermitian, so Y is not checked
    again, here or by local_section.

    The lift keeps (y, tol, X, Y, b) of its last success: a call on the same
    y object at an equal tol returns those X and Y with no inversion.  y and
    its data are immutable, and that y and tol passed the checks; a failure
    is never kept.  b, None here, is the core of X and Y, which the first
    transform of these very coordinates forms and keeps (_core), so the
    round trip gamma(gamma_inverse(lift, y)), the section and the homotopy
    at t = 1 on y invert it once between them.  The lift keeps the Mats, not
    the TangentCoords, which would point back to it.
    """
    chart = lift._chart
    if chart is not None and chart[0] is y and chart[1] == tol:
        return TangentCoords._trusted(lift, chart[2], chart[3])
    if (y.n, y.k) != (lift.n, lift.k) or y.field is not lift.field:
        raise ValueError("y must share the lift's shape and base ring")
    kalg._validate_tol(tol)  # a kept chart's tol passed it
    fld, nk = lift.field, lift.n - lift.k
    ks = kalg._KERNELS[fld]
    rows, y_rows = ks.native(lift.A.m.data[nk:]), ks.native(y.m.data)
    W = ks.conj_transpose(rows)
    tau, pi = y_rows[:nk], y_rows[nk:]
    try:
        C_inv = kalg._invert(ks, pi + W[nk:], tol)
    except Singular as exc:
        raise OutsideCayleyOpen(f"pi + P* is singular: {exc}") from exc
    X = -ks.product(tau - W[:nk], C_inv)
    B = ks.scale(ks.product(_right_factor(ks, rows, X), C_inv), 2.0)
    Y = ks.scale(B - ks.conj_transpose(B), 0.5)
    X, Y = Mat._trusted(fld, ks.components(X)), Mat._trusted(fld, ks.components(Y))
    object.__setattr__(lift, "_chart", (y, tol, X, Y, None))  # one tuple: readers see one entry
    return TangentCoords._trusted(lift, X, Y)


def differential_is_injective(t: TangentCoords, tol: float = kalg.DEFAULT_TOL) -> bool:
    """Whether the differential at t is injective: whether (beta X + P)*, the
    factor of gamma and gamma_inverse (_right_factor), is invertible.

    This is also where the transform itself is injective, and the criterion
    does not depend on the choice of lift.
    """
    ks = kalg._KERNELS[t.field]
    D = _right_factor(ks, ks.native(t.lift.A.m.data[t.lift.n - t.lift.k:]), ks.native(t.X.data))
    return kalg.is_invertible(Mat._trusted(t.field, ks.components(D)), tol)


def cayley_block(t: TangentCoords) -> StiefelPoint:
    """The group Cayley transform based at the lift A of the tangent A Z:
    the group element c(Z) A*, the value of group.cayley_at(A, t.ambient_group()).

    The Cayley kernel on all rows of A, a rank-k update of A* in O(n^2 k);
    its last k columns are gamma(t).  On the identity lift of the base frame
    [0; I] it is c(Z).
    """
    return StiefelPoint(Mat._trusted(t.field, _cayley_rows(t, t.lift.A.m.data)))


def local_section(lift: Lift, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Local section of the projection over the Cayley open subset at x:
    cayley_block(gamma_inverse(lift, y, tol)), whose last k columns agree with y.

    On a y the lift has just inverted at tol, the lift's kept coordinates
    serve, and the only inversion is the core b of cayley_block, which the
    lift keeps with them, so a call that follows on those coordinates makes
    none."""
    return cayley_block(gamma_inverse(lift, y, tol))


def contraction(lift: Lift, y: StiefelPoint, t: float,
                tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Contraction homotopy of the Cayley open subset at x.

    H(y, t) = gamma(t gamma_inverse(y)), with k x k inversions only.  tol is the
    test of gamma_inverse on pi + P*; the core I + t^2 X*X + t Y of gamma has every
    singular value at least 1.  H(y, 0) is gamma of the zero tangent, H(y, 1) = y.
    The lift keeps the coordinates of the last y it inverted, so evaluating H
    at several t on one y inverts pi + P* once, and then only the core of each
    t.  At t = 1 the coordinates are the kept ones themselves (scaled), whose
    core the lift keeps too: after local_section or gamma of them, H(y, 1)
    makes no inversion.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("homotopy parameter must lie in [0, 1]")
    return gamma(gamma_inverse(lift, y, tol).scaled(t))


def lift_change_equivariance_check(E: StiefelPoint, t: TangentCoords) -> float:
    """Residual of the lift-change identity for the Stiefel Cayley transform.

    Replacing t's lift A by A * diag(E, I_k), for a group element E of order
    n - k (an (n-k) x (n-k) StiefelPoint), and X by E* X multiplies the
    transform's value by diag(E*, I_k) on the left; this returns the
    Frobenius norm of the difference between the two sides.
    """
    lift = t.lift
    n, nk = lift.n, lift.n - lift.k
    if E.m.shape != (nk, nk):
        raise ValueError(f"E must be {nk} x {nk}: it acts on the first n - k columns")
    # A diag(E, I) and diag(E*, I) gamma(t), formed on the blocks
    AE = StiefelPoint(kalg.hstack(lift.A.m.block(0, n, 0, nk) @ E.m, lift.point.m))
    lhs = gamma(TangentCoords(Lift(lift.point, AE), E.m.H @ t.X, t.Y)).m
    g = gamma(t).m
    rhs = kalg.vstack(E.m.H @ g.block(0, nk, 0, lift.k), g.block(nk, n, 0, lift.k))
    return kalg.frobenius_norm(lhs - rhs)


def _gram_schmidt(field: Field, raw: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on a (S, n, k, ncomp) component stack, on its
    native array.  A projected column that is exactly zero stays zero, and
    fails the frame's x*x = I check."""
    ks = kalg._KERNELS[field]
    raw = ks.native(raw)
    cols: list[np.ndarray] = []
    for j in range(raw.shape[2]):
        # a contiguous copy: BLAS sums a strided column in another order,
        # which would move the last bits of the frames
        v = np.ascontiguousarray(raw[:, :, j:j + 1])
        for u in cols:
            v = v - ks.product(u, ks.product(ks.conj_transpose(u), v))
        norm = kalg._norms(v)
        scale = 1.0 / np.where(norm > 0.0, norm, 1.0)
        cols.append(ks.scale(v, scale.reshape(-1, *[1] * (v.ndim - 1))))
    return ks.components(np.concatenate(cols, axis=2) if cols else raw)


def _random_frames(n: int, k: int, field: Field, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """Components (count, n, k, ncomp) of the next count random frames of rng.

    Frame s is _gram_schmidt of the s-th Gaussian matrix of one
    rng.standard_normal((count, n, k, ncomp)) draw.  A frame more than 1e-12
    off x*x = I, as one pass leaves a few at large k and on nearly dependent
    columns, is orthonormalised once more (Gram-Schmidt run twice: Giraud,
    Langou and Rozloznik, Comput. Math. Appl. 50, 2005), and a frame still
    more than 1e-12 off, such as one with a zero projected column, raises
    NotOrthonormal.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    out = _gram_schmidt(field, rng.standard_normal((count, n, k, field.ncomp)))
    resid = kalg._frame_residuals(field, out)
    loose = ~(resid <= 1e-12)
    if loose.any():
        out[loose] = _gram_schmidt(field, out[loose])
        resid = kalg._frame_residuals(field, out[loose])
        if not np.all(resid <= 1e-12):
            raise NotOrthonormal(f"x*x - I residual {resid.max():.3e} exceeds 1.0e-12")
    return out


def random_stiefel_point(n: int, k: int, field: Field, seed: int) -> StiefelPoint:
    """Random orthonormal frame: Gram-Schmidt applied to a Gaussian matrix,
    twice where once leaves it more than 1e-12 off x*x = I, and checked for
    x*x = I within 1e-12 by _random_frames.

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

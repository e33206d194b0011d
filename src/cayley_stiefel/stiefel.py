"""Cayley transform on the compact Stiefel manifold of orthonormal k-frames.

Implements the projection from the group onto the manifold, frame completion
(lifting), the Stiefel Cayley transform and its inverse, its differential
and injectivity predicates, local sections of the projection, and the
contraction of a Cayley open subset onto a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import group, kalg
from .group import GroupElement, InvalidTangent, SkewBlockTangent
from .kalg import Field, Mat, Singular

POINT_CHECK_TOL = 1e-8


class OutsideCayleyOpen(Exception):
    """Raised when a target point falls outside the Cayley open subset."""


class NotOrthonormal(ValueError):
    """Raised when a frame fails the x*x = I residual check of StiefelPoint."""


class RankDeficient(Exception):
    """Raised when random frame generation keeps hitting rank-deficient draws."""


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a stack, summed as np.linalg.norm sums one."""
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _frame_residuals(field: Field, data: np.ndarray) -> np.ndarray:
    """|x*x - I|_F for each frame x of a (S, n, k, ncomp) component stack."""
    gram = kalg._product(field, kalg._conj_transpose(data), data)
    kalg._shift_diagonal(gram, -1.0)
    return _norms(gram)


@dataclass(frozen=True)
class StiefelPoint:
    """An n x k matrix x with x*x = I_k: an orthonormal k-frame in K^n."""

    m: Mat
    check_tol: float = dc_field(default=POINT_CHECK_TOL, repr=False)

    def __post_init__(self):
        n, k = self.m.shape
        if k > n:
            raise ValueError(f"need k <= n, got n={n}, k={k}")
        resid = _frame_residuals(self.m.field, self.m.data[None])[0]
        if not resid <= self.check_tol:
            raise NotOrthonormal(f"x*x - I residual {resid:.3e} exceeds {self.check_tol:.1e}")

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
    def T(self) -> Mat:
        """Top (n-k) x k block."""
        return self.m.block(0, self.n - self.k, 0, self.k)

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
    checked skew-Hermitian within POINT_CHECK_TOL here, once; the transforms
    that take a TangentCoords trust it.
    """

    lift: Lift
    X: Mat
    Y: Mat

    def __post_init__(self):
        n, k = self.lift.n, self.lift.k
        if self.X.shape != (n - k, k) or self.Y.shape != (k, k):
            raise ValueError("tangent block shapes do not match the lift")
        if not kalg.is_skew_hermitian(self.Y, POINT_CHECK_TOL):
            raise InvalidTangent(f"Y is not skew-Hermitian within {POINT_CHECK_TOL:.1e}")

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

    def ambient(self) -> Mat:
        """The n x k tangent vector v = A [X; Y]."""
        return self.lift.A.m @ kalg.vstack(self.X, self.Y)

    def ambient_group(self) -> Mat:
        """The n x n tangent vector A [[0, X], [-X*, Y]] at A in the group."""
        return self.lift.A.m @ SkewBlockTangent(self.X, self.Y).embed()


def rho(A: GroupElement, k: int) -> StiefelPoint:
    """Projection onto the last k columns of a group element."""
    return StiefelPoint(A.m.block(0, A.n, A.n - k, A.n))


def complete_lift(x: StiefelPoint) -> Lift:
    """Complete a frame x to a group element A with last k columns equal to x.

    Runs n - k projector steps from R = I - x x*: each step takes the column
    of R with the largest norm (ties within 1e-12 go to the lowest index),
    normalises it to u and subtracts u u* from R.  The chosen norm is at
    least sqrt(r/n) for the rank r of R, since the squared column norms of
    a projector sum to its rank.  At the base frame [0; I_k] this yields
    A = I_n exactly.
    """
    n, k = x.n, x.k
    R = kalg.identity(n, x.field) - x.m @ x.m.H
    cols = []
    for _ in range(n - k):
        norms = np.linalg.norm(R.data, axis=(0, 2))
        p = int(np.flatnonzero(norms >= norms.max() - 1e-12)[0])
        u = (1.0 / norms[p]) * R.block(0, n, p, p + 1)
        R = R - u @ u.H
        cols.append(u)
    A = GroupElement(kalg.hstack(*cols, x.m), check_tol=1e-10)
    return Lift(x, A)


def tangent_from_ambient(lift: Lift, v: Mat) -> TangentCoords:
    """Coordinates (X, Y) of an ambient tangent vector v at x, via A*v = [X; Y].

    v is tangent when Y = x*v is skew-Hermitian; the TangentCoords
    constructor tests that within POINT_CHECK_TOL, relative to |Y| and not
    to |v|.  So a mostly horizontal v (|X| >> |Y|) whose Y carries rounding
    of order eps |v| is rejected.
    """
    B = lift.A.m.H @ v
    n, k = lift.n, lift.k
    X = B.block(0, n - k, 0, k)
    Y = B.block(n - k, n, 0, k)
    return TangentCoords(lift, X, Y)


def gamma(t: TangentCoords, tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """The Stiefel Cayley transform of the tangent vector with coordinates t.

    Evaluates 2 [-Xb; b] (beta X + P)* + [beta*; -P*] with
    b = (I + X*X + Y)^{-1}; only a k x k inversion is needed.  Y was checked
    when t was built and is not checked again.
    """
    lift = t.lift
    b = group._b_core(t.X, t.Y, tol)
    right = (lift.beta @ t.X + lift.P).H
    top = -2.0 * ((t.X @ b) @ right) + lift.beta.H
    bot = 2.0 * (b @ right) - lift.P.H
    return StiefelPoint(kalg.vstack(top, bot))


def in_cayley_open(x: StiefelPoint, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> bool:
    """Whether y lies in the Cayley open subset attached to x.

    Membership means pi + P* is invertible, with pi the bottom block of y
    and P the bottom block of x.
    """
    if (x.n, x.k) != (y.n, y.k) or x.field is not y.field:
        raise ValueError("x and y must share shape and base ring")
    return kalg.is_invertible(y.P + x.P.H, tol)


def gamma_inverse(lift: Lift, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> TangentCoords:
    """Tangent coordinates mapping to y under the Stiefel Cayley transform.

    With C = pi + P*, X = -(tau - beta*) C^{-1}.  The core is
    b = (1/2) C D^{-1} with D = (beta X + P)*, so Y, the skew-Hermitian part
    of b^{-1} = 2 D C^{-1}, needs no inverse but C^{-1}.  Requires y in the
    Cayley open subset of the lift's base point.  kalg.skew_hermitian_part
    makes Y exactly skew-Hermitian, so Y is not checked again, here or by
    local_section.
    """
    tau, pi = y.T, y.P
    try:
        C_inv = kalg.mat_inverse(pi + lift.P.H, tol)
    except Singular as exc:
        raise OutsideCayleyOpen(f"pi + P* is singular: {exc}") from exc
    X = -((tau - lift.beta.H) @ C_inv)
    D = (lift.beta @ X + lift.P).H
    Y = kalg.skew_hermitian_part(2.0 * (D @ C_inv))
    return TangentCoords._trusted(lift, X, Y)


def gamma_differential(t: TangentCoords, M: Mat, N: Mat,
                       tol: float = kalg.DEFAULT_TOL) -> Mat:
    """Differential of the Stiefel Cayley transform at t, applied to (M, N).

    With xi = X*M + M*X + N the result is the stacked pair
    (-2MbX* + 2Xb xi bX* - 2XbM*) beta* + (-2Mb + 2Xb xi b) P* on top of
    (-2b xi bX* + 2bM*) beta* - 2b xi b P*.  The direction N is checked
    skew-Hermitian; t.Y was checked when t was built.
    """
    lift = t.lift
    n, k = lift.n, lift.k
    if M.shape != (n - k, k) or N.shape != (k, k):
        raise ValueError("direction block shapes do not match the lift")
    if not kalg.is_skew_hermitian(N, POINT_CHECK_TOL):
        raise InvalidTangent(f"N is not skew-Hermitian within {POINT_CHECK_TOL:.1e}")
    X = t.X
    b = group._b_core(X, t.Y, tol)
    xi = X.H @ M + M.H @ X + N
    bXh = b @ X.H
    xib = xi @ b
    top = (-2.0 * (M @ bXh) + 2.0 * (X @ (b @ (xib @ X.H))) - 2.0 * ((X @ b) @ M.H)) @ lift.beta.H \
        + (-2.0 * (M @ b) + 2.0 * (X @ (b @ xib))) @ lift.P.H
    bot = (-2.0 * (b @ (xib @ X.H)) + 2.0 * (b @ M.H)) @ lift.beta.H \
        - 2.0 * ((b @ xib) @ lift.P.H)
    return kalg.vstack(top, bot)


def differential_is_injective(t: TangentCoords, tol: float = kalg.DEFAULT_TOL) -> bool:
    """Whether the differential at t is injective: invertibility of beta X + P.

    This is also where the transform itself is injective, and the criterion
    does not depend on the choice of lift.
    """
    return kalg.is_invertible(t.lift.beta @ t.X + t.lift.P, tol)


in_injectivity_domain = differential_is_injective


def kernel_witness(t: TangentCoords, tol: float = kalg.DEFAULT_TOL) -> Mat | None:
    """A nonzero skew-Hermitian N with the differential vanishing on (0, N).

    Such an N satisfies N b (beta X + P)* = 0; it is found by solving that
    linear condition over the real components of a skew-Hermitian basis.
    Returns None when no such direction exists (in particular whenever
    beta X + P is invertible, and over R with k = 1 where the only skew
    matrix is zero).
    """
    lift = t.lift
    k = lift.k
    b = group._b_core(t.X, t.Y, tol)
    K = b @ (lift.beta @ t.X + lift.P).H
    basis = kalg.skew_hermitian_basis(k, t.field)
    if not basis:
        return None
    cols = [np.ravel((B @ K).data) for B in basis]
    A = np.stack(cols, axis=1)
    _, s, vt = np.linalg.svd(A)
    if s.size and s[-1] > 1e-10 * max(1.0, s[0]):
        return None
    coeffs = vt[-1]
    N = kalg.zeros(k, k, t.field)
    for c, B in zip(coeffs, basis):
        N = N + float(c) * B
    norm = kalg.frobenius_norm(N)
    if norm == 0.0:
        return None
    return (1.0 / norm) * N


def differential_min_gain(t: TangentCoords, tol: float = kalg.DEFAULT_TOL) -> float:
    """Smallest singular value of the differential over unit tangent directions.

    The differential is assembled as a real linear operator over an
    orthonormal basis of the (M, N) parameter space; the value is the
    least achievable output norm over unit-norm inputs.
    """
    lift = t.lift
    n, k = lift.n, lift.k
    basis_M = kalg.unit_matrix_basis(n - k, k, t.field)
    basis_N = kalg.skew_hermitian_basis(k, t.field)
    zero_M = kalg.zeros(n - k, k, t.field)
    zero_N = kalg.zeros(k, k, t.field)
    cols = [np.ravel(gamma_differential(t, B, zero_N, tol).data) for B in basis_M]
    cols += [np.ravel(gamma_differential(t, zero_M, B, tol).data) for B in basis_N]
    A = np.stack(cols, axis=1)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def local_section(lift: Lift, y: StiefelPoint, tol: float = kalg.DEFAULT_TOL) -> GroupElement:
    """Local section of the projection over the Cayley open subset at x.

    With (X, Y) = gamma_inverse(lift, y), the group Cayley transform based
    at A sends the tangent A Z, Z = [[0, X], [-X*, Y]], to c(Z) A*.  As
    c(Z) = diag(I, -I) + 2 [-X; I] b [X*, I] with b = (I + X*X + Y)^{-1},
    that is the rank-k update A* + [-2X bV*; 2(bV* - x*)] with V = A [X; I],
    O(n^2 k) work.  The last k columns of the result agree with y.
    """
    coords = gamma_inverse(lift, y, tol)
    X = coords.X
    b = group._b_core(X, coords.Y, tol)
    bVh = b @ (lift.A.m @ kalg.vstack(X, kalg.identity(lift.k, lift.field))).H
    update = kalg.vstack(-2.0 * (X @ bVh), 2.0 * (bVh - lift.point.m.H))
    return GroupElement(lift.A.m.H + update)


def contraction(lift: Lift, y: StiefelPoint, t: float,
                tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Contraction homotopy of the Cayley open subset at x.

    H(y, t) = gamma(t gamma_inverse(y)): only k x k matrices are inverted,
    and the core I + t(X*X + Y) of gamma has every singular value at least
    1.  H(y, 0) is the transform of the zero tangent and H(y, 1) = y.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("homotopy parameter must lie in [0, 1]")
    return gamma(gamma_inverse(lift, y, tol).scaled(t), tol)


def lift_change_equivariance_check(lift: Lift, E: GroupElement, t: TangentCoords) -> float:
    """Residual of the lift-change identity for the Stiefel Cayley transform.

    Replacing the lift A by A * diag(E, I_k) multiplies the transform's
    value by diag(E*, I_k) on the left; this returns the Frobenius norm of
    the difference between the two sides.
    """
    n, k = lift.n, lift.k
    if E.n != n - k:
        raise ValueError("E must act on the first n - k columns")
    blk = kalg.vstack(
        kalg.hstack(E.m, kalg.zeros(n - k, k, lift.field)),
        kalg.hstack(kalg.zeros(k, n - k, lift.field), kalg.identity(k, lift.field)),
    )
    AE = GroupElement(lift.A.m @ blk)
    lift_E = Lift(lift.point, AE)
    t_E = TangentCoords(lift_E, E.m.H @ t.X, t.Y)
    lhs = gamma(t_E).m
    blk_star = kalg.vstack(
        kalg.hstack(E.m.H, kalg.zeros(n - k, k, lift.field)),
        kalg.hstack(kalg.zeros(k, n - k, lift.field), kalg.identity(k, lift.field)),
    )
    rhs = blk_star @ gamma(t).m
    return kalg.frobenius_norm(lhs - rhs)


def _random_frames(n: int, k: int, field: Field, seeds: Sequence[int]) -> np.ndarray:
    """Components (S, n, k, ncomp) of the frames random_stiefel_point draws from seeds.

    Each frame is modified Gram-Schmidt applied to the Gaussian matrix that
    kalg.random_gaussian(n, k, field, seed) draws; it runs on the whole
    stack at once.  A draw with a column whose projected norm is below 1e-8
    is redrawn from seed + 1_000_003 * attempt, at most three attempts in
    all.  Every frame is checked for x*x = I within 1e-12.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    nc = field.ncomp
    out = np.empty((len(seeds), n, k, nc))
    todo = np.arange(len(seeds))
    for attempt in range(3):
        if not todo.size:
            break
        raw = np.stack([np.random.default_rng(seeds[i] + 1_000_003 * attempt)
                        .standard_normal((n, k, nc)) for i in todo])
        cols: list[np.ndarray] = []
        full_rank = np.ones(len(todo), dtype=bool)
        for j in range(k):
            # a contiguous copy: BLAS sums a strided column in another order,
            # which would move the last bits of the frames
            v = np.ascontiguousarray(raw[:, :, j:j + 1])
            for u in cols:
                v = v - kalg._product(field, u, kalg._product(field, kalg._conj_transpose(u), v))
            norm = _norms(v)
            full_rank &= norm >= 1e-8
            cols.append((1.0 / np.where(full_rank, norm, 1.0))[:, None, None, None] * v)
        frames = np.concatenate(cols, axis=2) if cols else raw
        out[todo[full_rank]] = frames[full_rank]
        todo = todo[~full_rank]
    if todo.size:
        raise RankDeficient(f"could not draw a full-rank {n}x{k} frame")
    resid = _frame_residuals(field, out)
    if not np.all(resid <= 1e-12):
        raise NotOrthonormal(f"x*x - I residual {resid.max():.3e} exceeds 1.0e-12")
    return out


def random_stiefel_point(n: int, k: int, field: Field, seed: int) -> StiefelPoint:
    """Random orthonormal frame: Gram-Schmidt applied to a Gaussian matrix.

    The S = 1 case of the stacked frame builder that cover.verify_cover uses.
    """
    return StiefelPoint(Mat._trusted(field, _random_frames(n, k, field, [seed])[0]),
                        check_tol=1e-12)


def point_to_json(x: StiefelPoint) -> dict:
    return {"n": x.n, "k": x.k, "matrix": kalg.mat_to_json(x.m)}


def point_from_json(obj: dict) -> StiefelPoint:
    m = kalg.mat_from_json(obj["matrix"])
    if m.shape != (int(obj["n"]), int(obj["k"])):
        raise ValueError("header dimensions disagree with the matrix payload")
    return StiefelPoint(m)


def lift_to_json(lift: Lift) -> dict:
    return {"n": lift.n, "k": lift.k, "point": point_to_json(lift.point),
            "A": kalg.mat_to_json(lift.A.m)}


def lift_from_json(obj: dict) -> Lift:
    point = point_from_json(obj["point"])
    return Lift(point, GroupElement(kalg.mat_from_json(obj["A"])))
